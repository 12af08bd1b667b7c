//! Criterion bench: exclusive vs reader-writer substrates across the
//! YCSB-A/B/C read fractions.
//!
//! The repro CLI's `rw` figure reports tails and thread sweeps; this
//! bench gives the coarse per-op timing view of the same contrast:
//! the upscaledb-like engine (one global tree lock) at 50%, 95% and
//! 100% reads under each substrate. Exclusive locks pay the full
//! serialization cost at every fraction; rw substrates shed it as the
//! read share grows.

use std::sync::Arc;
use std::time::Duration;

use asl_dbsim::upscale::UpscaleDb;
use asl_dbsim::workload::Mix;
use asl_dbsim::{Engine, LockFactory};
use asl_harness::locks::LockSpec;
use asl_harness::runner::run_until_ops;
use asl_harness::scenario::worker_rng;
use asl_locks::plain::{PlainLock, PlainRwLock};
use asl_runtime::Topology;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

struct SpecFactory(LockSpec);
impl LockFactory for SpecFactory {
    fn make(&self) -> Arc<dyn PlainLock> {
        self.0.make_lock()
    }
    fn make_rw(&self) -> Arc<dyn PlainRwLock> {
        self.0.make_rw_lock()
    }
}

fn lineup() -> Vec<(&'static str, LockSpec)> {
    vec![
        ("mcs", LockSpec::Mcs),
        ("libasl-max", LockSpec::asl(None)),
        ("rw-ticket", LockSpec::RwTicket),
        ("bravo-mcs", "bravo-mcs".parse().expect("registry name")),
        ("libasl-rw-max", LockSpec::AslRw { slo_ns: None }),
    ]
}

/// YCSB mixes: (label, read fraction).
const MIXES: [(&str, f64); 3] = [("ycsb-a", 0.5), ("ycsb-b", 0.95), ("ycsb-c", 1.0)];

fn rw_vs_exclusive(c: &mut Criterion) {
    let topo = Topology::apple_m1();
    for (mix_label, frac) in MIXES {
        let mut group = c.benchmark_group(format!("rw_{mix_label}"));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(1200))
            .throughput(Throughput::Elements(1));
        for (label, spec) in lineup() {
            group.bench_function(BenchmarkId::from_parameter(label), |b| {
                b.iter_custom(|iters| {
                    let engine: Arc<dyn Engine> = Arc::new(UpscaleDb::with_mix(
                        &SpecFactory(spec.clone()),
                        Mix::new(frac),
                    ));
                    run_until_ops(
                        &topo,
                        8,
                        iters.max(8),
                        |ctx| worker_rng(ctx.index),
                        |_, rng| {
                            engine.run_request(rng);
                            0
                        },
                    )
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, rw_vs_exclusive);
criterion_main!(benches);
