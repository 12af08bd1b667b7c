//! Criterion benches regenerating the paper's database figures
//! (Fig. 9: Kyoto Cabinet, upscaledb, LMDB; Fig. 10: LevelDB,
//! SQLite). Time per request on each engine under representative
//! locks.

use std::sync::Arc;
use std::time::Duration;

use asl_dbsim::{kyoto::Kyoto, leveldb::LevelDb, lmdb::Lmdb, sqlite::Sqlite, upscale::UpscaleDb};
use asl_dbsim::{Engine, LockFactory};
use asl_harness::locks::LockSpec;
use asl_harness::runner::run_until_ops;
use asl_harness::scenario::worker_rng;
use asl_locks::plain::PlainLock;
use asl_runtime::{AtomicAffinity, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

struct SpecFactory(LockSpec);
impl LockFactory for SpecFactory {
    fn make(&self) -> Arc<dyn PlainLock> {
        self.0.make_lock()
    }
}

fn lock_lineup(affinity: AtomicAffinity) -> Vec<(&'static str, LockSpec)> {
    vec![
        ("mcs", LockSpec::Mcs),
        ("tas", LockSpec::Tas(affinity)),
        ("shfl-pb10", LockSpec::ShflPb(10)),
        ("libasl-300us", LockSpec::asl(Some(300_000))),
        ("libasl-max", LockSpec::asl(None)),
    ]
}

fn bench_engine(
    c: &mut Criterion,
    group_name: &str,
    affinity: AtomicAffinity,
    make: impl Fn(&dyn LockFactory) -> Arc<dyn Engine>,
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
        .throughput(Throughput::Elements(1));
    let topo = Topology::apple_m1();
    for (label, spec) in lock_lineup(affinity) {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_custom(|iters| {
                let engine = make(&SpecFactory(spec.clone()));
                let slo = spec.epoch_slo();
                run_until_ops(
                    &topo,
                    8,
                    iters.max(8),
                    |ctx| worker_rng(ctx.index),
                    |_, rng| match slo {
                        Some(slo) => {
                            asl_core::epoch::with_epoch_timed(0, slo, || engine.run_request(rng)).1
                        }
                        None => {
                            engine.run_request(rng);
                            0
                        }
                    },
                )
            });
        });
    }
    group.finish();
}

fn fig9_kyoto(c: &mut Criterion) {
    bench_engine(c, "fig9_kyoto", AtomicAffinity::big_wins(), |f| {
        Arc::new(Kyoto::with_default_size(f))
    });
}

fn fig9_upscale(c: &mut Criterion) {
    bench_engine(c, "fig9_upscale", AtomicAffinity::big_wins(), |f| {
        Arc::new(UpscaleDb::new(f))
    });
}

fn fig9_lmdb(c: &mut Criterion) {
    bench_engine(c, "fig9_lmdb", AtomicAffinity::big_wins(), |f| {
        Arc::new(Lmdb::new(f))
    });
}

fn fig10_leveldb(c: &mut Criterion) {
    bench_engine(c, "fig10_leveldb", AtomicAffinity::big_wins(), |f| {
        Arc::new(LevelDb::with_default_size(f))
    });
}

fn fig10_sqlite(c: &mut Criterion) {
    bench_engine(c, "fig10_sqlite", AtomicAffinity::little_wins(), |f| {
        Arc::new(Sqlite::with_default_size(f))
    });
}

criterion_group!(
    benches,
    fig9_kyoto,
    fig9_upscale,
    fig9_lmdb,
    fig10_leveldb,
    fig10_sqlite
);
criterion_main!(benches);
