//! `repro rw` — the read-mostly scaling figure: exclusive vs
//! reader-writer substrates across YCSB read fractions.
//!
//! The paper's database evaluation (and our Fig. 9/10 drivers) funnel
//! every request through exclusive locks, which makes the read-mostly
//! YCSB-B/C mixes degenerate: 95%–100% of operations serialize on
//! locks they only need shared. This figure quantifies what the
//! reader-writer layer buys: the upscaledb-like engine (one global
//! tree lock — the sharpest exclusive-vs-shared contrast in Table 1)
//! swept over read fraction ∈ {0.5, 0.95, 1.0} × thread count, under
//! exclusive baselines (`mcs`, `libasl-max`) and the three rw
//! substrates (`rw-ticket`, `bravo-mcs`, `libasl-rw-max`).
//!
//! Expected shape: at YCSB-A (50% writes) the substrates are close —
//! writer drains dominate; as the read fraction grows the rw locks
//! pull away, and at YCSB-C the exclusive locks flatline with thread
//! count while the rw locks keep scaling.

use std::sync::Arc;

use asl_dbsim::upscale::UpscaleDb;
use asl_dbsim::workload::Mix;
use asl_runtime::Topology;

use crate::locks::LockSpec;
use crate::report::{fmt_p99, Table};

use super::db::run_engine_point;
use super::Profile;

/// YCSB read fractions swept (A, B, C).
const READ_FRACTIONS: [f64; 3] = [0.5, 0.95, 1.0];

/// Thread counts swept (on the 8-core M1-like topology).
const THREADS: [usize; 3] = [2, 4, 8];

fn competitors() -> Vec<LockSpec> {
    vec![
        LockSpec::Mcs,
        LockSpec::asl(None),
        LockSpec::RwTicket,
        "bravo-mcs".parse().expect("registry name"),
        LockSpec::AslRw { slo_ns: None },
    ]
}

fn run_point(
    profile: &Profile,
    spec: &LockSpec,
    mix: Mix,
    threads: usize,
) -> crate::runner::RunResult {
    let engine = Arc::new(UpscaleDb::with_mix(spec, mix));
    run_engine_point(profile, Topology::apple_m1(), engine, spec, threads)
}

/// The `rw` figure driver: one table, a row per
/// lock × read-fraction × thread-count point.
pub fn rw(profile: &Profile) -> Vec<Table> {
    let mut table = Table::new(
        "rw",
        "read-mostly scaling: exclusive vs reader-writer locks (upscaledb)",
        &[
            "lock",
            "read_frac",
            "threads",
            "thpt_ops_s",
            "overall_p99_us",
            "little_p99_us",
        ],
    );
    for spec in competitors() {
        for &frac in &READ_FRACTIONS {
            for &threads in &THREADS {
                let r = run_point(profile, &spec, Mix::new(frac), threads);
                table.push_row(vec![
                    spec.label(),
                    format!("{frac:.2}"),
                    threads.to_string(),
                    format!("{:.0}", r.throughput),
                    fmt_p99(&r.overall),
                    fmt_p99(&r.little),
                ]);
                table.push_sample(
                    &format!("{}@rf={frac:.2}", spec.label()),
                    threads,
                    r.throughput,
                );
            }
        }
    }
    table.note(
        "Op::Read takes shared guards: rw substrates overlap reads, exclusive \
         substrates serialize them (YCSB-B/C = 95%/100% reads)"
            .to_string(),
    );
    let labels =
        asl_dbsim::Engine::lock_labels(&UpscaleDb::with_mix(&LockSpec::Mcs, Mix::ycsb_a()))
            .join(", ");
    table.note(format!(
        "engine locks (telemetry labels under --profile): {labels}"
    ));
    vec![table]
}
