//! `collapse` — scalability collapse at saturation, bare vs GCR.
//!
//! The headline chart for the concurrency-restriction layer: sweep
//! thread counts through and far past the core count ({2, 8, 32, 128}
//! on the modeled 8-core M1) for representative lock families
//! — TAS (unfair spin), ticket (FIFO spin, the worst collapser: every
//! waiter *must* run in ticket order), MCS (FIFO queue spin), and
//! LibASL-MAX (reordering) — each bare and behind the `gcr-` wrapper.
//!
//! Bare spin locks collapse once runnable threads exceed cores: the
//! holder loses its quantum to waiters who can do nothing with
//! theirs, so throughput falls off a cliff while p99 explodes. The
//! simulator models the quanta (`asl_sim::exec::CostModel`), so the
//! figure shows the collapse instead of suffering it on the host. The
//! GCR wrapper admits a bounded set and parks the rest passively, so
//! its curve stays flat where the bare curve dives — the acceptance
//! bar is gcr ≥ 2× bare at 128 threads for every family
//! (`tests/integration_shapes.rs`).
//!
//! `--out` lands the samples in `BENCH_collapse.json`: per
//! (lock, threads) cell, throughput plus measured p99/p999 full-op
//! latency. This figure is the CI perf gate (`repro diff
//! baselines/BENCH_collapse.json ...`), so keep its cells cheap.

use crate::locks::LockSpec;
use crate::report::{fmt_ops, Table};
use crate::scenario::{MicroScenario, CS_UNITS_PER_LINE, FIG1_LINES};

use super::{run_micro, Profile};

/// Think time between ops. Deliberately short (2x the critical
/// section): collapse is a *contention* phenomenon, so the lock must
/// stay the bottleneck for the admitted set. A think-dominated cell
/// (fig1's 9x) measures the scheduler instead — every lock looks the
/// same once each thread only wants the lock 10% of the time.
const THINK_UNITS: u64 = 2 * FIG1_LINES as u64 * CS_UNITS_PER_LINE;

/// The families swept, bare and wrapped. TAS and ticket are the
/// canonical collapsers; MCS shows queue-lock convoying; LibASL-MAX
/// shows reordering alone does not fix oversubscription.
fn families() -> Vec<LockSpec> {
    vec![
        "tas".parse().expect("tas"),
        LockSpec::Ticket,
        LockSpec::Mcs,
        LockSpec::asl(None),
    ]
}

/// The `collapse` figure: throughput + p99 across the saturation
/// cliff, bare vs `gcr-` for each family.
pub fn collapse(profile: &Profile) -> Vec<Table> {
    let mut table = Table::new(
        "collapse",
        "scalability collapse at threads >> cores: bare locks vs the gcr- admission wrapper",
        &["lock", "threads", "thpt", "thpt_ops_s", "p99_us", "p999_us"],
    );
    for &threads in &[2usize, 8, 32, 128] {
        for family in &families() {
            for wrapped in [false, true] {
                let spec = if wrapped {
                    LockSpec::Gcr(Box::new(family.clone()))
                } else {
                    family.clone()
                };
                // One (lock, threads) cell: the Figure-1 critical
                // section (cache-line RMW + emulated work) with the
                // short think time. Thread counts beyond the topology
                // share cores via the round-robin assignment —
                // exactly the oversubscription this figure is about.
                let scenario = MicroScenario::simple(&spec, FIG1_LINES, THINK_UNITS);
                let out = run_micro(profile, &scenario, threads);
                let thpt = out.throughput;
                let (p99, p999) = (out.overall.p99(), out.overall.p999());
                table.push_row(vec![
                    spec.label(),
                    threads.to_string(),
                    fmt_ops(thpt),
                    format!("{thpt:.0}"),
                    format!("{:.1}", p99 as f64 / 1_000.0),
                    format!("{:.1}", p999 as f64 / 1_000.0),
                ]);
                table.push_latency_sample(&spec.label(), threads, thpt, p99, p999);
            }
        }
    }
    table.note("cores = 8; 32- and 128-thread cells are oversubscribed (50 us scheduling quanta)");
    table.note("gcr- wrappers admit a bounded set into the inner lock and park the rest passively");
    table.note("p99/p999 are full-op latencies (lock + CS + release), measured per op");
    vec![table]
}
