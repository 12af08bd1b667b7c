//! Figures 1, 4, 5, 8e/8f and 8g: single-lock micro-benchmarks.

use asl_runtime::AtomicAffinity;

use crate::locks::LockSpec;
use crate::report::{fmt_ops, fmt_p99, Table};
use crate::scenario::{MicroScenario, FIG1_LINES, FIG1_NCS_UNITS, FIG4_LINES, FIG8G_LINES};

use super::{run_micro, Profile};

/// Scalability scan shared by Figures 1, 4, 8e/8f and `sec2-numa`:
/// thread counts 1..=8 (big cores first), reporting throughput and
/// overall P99 per lock.
pub(super) fn scalability_scan(
    profile: &Profile,
    id: &str,
    title: &str,
    specs: &[LockSpec],
    lines: usize,
    ncs_units: u64,
) -> Table {
    let mut cols: Vec<String> = vec!["threads".into()];
    for s in specs {
        cols.push(format!("{}_thpt_ops_s", s.label()));
        cols.push(format!("{}_p99_us", s.label()));
    }
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(id, title, &col_refs);
    for threads in 1..=8usize {
        let mut row = vec![threads.to_string()];
        for spec in specs {
            let scenario = MicroScenario::simple(spec, lines, ncs_units);
            let r = run_micro(profile, &scenario, threads);
            row.push(format!("{:.0}", r.throughput));
            row.push(fmt_p99(&r.overall));
            table.push_sample(&spec.label(), threads, r.throughput);
        }
        table.push_row(row);
    }
    table.note(format!(
        "critical section: RMW {lines} shared cache lines; think time {ncs_units} units"
    ));
    table
}

/// Figure 1: MCS vs TAS with *little-core affinity* — both throughput
/// and TAS latency collapse when scaling onto little cores.
pub fn fig1(profile: &Profile) -> Vec<Table> {
    let specs = [LockSpec::Mcs, LockSpec::Tas(AtomicAffinity::little_wins())];
    vec![scalability_scan(
        profile,
        "fig1",
        "throughput & latency collapse on AMP (TAS little-core-affinity)",
        &specs,
        FIG1_LINES,
        FIG1_NCS_UNITS,
    )]
}

/// Figure 4: the same scan when TAS shows *big-core affinity* — TAS
/// throughput now beats MCS but its tail latency still collapses.
pub fn fig4(profile: &Profile) -> Vec<Table> {
    let specs = [LockSpec::Mcs, LockSpec::Tas(AtomicAffinity::big_wins())];
    vec![scalability_scan(
        profile,
        "fig4",
        "TAS with big-core-affinity: higher throughput, collapsed latency",
        &specs,
        FIG4_LINES,
        FIG1_NCS_UNITS,
    )]
}

/// Figure 5: the proportional strawman — every static proportion is
/// one point on a throughput/latency trade-off curve.
pub fn fig5(profile: &Profile) -> Vec<Table> {
    let mut table = Table::new(
        "fig5",
        "static proportions trade throughput against latency",
        &["proportion", "thpt_ops_s", "p99_us"],
    );
    for n in [0u32, 1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 29] {
        let spec = LockSpec::ShflPb(n);
        let scenario = MicroScenario::bench1(&spec);
        let r = run_micro(profile, &scenario, 8);
        table.push_row(vec![
            n.to_string(),
            format!("{:.0}", r.throughput),
            fmt_p99(&r.overall),
        ]);
        table.push_sample(&spec.label(), 8, r.throughput);
    }
    table.note("Bench-1 workload, 8 threads; N = big-core grants per little-core grant");
    vec![table]
}

/// Figures 8e/8f (Bench-4): scalability of LibASL under the Figure-4
/// setup, with SLOs anchored at {MCS-p99-at-8t fractions}.
pub fn fig8ef(profile: &Profile) -> Vec<Table> {
    // Anchor: measured MCS P99 with all 8 cores (the paper's SLO 12us
    // equals the TAS tail latency; 50us is a loose SLO).
    let anchor = {
        let scenario = MicroScenario::simple(&LockSpec::Mcs, FIG4_LINES, FIG1_NCS_UNITS);
        let r = run_micro(profile, &scenario, 8);
        r.overall.percentile(99.0).max(1_000)
    };
    let slo_tight = anchor; // ~ the FIFO tail: barely feasible
    let slo_loose = anchor * 4;
    let specs = [
        LockSpec::Mcs,
        LockSpec::Tas(AtomicAffinity::big_wins()),
        LockSpec::asl(Some(0)),
        LockSpec::asl(Some(slo_tight)),
        LockSpec::asl(Some(slo_loose)),
        LockSpec::asl(None),
    ];
    let mut t = scalability_scan(
        profile,
        "fig8ef",
        "Bench-4 scalability: throughput (8e) and overall tail latency (8f)",
        &specs,
        FIG4_LINES,
        FIG1_NCS_UNITS,
    );
    t.note(format!(
        "SLOs anchored to measured MCS P99 at 8 threads: tight={}us loose={}us",
        slo_tight / 1_000,
        slo_loose / 1_000
    ));
    vec![t]
}

/// Figure 8g (Bench-5): throughput speedup of LibASL-MAX over each
/// baseline across contention levels (think time 10^n units).
pub fn fig8g(profile: &Profile) -> Vec<Table> {
    let baselines: Vec<(String, LockSpec, usize)> = vec![
        ("mcs-4big".into(), LockSpec::Mcs, 4),
        ("tas".into(), LockSpec::Tas(AtomicAffinity::big_wins()), 8),
        ("ticket".into(), LockSpec::Ticket, 8),
        ("mcs".into(), LockSpec::Mcs, 8),
        ("pthread".into(), LockSpec::Pthread, 8),
        ("shfl-pb10".into(), LockSpec::ShflPb(10), 8),
    ];
    let mut cols: Vec<String> = vec!["ncs_units".into(), "libasl_thpt".into()];
    for (name, _, _) in &baselines {
        cols.push(format!("speedup_vs_{name}"));
    }
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "fig8g",
        "LibASL speedup across contention levels (Bench-5)",
        &col_refs,
    );
    for exp in 0..=5u32 {
        let ncs = 10u64.pow(exp);
        let asl = {
            let s = MicroScenario::simple(&LockSpec::asl(None), FIG8G_LINES, ncs);
            run_micro(profile, &s, 8).throughput
        };
        table.push_sample(
            &format!("{}@ncs={ncs}", LockSpec::asl(None).label()),
            8,
            asl,
        );
        let mut row = vec![ncs.to_string(), format!("{asl:.0}")];
        for (_, spec, threads) in &baselines {
            let s = MicroScenario::simple(spec, FIG8G_LINES, ncs);
            let base = run_micro(profile, &s, *threads).throughput;
            row.push(format!("{:.2}", asl / base.max(1.0)));
            table.push_sample(&format!("{}@ncs={ncs}", spec.label()), *threads, base);
        }
        table.push_row(row);
    }
    table.note("LibASL runs with no SLO (maximum reordering); mcs-4big uses only the 4 big cores");
    vec![table]
}

/// Render a bar-figure row for one lock spec (shared with bench1/db
/// figure drivers).
pub fn comparison_row(label: &str, r: &crate::runner::RunResult) -> Vec<String> {
    vec![
        label.to_string(),
        fmt_ops(r.throughput),
        format!("{:.0}", r.throughput),
        fmt_p99(&r.big),
        fmt_p99(&r.little),
        fmt_p99(&r.overall),
    ]
}

/// Column set matching [`comparison_row`].
pub const COMPARISON_COLS: [&str; 6] = [
    "lock",
    "thpt",
    "thpt_ops_s",
    "big_p99_us",
    "little_p99_us",
    "overall_p99_us",
];

/// Render an SLO-sweep row: the SLO the run was given, then the
/// class tails and the throughput (shared with bench1/db figure
/// drivers).
pub(crate) fn slo_sweep_row(slo_ns: u64, r: &crate::runner::RunResult) -> Vec<String> {
    vec![
        format!("{:.1}", slo_ns as f64 / 1_000.0),
        fmt_p99(&r.big),
        fmt_p99(&r.little),
        fmt_p99(&r.overall),
        format!("{:.0}", r.throughput),
    ]
}

/// Column set matching [`slo_sweep_row`].
pub(crate) const SLO_SWEEP_COLS: [&str; 5] = [
    "slo_us",
    "big_p99_us",
    "little_p99_us",
    "overall_p99_us",
    "thpt_ops_s",
];
