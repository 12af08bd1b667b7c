//! Experiments beyond the paper's plotted figures that reproduce its
//! *claims*:
//!
//! * `sec2-numa` — §2.2 asserts (without a figure) that NUMA-aware /
//!   long-term-fair locks collapse on AMP exactly like MCS once
//!   little cores join. We run CNA, cohort, Malthusian and the
//!   shuffle framework's class-local policy through the Figure-1 scan
//!   to show it.
//! * `sec5-delegation` — §5 argues delegation locks can hide slow
//!   little cores by executing every critical section on a big core,
//!   at the cost of burning that core at low contention. We compare
//!   flat combining and a dedicated big-core server (`RclLock::serve`
//!   on core 0) against MCS and LibASL-MAX at high and low
//!   contention.

use asl_locks::delegation::DelegationHandle;
use asl_locks::{FlatCombiner, RclLock};
use asl_runtime::clock::now_ns;
use asl_runtime::topology::Topology;
use asl_runtime::work::execute_units;

use crate::locks::LockSpec;
use crate::report::{fmt_ops, fmt_p99, Table};
use crate::runner::RunResult;
use crate::scenario::{MicroScenario, FIG1_LINES, FIG1_NCS_UNITS};

use super::delegation::{delegated_section, drive_delegated, drive_rcl, BASE_UNITS};
use super::micro::scalability_scan;
use super::{run_micro, Profile};

/// §2.2: the NUMA-lock lineup on the Figure-1 workload. All the
/// fairness-preserving designs should track MCS's throughput collapse
/// past 4 threads, while LibASL-MAX holds its 4-thread throughput.
pub fn sec2_numa(profile: &Profile) -> Vec<Table> {
    let specs = [
        LockSpec::Mcs,
        LockSpec::Cna,
        LockSpec::Cohort,
        LockSpec::Malthusian(None),
        LockSpec::ShuffleClassLocal { max_skips: 16 },
        LockSpec::asl(None),
    ];
    let mut table = scalability_scan(
        profile,
        "sec2-numa",
        "NUMA-aware and long-term-fair locks collapse on AMP (§2.2 claim)",
        &specs,
        FIG1_LINES,
        FIG1_NCS_UNITS,
    );
    table.note("Figure-1 workload; big/little classes play the NUMA nodes");
    vec![table]
}

/// One timed delegated op (a whole Figure-1 critical section)
/// followed by `ncs_units` of think time.
fn timed_apply<H: DelegationHandle<Op = u64>>(handle: &H, ncs_units: u64) -> u64 {
    let t0 = now_ns();
    handle.apply(BASE_UNITS);
    let lat = now_ns() - t0;
    execute_units(ncs_units);
    lat
}

/// §5: delegation vs LibASL at high and low contention.
pub fn sec5_delegation(profile: &Profile) -> Vec<Table> {
    let topo = Topology::apple_m1();
    let mut table = Table::new(
        "sec5-delegation",
        "delegation comparators (§5): big-core server helps under contention, wastes a core otherwise",
        &["contention", "structure", "thpt", "thpt_ops_s", "p99_us"],
    );
    // High contention: Figure-1 think time; low contention: 100x it.
    for (label, ncs) in [("high", FIG1_NCS_UNITS), ("low", FIG1_NCS_UNITS * 100)] {
        let mut row = |structure: String, r: &RunResult| {
            table.push_row(vec![
                label.into(),
                structure,
                fmt_ops(r.throughput),
                format!("{:.0}", r.throughput),
                fmt_p99(&r.overall),
            ]);
        };
        // The section runs on the *executor's* core: a big-core
        // server hides little-core slowness; a little-core combiner
        // slows everyone down. Classic flat combining first: any of
        // the 8 workers may combine.
        let fc = FlatCombiner::new((), delegated_section());
        row(
            "flat-combining".into(),
            &drive_delegated(profile, &topo, &fc, 8, |h, _| timed_apply(h, ncs)),
        );
        // A server spinning on big core 0; clients use cores 1..=7
        // (3 big + 4 little).
        let rcl = RclLock::new((), delegated_section());
        row(
            "delegation-server".into(),
            &drive_rcl(profile, &topo, &rcl, 7, |h, _| timed_apply(h, ncs)),
        );
        for spec in [LockSpec::Mcs, LockSpec::asl(None)] {
            let scenario = MicroScenario::simple(&spec, FIG1_LINES, ncs);
            row(spec.label(), &run_micro(profile, &scenario, 8));
        }
    }
    table.note("server config: dedicated big core 0 + 7 clients; others use all 8 cores");
    table.note("delegation executes every CS at executor speed; conversion cost not modeled");
    vec![table]
}
