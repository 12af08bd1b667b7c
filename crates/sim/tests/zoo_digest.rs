//! The whole [`ZooResult`] of the simulator's standard workload, pinned.
//!
//! `zoo.rs` pins the grant order under faults; this pins every other
//! field too — the per-class latency cells, the max waits, the hand-off
//! counts derived from the grant trace, the final virtual time (which
//! carries the hand-off charge) and the length of every window trace —
//! on a fault-free two-socket machine. A digest that moves is a change
//! of behaviour or of accounting.
//!
//! A binary of its own: it turns window-trace recording on, a
//! process-wide flag that would otherwise flip under `zoo.rs`'s
//! determinism checks.

use std::sync::Arc;

use asl_core::{AslBlockingLock, AslSpinLock};
use asl_locks::plain::PlainLock;
use asl_locks::McsLock;
use asl_runtime::topology::CoreKind;
use asl_runtime::Topology;
use asl_sim::exec::ZooConfig;
use asl_sim::zoo::{run_lock, ZooResult};

/// FNV-1a over every field of `r`, window traces by length, in a
/// fixed order (the pins are over these words); `big[t]` is thread
/// `t`'s class.
fn digest(r: &ZooResult, big: &[bool]) -> u64 {
    let run = &r.run;
    let words = [
        run.total_ops,
        run.big_ops,
        run.little_ops,
        run.throughput.to_bits(),
        run.big.percentile(50.0),
        run.big.percentile(99.0),
        run.little.percentile(50.0),
        run.little.percentile(99.0),
        run.overall.percentile(99.0),
        run.big.max(),
        run.little.max(),
        r.handoffs_local,
        r.handoffs_remote,
        r.max_class_batch,
        run.virtual_ns,
    ];
    let per_thread = run
        .per_worker_ops
        .iter()
        .zip(big)
        .flat_map(|(&ops, &big)| [ops, u64::from(big)]);
    let grants = r.grants.iter().map(|&g| u64::from(g));
    let traces = run.window_traces.iter().map(|t| t.len() as u64);
    words
        .into_iter()
        .chain(per_thread)
        .chain(grants)
        .chain(traces)
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn the_whole_result_is_pinned() {
    asl_locks::telemetry::set_recording(true);
    let mcs = ZooConfig::quick(Topology::numa(2, 4), 8, 42);
    let slo = ZooConfig {
        slo_ns: Some(50_000),
        ..mcs.clone()
    };
    let cells: [(&str, ZooConfig, Arc<dyn PlainLock>, u64); 3] = [
        ("mcs", mcs, Arc::new(McsLock::new()), 0xd429_1ccb_570e_2740),
        (
            "libasl-spin",
            slo.clone(),
            Arc::new(AslSpinLock::default()),
            0x9660_6da6_526d_3c13,
        ),
        // The futex mutex under the `SleepWait` standby: the blocking
        // configuration's park and `nanosleep` paths.
        (
            "libasl-blk",
            slo,
            Arc::new(AslBlockingLock::new_blocking()),
            0xf156_3437_b1f7_25c7,
        ),
    ];
    for (name, cfg, lock, pinned) in cells {
        let r = run_lock(&cfg, lock);
        let big: Vec<bool> = (0..cfg.threads)
            .map(|t| cfg.topology.assignment_for_thread(t).kind == CoreKind::Big)
            .collect();
        let d = digest(&r, &big);
        assert_eq!(d, pinned, "{name}: digest {d:#x} of {r:?}");
        // The SLO cell's little threads record a trajectory, so the
        // digest covers a non-empty trace.
        let traced = r.run.window_traces.iter().filter(|t| !t.is_empty()).count();
        assert_eq!(traced, if cfg.slo_ns.is_some() { 4 } else { 0 }, "{name}");
    }
    asl_locks::telemetry::set_recording(false);
}
