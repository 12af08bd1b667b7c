//! The real lock zoo on the simulated machine.
//!
//! Every test here runs *unmodified* `asl-locks`/`asl-core` lock
//! implementations through the cooperative virtual-time engine
//! ([`asl_sim::exec`]) and asserts exact, deterministic properties —
//! no wall-clock noise, no gates on the host's CPU count.

use std::sync::Arc;

use asl_core::AslSpinLock;
use asl_locks::plain::PlainLock;
use asl_locks::shuffle::ClassLocalPolicy;
use asl_locks::{
    BackoffLock, ClhLock, CnaLock, CohortLock, FissileLock, MalthusianLock, McsLock, McsStpLock,
    ProportionalLock, PthreadMutex, ShuffleLock, TasLock, TicketLock,
};
use asl_runtime::{AtomicAffinity, Topology};
use asl_sim::exec::ZooConfig;
use asl_sim::zoo::run_lock;

fn quick(topology: Topology, threads: usize) -> ZooConfig {
    ZooConfig::quick(topology, threads, 42)
}

/// Every lock in the zoo runs unmodified on the modeled machine and
/// makes progress in virtual time.
#[test]
fn whole_zoo_runs_on_the_simulated_machine() {
    let zoo: Vec<(&str, Arc<dyn PlainLock>)> = vec![
        ("tas", Arc::new(TasLock::new())),
        ("ticket", Arc::new(TicketLock::new())),
        ("mcs", Arc::new(McsLock::new())),
        ("clh", Arc::new(ClhLock::new())),
        ("backoff", Arc::new(BackoffLock::new())),
        ("cna", Arc::new(CnaLock::new())),
        ("cohort", Arc::new(CohortLock::new())),
        ("malthusian", Arc::new(MalthusianLock::new())),
        (
            "shfl-local16",
            Arc::new(ShuffleLock::new(ClassLocalPolicy::new(16))),
        ),
        ("adaptive", Arc::new(FissileLock::new())),
        ("pthread", Arc::new(PthreadMutex::new())),
        ("mcs-stp", Arc::new(McsStpLock::new())),
        ("libasl-spin", Arc::new(AslSpinLock::default())),
    ];
    assert!(zoo.len() >= 8, "acceptance floor: eight zoo locks");
    for (name, lock) in zoo {
        let r = run_lock(&quick(Topology::apple_m1(), 4), lock);
        assert!(r.run.total_ops > 0, "{name}: no progress in virtual time");
        assert_eq!(
            r.run.total_ops,
            r.grants.len() as u64,
            "{name}: grant trace out of sync"
        );
        assert_eq!(
            r.run.total_ops,
            r.run.per_worker_ops.iter().sum::<u64>(),
            "{name}: per-thread counts out of sync"
        );
        assert!(
            r.run.virtual_ns >= 300_000,
            "{name}: virtual clock stopped early"
        );
    }
}

/// Same seed ⇒ the entire result — grant-by-grant — is identical.
#[test]
fn same_seed_identical_trace_different_seed_differs() {
    let cfg = quick(Topology::apple_m1(), 6);
    let a = run_lock(&cfg, Arc::new(CnaLock::new()));
    let b = run_lock(&cfg, Arc::new(CnaLock::new()));
    assert_eq!(a, b, "same seed must reproduce the full result");

    let mut other = cfg.clone();
    other.seed = 43;
    let c = run_lock(&other, Arc::new(CnaLock::new()));
    assert_ne!(a.grants, c.grants, "different seed must change the trace");
}

/// Paper §2.2 NUMA comparators: on a two-socket machine whose classes
/// coincide with sockets, CNA and the cohort lock batch consecutive
/// grants within a socket, cutting cross-socket cache-line transfers
/// that FIFO MCS pays on nearly every handoff. All counts are exact.
#[test]
fn cna_and_cohort_batch_within_sockets_on_numa() {
    // numa(2, 8): socket 0 = the Big class, socket 1 = Little, so
    // class-aware batching is exactly socket-aware batching.
    let cfg = || {
        let mut c = quick(Topology::numa(2, 8), 16);
        c.duration_ns = 600_000;
        c
    };
    let mcs = run_lock(&cfg(), Arc::new(McsLock::new()));
    let cna = run_lock(&cfg(), Arc::new(CnaLock::new()));
    let cohort = run_lock(&cfg(), Arc::new(CohortLock::new()));

    assert!(mcs.run.total_ops > 0 && cna.run.total_ops > 0 && cohort.run.total_ops > 0);
    for (name, r) in [("cna", &cna), ("cohort", &cohort)] {
        assert!(
            r.max_class_batch > mcs.max_class_batch,
            "{name}: batch {} not larger than MCS {}",
            r.max_class_batch,
            mcs.max_class_batch
        );
        assert!(
            r.remote_fraction() < mcs.remote_fraction(),
            "{name}: remote fraction {:.2} not below MCS {:.2}",
            r.remote_fraction(),
            mcs.remote_fraction()
        );
    }
    // Long-term fairness is preserved: both classes keep progressing.
    assert!(cna.run.big_ops > 0 && cna.run.little_ops > 0);
    assert!(cohort.run.big_ops > 0 && cohort.run.little_ops > 0);
}

/// Satellite: the cost model, observed end to end through the engine.
/// A machine with a single socket never pays a remote handoff.
#[test]
fn single_socket_machine_has_no_remote_handoffs() {
    let r = run_lock(&quick(Topology::symmetric(4), 4), Arc::new(McsLock::new()));
    assert_eq!(r.handoffs_remote, 0, "one socket cannot go remote");
    assert!(r.handoffs_local > 0, "handoffs must still be charged");
}

/// Satellite: little-core critical sections stretch by `perf_ratio`,
/// so on a 1-big/1-little machine the big thread completes a
/// decisive multiple of the little thread's operations.
#[test]
fn little_core_slowdown_stretches_critical_sections() {
    let mut cfg = quick(Topology::custom(1, 1, 3.0), 2);
    cfg.duration_ns = 600_000;
    let r = run_lock(&cfg, Arc::new(TicketLock::new()));
    let (big, little) = (r.run.per_worker_ops[0], r.run.per_worker_ops[1]);
    assert_eq!((r.run.big_ops, r.run.little_ops), (big, little));
    assert!(little > 0, "little thread must not starve under FIFO");
    // FIFO handover couples the two threads (the big core waits out
    // the little core's stretched CS), so the ops ratio lands between
    // 1 and the raw perf ratio.
    assert!(
        big * 2 >= little * 3,
        "ratio-3 slowdown: big {big} ops vs little {little} ops"
    );
}

/// Oversubscription: parked virtual threads free their core, so a
/// spin-then-park lock outruns a pure spinlock once threads outnumber
/// cores — the classic reason blocking locks exist.
#[test]
fn parking_beats_spinning_when_oversubscribed() {
    // 4 cores, 12 threads: every core is 3x oversubscribed.
    let cfg = || {
        let mut c = quick(Topology::custom(2, 2, 1.0), 12);
        c.duration_ns = 1_000_000;
        c
    };
    let spin = run_lock(&cfg(), Arc::new(McsLock::new()));
    let park = run_lock(&cfg(), Arc::new(McsStpLock::new()));
    assert!(
        park.run.total_ops > spin.run.total_ops,
        "parking {} ops must beat spinning {} ops at 3x oversubscription",
        park.run.total_ops,
        spin.run.total_ops
    );
}

/// Two big and two little cores of equal speed contend for one lock for
/// a virtual millisecond, so the lock's policy alone sets the class
/// split.
fn equal_speed_hammer(cs_units: u64, ncs_units: u64) -> ZooConfig {
    let mut cfg = quick(Topology::custom(2, 2, 1.0), 4);
    cfg.cs_units = cs_units;
    cfg.ncs_units = ncs_units;
    cfg.duration_ns = 1_000_000;
    cfg
}

/// A big-affinity TAS makes a little core pay a penalty after each
/// failed attempt, so the big class takes a clear majority of the
/// acquisitions. The think time matches the section: a TAS releaser
/// whose think time fits in the scheduler's reschedule slack
/// (`CostModel::resched_slack_ns`, plus the lead its polling waiters
/// have built up) re-takes the lock before any waiter runs.
#[test]
fn affinity_biases_acquisition_share() {
    let lock = TasLock::with_affinity(AtomicAffinity::BigWins {
        penalty_units: 2_000,
    });
    let r = run_lock(&equal_speed_hammer(2_000, 2_000), Arc::new(lock));
    assert!(
        r.run.big_ops * 2 > r.run.little_ops * 3,
        "big {} little {}: affinity had no effect",
        r.run.big_ops,
        r.run.little_ops
    );
}

/// A neutral TAS between equal-speed classes does not pick a class.
#[test]
fn neutral_affinity_roughly_fair_classes() {
    let r = run_lock(&equal_speed_hammer(2_000, 2_000), Arc::new(TasLock::new()));
    let (big, little) = (r.run.big_ops, r.run.little_ops);
    assert!(big > 0 && little > 0);
    assert!(
        big.max(little) * 2 < big.min(little) * 3,
        "skewed classes: big {big} little {little}"
    );
}

/// SHFL-PB4 with both classes saturating (no think time) grants the big
/// class four acquisitions for each little one.
#[test]
fn grants_follow_proportion_under_saturation() {
    let r = run_lock(
        &equal_speed_hammer(500, 0),
        Arc::new(ProportionalLock::new(4)),
    );
    let ratio = r.run.big_ops as f64 / r.run.little_ops as f64;
    assert!(
        (3.5..4.5).contains(&ratio),
        "expected 4x big share, got {ratio:.2} (big {} little {})",
        r.run.big_ops,
        r.run.little_ops
    );
}

/// The full LibASL stack — epochs, the SLO window feedback, the
/// reorderable queue — ticks in virtual time and stays deterministic.
#[test]
fn libasl_slo_feedback_runs_in_virtual_time() {
    let mut cfg = quick(Topology::custom(2, 2, 3.0), 4);
    cfg.duration_ns = 600_000;
    cfg.slo_ns = Some(50_000);
    let a = run_lock(&cfg, Arc::new(AslSpinLock::default()));
    let b = run_lock(&cfg, Arc::new(AslSpinLock::default()));
    assert!(a.run.total_ops > 0);
    assert!(
        a.run.big_ops > 0 && a.run.little_ops > 0,
        "both classes must progress under an achievable SLO"
    );
    assert_eq!(a, b, "SLO feedback must be deterministic in virtual time");
}

/// The queue locks grant in the same order, operation for operation,
/// as before their nodes came from the shared pool and their wait word
/// moved behind the tail swap: the simulator charges no store, so any
/// difference in these digests is a behaviour change. Pinned from the
/// commit before that change, under the three fault schedules the
/// torture harness pins (its sweep plan and its two token-lock
/// schedules). The loop's own clock reads go through the decorated
/// clock too, so the first plan's clock jumps also fire on them.
#[test]
fn queue_lock_grant_order_is_pinned_under_faults() {
    use asl_runtime::fault::{FaultPlan, FaultState};

    /// FNV-1a over the grant trace, the operation count and the final
    /// virtual time.
    fn digest(r: &asl_sim::zoo::ZooResult) -> u64 {
        let words = [r.run.total_ops, r.run.virtual_ns];
        let trace = r.grants.iter().map(|&g| u64::from(g));
        words
            .into_iter()
            .chain(trace)
            .fold(0xcbf2_9ce4_8422_2325, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    let plans = [
        FaultPlan::stalls(42, 64, 20_000)
            .with_spurious(8)
            .with_clock_jumps(128, 10_000),
        FaultPlan::stalls(1009, 24, 40_000).with_spurious(8),
        FaultPlan::stalls(2003, 96, 15_000).with_spurious(2),
    ];
    type Make = fn() -> Arc<dyn PlainLock>;
    let zoo: [(&str, Make, [u64; 3]); 7] = [
        (
            "mcs",
            || Arc::new(McsLock::new()),
            [
                0x63b1_36d5_9165_8b44,
                0x8195_c9a2_5c7d_5870,
                0x3c7c_24d0_3e6a_9f6e,
            ],
        ),
        (
            "clh",
            || Arc::new(ClhLock::new()),
            [
                0x63b1_36d5_9165_8b44,
                0x8195_c9a2_5c7d_5870,
                0x3c7c_24d0_3e6a_9f6e,
            ],
        ),
        // Re-pinned when CNA's class scan moved from the releaser to
        // the waiting head (it orders the grant after next).
        (
            "cna",
            || Arc::new(CnaLock::new()),
            [
                0xd4f8_35ef_590e_f6ff,
                0xaadf_10c7_2b9f_21e3,
                0x572f_62fb_9744_a6a1,
            ],
        ),
        (
            "cohort",
            || Arc::new(CohortLock::new()),
            [
                0x0f71_3b27_8e95_61f4,
                0xaadf_10c7_2b9f_21e3,
                0x12b7_894e_d4c6_6a79,
            ],
        ),
        // Re-pinned when culling moved from the releaser to the waiting
        // head (the holder, the head and one more circulate).
        (
            "malthusian",
            || Arc::new(MalthusianLock::new()),
            [
                0x68ac_dde1_7025_1aec,
                0x5d45_c241_7c79_684b,
                0x075b_2769_dc4a_80cc,
            ],
        ),
        (
            "shfl-pb10",
            || Arc::new(ProportionalLock::new(10)),
            [
                0xdb3d_6078_4dc1_8bd6,
                0x9581_682f_b5e3_f281,
                0x3052_483b_97df_482a,
            ],
        ),
        (
            "mcs-stp",
            || Arc::new(McsStpLock::new()),
            [
                0x296c_156e_a58c_5521,
                0x3718_9677_4bca_17d0,
                0x6ab0_dcd3_d83d_0ebb,
            ],
        ),
    ];
    for (name, make, pinned) in zoo {
        let got = plans.clone().map(|plan| {
            let mut cfg = quick(Topology::apple_m1(), 6);
            cfg.seed = plan.seed;
            cfg.fault = Some(FaultState::new(plan));
            let r = run_lock(&cfg, make());
            assert!(r.run.total_ops > 0, "{name}: no progress");
            digest(&r)
        });
        assert_eq!(got, pinned, "{name}: grant digests {got:#x?}");
    }
}
