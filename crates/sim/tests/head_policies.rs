//! The queue-lock ordering policies on the simulated machine.
//!
//! CNA, Malthusian and the shuffle policies each promise a bound on
//! how far they reorder the queue. Here each runs a fixed script in
//! virtual time — every thread a fixed number of acquisitions, one
//! thread a core — with the arrival order taken exactly (no substrate
//! call between drawing an arrival ticket and joining the queue), and
//! the bound is asserted on the grant trace:
//!
//! * CNA: a run of same-class grants while the other class waits is at
//!   most the flush period;
//! * Malthusian: while a culled waiter is passive, one is re-admitted
//!   at least once per reintroduction period;
//! * shuffle: `shfl-local16` never skips the front waiter more than 16
//!   times in a row, and `ProportionalPolicy(10)` grants a waiting
//!   little core at least once in 11 grants;
//! * `adaptive`: arrivals barge past the queue, but never past one
//!   head more than `PATIENCE + threads - 1` times in a row.
//!
//! Every script ends with the lock free, which it cannot be while a
//! waiter sits in a policy's side queue: that queue belongs to the
//! lock's current waiters, so a stranded waiter reads "locked" (and
//! its thread never finishes).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use asl_locks::mcs::PATIENCE;
use asl_locks::shuffle::{ClassLocalPolicy, ProportionalPolicy};
use asl_locks::{CnaLock, FissileLock, MalthusianLock, RawLock, ShuffleLock};
use asl_runtime::work::execute_units;
use asl_runtime::{CoreKind, Topology};
use asl_sim::exec::{run_threads, ZooConfig};

/// CNA's flush period: handovers between two splices of the secondary
/// queue back in front of the main one.
const FLUSH_PERIOD: usize = 256;

/// One grant: who, its arrival ticket, and how many tickets had been
/// drawn when it was granted (every earlier one is an arrival it was
/// granted before or after).
#[derive(Clone, Copy, Debug)]
struct Grant {
    tid: usize,
    arrival: u64,
    drawn: u64,
}

/// `threads` virtual threads on `topology`, `ops` acquisitions each:
/// think `ncs` units, draw a ticket, lock, hold `cs` units, unlock.
/// Returns the grants in order, after checking that nothing is left
/// behind.
fn script<L: RawLock>(
    lock: &L,
    topology: Topology,
    threads: usize,
    ops: usize,
    (cs, ncs): (u64, u64),
) -> Vec<Grant> {
    let mut cfg = ZooConfig::quick(topology, threads, 42);
    cfg.ncs_units = ncs;
    let tickets = AtomicU64::new(0);
    let grants = Mutex::new(Vec::new());
    run_threads(&cfg, |tid| {
        for _ in 0..ops {
            execute_units(ncs);
            let arrival = tickets.fetch_add(1, Ordering::Relaxed);
            let token = lock.lock();
            let drawn = tickets.load(Ordering::Relaxed);
            grants.lock().unwrap().push(Grant {
                tid,
                arrival,
                drawn,
            });
            execute_units(cs);
            lock.unlock(token);
        }
    });
    let grants = grants.into_inner().unwrap();
    assert_eq!(grants.len(), threads * ops, "lost acquisitions");
    assert!(!lock.is_locked(), "a waiter left behind at quiescence");
    let token = lock.try_lock().expect("a free lock's fast path");
    lock.unlock(token);
    grants
}

/// For each grant, the waiters pending when it was made: drawn a
/// ticket, not yet granted, not the grantee (ticket → thread).
fn pending_at(grants: &[Grant]) -> Vec<BTreeMap<u64, usize>> {
    let owner: BTreeMap<u64, usize> = grants.iter().map(|g| (g.arrival, g.tid)).collect();
    let mut pending = BTreeMap::new();
    let mut seen = 0;
    grants
        .iter()
        .map(|g| {
            for t in seen..g.drawn {
                pending.insert(t, owner[&t]);
            }
            seen = seen.max(g.drawn);
            pending.remove(&g.arrival);
            pending.clone()
        })
        .collect()
}

/// Longest run of consecutive grants that each went past the
/// longest-waiting pending waiter.
fn max_front_skips(grants: &[Grant]) -> usize {
    let pending = pending_at(grants);
    let (mut run, mut worst) = (0, 0);
    for (g, waiting) in grants.iter().zip(&pending) {
        let skipped = waiting
            .keys()
            .next()
            .is_some_and(|&front| front < g.arrival);
        run = if skipped { run + 1 } else { 0 };
        worst = worst.max(run);
    }
    worst
}

/// Longest run of consecutive grants to one of the classes `of` while
/// a waiter of the other class was pending at every one of them.
fn max_class_run_past_the_other(grants: &[Grant], of: &[CoreKind]) -> usize {
    let kind = |tid| Topology::apple_m1().assignment_for_thread(tid).kind;
    let pending = pending_at(grants);
    let (mut run, mut class, mut worst) = (0, None, 0);
    for (g, waiting) in grants.iter().zip(&pending) {
        let mine = kind(g.tid);
        let other_waits = waiting.values().any(|&t| kind(t) != mine);
        run = if other_waits && class == Some(mine) {
            run + 1
        } else {
            usize::from(other_waits)
        };
        class = Some(mine);
        if of.contains(&mine) {
            worst = worst.max(run);
        }
    }
    worst
}

/// Longest run of consecutive grants during which an overtaken waiter
/// (one a later arrival was granted before) stayed pending and no
/// overtaken waiter was granted: how long the passive set went without
/// a re-admission.
fn max_passive_gap(grants: &[Grant]) -> usize {
    let pending = pending_at(grants);
    let (mut latest, mut run, mut worst) = (0, 0, 0);
    for (g, waiting) in grants.iter().zip(&pending) {
        let readmitted = g.arrival < latest;
        latest = latest.max(g.arrival);
        let passive = waiting.keys().next().is_some_and(|&t| t < latest);
        run = if readmitted || !passive { 0 } else { run + 1 };
        worst = worst.max(run);
    }
    worst
}

/// The two load shapes every policy runs: a queue that never drains
/// (section twice the think time) and one that often does.
const SHAPES: [(u64, u64); 2] = [(200, 100), (50, 400)];

#[test]
fn cna_same_class_runs_end_within_the_flush_period() {
    for shape in SHAPES {
        let grants = script(&CnaLock::new(), Topology::apple_m1(), 8, 300, shape);
        let run = max_class_run_past_the_other(&grants, &[CoreKind::Big, CoreKind::Little]);
        assert!(
            run <= FLUSH_PERIOD,
            "{shape:?}: {run} grants past the other class"
        );
        // And it batches: FIFO would alternate classes far sooner.
        assert!(run > 16, "{shape:?}: longest same-class run {run}");
    }
}

#[test]
fn malthusian_readmits_a_culled_waiter_within_its_period() {
    // The queue that never drains: culling needs waiters to spare.
    let shape = SHAPES[0];
    for (threads, period) in [(4, 4), (5, 8), (6, 8)] {
        let lock = MalthusianLock::with_period(period);
        let grants = script(&lock, Topology::symmetric(threads), threads, 100, shape);
        let gap = max_passive_gap(&grants);
        let at = format!("{threads} threads, period {period}");
        assert!(max_front_skips(&grants) > 0, "{at}: nobody culled");
        assert!(
            gap < period as usize,
            "{at}: {gap} grants without a re-admission"
        );
    }
}

#[test]
fn shfl_local16_skips_the_front_waiter_at_most_16_times_in_a_row() {
    for shape in SHAPES {
        let lock = ShuffleLock::new(ClassLocalPolicy::new(16));
        let grants = script(&lock, Topology::apple_m1(), 8, 300, shape);
        let skips = max_front_skips(&grants);
        assert!(
            (1..=16).contains(&skips),
            "{shape:?}: {skips} skips in a row"
        );
    }
}

#[test]
fn proportional_10_grants_a_waiting_little_core_once_in_11() {
    for shape in SHAPES {
        let lock = ShuffleLock::new(ProportionalPolicy::new(10));
        let grants = script(&lock, Topology::apple_m1(), 8, 300, shape);
        let big_run = max_class_run_past_the_other(&grants, &[CoreKind::Big]);
        assert!(
            big_run <= 10,
            "{shape:?}: {big_run} big grants past a waiting little core"
        );
    }
}

/// `adaptive` lets arrivals take a free word past the queue, so it
/// skips the front waiter — and the head closes that fast path after
/// [`PATIENCE`] failed polls of the word. The bound is the one the
/// mechanism is built to: a barger keeps the word for a whole critical
/// section, so while sections outlast the head's polls (the first
/// shape: 200 units against a 25–75 ns poll) each skip costs the head
/// a failed poll and it is impatient by its `PATIENCE`th skip; after
/// that only arrivals already past the flag, or ahead of a new head's
/// first poll, can barge — at most one per other thread. The second
/// shape's sections are shorter than a little core's poll, but it
/// thinks eight times as long as it holds, so few arrivals meet a
/// waiting head at all. No front waiter is skipped more than
/// `PATIENCE + threads - 1` times in a row.
#[test]
fn adaptive_barges_until_the_head_is_impatient() {
    let threads = 8;
    let bound = PATIENCE as usize + threads - 1;
    for shape in SHAPES {
        let grants = script(
            &FissileLock::new(),
            Topology::apple_m1(),
            threads,
            300,
            shape,
        );
        let skips = max_front_skips(&grants);
        assert!(
            (1..=bound).contains(&skips),
            "{shape:?}: {skips} skips in a row, bound {bound}"
        );
    }
}
