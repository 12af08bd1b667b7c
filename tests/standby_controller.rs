//! The two halves of the reorder layer's standby, held to their rules
//! with no clock but a scripted one:
//!
//! * the **window controller** (`libasl::epoch`) on synthetic latency
//!   streams — `latency = base + window + seeded noise` — must keep its
//!   stationary miss share under the `(100 − PCT) %` it is allowed but
//!   not timidly far under, at every SLO scale;
//! * the **spinning standby** (`libasl::core::SpinWait`) under a
//!   counting substrate must notice a freed lock within one poll, and
//!   its deadline's reads must not depend on the host — nor may the
//!   timed acquires' (`TicketLock`, `McsLock`), which check their
//!   deadlines through the same `clock::Deadline`.
//!
//! Everything runs on a test thread with an installed
//! [`Substrate`] whose clock the test sets, so every number below is
//! exact and the file runs in milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libasl::core::wait::WaitOutcome;
use libasl::core::{SpinWait, WaitPolicy};
use libasl::epoch;
use libasl::locks::{McsLock, RawTimedLock, TicketLock};
use libasl::runtime::registry::unregister;
use libasl::runtime::substrate::{self, Substrate};
use libasl::runtime::topology::CoreId;
use libasl::runtime::{register_on_core, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A clock the test sets, and counters of what the code under test
/// asked of the substrate.
#[derive(Default)]
struct Scripted {
    now: AtomicU64,
    clock_reads: AtomicU64,
    polls: AtomicU64,
}

/// Virtual ns a poll advances the scripted clock by.
const POLL_NS: u64 = 25;

impl Substrate for Scripted {
    fn now_ns(&self) -> u64 {
        self.clock_reads.fetch_add(1, Ordering::Relaxed);
        self.now.load(Ordering::Relaxed)
    }
    fn relax(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.now.fetch_add(POLL_NS, Ordering::Relaxed);
    }
    fn busy_wait_ns(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
    fn sleep_ns(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
    fn park(&self) {}
    fn charge_work_units(&self, units: u64) {
        self.now.fetch_add(units, Ordering::Relaxed);
    }
}

/// Run `f` on this thread registered on core `core` of the M1-like
/// machine (0–3 big, 4–7 little) with a fresh scripted substrate.
fn scripted_on<R>(core: usize, f: impl FnOnce(&Scripted) -> R) -> R {
    let sub = Arc::new(Scripted::default());
    register_on_core(&Topology::apple_m1(), CoreId(core));
    let guard = substrate::install(sub.clone());
    epoch::reset_thread_epochs();
    let r = f(&sub);
    drop(guard);
    unregister();
    r
}

const EPOCH: usize = 5;

/// One epoch of exactly `latency` scripted ns against `slo`.
fn epoch_of(sub: &Scripted, latency: u64, slo: u64) {
    epoch::epoch_start(EPOCH);
    sub.now.fetch_add(latency, Ordering::Relaxed);
    epoch::epoch_end(EPOCH, slo);
}

/// What the synthetic stream measured once warm.
struct Stationary {
    miss_share: f64,
    median_window: u64,
}

/// Drive the controller with `latency = slo/3 + window + noise`, noise
/// uniform in `0..slo/6` plus, once in 500 epochs, a stall of a whole
/// SLO that no window could have avoided. The first `warm` epochs
/// (the descent from the 10 µs default) are not counted.
fn stationary(sub: &Scripted, slo: u64, seed: u64) -> Stationary {
    let (warm, counted) = (30_000u64, 200_000u64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut misses = 0u64;
    let mut windows = Vec::with_capacity(counted as usize);
    for i in 0..warm + counted {
        let window = epoch::epoch_meta(EPOCH).window;
        let stall = if rng.gen_range(0..500) == 0 { slo } else { 0 };
        let latency = slo / 3 + window + rng.gen_range(0..slo / 6) + stall;
        epoch_of(sub, latency, slo);
        if i >= warm {
            misses += u64::from(latency > slo);
            windows.push(window);
        }
    }
    windows.sort_unstable();
    Stationary {
        miss_share: misses as f64 / counted as f64,
        median_window: windows[windows.len() / 2],
    }
}

#[test]
fn miss_share_sits_under_the_target_at_every_slo_scale() {
    // 9 µs is the scale the old rule failed at: its 100 ns growth
    // floor was 3x the 1 % unit of a ~3 µs window (3.9 % misses here).
    for (slo, seed) in [(9_000u64, 1u64), (60_000, 2), (300_000, 3)] {
        let s = scripted_on(5, |sub| stationary(sub, slo, seed));
        assert!(
            s.miss_share > 0.003 && s.miss_share <= 0.010,
            "SLO {slo} ns: {:.3} % of epochs missed (window median {} ns); \
             PCT = 99 allows 1 %, and under 0.3 % is window left unused",
            100.0 * s.miss_share,
            s.median_window
        );
        // It saws between 3/4 and 1 x the slack the stream's slowest
        // ordinary epochs leave: SLO - SLO/3 - SLO/6 = SLO/2.
        assert!(
            s.median_window > slo * 3 / 8 && s.median_window <= slo / 2,
            "SLO {slo} ns: median window {} ns",
            s.median_window
        );
    }
}

#[test]
fn a_collapsed_window_recovers_within_a_stated_number_of_hits() {
    let slo = 60_000;
    scripted_on(5, |sub| {
        let steady = stationary(sub, slo, 5).median_window;
        // Collapse: a long run of misses.
        for _ in 0..200 {
            epoch_of(sub, 2 * slo, slo);
        }
        let floor = epoch::epoch_meta(EPOCH).window;
        assert!(floor <= 3, "collapsed to {floor} ns");
        // Recover on hits alone: one nanosecond a hit for the first
        // microsecond (0.19 % of less rounds to under 2 ns), then
        // 0.19 % a hit — ln(steady/2 / 1 059) / 0.00189 more.
        let mut hits = 0u32;
        while epoch::epoch_meta(EPOCH).window < steady / 2 {
            epoch_of(sub, 1, slo);
            hits += 1;
            assert!(
                hits < 10_000,
                "stuck at {}",
                epoch::epoch_meta(EPOCH).window
            );
        }
        assert!(
            hits <= 3_000,
            "{hits} hits from {floor} ns to {} ns",
            steady / 2
        );
    });
}

#[test]
fn a_big_core_never_adjusts() {
    scripted_on(0, |sub| {
        epoch::set_epoch_window(EPOCH, 4_096);
        for i in 0..1_000u64 {
            // Hits and misses alike.
            epoch_of(sub, 1 + (i % 3) * 10_000, 10_000);
        }
        assert_eq!(epoch::epoch_meta(EPOCH).window, 4_096);
    });
}

/// `SpinWait` against a lock that is freed during poll `k`, with a
/// deadline far away. Returns (outcome, probes made, polls spent).
fn standby_until_freed(sub: &Scripted, k: u64) -> (WaitOutcome, u64, u64) {
    let probes = AtomicU64::new(0);
    let out = SpinWait.standby_wait(u64::MAX, &|| {
        probes.fetch_add(1, Ordering::Relaxed);
        sub.polls.load(Ordering::Relaxed) >= k
    });
    (
        out,
        probes.load(Ordering::Relaxed),
        sub.polls.load(Ordering::Relaxed),
    )
}

#[test]
fn a_freed_lock_is_entered_within_one_poll() {
    for k in [1u64, 7, 100, 5_000] {
        let (out, probes, polls) = scripted_on(5, |sub| standby_until_freed(sub, k));
        assert_eq!(out, WaitOutcome::ObservedFree);
        // Algorithm 1's doubling gap would have noticed at poll 1, 8,
        // 128, 8 192.
        assert!(
            polls <= k + 1,
            "freed at poll {k}, entered at poll {polls} ({probes} probes)"
        );
    }
}

#[test]
fn an_expired_window_costs_one_clock_read_and_no_probe() {
    scripted_on(5, |sub| {
        sub.now.store(1_000, Ordering::Relaxed);
        let out = SpinWait.standby_wait(1_000, &|| panic!("probed an expired window"));
        assert_eq!(out, WaitOutcome::WindowExpired);
        assert_eq!(sub.clock_reads.load(Ordering::Relaxed), 1);
        assert_eq!(sub.polls.load(Ordering::Relaxed), 0);
    });
}

/// Polls and clock reads a deadline exactly 40 polls away costs under
/// the scripted clock: reads on the first two checks, then one per 16
/// polls, then the one that lands on the deadline.
const WINDOW_POLLS: u64 = 40;
const WINDOW_COST: (u64, u64) = (WINDOW_POLLS, 5);

#[test]
fn the_standby_deadline_cadence_under_a_substrate_is_host_independent() {
    // A deadline check is a charged clock read in the simulator, so
    // how often one happens must not follow the host-thread rule —
    // `relax::yields_every_poll()`, answered once per process from the
    // first asker's affinity mask: a read on every check on a one-CPU
    // host. Whichever this process answered, a window of exactly `n`
    // polls costs the same reads and ends on the poll it expires at.
    let host_rule = libasl::runtime::relax::yields_every_poll();
    scripted_on(5, |sub| {
        let out = SpinWait.standby_wait(WINDOW_POLLS * POLL_NS, &|| false);
        assert_eq!(out, WaitOutcome::WindowExpired);
        assert_eq!(
            (
                sub.polls.load(Ordering::Relaxed),
                sub.clock_reads.load(Ordering::Relaxed)
            ),
            WINDOW_COST,
            "(polls, clock reads) with yields_every_poll() = {host_rule}"
        );
    });
}

/// A timed acquire of `lock`, held by this thread, with a deadline
/// exactly `n` polls away. Returns (polls, clock reads) it cost.
fn timed_on_held<L: RawTimedLock>(lock: &L, n: u64) -> (u64, u64) {
    scripted_on(5, |sub| {
        let token = lock.lock();
        assert!(lock.try_lock_until(n * POLL_NS).is_none(), "held");
        lock.unlock(token);
        (
            sub.polls.load(Ordering::Relaxed),
            sub.clock_reads.load(Ordering::Relaxed),
        )
    })
}

#[test]
fn the_ticket_timed_acquire_paces_its_deadline_like_the_standby() {
    // The same rule as the standby's, whatever `yields_every_poll()`
    // answered.
    let host_rule = libasl::runtime::relax::yields_every_poll();
    assert_eq!(
        timed_on_held(&TicketLock::new(), WINDOW_POLLS),
        WINDOW_COST,
        "ticket: (polls, clock reads) with yields_every_poll() = {host_rule}"
    );
}

#[test]
fn the_mcs_timed_acquire_paces_its_deadline_like_the_standby() {
    let host_rule = libasl::runtime::relax::yields_every_poll();
    assert_eq!(
        timed_on_held(&McsLock::new(), WINDOW_POLLS),
        WINDOW_COST,
        "mcs: (polls, clock reads) with yields_every_poll() = {host_rule}"
    );
}
