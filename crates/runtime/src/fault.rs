//! Deterministic fault injection at the substrate seam.
//!
//! Every lock in the workspace funnels its platform interactions —
//! clock reads, spin polls, parks, emulated work — through
//! [`crate::substrate`]. That seam is exactly where the failure modes
//! that break locking protocols live: a holder preempted mid-handover
//! is a *stall at a poll boundary*, a lost-wakeup bug is exposed by a
//! *spurious park return*, a reorder-window miscalculation by a
//! *coarse-clock jump*. [`FaultInjector`] is a substrate decorator
//! that injects those faults into the **unmodified** lock
//! implementations, driven by a replayable [`FaultPlan`].
//!
//! # Determinism
//!
//! Fault decisions are pure functions of `(plan.seed, event class,
//! event index)` — no wall clock, no OS randomness. Event indices are
//! process-wide atomic counters shared by every injector handle built
//! from one [`FaultState`]:
//!
//! * Under the deterministic simulator (`asl-sim`), exactly one
//!   virtual thread runs at a time, so the counter interleaving — and
//!   therefore the entire fault schedule — is a pure function of the
//!   seed. Replaying a seed replays the faults event-for-event.
//! * Over real OS threads the *rate* and the planned panic indices
//!   are still deterministic, but which thread draws which event index
//!   depends on the scheduler. That is the intended torture mode:
//!   seeded pressure, not a replayable trace.
//!
//! # Wiring
//!
//! [`crate::substrate::install`] refuses to stack substrates, so the
//! injector *wraps* the backend rather than installing on top of it:
//! [`FaultInjector::wrapping`] decorates an existing handle (the
//! simulator's per-vthread handle), [`FaultInjector::over_os`]
//! decorates the OS default (no inner handle; hooks fall through to
//! real clock/park/work implementations). Either way the injector is
//! what gets installed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::substrate::{self, Substrate, SubstrateGuard};

/// Event classes, hashed into the fault decision so each fault kind
/// draws an independent deterministic sequence from one seed.
const CLASS_POLL: u64 = 0x706f6c6c; // "poll"
const CLASS_WAKE: u64 = 0x77616b65; // "wake"
const CLASS_PARK: u64 = 0x7061726b; // "park"
const CLASS_CLOCK: u64 = 0x636c6f63; // "cloc"

/// How long the OS-backed injector parks when no simulator is
/// underneath: short enough that a deliberately-dropped wakeup turns
/// into bounded lateness (spurious-return pressure), long enough not
/// to burn the core.
const OS_PARK_BOUND: Duration = Duration::from_millis(1);

/// A seeded, replayable fault schedule.
///
/// A `period` of 0 disables that fault class; a period of `p` fires
/// it on roughly one in `p` events of the class, at seed-determined
/// indices (see the module docs for the determinism contract).
/// `panic_ops` is exact, not probabilistic: the listed critical-
/// section op indices (as counted by [`FaultState::on_critical_op`])
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-class fault sequences.
    pub seed: u64,
    /// Fire a stall on ~1/`stall_period` spin polls (0 = off).
    pub stall_period: u64,
    /// Fire a stall on ~1/`wake_stall_period` park *returns* — a
    /// delayed wakeup (0 = off).
    pub wake_stall_period: u64,
    /// Stall length in (virtual or real) nanoseconds.
    pub stall_ns: u64,
    /// Return spuriously from ~1/`spurious_period` parks (0 = off).
    pub spurious_period: u64,
    /// Jump the clock forward on ~1/`clock_jump_period` clock reads
    /// (0 = off).
    pub clock_jump_period: u64,
    /// Clock jump size in nanoseconds. Jumps accumulate; the clock
    /// stays monotonic (it only ever runs *fast*).
    pub clock_jump_ns: u64,
    /// Critical-section op indices that panic (exact, sorted or not).
    pub panic_ops: Vec<u64>,
}

impl FaultPlan {
    /// A plan with every fault class disabled: the injector becomes a
    /// pass-through decorator (useful as a baseline and in tests).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            stall_period: 0,
            wake_stall_period: 0,
            stall_ns: 0,
            spurious_period: 0,
            clock_jump_period: 0,
            clock_jump_ns: 0,
            panic_ops: Vec::new(),
        }
    }

    /// Holder-preemption pressure: stall `stall_ns` on ~1/`period`
    /// spin polls and park returns.
    pub fn stalls(seed: u64, period: u64, stall_ns: u64) -> Self {
        FaultPlan {
            stall_period: period,
            wake_stall_period: period,
            stall_ns,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Add spurious park returns on ~1/`period` parks.
    pub fn with_spurious(mut self, period: u64) -> Self {
        self.spurious_period = period;
        self
    }

    /// Add forward clock jumps of `jump_ns` on ~1/`period` reads.
    pub fn with_clock_jumps(mut self, period: u64, jump_ns: u64) -> Self {
        self.clock_jump_period = period;
        self.clock_jump_ns = jump_ns;
        self
    }

    /// Panic at critical-section op index `op` (see
    /// [`FaultState::on_critical_op`]).
    pub fn with_panic_at(mut self, op: u64) -> Self {
        self.panic_ops.push(op);
        self
    }

    /// One-line human/machine-readable schedule description, stable
    /// across runs — the torture harness writes this into its fault-
    /// schedule artifact so a CI failure replays locally byte-for-
    /// byte.
    pub fn describe(&self) -> String {
        format!(
            "seed={} stall=1/{}x{}ns wake-stall=1/{} spurious=1/{} \
             clock-jump=1/{}x{}ns panic-ops={:?}",
            self.seed,
            self.stall_period,
            self.stall_ns,
            self.wake_stall_period,
            self.spurious_period,
            self.clock_jump_period,
            self.clock_jump_ns,
            self.panic_ops,
        )
    }
}

/// SplitMix64 finalizer: the deterministic hash behind every fault
/// decision.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Does fault class `class` fire on its `n`-th event under `seed`?
/// Pure; ~1/`period` of indices fire, at seed-dependent positions.
fn fires(seed: u64, class: u64, n: u64, period: u64) -> bool {
    match period {
        0 => false,
        1 => true,
        p => splitmix64(seed ^ class.wrapping_mul(0x9E3779B97F4A7C15) ^ n) % p == 0,
    }
}

/// Counters injected so far, for oracle reports and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Stalls injected at poll boundaries.
    pub poll_stalls: u64,
    /// Stalls injected at park-return (wake) boundaries.
    pub wake_stalls: u64,
    /// Spurious park returns injected.
    pub spurious_wakes: u64,
    /// Forward clock jumps injected.
    pub clock_jumps: u64,
    /// Planned critical-section panics raised.
    pub panics: u64,
    /// Total spin polls observed.
    pub polls: u64,
    /// Total parks observed.
    pub parks: u64,
    /// Total clock reads observed.
    pub clock_reads: u64,
    /// Total critical-section ops observed.
    pub ops: u64,
}

/// Shared state behind a fault schedule: the plan plus the event
/// counters every per-thread [`FaultInjector`] handle advances.
///
/// One `FaultState` spans one torture bout; build per-thread
/// injectors from clones of the same `Arc` so the whole bout draws
/// from a single deterministic event sequence.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    polls: AtomicU64,
    parks: AtomicU64,
    clock_reads: AtomicU64,
    ops: AtomicU64,
    clock_offset_ns: AtomicU64,
    poll_stalls: AtomicU64,
    wake_stalls: AtomicU64,
    spurious_wakes: AtomicU64,
    clock_jumps: AtomicU64,
    panics: AtomicU64,
}

impl FaultState {
    /// Fresh state (all counters zero) for `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultState {
            plan,
            polls: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            clock_reads: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            clock_offset_ns: AtomicU64::new(0),
            poll_stalls: AtomicU64::new(0),
            wake_stalls: AtomicU64::new(0),
            spurious_wakes: AtomicU64::new(0),
            clock_jumps: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        })
    }

    /// The driving plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of everything observed and injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            poll_stalls: self.poll_stalls.load(Ordering::Relaxed),
            wake_stalls: self.wake_stalls.load(Ordering::Relaxed),
            spurious_wakes: self.spurious_wakes.load(Ordering::Relaxed),
            clock_jumps: self.clock_jumps.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            clock_reads: self.clock_reads.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
        }
    }

    /// Critical-section op hook: workloads call this once per op
    /// *inside* the critical section. Returns the op's global index;
    /// **panics** if the plan names that index in `panic_ops` — the
    /// point is to verify the lock's unwind path (guard drop,
    /// combiner isolation) releases or passes on the lock.
    pub fn on_critical_op(&self) -> u64 {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.plan.panic_ops.contains(&n) {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("fault injection: planned panic at critical-section op {n}");
        }
        n
    }
}

/// Substrate decorator injecting the faults of a [`FaultPlan`].
///
/// Install one per thread (they share a [`FaultState`]); see the
/// module docs for why this wraps the backend instead of stacking on
/// it. With no inner handle every hook falls through to the real OS
/// implementation (real clock via [`crate::clock::os_now_ns`], real
/// bounded park, real emulated work) — so the decorated thread
/// behaves like an ordinary OS thread plus faults.
pub struct FaultInjector {
    state: Arc<FaultState>,
    inner: Option<Arc<dyn Substrate>>,
}

impl FaultInjector {
    /// Decorate the OS default backend.
    pub fn over_os(state: Arc<FaultState>) -> Self {
        FaultInjector { state, inner: None }
    }

    /// Decorate an existing substrate handle (e.g. the simulator's
    /// per-vthread handle).
    pub fn wrapping(state: Arc<FaultState>, inner: Arc<dyn Substrate>) -> Self {
        FaultInjector {
            state,
            inner: Some(inner),
        }
    }

    /// Convenience: build an OS-backed injector and install it on the
    /// calling thread.
    pub fn install_over_os(state: &Arc<FaultState>) -> SubstrateGuard {
        substrate::install(Arc::new(FaultInjector::over_os(state.clone())))
    }

    /// Backend clock, bypassing the public dispatch (which would
    /// recurse into this injector).
    fn base_now(&self) -> u64 {
        match &self.inner {
            Some(s) => s.now_ns(),
            None => crate::clock::os_now_ns(),
        }
    }

    /// Inject one stall of `plan.stall_ns`.
    fn stall(&self) {
        let ns = self.state.plan.stall_ns;
        match &self.inner {
            Some(s) => s.busy_wait_ns(ns),
            None => {
                // Model the stalled thread as preempted (off-core), so
                // yield rather than burn the CPU other threads need to
                // make the progress the stall is meant to expose.
                let end = crate::clock::os_now_ns().saturating_add(ns);
                while crate::clock::os_now_ns() < end {
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl Substrate for FaultInjector {
    fn now_ns(&self) -> u64 {
        let st = &self.state;
        let n = st.clock_reads.fetch_add(1, Ordering::Relaxed);
        if fires(st.plan.seed, CLASS_CLOCK, n, st.plan.clock_jump_period) {
            st.clock_offset_ns
                .fetch_add(st.plan.clock_jump_ns, Ordering::Relaxed);
            st.clock_jumps.fetch_add(1, Ordering::Relaxed);
        }
        // The offset only grows, so the decorated clock stays
        // monotonic — it just runs fast across jumps, which is what
        // shakes deadline and window arithmetic.
        self.base_now()
            .saturating_add(st.clock_offset_ns.load(Ordering::Relaxed))
    }

    fn relax(&self) {
        let st = &self.state;
        let n = st.polls.fetch_add(1, Ordering::Relaxed);
        if fires(st.plan.seed, CLASS_POLL, n, st.plan.stall_period) {
            st.poll_stalls.fetch_add(1, Ordering::Relaxed);
            self.stall();
        }
        match &self.inner {
            Some(s) => s.relax(),
            None => std::thread::yield_now(),
        }
    }

    fn busy_wait_ns(&self, ns: u64) {
        match &self.inner {
            Some(s) => s.busy_wait_ns(ns),
            None => {
                let end = crate::clock::os_now_ns().saturating_add(ns);
                while crate::clock::os_now_ns() < end {
                    std::thread::yield_now();
                }
            }
        }
    }

    fn sleep_ns(&self, ns: u64) {
        match &self.inner {
            Some(s) => s.sleep_ns(ns),
            None => std::thread::sleep(Duration::from_nanos(ns)),
        }
    }

    fn park(&self) {
        let st = &self.state;
        let n = st.parks.fetch_add(1, Ordering::Relaxed);
        if fires(st.plan.seed, CLASS_PARK, n, st.plan.spurious_period) {
            // Spurious return: the park contract allows it, so every
            // caller must survive one. Those that don't lose wakeups.
            st.spurious_wakes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match &self.inner {
            Some(s) => s.park(),
            // Bounded: a wakeup this injector's faults caused to be
            // missed must surface as lateness, not a hang.
            None => std::thread::park_timeout(OS_PARK_BOUND),
        }
        if fires(st.plan.seed, CLASS_WAKE, n, st.plan.wake_stall_period) {
            // Delayed wake processing: the thread was woken but sits
            // on the decision for a while — the window where a
            // handover to it goes stale.
            st.wake_stalls.fetch_add(1, Ordering::Relaxed);
            self.stall();
        }
    }

    fn charge_work_units(&self, units: u64) {
        match &self.inner {
            Some(s) => s.charge_work_units(units),
            None => crate::work::run_raw_loop(units),
        }
    }

    fn core_count(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|s| s.core_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        let seed = 7;
        let period = 16;
        let a: Vec<bool> = (0..4096)
            .map(|n| fires(seed, CLASS_POLL, n, period))
            .collect();
        let b: Vec<bool> = (0..4096)
            .map(|n| fires(seed, CLASS_POLL, n, period))
            .collect();
        assert_eq!(a, b, "same (seed, class, index) must replay exactly");
        let hits = a.iter().filter(|&&x| x).count();
        // ~1/16 of 4096 = 256; allow a wide band, but it must fire and
        // must not fire always.
        assert!((64..=1024).contains(&hits), "hits={hits}");
        // A different class under the same seed draws a different
        // sequence.
        let c: Vec<bool> = (0..4096)
            .map(|n| fires(seed, CLASS_PARK, n, period))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn period_edge_cases() {
        assert!(!fires(1, CLASS_POLL, 0, 0), "period 0 is off");
        assert!(fires(1, CLASS_POLL, 0, 1), "period 1 always fires");
        assert!(fires(1, CLASS_POLL, 9999, 1));
    }

    #[test]
    fn quiet_plan_is_a_pass_through() {
        let state = FaultState::new(FaultPlan::quiet(3));
        let _g = FaultInjector::install_over_os(&state);
        let a = crate::clock::now_ns();
        let b = crate::clock::now_ns();
        assert!(b >= a, "decorated clock must stay monotonic");
        let mut parked = false;
        substrate::park_or(|| parked = true);
        assert!(!parked, "injector must intercept the park");
        drop(_g);
        let s = state.stats();
        assert_eq!(s.clock_reads, 2);
        assert_eq!(s.parks, 1);
        assert_eq!(
            (
                s.poll_stalls,
                s.wake_stalls,
                s.spurious_wakes,
                s.clock_jumps
            ),
            (0, 0, 0, 0),
            "quiet plan injects nothing"
        );
    }

    #[test]
    fn clock_jumps_accumulate_and_stay_monotonic() {
        let state = FaultState::new(
            FaultPlan::quiet(11).with_clock_jumps(1, 1_000_000), // every read
        );
        let _g = FaultInjector::install_over_os(&state);
        let mut last = 0u64;
        for _ in 0..8 {
            let t = crate::clock::now_ns();
            assert!(t >= last);
            last = t;
        }
        drop(_g);
        let s = state.stats();
        assert_eq!(s.clock_jumps, 8);
        // 8 jumps of 1ms each: the decorated clock ran at least 8ms
        // fast relative to a fresh OS reading started at the same
        // anchor.
        assert!(last >= crate::clock::os_now_ns().saturating_sub(1) + 7_000_000);
    }

    #[test]
    fn spurious_park_returns_immediately() {
        let state = FaultState::new(FaultPlan::quiet(5).with_spurious(1));
        let _g = FaultInjector::install_over_os(&state);
        let t0 = crate::clock::os_now_ns();
        for _ in 0..100 {
            substrate::park_or(|| unreachable!("injector intercepts parks"));
        }
        let dt = crate::clock::os_now_ns() - t0;
        drop(_g);
        assert_eq!(state.stats().spurious_wakes, 100);
        // 100 real bounded parks would take >= 100ms; spurious returns
        // are immediate.
        assert!(dt < 50_000_000, "parks were not spurious: {dt}ns");
    }

    #[test]
    fn planned_panic_fires_at_exact_index_and_is_catchable() {
        let state = FaultState::new(FaultPlan::quiet(1).with_panic_at(2));
        assert_eq!(state.on_critical_op(), 0);
        assert_eq!(state.on_critical_op(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.on_critical_op();
        }));
        assert!(r.is_err(), "op index 2 must panic");
        assert_eq!(state.stats().panics, 1);
        // The counter advanced past the panicking op.
        assert_eq!(state.on_critical_op(), 3);
    }

    #[test]
    fn describe_is_stable() {
        let p = FaultPlan::stalls(42, 8, 500)
            .with_spurious(4)
            .with_clock_jumps(16, 2_000)
            .with_panic_at(10);
        assert_eq!(p.describe(), p.clone().describe());
        assert!(p.describe().contains("seed=42"));
        assert!(p.describe().contains("panic-ops=[10]"));
    }
}
