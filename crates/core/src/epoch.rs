//! Epoch annotation and the SLO feedback loop (after paper Algorithm 2).
//!
//! An *epoch* is an application-designated latency-critical span —
//! typically one request-handling procedure — identified by a small
//! static id. Each thread keeps, per epoch id, a reorder window and
//! the epoch's start timestamp. On a little core [`epoch_end`] compares
//! the measured latency against the caller-supplied SLO and moves the
//! window (big cores never stand by, so theirs is never consulted and
//! an epoch there measures nothing — see below):
//!
//! * **miss** (`latency > SLO`): `window -= window / 4`;
//! * **hit**: `window += max(1, window · g)`, clamped to the configured
//!   maximum, with `g = p / (4 · (1 − p))` and
//!   `p = 0.75 · (100 − PCT) %` — 0.19 % of the window at PCT = 99.
//!
//! This is the stochastic-approximation quantile tracker: the window
//! drifts up while misses are rarer than `p` and down while they are
//! more frequent, so the PCT-th percentile of the latency settles just
//! inside the SLO. Both steps are fractions of the window, so the miss
//! share is the same at *every* window scale, with no step-size
//! parameter and no floor. The price is a geometric climb: a window
//! doubles in ~370 hits, and a collapsed one gains 1 ns a hit for its
//! first microsecond.
//!
//! # Departure from Algorithm 2, and the measurement behind it
//!
//! The paper halves the window on a violation, then grows it by a
//! `unit` of `(100 − PCT) %` of the *reduced* window; this module used
//! to, with a 100 ns floor under the unit so a collapsed window could
//! recover. That floor **is** the unit whenever the window is under
//! 10 µs — always, on the `amp-db` benchmark's 9–22 µs-SLO engines —
//! so those windows grew up to 3× faster than Algorithm 2 says: 1.8 %
//! of little-core epochs missed where PCT = 99 allows 1 % (kyoto
//! 2.7 %, leveldb 2.9 %), little p99 ÷ SLO 1.040. A 10 ns floor alone
//! gave 0.84 % and 1.0025 — the floor, not the additive shape, was the
//! overshoot — and the rest needs the aim *below* 1 %, hence the 0.75.
//!
//! While `asl_locks::telemetry::recording` is on (`repro --profile`),
//! every little-core `epoch_end` that takes a controller step also
//! appends a [`WindowSample`] to a per-thread buffer that
//! [`take_window_trace`] drains.
//!
//! Nesting is supported with a per-thread stack; `epoch_end` of an
//! inner epoch restores the outer epoch as current (the paper's
//! "LibASL always prioritizes the inner epoch").
//!
//! Everything here is thread-local: no synchronization on the epoch
//! path. The paper measures ~93 cycles for the pair of epoch calls;
//! ours, on a big core, is inline: a dozen thread-local loads and
//! **two stores** — the open epoch's id, set by `epoch_start` and
//! cleared by `epoch_end` — and reads as nothing around an uncontended
//! lock on the reference host (`host-acquire`: `libasl_epoch` 9.1 ns
//! beside `libasl_max` 9.1). As two out-of-line calls the pair read
//! 1.6 ns around the two-RMW MCS of the time, most of it hidden behind
//! the release RMW; around a lock that releases with a store nothing
//! hides it — 10.6 to 12.4 ns on that rung, run to run — hence the
//! inline halves of `Hot::start` / `Hot::end`. The id, window and
//! start sit in const-initialised `Cell`s, and the 128-entry table and
//! the nesting stack behind them are touched only when a thread
//! changes epoch id or nests. **On a little core only**, add two
//! [`now_ns`] reads (one cycle-counter read each where the host has a
//! trusted one — see [`asl_runtime::clock`]; 16 virtual ns the pair on
//! the modeled machine, `core.epoch_vns`) and the two stores of the
//! entry they produce (start, then window).
//!
//! The store count is the point, not a detail. `epoch_start` used to
//! rewrite the 24-byte cached entry on every call, with the values it
//! already held on a big core (`start == UNTIMED`, `used`); those
//! stores were still in the store buffer when the lock's acquire RMW
//! issued, and an x86 RMW waits for the buffer to drain — ≈ 1.5 ns a
//! pending store (the rule on `asl_locks::telemetry::TelemetryCell`).
//! The pair cost 8.6 ns that way, none of it call overhead (inlining
//! `start`/`end` moved nothing then). Now `start` writes the entry only
//! when it changes: never, from a big core's second epoch on an id.
//!
//! # A big core reads no clock
//!
//! The two timestamps exist to feed the window controller, and a
//! big-core thread has no window to control: it never stands by, and
//! `epoch_end` has always left its window alone. So on a big core (an
//! unregistered thread included) [`epoch_start`], [`epoch_end`] and
//! [`with_epoch`] keep the nesting state and read no clock; the start
//! is marked [`UNTIMED`] and raw `epoch_end` returns `0`, meaning *not
//! measured here*. [`with_epoch_timed`], whose caller asked for a
//! latency, still returns a real one on every core: on a big core it
//! brackets the epoch with two reads of its own, on a little core it
//! reuses the epoch's. An epoch opened untimed and closed on a little
//! core (the thread migrated in between) takes no controller step:
//! there is no latency to judge it by.

use std::cell::{Cell, RefCell};

use asl_locks::telemetry;
use asl_runtime::clock::now_ns;
use asl_runtime::registry::is_big_core;

use crate::config;

/// Number of distinct epoch ids usable per thread.
pub const MAX_EPOCHS: usize = 128;

/// Per-epoch, per-thread metadata (paper's `epoch_t`, less its unit).
#[derive(Debug, Clone, Copy)]
pub struct EpochMeta {
    /// Current reorder window (ns).
    pub window: u64,
    /// Timestamp of the last `epoch_start` (ns), or [`UNTIMED`] when
    /// that was on a big core.
    pub start: u64,
    /// Whether this id has been used on this thread yet.
    pub used: bool,
}

impl EpochMeta {
    fn fresh() -> Self {
        EpochMeta {
            window: config::DEFAULT_WINDOW_NS,
            start: 0,
            used: false,
        }
    }
}

/// [`EpochMeta::start`] of an epoch opened on a big core, where no
/// clock is read. Not a time any clock returns.
pub const UNTIMED: u64 = u64::MAX;

/// Stationary miss probability aimed at, in percent of the allowed
/// `(100 − PCT) %`: under it, so the percentile lands inside the SLO.
const AIM_PCT: u64 = 75;

/// A miss cuts `1 / MISS_CUT` of the window.
const MISS_CUT: u64 = 4;

/// The window after an epoch that missed (or met) its SLO.
fn next_window(window: u64, missed: bool) -> u64 {
    if missed {
        return window - window / MISS_CUT;
    }
    // Aim p, in 1/10 000: p · window / MISS_CUT = (1 − p) · step.
    let p = AIM_PCT * (100 - u64::from(config::pct()));
    let step = window.saturating_mul(p) / (MISS_CUT * (10_000 - p));
    let grown = window.saturating_add(step.max(1));
    grown.min(config::max_window_ns())
}

/// One little-core `epoch_end`, as [`take_window_trace`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Epoch id.
    pub epoch: usize,
    /// When the epoch ended (ns, the clock `epoch_end` read).
    pub end_ns: u64,
    /// Measured epoch latency (ns).
    pub latency_ns: u64,
    /// The reorder window after the controller's step (ns).
    pub window_ns: u64,
}

/// Samples a thread keeps between two [`take_window_trace`] calls
/// (8 MiB), so an armed gate nobody drains costs bounded memory.
const WINDOW_TRACE_CAP: usize = 1 << 18;

/// The hot side of a thread's epoch state: what one un-nested
/// `epoch_start` / lock / `epoch_end` round on a repeating id reads
/// and writes. No lazy initialisation, no destructor, no borrow flag.
///
/// `slot` names the table entry whose metadata currently lives in
/// `meta` instead of in [`Cold::table`] (a one-entry write-back
/// cache; -1 = none). Invariant: while an epoch is open (`cur >= 0`)
/// it is the cached one (`slot == cur`).
struct Hot {
    /// Currently open epoch id, or -1 (paper's `cur_epoch_id`).
    cur: Cell<i32>,
    /// Length of [`Cold::stack`], so an un-nested `epoch_end` need not
    /// look.
    depth: Cell<u32>,
    slot: Cell<i32>,
    meta: Cell<EpochMeta>,
}

/// The cold side: every epoch id's metadata but the cached one, and
/// the stack of outer epochs (paper's `epoch_stack`).
struct Cold {
    table: Box<[EpochMeta; MAX_EPOCHS]>,
    stack: Vec<i32>,
}

impl Cold {
    fn new() -> Self {
        Cold {
            table: Box::new([EpochMeta::fresh(); MAX_EPOCHS]),
            stack: Vec::with_capacity(8),
        }
    }
}

thread_local! {
    static HOT: Hot = const {
        Hot {
            cur: Cell::new(-1),
            depth: Cell::new(0),
            slot: Cell::new(-1),
            meta: Cell::new(EpochMeta { window: 0, start: 0, used: false }),
        }
    };
    static COLD: RefCell<Cold> = RefCell::new(Cold::new());
    static WINDOW_TRACE: RefCell<Vec<WindowSample>> = const { RefCell::new(Vec::new()) };
}

// The bodies of `epoch_start` / `epoch_end` are methods, not closures
// handed to `LocalKey::with`: a closure this size keeps `with` from
// being inlined, and the un-inlined `with` reaches the thread-local
// through an indirect call.
impl Hot {
    /// The big-core half, inline: an un-nested epoch on the cached id,
    /// already marked [`UNTIMED`], is one store — what `start_slow`
    /// would do, without the call.
    #[inline]
    fn start(&self, id: usize) {
        let m = self.meta.get();
        let repeat = self.cur.get() < 0 && self.slot.get() == id as i32;
        if repeat && is_big_core() && m.start == UNTIMED && m.used {
            self.cur.set(id as i32);
        } else {
            self.start_slow(id);
        }
    }

    #[inline(never)]
    fn start_slow(&self, id: usize) {
        if self.cur.get() >= 0 {
            self.push_outer(self.cur.get());
        }
        self.cur.set(id as i32);
        let mut m = self.load(id);
        let start = if is_big_core() { UNTIMED } else { now_ns() };
        // A big core's epochs all start the same: from the second one
        // on, the cached entry already reads what would be written, and
        // `cur` above stays the only store of this call (no store
        // before the RMW — see the module docs).
        if m.start != start || !m.used {
            m.start = start;
            m.used = true;
            self.meta.set(m);
        }
    }

    /// Close epoch `id`; the measured latency, or 0 where none was.
    /// Inline, the big-core half again: nothing to judge, no outer
    /// epoch to restore, one store.
    #[inline]
    fn end(&self, id: usize, slo_ns: u64) -> u64 {
        if self.depth.get() == 0 && is_big_core() {
            self.cur.set(-1);
            return 0;
        }
        self.end_slow(id, slo_ns)
    }

    #[inline(never)]
    fn end_slow(&self, id: usize, slo_ns: u64) -> u64 {
        let mut latency = 0;
        if !is_big_core() {
            let mut m = self.load(id);
            // Opened on a big core, closed here: nothing to judge.
            if m.start != UNTIMED {
                let end = now_ns();
                latency = end.saturating_sub(m.start);
                m.window = next_window(m.window, latency > slo_ns);
                self.meta.set(m);
                if telemetry::recording() {
                    record_window(id, end, latency, m.window);
                }
            }
        }
        if self.depth.get() == 0 {
            self.cur.set(-1);
        } else {
            self.pop_outer();
        }
        latency
    }

    /// Metadata of epoch `id`, through the cache.
    #[inline]
    fn load(&self, id: usize) -> EpochMeta {
        if self.slot.get() != id as i32 {
            self.switch_slot(id as i32);
        }
        self.meta.get()
    }

    /// Write the cached entry back and cache entry `id` (-1: none).
    #[cold]
    fn switch_slot(&self, id: i32) {
        COLD.with(|c| {
            let mut c = c.borrow_mut();
            if let Ok(old) = usize::try_from(self.slot.get()) {
                c.table[old] = self.meta.get();
            }
            if let Ok(new) = usize::try_from(id) {
                self.meta.set(c.table[new]);
            }
        });
        self.slot.set(id);
    }

    #[cold]
    fn push_outer(&self, outer: i32) {
        COLD.with(|c| c.borrow_mut().stack.push(outer));
        self.depth.set(self.depth.get() + 1);
    }

    /// Back to the enclosing epoch, which becomes the cached one.
    #[cold]
    fn pop_outer(&self) {
        let outer = COLD.with(|c| c.borrow_mut().stack.pop()).unwrap_or(-1);
        self.depth.set(self.depth.get() - 1);
        self.cur.set(outer);
        if outer >= 0 {
            self.switch_slot(outer);
        }
    }
}

#[cold]
fn record_window(epoch: usize, end_ns: u64, latency_ns: u64, window_ns: u64) {
    WINDOW_TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if t.len() < WINDOW_TRACE_CAP {
            t.push(WindowSample {
                epoch,
                end_ns,
                latency_ns,
                window_ns,
            });
        }
    });
}

/// Drain this thread's controller trajectory, oldest first: every
/// [`WindowSample`] since the last call (or [`reset_thread_epochs`]).
pub fn take_window_trace() -> Vec<WindowSample> {
    WINDOW_TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Begin epoch `id` on this thread (paper `epoch_start`).
///
/// Pushes any currently open epoch onto the nesting stack.
///
/// # Panics
/// Panics if `id >= MAX_EPOCHS`.
#[inline]
pub fn epoch_start(id: usize) {
    assert!(id < MAX_EPOCHS, "epoch id {id} out of range");
    HOT.with(|h| h.start(id));
}

/// End epoch `id` with the given latency SLO in nanoseconds (paper
/// `epoch_end`). Returns the measured epoch latency (ns) on a little
/// core, and `0` — *not measured here* — on a big core or for an epoch
/// that was opened on one; use [`with_epoch_timed`] for a latency on
/// every core.
///
/// On big cores the window is left untouched (big cores never stand
/// by) and no clock is read, but nesting state is still maintained.
///
/// # Panics
/// Panics if `id >= MAX_EPOCHS`.
#[inline]
pub fn epoch_end(id: usize, slo_ns: u64) -> u64 {
    assert!(id < MAX_EPOCHS, "epoch id {id} out of range");
    HOT.with(|h| h.end(id, slo_ns))
}

/// Reorder window of the currently open epoch, if any (used by the
/// dispatch layer, paper Algorithm 3 lines 4–8).
#[inline]
pub fn current_window() -> Option<u64> {
    HOT.with(|h| (h.cur.get() >= 0).then(|| h.meta.get().window))
}

/// Id of the currently open epoch, if any.
pub fn current_epoch_id() -> Option<usize> {
    usize::try_from(HOT.with(|h| h.cur.get())).ok()
}

/// Current metadata for epoch `id` on this thread.
pub fn epoch_meta(id: usize) -> EpochMeta {
    assert!(id < MAX_EPOCHS);
    HOT.with(|h| {
        if h.slot.get() == id as i32 {
            h.meta.get()
        } else {
            COLD.with(|c| c.borrow().table[id])
        }
    })
}

/// Overwrite the reorder window of epoch `id` (used by LibASL-OPT
/// experiments that pin a static window, and by tests).
pub fn set_epoch_window(id: usize, window_ns: u64) {
    assert!(id < MAX_EPOCHS);
    let set = |m: &mut EpochMeta| {
        m.window = window_ns;
        m.used = true;
    };
    HOT.with(|h| {
        if h.slot.get() == id as i32 {
            let mut m = h.meta.get();
            set(&mut m);
            h.meta.set(m);
        } else {
            COLD.with(|c| set(&mut c.borrow_mut().table[id]));
        }
    });
}

/// Reset all of this thread's epoch state to defaults (tests and
/// between-experiment hygiene).
pub fn reset_thread_epochs() {
    COLD.with(|c| *c.borrow_mut() = Cold::new());
    WINDOW_TRACE.with(|t| t.borrow_mut().clear());
    HOT.with(|h| {
        h.cur.set(-1);
        h.depth.set(0);
        h.slot.set(-1);
    });
}

/// Closes the scoped helpers' epoch if `f` unwinds out of it: back to
/// the outer epoch (or none), with no controller step — an epoch cut
/// short by a panic has no latency to judge — and no clock read. On
/// the normal path it is forgotten before `epoch_end`, so it costs
/// nothing there.
struct CloseOnUnwind;

impl Drop for CloseOnUnwind {
    #[cold]
    fn drop(&mut self) {
        HOT.with(|h| {
            if h.depth.get() == 0 {
                h.cur.set(-1);
            } else {
                h.pop_outer();
            }
        });
    }
}

/// Scoped helper: run `f` inside epoch `id` with the given SLO.
/// Returns `f`'s result and the measured latency (ns) — on every core:
/// where the epoch itself reads no clock (a thread that enters on a
/// big core) the helper brackets it with two reads of its own. If `f`
/// unwinds, the epoch is closed untimed.
pub fn with_epoch_timed<R>(id: usize, slo_ns: u64, f: impl FnOnce() -> R) -> (R, u64) {
    let bracket = is_big_core().then(now_ns);
    epoch_start(id);
    let open = CloseOnUnwind;
    let r = f();
    std::mem::forget(open);
    let measured = epoch_end(id, slo_ns);
    let lat = match bracket {
        Some(t0) => now_ns().saturating_sub(t0),
        None => measured,
    };
    (r, lat)
}

/// Scoped helper: run `f` inside epoch `id` with the given SLO. Reads
/// no clock on a big core. If `f` unwinds, the epoch is closed
/// untimed, so the thread's next lock is outside it again.
#[inline]
pub fn with_epoch<R>(id: usize, slo_ns: u64, f: impl FnOnce() -> R) -> R {
    epoch_start(id);
    let open = CloseOnUnwind;
    let r = f();
    std::mem::forget(open);
    epoch_end(id, slo_ns);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::registry::{register_on_core, unregister};
    use asl_runtime::topology::{CoreId, Topology};

    fn on_little<R>(f: impl FnOnce() -> R) -> R {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(5));
        let r = f();
        unregister();
        r
    }

    #[test]
    fn window_shrinks_on_violation() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(1, 8_000);
            epoch_start(1);
            // SLO of 0 ns: guaranteed violation.
            epoch_end(1, 0);
            // A miss cuts a quarter.
            assert_eq!(epoch_meta(1).window, 6_000);
        });
    }

    #[test]
    fn window_grows_on_success() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(2, 10_000);
            epoch_start(2);
            // Huge SLO: success.
            epoch_end(2, u64::MAX);
            // PCT = 99: 75 / 39 700 of the window, 0.19 %.
            assert_eq!(epoch_meta(2).window, 10_018);
        });
    }

    #[test]
    fn window_clamped_to_max() {
        on_little(|| {
            reset_thread_epochs();
            let max = config::max_window_ns();
            set_epoch_window(3, max);
            epoch_start(3);
            epoch_end(3, u64::MAX);
            assert_eq!(epoch_meta(3).window, max);
        });
    }

    #[test]
    fn repeated_violations_collapse_to_fifo() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(4, 1 << 20);
            for _ in 0..100 {
                epoch_start(4);
                epoch_end(4, 0);
            }
            // Fallback-to-FIFO regime: a quarter of 3 ns is nothing, so
            // the window rests there — less than one clock read, which
            // a standby wait spends before its first probe.
            assert_eq!(epoch_meta(4).window, 3);
            // And recovers with no floor to lean on: a hit always adds
            // at least a nanosecond.
            epoch_start(4);
            epoch_end(4, u64::MAX);
            assert_eq!(epoch_meta(4).window, 4);
        });
    }

    #[test]
    fn big_core_does_not_adjust() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(0)); // big
        reset_thread_epochs();
        set_epoch_window(5, 4_096);
        epoch_start(5);
        epoch_end(5, 0); // would violate on a little core
        assert_eq!(epoch_meta(5).window, 4_096);
        unregister();
    }

    #[test]
    fn an_epoch_opened_on_a_big_core_is_not_judged_on_a_little_one() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(0)); // big: no timestamp taken
        reset_thread_epochs();
        set_epoch_window(6, 4_096);
        epoch_start(6);
        assert_eq!(epoch_meta(6).start, UNTIMED);
        // The thread migrates to a little core. SLO 0: any measured
        // latency would be a miss, and one taken against the missing
        // start an enormous one.
        register_on_core(&t, CoreId(5));
        assert_eq!(epoch_end(6, 0), 0, "not measured");
        assert_eq!(epoch_meta(6).window, 4_096, "no controller step");
        // The next epoch, opened here, is timed and judged as usual.
        epoch_start(6);
        epoch_end(6, 0);
        assert_eq!(epoch_meta(6).window, 3_072);
        unregister();
    }

    #[test]
    fn a_timed_helper_measures_on_a_big_core_too() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(0));
        reset_thread_epochs();
        let (_, lat) = with_epoch_timed(11, u64::MAX, || {
            asl_runtime::clock::busy_wait_ns(300_000);
        });
        assert!(lat >= 300_000, "latency {lat} < busy-wait time");
        epoch_start(11);
        assert_eq!(epoch_end(11, u64::MAX), 0, "raw epoch_end: not measured");
        unregister();
    }

    #[test]
    fn nesting_restores_outer() {
        on_little(|| {
            reset_thread_epochs();
            assert_eq!(current_epoch_id(), None);
            epoch_start(7);
            assert_eq!(current_epoch_id(), Some(7));
            epoch_start(8);
            assert_eq!(current_epoch_id(), Some(8));
            epoch_end(8, u64::MAX);
            assert_eq!(current_epoch_id(), Some(7));
            epoch_end(7, u64::MAX);
            assert_eq!(current_epoch_id(), None);
        });
    }

    #[test]
    fn current_window_reflects_open_epoch() {
        on_little(|| {
            reset_thread_epochs();
            assert_eq!(current_window(), None);
            set_epoch_window(9, 12_345);
            epoch_start(9);
            assert_eq!(current_window(), Some(12_345));
            epoch_end(9, u64::MAX);
            assert_eq!(current_window(), None);
        });
    }

    #[test]
    fn latency_measured_sanely() {
        on_little(|| {
            reset_thread_epochs();
            let (_, lat) = with_epoch_timed(10, u64::MAX, || {
                asl_runtime::clock::busy_wait_ns(300_000);
            });
            assert!(lat >= 300_000, "latency {lat} < busy-wait time");
        });
    }

    #[test]
    fn an_epoch_f_unwinds_out_of_is_closed() {
        use std::panic::{catch_unwind, resume_unwind};
        on_little(|| {
            reset_thread_epochs();
            let unwound = catch_unwind(|| with_epoch(14, u64::MAX, || resume_unwind(Box::new(()))));
            assert!(unwound.is_err());
            assert_eq!(current_epoch_id(), None, "the epoch is closed");
            assert_eq!(current_window(), None, "outside any epoch again");
            assert_eq!(
                epoch_meta(14).window,
                config::DEFAULT_WINDOW_NS,
                "no controller step"
            );
            // Nested: the outer epoch is the open one again.
            with_epoch(15, u64::MAX, || {
                let unwound =
                    catch_unwind(|| with_epoch_timed(14, u64::MAX, || resume_unwind(Box::new(()))));
                assert!(unwound.is_err());
                assert_eq!(current_epoch_id(), Some(15));
            });
            assert_eq!(current_epoch_id(), None);
        });
    }

    #[test]
    fn steps_are_fractions_of_the_window_at_every_scale() {
        // The same two ratios at 1 µs and at 10 ms; only the hit step
        // depends on PCT (pure function: no global is touched).
        for scale in [1_000u64, 10_000_000] {
            assert_eq!(next_window(4 * scale, true), 3 * scale);
            let step = next_window(4 * scale, false) - 4 * scale;
            assert_eq!(step, 4 * scale * 75 / 39_700);
        }
    }

    #[test]
    fn window_trace_records_little_epochs_only_while_armed() {
        // The gate is process-wide, but no other test in this crate
        // reads a trace, so arming it here disturbs nobody.
        on_little(|| {
            reset_thread_epochs();
            with_epoch(13, u64::MAX, || ());
            assert!(take_window_trace().is_empty(), "gate off: nothing kept");
            telemetry::set_recording(true);
            set_epoch_window(13, 1_000);
            let (_, hit) = with_epoch_timed(13, u64::MAX, || ());
            let (_, miss) = with_epoch_timed(13, 0, || ());
            telemetry::set_recording(false);
            let trace = take_window_trace();
            assert_eq!(trace.len(), 2);
            assert_eq!((trace[0].epoch, trace[0].latency_ns), (13, hit));
            assert_eq!((trace[0].window_ns, trace[1].window_ns), (1_001, 751));
            assert_eq!(trace[1].latency_ns, miss);
            assert!(trace[0].end_ns <= trace[1].end_ns);
            assert!(take_window_trace().is_empty(), "drained");
        });
    }

    #[test]
    #[should_panic]
    fn epoch_id_out_of_range() {
        epoch_start(MAX_EPOCHS);
    }

    #[test]
    fn epoch_state_is_per_thread() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(12, 77);
        });
        std::thread::spawn(|| {
            assert_ne!(epoch_meta(12).window, 77, "TLS leaked across threads");
        })
        .join()
        .unwrap();
    }
}
