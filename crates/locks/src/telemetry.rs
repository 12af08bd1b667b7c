//! Lock-agnostic acquisition telemetry.
//!
//! LibASL's premise is that the right lock behaviour depends on
//! *observed* conditions, yet historically only the reorderable lock
//! kept counters — every other lock in the zoo was blind. This module
//! hoists observability into a first-class, substrate-independent
//! layer that every lock shares:
//!
//! * [`TelemetryCell`] — a cache-padded bundle of relaxed counters:
//!   acquisitions, contended acquisitions, and
//!   (when sampling is enabled) cumulative wait time and the time of a
//!   sample of the holds, via `asl_runtime::clock`. Count recording is a
//!   single relaxed `fetch_add` — or, for a counter only the lock's
//!   exclusive holder ever writes, a load and a store (the
//!   holder-owned rule on [`TelemetryCell`]); the clock is only read
//!   when [`TelemetryCell::set_sampling`] has turned timing on, so an
//!   instrumented lock with sampling off costs near zero.
//! * [`Instrumented`] — wraps any [`RawLock`], an rwlock's exclusive
//!   side included, and records into a cell on every
//!   acquisition/release; [`InstrumentedRw`] is an `Instrumented`
//!   rwlock with a second cell for the shared side. The cell
//!   storage is a type parameter: inline [`TelemetryCell`]s for a
//!   statically chosen lock, `Arc<TelemetryCell>`s over the erased
//!   handle ([`crate::api::DynLock`] / [`crate::api::DynRwLock`]) for
//!   cells that are also filed in the registry below — which is what
//!   the harness registry's `instrumented-<name>` specs and the
//!   `repro --profile` mode materialize ([`instrument`],
//!   [`instrument_rw`]).
//! * a process-wide profiling registry — [`set_profiling`] turns
//!   global collection on, [`maybe_instrument`] wraps a lock and
//!   files its cell under a label, and [`snapshots`] hands the
//!   harness every labelled [`TelemetrySnapshot`] for its per-lock
//!   stats tables.
//!
//! ## Cost model: zero when off, counts when recording, clocks when sampling
//!
//! Instrumentation has three gears, so wrapped locks can stay wrapped
//! in production:
//!
//! 1. **Off** (default): every instrumented hot path fast-exits on
//!    the [`recording`] gate *before any counter RMW* — the wrapper
//!    costs one relaxed global load, one relaxed per-cell load, and a
//!    predictable branch over the raw lock (single-digit ns).
//! 2. **Recording** ([`set_recording`], implied by [`set_profiling`]):
//!    acquisition/contention counts are recorded as relaxed
//!    `fetch_add`s (plain load+store where the recorder holds the
//!    lock exclusively) — wait-free, no clock reads.
//! 3. **Sampling** ([`TelemetryCell::set_sampling`], enabled on
//!    registry cells while profiling is on): hold/wait timing is
//!    recorded too, which costs up to two monotonic-clock reads per
//!    *timed* hold, one hold in [`HOLD_SAMPLE_STRIDE`] (a mean needs
//!    a sample, not a census: [`TelemetryCell::sample_hold_start`]),
//!    and two more per acquisition that waited; any other hold pays a
//!    holder-owned countdown store. Reference host, `instrumented-mcs`
//!    over the two-RMW MCS of the time: 63 ns a round with every hold
//!    bracketed, 23 sampled, 15 gate off; over the lock-word MCS, 12
//!    sampled and 8 off.
//!    A cell with sampling on is armed even when the global gate is
//!    off (local intent wins).
//!
//! ```
//! use asl_locks::api::Guard;
//! use asl_locks::telemetry::Instrumented;
//! use asl_locks::TasLock;
//!
//! // `sampled` arms this cell regardless of the global gate.
//! let lock = Instrumented::sampled(TasLock::new());
//! {
//!     let _held = Guard::new(&lock); // records one uncontended acquisition
//! }
//! let snap = lock.telemetry().snapshot();
//! assert_eq!(snap.acquisitions, 1);
//! assert_eq!(snap.contended, 0);
//!
//! // An un-armed wrapper is a passthrough: no counters move.
//! let quiet = Instrumented::new(TasLock::new());
//! {
//!     let _held = Guard::new(&quiet);
//! }
//! assert_eq!(quiet.telemetry().snapshot().acquisitions, 0);
//! ```

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use asl_runtime::clock::now_ns;

use crate::api::{DynLock, DynRwLock};
use crate::plain::{PlainLock, PlainRwLock};
use crate::{RawLock, RawRwLock};

/// Cache-padded acquisition counters shared by every instrumented
/// lock.
///
/// All counters are relaxed atomics: recording is wait-free and
/// tearing-tolerant (snapshots are "consistent enough" for
/// reporting). Hold/wait time is only recorded while sampling is
/// enabled, because it costs two monotonic-clock reads per timed hold
/// and per acquisition that waited.
///
/// Atomic-ordering audit: every counter here is a pure statistic —
/// no control flow, lock-word, or memory-safety decision reads one
/// (the readers are [`TelemetryCell::snapshot`], which tolerates torn
/// cross-counter views by design, and the GCR controller, which runs
/// under the lock). `Relaxed` therefore suffices on every site, and
/// the lock's own acquire/release fences already order anything the
/// *holder* writes.
///
/// # The holder-owned rule
///
/// A `lock`-prefixed RMW costs 5–10 ns even uncontended, and an
/// acquisition used to pay up to four of them for bookkeeping. A
/// counter needs one only if two threads can write it at once:
///
/// > A counter of a given cell is **holder-owned** when *every* write
/// > to it, on every path of the lock that owns the cell, is made by
/// > the thread that holds that lock *exclusively*. A holder-owned
/// > counter is bumped with a relaxed load and a relaxed store, after
/// > the inner acquire and before the inner release: the lock
/// > serialises the writers and its release→acquire edge carries the
/// > last value to the next one, so no update can be lost. Any counter
/// > with a writer outside the lock keeps its `fetch_add`.
///
/// Per counter:
///
/// * `acquisitions` — holder-owned **on exclusive locks that record
///   through [`record_acquisition_exclusive`] /
///   [`record_acquired_exclusive`]** (the reorderable lock, the
///   exclusive side of `Instrumented`/`InstrumentedRw`, `Gcr`: all
///   record after the inner acquire). *Not* holder-owned on a
///   shared-read cell (`InstrumentedRw::read`: readers overlap), on
///   the delegation locks' cells (clients record, the combiner
///   holds); those call the RMW [`record_acquisition`]. A cell is
///   used one way or the other, never both — mixing a plain store
///   with a concurrent `fetch_add` would lose updates — which is why
///   the exclusive variants are separate methods with the requirement
///   in their name.
/// * `contended` — **RMW always**: [`record_contended`] is called
///   *before* blocking (waiters must be visible while they wait), i.e.
///   by threads that do not hold the lock, so even a holder's
///   increment can race one.
/// * `contended_streak` — written only by `record_acquisition*`, so
///   it follows `acquisitions`: load+store in the exclusive variant,
///   RMW in the shared one.
/// * `wait_ns` — **RMW**: delegation clients and
///   overlapping readers add to them without holding anything
///   exclusively (and they are off the uncontended path anyway).
/// * `hold_ns`, `hold_start_ns`, `timed_holds` and the sampling
///   countdown with its jitter word — holder-owned everywhere: only
///   the exclusive side of any wrapper calls [`note_hold_start`] /
///   [`sample_hold_start`] / [`note_hold_end`] (shared holds overlap,
///   so a single in-flight slot could not represent them). The swap
///   and the adds on the release path of a timed hold are a load and
///   three stores.
///
/// `tests/acquire_hygiene.rs` holds the rule to account: four threads
/// hammering each exclusive recorder must leave `acquisitions` equal
/// to the exact total, and `timed_holds` equal to what one thread
/// taking that many holds leaves.
///
/// # No store before the RMW
///
/// The holder-owned rule turned bookkeeping RMWs into plain stores.
/// Next to an RMW those are not free either: on x86 a `lock`-prefixed
/// instruction completes only once the store buffer has drained, so
/// every plain store still pending when a lock's RMW issues is paid
/// *there* — ≈ 1.5 ns a store on the reference host, for stores
/// scattered over several lines (consecutive pushes to one stack line
/// retire together). x86-64: taking some fifteen of them out of an
/// in-epoch LibASL round took it from 29.1 to 19.4 ns, out of a bare
/// MCS round from 18.3 to 13.3. On a machine whose RMWs do not wait
/// for the buffer (AArch64 atomics order only what their
/// acquire/release flavour names) the same stores cost nothing extra:
/// the rule is free there and a third of the uncontended path here.
/// So, on the uncontended path:
///
/// > **No plain store before an RMW that need not be there, and no RMW
/// > that need not be there.** Initialise only what somebody will read
/// > (a queue node's wait word: on the path that found a predecessor);
/// > write nothing that already holds the value (a big-core epoch
/// > start, a recycled node's core class); give each acquisition one
/// > holder-owned store and *derive* at snapshot time what can be
/// > derived from it; release with a store where the protocol allows.
///
/// The last clause is [`crate::McsLock`]'s: behind a lock word its
/// round is **one** RMW — the acquiring CAS — and the release a plain
/// store, which took the same two rounds from 19.4 to 9.1 ns and from
/// 13.3 to 7.6. With no release RMW left to drain behind, a round's
/// stores are paid at the *next* round's CAS, and what used to hide in
/// the release RMW's shadow shows: two out-of-line calls (the big-core
/// epoch, now inline) and a release path's register saves (below).
///
/// The plain stores of an uncontended round, gates off, layer by layer
/// (rungs of the `host-acquire` ladder; each row on top of the lock
/// under it):
///
/// | layer | stores | what |
/// |---|---|---|
/// | [`crate::McsLock`] (`static_mcs`, `dyn_mcs`, `timed_mcs`) | 1 | the release; no node, no pool |
/// | [`Instrumented`], gate off (`instr_off_mcs`) | 0 | five loads, three branches and a second erased call each way: 0.3 ns |
/// | [`crate::Gcr`], disengaged (`gcr_mcs`) | 1 | `acquisitions` |
/// | the reorderable lock, immediate path (`libasl_max`) | 1 | `acquisitions`; the path counter is derived |
/// | the same, free entry on a little core | 2 | `acquisitions`, `standby_free_entry` |
/// | an epoch on a big core (`libasl_epoch`) | 2 | the open epoch's id, set and cleared, inline |
///
/// `Gcr`'s *counted* path (gate engaged: there is contention, and the
/// hand-over's cache miss is the cost) keeps its three — count, hold
/// start, the `counted` mark.
///
/// [`record_acquisition`]: TelemetryCell::record_acquisition
/// [`record_contended`]: TelemetryCell::record_contended
/// [`record_acquisition_exclusive`]: TelemetryCell::record_acquisition_exclusive
/// [`record_acquired_exclusive`]: TelemetryCell::record_acquired_exclusive
/// [`note_hold_start`]: TelemetryCell::note_hold_start
/// [`sample_hold_start`]: TelemetryCell::sample_hold_start
/// [`note_hold_end`]: TelemetryCell::note_hold_end
// `repr(C)`: the cell no longer fits one 64-byte line, so what an
// acquisition touches when nothing is timed — the gate-off path's
// `sampling` and `hold_start_ns` among it — is kept in the first: with
// `sampling` on the second the `instr_off_mcs` rung read 16.1 ns for 14.9.
#[repr(C, align(128))]
#[derive(Debug, Default)]
pub struct TelemetryCell {
    /// Successful acquisitions (lock + try_lock-success + write side
    /// of rw locks; read acquisitions on a read cell).
    acquisitions: AtomicU64,
    /// Consecutive contended acquisitions (zeroed by any uncontended
    /// one). Maintained by [`TelemetryCell::record_acquisition`] only
    /// — the split `record_contended`/`record_acquired_exclusive` API
    /// leaves it untouched. This is the collapse-onset signal the GCR
    /// admission controller ([`crate::gcr`]) shrinks on.
    contended_streak: AtomicU64,
    /// Holds [`TelemetryCell::sample_hold_start`] still skips before it
    /// times one.
    hold_countdown: AtomicU64,
    /// Timestamp of the in-flight *timed* hold (valid only between
    /// the acquire that opened it and its release; protected by the
    /// lock itself being held).
    hold_start_ns: AtomicU64,
    /// Whether hold/wait timing is recorded.
    sampling: AtomicBool,
    /// Acquisitions that observed the lock held (or queued) on entry.
    contended: AtomicU64,
    /// Cumulative nanoseconds spent waiting to acquire (sampling
    /// only).
    wait_ns: AtomicU64,
    /// Cumulative nanoseconds of the timed holds (sampling only).
    hold_ns: AtomicU64,
    /// Timed holds closed so far: what `hold_ns` is the sum of.
    timed_holds: AtomicU64,
    /// The xorshift word the countdown is redrawn from (0: not drawn
    /// from yet, stands for [`JITTER_SEED`]).
    hold_jitter: AtomicU64,
}

/// One exclusive hold in this many, on average, is timed by
/// [`TelemetryCell::sample_hold_start`]: after a timed hold it skips a
/// number of holds drawn uniformly from `0..=2 * (STRIDE - 1)`. Drawn,
/// not fixed — a fixed stride aliases with periodic work (at 16,
/// SQLite's every-1000th scan is timed eight times too often or never)
/// — and from a constant seed by the holder alone, so which holds are
/// timed is a pure function of the grant order.
pub const HOLD_SAMPLE_STRIDE: u64 = 16;

/// First state of every cell's jitter word (any non-zero constant).
const JITTER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// `counter += n` as a relaxed load and a relaxed store. Exact only
/// for a holder-owned counter (see [`TelemetryCell`]): the caller
/// holds, exclusively, the lock every other writer of `counter` holds.
#[inline]
pub fn holder_add(counter: &AtomicU64, n: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

impl TelemetryCell {
    /// Fresh zeroed cell with sampling off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh zeroed cell with sampling (hold/wait timing) on.
    pub fn sampled() -> Self {
        let c = Self::new();
        c.set_sampling(true);
        c
    }

    /// Turn hold/wait timing on or off (counts are always recorded).
    pub fn set_sampling(&self, on: bool) {
        self.sampling.store(on, Ordering::Relaxed);
    }

    /// Whether hold/wait timing is currently recorded.
    #[inline]
    pub fn sampling(&self) -> bool {
        self.sampling.load(Ordering::Relaxed)
    }

    /// Whether an instrumented wrapper should record into this cell
    /// at all: the process-wide [`recording`] gate, or this cell's
    /// own sampling flag (local intent wins over the global default).
    ///
    /// This is the zero-cost-when-off fast-exit — two relaxed loads
    /// and a branch, checked *before* any counter RMW or clock read.
    #[inline]
    pub fn armed(&self) -> bool {
        recording() || self.sampling()
    }

    /// Record one successful acquisition (`contended` = the lock was
    /// observed held or queued on entry). Also advances (or resets)
    /// the consecutive-contended streak. Safe from any thread: every
    /// write is an RMW.
    #[inline]
    pub fn record_acquisition(&self, contended: bool) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.contended_streak.fetch_add(1, Ordering::Relaxed);
        } else if self.contended_streak.load(Ordering::Relaxed) != 0 {
            self.contended_streak.store(0, Ordering::Relaxed);
        }
    }

    /// [`TelemetryCell::record_acquisition`] for a caller that *holds
    /// the cell's lock exclusively* and whose lock records every
    /// acquisition that way (the holder-owned rule on the type): no
    /// RMW unless `contended`.
    #[inline]
    pub fn record_acquisition_exclusive(&self, contended: bool) {
        holder_add(&self.acquisitions, 1);
        if contended {
            self.contended.fetch_add(1, Ordering::Relaxed);
            holder_add(&self.contended_streak, 1);
        } else if self.contended_streak.load(Ordering::Relaxed) != 0 {
            self.contended_streak.store(0, Ordering::Relaxed);
        }
    }

    /// Consecutive contended acquisitions, as of now (reset by any
    /// uncontended acquisition recorded through
    /// [`TelemetryCell::record_acquisition`]).
    #[inline]
    pub fn contended_streak(&self) -> u64 {
        self.contended_streak.load(Ordering::Relaxed)
    }

    /// Record a contention *observation* before blocking (used by
    /// self-reporting locks so waiters are visible while they still
    /// wait; pair with [`TelemetryCell::record_acquired_exclusive`]).
    #[inline]
    pub fn record_contended(&self) {
        self.contended.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed acquisition whose contention was already
    /// counted by [`TelemetryCell::record_contended`] (or that was
    /// uncontended), under the same condition as
    /// [`TelemetryCell::record_acquisition_exclusive`].
    #[inline]
    pub fn record_acquired_exclusive(&self) {
        holder_add(&self.acquisitions, 1);
    }

    /// Add nanoseconds spent waiting to acquire.
    #[inline]
    pub fn add_wait_ns(&self, ns: u64) {
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Time this exclusive hold (sampling only; call while holding
    /// the lock): the census entry point, for a caller whose controller
    /// reads a mean over a window it counts itself (`Gcr`'s counted
    /// path) or a watch that must see every hold.
    #[inline]
    pub fn note_hold_start(&self) {
        if self.sampling() {
            self.hold_start_ns.store(now_ns().max(1), Ordering::Relaxed);
        }
    }

    /// Time this exclusive hold if it is one of the sampled — one in
    /// [`HOLD_SAMPLE_STRIDE`], the first of a cell among them
    /// (sampling only; call while holding the lock). A skipped hold
    /// costs a load and a store and reads no clock.
    #[inline]
    pub fn sample_hold_start(&self) {
        if !self.sampling() {
            return;
        }
        match self.hold_countdown.load(Ordering::Relaxed) {
            0 => self.open_sampled_hold(),
            skip => self.hold_countdown.store(skip - 1, Ordering::Relaxed),
        }
    }

    /// The timed one: redraw the countdown (xorshift64), stamp.
    #[cold]
    fn open_sampled_hold(&self) {
        let mut x = match self.hold_jitter.load(Ordering::Relaxed) {
            0 => JITTER_SEED,
            x => x,
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.hold_jitter.store(x, Ordering::Relaxed);
        self.hold_countdown
            .store(x % (2 * HOLD_SAMPLE_STRIDE - 1), Ordering::Relaxed);
        self.hold_start_ns.store(now_ns().max(1), Ordering::Relaxed);
    }

    /// Close the timed hold, if this one was opened by
    /// [`TelemetryCell::note_hold_start`] or
    /// [`TelemetryCell::sample_hold_start`] (call before releasing, as
    /// the holder: slot, total and count are holder-owned).
    #[inline]
    pub fn note_hold_end(&self) {
        let start = self.hold_start_ns.load(Ordering::Relaxed);
        if start != 0 {
            self.hold_start_ns.store(0, Ordering::Relaxed);
            holder_add(&self.hold_ns, now_ns().saturating_sub(start));
            holder_add(&self.timed_holds, 1);
        }
    }

    /// Timestamp ([`now_ns`] timeline) at which the in-flight *timed*
    /// hold began, or 0 when none is open (or sampling is off). The
    /// [`crate::watchdog::StallWatchdog`]'s signal: `now - start` is
    /// how long the current holder has been inside the critical
    /// section, readable from *outside* the lock without touching the
    /// accumulated `hold_ns` (which only advances on release —
    /// exactly the counter a stalled holder never reaches). A cell fed
    /// through [`TelemetryCell::note_hold_start`] shows every hold; one
    /// under an [`Instrumented`] lock (any `sample_hold_start` caller)
    /// about one in [`HOLD_SAMPLE_STRIDE`] — a stalled holder of one of
    /// the others reads 0 here and is the watchdog's `NoProgress` case.
    #[inline]
    pub fn hold_started_ns(&self) -> u64 {
        self.hold_start_ns.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time view for reporting.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            hold_ns: self.hold_ns.load(Ordering::Relaxed),
            timed_holds: self.timed_holds.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters (sampling mode is preserved).
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.hold_ns.store(0, Ordering::Relaxed);
        self.wait_ns.store(0, Ordering::Relaxed);
        self.hold_start_ns.store(0, Ordering::Relaxed);
        self.timed_holds.store(0, Ordering::Relaxed);
        self.hold_countdown.store(0, Ordering::Relaxed);
        self.hold_jitter.store(0, Ordering::Relaxed);
        self.contended_streak.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of a [`TelemetryCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Successful acquisitions recorded.
    pub acquisitions: u64,
    /// Acquisitions that observed the lock held on entry.
    pub contended: u64,
    /// Cumulative time of the *timed* holds (ns; zero unless sampling
    /// was on).
    pub hold_ns: u64,
    /// Holds timed: every one on a census cell, about one in
    /// [`HOLD_SAMPLE_STRIDE`] under an `Instrumented` lock.
    pub timed_holds: u64,
    /// Cumulative acquisition-wait time (ns; zero unless sampling was
    /// on).
    pub wait_ns: u64,
}

impl TelemetrySnapshot {
    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        self.contended as f64 / self.acquisitions.max(1) as f64
    }

    /// Mean hold time (ns; zero without sampling): exact where every
    /// hold was timed, an unbiased estimate from [`Self::timed_holds`]
    /// samples where one in [`HOLD_SAMPLE_STRIDE`] was.
    pub fn avg_hold_ns(&self) -> f64 {
        self.hold_ns as f64 / self.timed_holds.max(1) as f64
    }

    /// Mean wait time per acquisition (ns; zero without sampling).
    pub fn avg_wait_ns(&self) -> f64 {
        self.wait_ns as f64 / self.acquisitions.max(1) as f64
    }

    /// Component-wise saturating difference: the activity *window*
    /// between an `earlier` snapshot and this one. Feedback loops
    /// (the GCR admission controller) tick on windows, not lifetime
    /// totals, so hold-time inflation in the last window is not
    /// averaged away by a long calm history.
    pub fn delta(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            acquisitions: self.acquisitions.saturating_sub(earlier.acquisitions),
            contended: self.contended.saturating_sub(earlier.contended),
            hold_ns: self.hold_ns.saturating_sub(earlier.hold_ns),
            timed_holds: self.timed_holds.saturating_sub(earlier.timed_holds),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    /// Component-wise sum (aggregating several locks under one
    /// label).
    pub fn merged(&self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            acquisitions: self.acquisitions + other.acquisitions,
            contended: self.contended + other.contended,
            hold_ns: self.hold_ns + other.hold_ns,
            timed_holds: self.timed_holds + other.timed_holds,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

// ---------------------------------------------------------------------------
// The wrappers: Instrumented<L, C> / InstrumentedRw<L, C>.
// ---------------------------------------------------------------------------

/// A [`RawLock`] that records acquisition telemetry.
///
/// The token passes through unchanged, so the wrapper composes with
/// every layer built on `RawLock` (guards, the object-safe facade,
/// the reorderable lock) — and, over a [`DynLock`], is the
/// `instrumented-<name>` lock of the registry. Hold time uses a slot
/// in the cell written under the lock, so no extra token state is
/// needed.
///
/// `C` is where the cell lives: inline ([`TelemetryCell`], the
/// default — no pointer chase on the static path) or shared
/// (`Arc<TelemetryCell>`, for a cell the profiling registry also
/// holds). Either way the cell must be this lock's alone: its
/// holder-owned counters (see [`TelemetryCell`]) are exact because
/// `inner` serialises their writers, which a second lock recording
/// into the same cell would not be part of. (Several locks under one
/// *label* is what the registry is for.)
///
/// Through the facade the wrapper reports its own name
/// (`"instrumented"`, as `Gcr` reports `"gcr"`), not the inner
/// lock's; reports label rows by spec name.
pub struct Instrumented<L: RawLock, C = TelemetryCell> {
    inner: L,
    cell: C,
}

impl<L: RawLock> Instrumented<L> {
    /// Wrap `inner` with a fresh telemetry cell (sampling off): the
    /// wrapper records counts only while the process-wide
    /// [`recording`] gate is on, and is a near-zero passthrough
    /// otherwise.
    pub fn new(inner: L) -> Self {
        Self::with_cell(inner, TelemetryCell::new())
    }

    /// Wrap `inner` with hold/wait-time sampling enabled (the cell is
    /// armed regardless of the global [`recording`] gate).
    pub fn sampled(inner: L) -> Self {
        Self::with_cell(inner, TelemetryCell::sampled())
    }
}

impl<L: RawLock, C: Borrow<TelemetryCell>> Instrumented<L, C> {
    /// Wrap `inner`, recording into `cell` (this lock's alone — see
    /// the type docs).
    pub fn with_cell(inner: L, cell: C) -> Self {
        Instrumented { inner, cell }
    }

    /// The recorded telemetry.
    pub fn telemetry(&self) -> &TelemetryCell {
        self.cell.borrow()
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// The armed acquisition path: counters, and (when sampling)
    /// wait-time brackets around the inner acquire. Kept out of line
    /// — see `RawLock::lock` below.
    #[cold]
    #[inline(never)]
    fn lock_recorded(&self) -> L::Token {
        let cell = self.telemetry();
        let contended = self.inner.is_locked();
        let sampling = cell.sampling();
        let t0 = if sampling && contended { now_ns() } else { 0 };
        let token = self.inner.lock();
        if t0 != 0 {
            cell.add_wait_ns(now_ns().saturating_sub(t0));
        }
        cell.record_acquisition_exclusive(contended);
        cell.sample_hold_start();
        token
    }

    /// The release of a timed hold, out of line like its acquisition:
    /// with `note_hold_end`'s clock read inlined, `unlock` saved and
    /// restored seven registers on every call — 2 ns of the gate-off
    /// path that the inner lock's release RMW used to hide
    /// (`instr_off_mcs` 10.2 ns over `dyn_mcs` 7.9; 8.2 with this).
    #[cold]
    #[inline(never)]
    fn unlock_timed(&self, token: L::Token) {
        self.telemetry().note_hold_end();
        self.inner.unlock(token);
    }
}

impl<L: RawLock + Default> Default for Instrumented<L> {
    fn default() -> Self {
        Self::new(L::default())
    }
}

impl<L: RawLock, C: Borrow<TelemetryCell> + Send + Sync> RawLock for Instrumented<L, C> {
    type Token = L::Token;

    #[inline]
    fn lock(&self) -> L::Token {
        // Zero-cost-when-off: bail before any counter RMW (or even
        // the is_locked probe, which would touch the lock word). The
        // recording path lives out of line so its clock plumbing
        // can't bloat this function past the inliner's budget and
        // slow the off path down.
        if !self.telemetry().armed() {
            return self.inner.lock();
        }
        self.lock_recorded()
    }

    #[inline]
    fn try_lock(&self) -> Option<L::Token> {
        let token = self.inner.try_lock()?;
        let cell = self.telemetry();
        if cell.armed() {
            cell.record_acquisition_exclusive(false);
            cell.sample_hold_start();
        }
        Some(token)
    }

    #[inline]
    fn unlock(&self, token: L::Token) {
        // Not gated on `armed`: the slot is a single relaxed load when
        // no sampled hold is in flight, and checking it
        // unconditionally closes holds cleanly even if sampling was
        // toggled mid-hold. A timed hold leaves through a call, so
        // that this path keeps no register across one.
        if self.telemetry().hold_started_ns() != 0 {
            return self.unlock_timed(token);
        }
        self.inner.unlock(token);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }

    const NAME: &'static str = "instrumented";
}

// Instrumentation does not change the grant order.
impl<L: crate::FifoLock, C: Borrow<TelemetryCell> + Send + Sync> crate::FifoLock
    for Instrumented<L, C>
{
}

/// A [`RawRwLock`] that records acquisition telemetry, with separate
/// cells for the shared and exclusive sides (stored as `C`, as for
/// [`Instrumented`]).
///
/// The exclusive side *is* an [`Instrumented`] lock over `L`; the
/// shared side records into its own cell. Hold time is recorded for
/// the exclusive side only (shared holds overlap, so a single
/// in-flight slot cannot represent them).
pub struct InstrumentedRw<L: RawRwLock, C = TelemetryCell> {
    write: Instrumented<L, C>,
    read: C,
}

impl<L: RawRwLock> InstrumentedRw<L> {
    /// Wrap `inner` with fresh read/write telemetry cells (armed only
    /// while the process-wide [`recording`] gate is on).
    pub fn new(inner: L) -> Self {
        Self::with_cells(inner, TelemetryCell::new(), TelemetryCell::new())
    }

    /// Wrap `inner` with sampling enabled on both sides (cells armed
    /// regardless of the global [`recording`] gate).
    pub fn sampled(inner: L) -> Self {
        Self::with_cells(inner, TelemetryCell::sampled(), TelemetryCell::sampled())
    }
}

impl<L: RawRwLock, C: Borrow<TelemetryCell>> InstrumentedRw<L, C> {
    /// Wrap `inner`, recording into the given cells (this lock's
    /// alone, as for [`Instrumented`]).
    pub fn with_cells(inner: L, read: C, write: C) -> Self {
        InstrumentedRw {
            write: Instrumented::with_cell(inner, write),
            read,
        }
    }

    /// Telemetry of the shared (read) side.
    pub fn read_telemetry(&self) -> &TelemetryCell {
        self.read.borrow()
    }

    /// Telemetry of the exclusive (write) side.
    pub fn write_telemetry(&self) -> &TelemetryCell {
        self.write.telemetry()
    }

    /// The wrapped rwlock.
    pub fn inner(&self) -> &L {
        self.write.inner()
    }
}

impl<L: RawRwLock + Default> Default for InstrumentedRw<L> {
    fn default() -> Self {
        Self::new(L::default())
    }
}

impl<L: RawRwLock, C: Borrow<TelemetryCell> + Send + Sync> RawLock for InstrumentedRw<L, C> {
    type Token = L::Token;

    #[inline]
    fn lock(&self) -> L::Token {
        self.write.lock()
    }

    #[inline]
    fn try_lock(&self) -> Option<L::Token> {
        self.write.try_lock()
    }

    #[inline]
    fn unlock(&self, token: L::Token) {
        self.write.unlock(token);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.write.is_locked()
    }

    const NAME: &'static str = "instrumented-rw";
}

impl<L: RawRwLock, C: Borrow<TelemetryCell> + Send + Sync> RawRwLock for InstrumentedRw<L, C> {
    type ReadToken = L::ReadToken;

    #[inline]
    fn read(&self) -> L::ReadToken {
        let cell = self.read_telemetry();
        if !cell.armed() {
            return self.inner().read();
        }
        let contended = self.inner().is_write_locked();
        let sampling = cell.sampling();
        let t0 = if sampling && contended { now_ns() } else { 0 };
        let token = self.inner().read();
        if t0 != 0 {
            cell.add_wait_ns(now_ns().saturating_sub(t0));
        }
        cell.record_acquisition(contended);
        token
    }

    #[inline]
    fn try_read(&self) -> Option<L::ReadToken> {
        let token = self.inner().try_read()?;
        let cell = self.read_telemetry();
        if cell.armed() {
            cell.record_acquisition(false);
        }
        Some(token)
    }

    #[inline]
    fn unlock_read(&self, token: L::ReadToken) {
        self.inner().unlock_read(token);
    }

    #[inline]
    fn is_write_locked(&self) -> bool {
        self.inner().is_write_locked()
    }
}

// ---------------------------------------------------------------------------
// Process-wide profiling registry.
// ---------------------------------------------------------------------------

static PROFILING: AtomicBool = AtomicBool::new(false);

/// The zero-cost-when-off gate: while false, every instrumented
/// wrapper whose cell is not locally sampled fast-exits before any
/// counter RMW.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// One registry slot: a reporting label and the cell filed under it.
type LabeledCell = (String, Arc<TelemetryCell>);

fn registry() -> &'static Mutex<Vec<LabeledCell>> {
    static CELLS: OnceLock<Mutex<Vec<LabeledCell>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turn process-wide lock profiling on or off. While on,
/// [`maybe_instrument`] wraps locks and registers their cells (with
/// sampling enabled); the harness's `repro --profile` mode flips
/// this. Profiling implies [`recording`] — turning profiling off
/// turns the recording gate off too.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether process-wide lock profiling is on.
#[inline]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Arm (or disarm) counter recording in every instrumented wrapper
/// without turning on the full profiling registry — counts only, no
/// clock reads. [`set_profiling`] toggles this too.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether instrumented wrappers currently record counts (see the
/// module-level cost model).
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// File `cell` under `label` in the process-wide registry so
/// [`snapshots`] reports it.
pub fn register_cell(label: impl Into<String>, cell: Arc<TelemetryCell>) {
    registry()
        .lock()
        .expect("telemetry registry poisoned")
        .push((label.into(), cell));
}

/// Snapshot every registered cell, aggregated by label (several lock
/// instances created under the same label merge into one row),
/// preserving first-registration order.
pub fn snapshots() -> Vec<(String, TelemetrySnapshot)> {
    let cells = registry().lock().expect("telemetry registry poisoned");
    let mut out: Vec<(String, TelemetrySnapshot)> = Vec::new();
    for (label, cell) in cells.iter() {
        let snap = cell.snapshot();
        match out.iter_mut().find(|(l, _)| l == label) {
            Some((_, agg)) => *agg = agg.merged(&snap),
            None => out.push((label.clone(), snap)),
        }
    }
    out
}

/// Drop every registered cell (the harness clears between figures so
/// each profile table covers one figure's locks).
pub fn clear_registered() {
    registry()
        .lock()
        .expect("telemetry registry poisoned")
        .clear();
}

/// Number of cells currently registered. Pair with
/// [`truncate_registered`] for scoped cleanup: take the mark, register
/// throwaway cells (e.g. a measurement sweep), then truncate back —
/// without wiping cells other code registered before the mark.
pub fn registered_len() -> usize {
    registry()
        .lock()
        .expect("telemetry registry poisoned")
        .len()
}

/// Drop the cells registered at or after `mark` (a
/// [`registered_len`] reading). Registration appends, so this removes
/// exactly what was registered since the mark — provided no other
/// thread registered concurrently, which is the caller's contract.
pub fn truncate_registered(mark: usize) {
    registry()
        .lock()
        .expect("telemetry registry poisoned")
        .truncate(mark);
}

/// Wrap `lock` in an [`Instrumented`] (over the erased handle, and
/// erased again) recording into a fresh cell registered under `label`. While [`profiling`] is on the cell
/// samples hold/wait timing; otherwise it records only while the
/// [`recording`] gate is armed, so an `instrumented-<name>` spec left
/// in a production config costs one branch per acquisition, not a
/// clock read.
pub fn instrument(label: &str, lock: Arc<dyn PlainLock>) -> Arc<dyn PlainLock> {
    let cell = Arc::new(TelemetryCell::new());
    if profiling() {
        cell.set_sampling(true);
    }
    register_cell(label, cell.clone());
    Arc::new(Instrumented::with_cell(DynLock::new(lock), cell))
}

/// Wrap `lock` in an [`InstrumentedRw`] with fresh read/write
/// cells registered as `<label>.read` / `<label>.write` (sampling
/// follows [`profiling`], as in [`instrument`]).
pub fn instrument_rw(label: &str, lock: Arc<dyn PlainRwLock>) -> Arc<dyn PlainRwLock> {
    let read = Arc::new(TelemetryCell::new());
    let write = Arc::new(TelemetryCell::new());
    if profiling() {
        read.set_sampling(true);
        write.set_sampling(true);
    }
    register_cell(format!("{label}.read"), read.clone());
    register_cell(format!("{label}.write"), write.clone());
    Arc::new(InstrumentedRw::with_cells(
        DynRwLock::new(lock),
        read,
        write,
    ))
}

/// [`instrument`] when profiling is on; otherwise pass `lock` through
/// untouched (zero overhead outside profile runs).
pub fn maybe_instrument(label: &str, lock: Arc<dyn PlainLock>) -> Arc<dyn PlainLock> {
    if profiling() {
        instrument(label, lock)
    } else {
        lock
    }
}

/// [`instrument_rw`] when profiling is on; otherwise pass through.
pub fn maybe_instrument_rw(label: &str, lock: Arc<dyn PlainRwLock>) -> Arc<dyn PlainRwLock> {
    if profiling() {
        instrument_rw(label, lock)
    } else {
        lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Guard, ReadGuard};
    use crate::{McsLock, RwTicketLock, TasLock};
    use std::sync::Arc;

    #[test]
    fn cell_counts_and_resets() {
        let c = TelemetryCell::new();
        c.record_acquisition(false);
        c.record_acquisition(true);
        let s = c.snapshot();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.contention_ratio(), 0.5);
        c.reset();
        assert_eq!(c.snapshot(), TelemetrySnapshot::default());
    }

    #[test]
    fn sampling_gates_timing() {
        let c = TelemetryCell::new();
        // Off: hold notes are no-ops.
        c.note_hold_start();
        c.note_hold_end();
        assert_eq!(c.snapshot().hold_ns, 0);
        // On: a start/end pair accumulates.
        c.set_sampling(true);
        c.note_hold_start();
        asl_runtime::clock::busy_wait_ns(50_000);
        c.note_hold_end();
        assert!(c.snapshot().hold_ns >= 50_000);
    }

    #[test]
    fn the_mean_hold_is_over_the_timed_holds() {
        // The first hold of a sampling cell is timed; the census entry
        // point times each.
        let c = TelemetryCell::sampled();
        c.sample_hold_start();
        assert_ne!(c.hold_started_ns(), 0);
        c.note_hold_end();
        for _ in 0..3 {
            c.note_hold_start();
            c.note_hold_end();
        }
        assert_eq!(c.snapshot().timed_holds, 4);
        // 1 600 acquisitions, 100 of them timed at 50 ns each.
        let s = TelemetrySnapshot {
            acquisitions: 1_600,
            hold_ns: 5_000,
            timed_holds: 100,
            ..Default::default()
        };
        assert_eq!(s.avg_hold_ns(), 50.0);
        assert_eq!(s.merged(&s).timed_holds, 200);
        assert_eq!(s.merged(&s).delta(&s), s);
        c.reset();
        assert_eq!(c.snapshot(), TelemetrySnapshot::default());
    }

    #[test]
    fn instrumented_records_uncontended_and_contended() {
        let lock = Arc::new(Instrumented::sampled(McsLock::new()));
        {
            let _g = Guard::new(&*lock);
        }
        let s = lock.telemetry().snapshot();
        assert_eq!(s.acquisitions, 1);
        assert_eq!(s.contended, 0);
        assert!(s.hold_ns > 0, "sampled hold time must accumulate");

        // Deterministic contention: hold here, acquire over there.
        let g = Guard::new(&*lock);
        let l2 = lock.clone();
        let waiter = std::thread::spawn(move || {
            let _g = Guard::new(&*l2); // observes the lock held -> contended
        });
        // The waiter can only finish after we release.
        asl_runtime::clock::busy_wait_ns(200_000);
        drop(g);
        waiter.join().unwrap();
        let s = lock.telemetry().snapshot();
        assert_eq!(s.acquisitions, 3);
        assert_eq!(s.contended, 1);
        assert!(s.wait_ns > 0, "sampled wait time must accumulate");
    }

    #[test]
    fn unarmed_instrumented_is_a_passthrough() {
        // Neither the global recording gate nor local sampling is on:
        // the wrapper must not move any counter (the zero-cost-when-
        // off contract). Lock semantics still delegate fully.
        assert!(!recording(), "tests run with recording off by default");
        let lock = Instrumented::new(McsLock::new());
        {
            let _g = Guard::new(&lock);
            assert!(RawLock::is_locked(&lock));
        }
        let t = RawLock::try_lock(&lock).expect("free");
        RawLock::unlock(&lock, t);
        assert_eq!(lock.telemetry().snapshot(), TelemetrySnapshot::default());
    }

    #[test]
    fn instrumented_try_lock_counts_successes_only() {
        let lock = Instrumented::sampled(TasLock::new());
        let g = Guard::try_new(&lock).expect("free");
        assert!(Guard::try_new(&lock).is_none(), "held: try fails");
        drop(g);
        let s = lock.telemetry().snapshot();
        assert_eq!(s.acquisitions, 1, "failed try_lock is not an acquisition");
    }

    #[test]
    fn instrumented_rw_splits_read_write() {
        let lock = InstrumentedRw::sampled(RwTicketLock::new());
        {
            let _r1 = ReadGuard::new(&lock);
            let _r2 = ReadGuard::new(&lock);
        }
        {
            let _w = Guard::new(&lock);
        }
        assert_eq!(lock.read_telemetry().snapshot().acquisitions, 2);
        assert_eq!(lock.write_telemetry().snapshot().acquisitions, 1);
    }

    #[test]
    fn erased_wrapper_delegates_and_records() {
        let cell = Arc::new(TelemetryCell::sampled());
        let lock: Arc<dyn PlainLock> = Arc::new(Instrumented::with_cell(
            DynLock::of(McsLock::new()),
            cell.clone(),
        ));
        let t = lock.acquire();
        assert!(lock.held());
        assert!(lock.try_acquire().is_none());
        lock.release(t);
        assert!(!lock.held());
        assert_eq!(lock.lock_name(), "instrumented", "the wrapper names itself");
        assert_eq!(cell.snapshot().acquisitions, 1);
    }

    #[test]
    fn erased_rw_wrapper_delegates_and_records() {
        let read = Arc::new(TelemetryCell::sampled());
        let write = Arc::new(TelemetryCell::sampled());
        let lock: Arc<dyn PlainRwLock> = Arc::new(InstrumentedRw::with_cells(
            DynRwLock::new(Arc::new(RwTicketLock::new())),
            read.clone(),
            write.clone(),
        ));
        let r = lock.acquire_read();
        let r2 = lock.try_acquire_read().expect("reads overlap");
        lock.release_read(r);
        lock.release_read(r2);
        let w = lock.acquire();
        assert!(lock.write_held());
        lock.release(w);
        assert_eq!(read.snapshot().acquisitions, 2);
        assert_eq!(write.snapshot().acquisitions, 1);
    }

    #[test]
    fn registry_aggregates_by_label() {
        // Serialize against other tests that toggle the global flag.
        clear_registered();
        let a = Arc::new(TelemetryCell::new());
        let b = Arc::new(TelemetryCell::new());
        a.record_acquisition(true);
        b.record_acquisition(false);
        register_cell("same", a);
        register_cell("same", b);
        let snaps = snapshots();
        let (_, merged) = snaps.iter().find(|(l, _)| l == "same").unwrap();
        assert_eq!(merged.acquisitions, 2);
        assert_eq!(merged.contended, 1);
        clear_registered();
        assert!(!snapshots().iter().any(|(l, _)| l == "same"));
    }

    #[test]
    fn truncate_registered_is_scoped() {
        // Cells registered before the mark survive a truncate; cells
        // registered after it are dropped. Unique labels, since the
        // registry is process-global.
        register_cell("trunc-test-before", Arc::new(TelemetryCell::new()));
        let mark = registered_len();
        register_cell("trunc-test-after", Arc::new(TelemetryCell::new()));
        assert!(registered_len() > mark);
        truncate_registered(mark);
        let labels: Vec<String> = snapshots().into_iter().map(|(l, _)| l).collect();
        assert!(labels.iter().any(|l| l == "trunc-test-before"));
        assert!(!labels.iter().any(|l| l == "trunc-test-after"));
    }

    #[test]
    fn contended_streak_advances_and_resets() {
        let c = TelemetryCell::new();
        assert_eq!(c.contended_streak(), 0);
        c.record_acquisition(true);
        c.record_acquisition(true);
        assert_eq!(c.contended_streak(), 2);
        c.record_acquisition(false);
        assert_eq!(c.contended_streak(), 0, "uncontended resets the streak");
        c.record_acquisition(true);
        assert_eq!(c.contended_streak(), 1);
        // The split API is streak-neutral.
        c.record_contended();
        c.record_acquired_exclusive();
        assert_eq!(c.contended_streak(), 1);
        c.reset();
        assert_eq!(c.contended_streak(), 0);
    }

    #[test]
    fn snapshot_delta_is_a_window() {
        let c = TelemetryCell::new();
        c.record_acquisition(true);
        let early = c.snapshot();
        c.record_acquisition(false);
        c.record_acquisition(true);
        c.add_wait_ns(100);
        let w = c.snapshot().delta(&early);
        assert_eq!(w.acquisitions, 2);
        assert_eq!(w.contended, 1);
        assert_eq!(w.wait_ns, 100);
        // Saturating: a reset between snapshots cannot underflow.
        c.reset();
        let w2 = c.snapshot().delta(&early);
        assert_eq!(w2.acquisitions, 0);
    }

    #[test]
    fn maybe_instrument_is_identity_when_off() {
        assert!(!profiling(), "tests run with profiling off by default");
        let inner: Arc<dyn PlainLock> = Arc::new(McsLock::new());
        let out = maybe_instrument("noop", inner.clone());
        assert!(Arc::ptr_eq(&inner, &out));
    }
}
