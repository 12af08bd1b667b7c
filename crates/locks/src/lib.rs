//! # asl-locks — the lock zoo
//!
//! Every lock the paper measures or builds on, implemented from
//! scratch over `core::sync::atomic`:
//!
//! | Lock | Paper role | Module |
//! |---|---|---|
//! | [`TasLock`] | unfair baseline whose affinity collapses latency (Figs. 1, 4) | [`tas`] |
//! | [`TicketLock`] | FIFO baseline (Fig. 8a) | [`ticket`] |
//! | [`BackoffLock`] | what LibASL degenerates to among little cores (§3.4) | [`backoff`] |
//! | [`McsLock`] | the FIFO queue under the reorderable lock (Figs. 1–10): [`QueueLock`] with the [`Fifo`] head policy | [`mcs`] |
//! | [`ClhLock`] | alternative FIFO substrate (`repro sim-ablate`, `fifo` group) | [`clh`] |
//! | [`ProportionalLock`] | SHFL-PB10: static proportional policy (Figs. 5, 8a, 8g, 9, 10) | [`proportional`] |
//! | [`PthreadMutex`] | glibc-style spin-then-futex blocking mutex (Figs. 8h, 8i) | [`blocking`] |
//! | [`McsStpLock`] | spin-then-park MCS, the blocking FIFO strawman of Bench-6 | [`blocking`] |
//! | [`CnaLock`] | compact NUMA-aware lock on core classes (§2.2 NUMA collapse): `QueueLock<`[`Numa`]`>` | [`mcs`] |
//! | [`CohortLock`] | lock cohorting on core classes (§2.2 NUMA collapse) | [`cohort`] |
//! | [`MalthusianLock`] | culling + periodic reintroduction (§2.2 long-term fairness): `QueueLock<`[`Cull`]`>` | [`mcs`] |
//! | [`ShuffleLock`] | ShflLock-style framework with pluggable policies (§5; `repro sim-ablate`, `policy` group): `QueueLock<`[`Shuffle`]`<S>>`, the decision functions in [`shuffle`] | [`mcs`] |
//! | [`FlatCombiner`] | flat-combining delegation: publication-slot engine, a submitter executes (§5 related-work comparator) | [`flatcomb`] |
//! | [`RclLock`] | RCL-style client/server lock: the same engine, a dedicated (caller-pinnable) server executes (§5) | [`rcl`] |
//! | [`FcBan`] | usage-fair banning combiner: the same engine with the ban policy — overdrawn threads wait out their overage | [`fcban`] |
//! | [`CcSynch`] | combining-queue delegation, cache-local combiner handoff (§5) | [`ccsynch`] |
//! | [`RwTicketLock`] | phase-fair ticket reader-writer lock (read-mostly workloads) | [`rw_ticket`] |
//! | [`Bravo`] | BRAVO-style reader-bias wrapper: any exclusive lock becomes an rwlock | [`bravo`] |
//! | [`FissileLock`] | `adaptive`: contention-adaptive barging (Fissile Locks) — arrivals take a free word past the queue until its head has waited [`mcs::PATIENCE`] polls: `QueueLock<`[`Impatient`]`>`; a bare lock like `ticket` and `mcs` — restricted, it is `gcr-adaptive` | [`mcs`] |
//!
//! The five MCS-family locks are one queue lock: a lock word in front
//! of one MCS queue, whose waiting head applies the ordering policy
//! while the holder runs, and closes the fast path when it runs out
//! of patience ([`mcs`]).
//!
//! The [`asynclock`] module is the task-parking counterpart of the
//! zoo: one [`AsyncMutex`], built with its [`AsyncPolicy`] — SLO-aware
//! deadline-ordered wakes (the async analogue of the paper's reorder
//! window) or the arrival-order baseline — parks waiters as queued
//! wakers instead of blocked threads, the substrate for
//! connection-per-task serving.
//!
//! Observability is a first-class layer: [`telemetry`] provides the
//! lock-agnostic [`telemetry::TelemetryCell`] counters, the
//! [`telemetry::Instrumented`] wrapper that records them for *any*
//! lock (plus a read cell beside it for a reader-writer lock;
//! runtime-chosen locks are wrapped by the same two types), and the
//! process-wide profiling registry behind `repro --profile`.
//!
//! The delegation family is one mechanism written once:
//! [`delegation`] holds the publication-slot engine behind
//! [`FlatCombiner`], [`RclLock`] and [`FcBan`] — who executes
//! (combining submitter or dedicated server) and the usage policy
//! (none or ban) are its two axes, the `const` parameters of the one
//! type [`SlotLock`] the three names alias, [`SlotHandle`] its one
//! handle — plus the interface ([`DelegationLock`]/[`DelegationHandle`]) and
//! the baton bridge ([`DelegatedMutex`]) that makes every member a
//! registry name.
//!
//! Robustness is another: [`timed`] defines [`RawTimedLock`]
//! (deadline-bounded acquisition with per-family back-out protocols,
//! implemented for TAS, ticket, every `QueueLock<P>` and `Gcr<L>`).
//!
//! Two lock interfaces are provided, and in each a reader-writer lock
//! is an exclusive lock with a shared side (`RawRwLock: RawLock`,
//! `PlainRwLock: PlainLock`):
//!
//! * **Guards over [`RawLock`]** — the recommended surface, in [`api`].
//!   [`RawLock`] itself is statically dispatched and token-based:
//!   textbook queue locks' tokens carry queue-node ownership (CLH,
//!   cohort, `mcs-stp`) so locks stay allocation-free on the hot path;
//!   a [`QueueLock`] holder owns only its lock word, and its token is
//!   zero-sized. The reorderable lock in `asl-core` composes over any
//!   `RawLock + FifoLock`, and every wrapper ([`Gcr`],
//!   [`Instrumented`]) is written once against it. Application code
//!   holds acquisitions as one guard per mode: [`api::Guard`] for an
//!   exclusive acquisition of any lock, rwlocks included (handed out
//!   by `Guard::new(&lock)` and by the data-carrying [`api::Mutex`]),
//!   and [`api::ReadGuard`] for a shared one (a `Mutex` over an rwlock
//!   hands it out from `read`: there is no second container).
//!   Releasing happens on drop (including panic unwind), so the
//!   forget-to-release and release-wrong-lock bug classes of the token
//!   calls cannot occur.
//! * **The erased facade** — [`PlainLock`] / [`PlainRwLock`]
//!   (`Arc<dyn PlainLock>`) with an opaque two-word token, and a
//!   three-word one for a shared acquisition, blanket-implemented for
//!   every raw lock whose tokens are word-encodable
//!   ([`plain::TokenWords`]). Its RAII handle [`api::DynLock`] wraps
//!   either object — [`api::DynRwLock`] is `DynLock<dyn PlainRwLock>`
//!   — and is itself a `RawLock` / `RawRwLock`, so a lock chosen at
//!   runtime is one more lock type parameter of the guards above
//!   (`api::DynMutex` is `Mutex<T, DynLock>`, `api::DynRwMutex`
//!   `Mutex<T, DynRwLock>`), and
//!   wrappers over a handle erase again without a second
//!   implementation of the wrapper. In debug builds tokens are tagged
//!   with the issuing lock and cross-lock releases panic; a shared
//!   token released through the exclusive path does not compile.
//!
//! ```
//! use asl_locks::api::{DynLock, Mutex};
//! use asl_locks::{McsLock, TicketLock};
//!
//! // Static dispatch: the lock implementation is a type parameter.
//! let hits: Mutex<u64, McsLock> = Mutex::new(0);
//! *hits.lock() += 1;
//! assert_eq!(*hits.lock(), 1);
//!
//! // Dynamic dispatch: pick the implementation at runtime.
//! let lock = DynLock::of(TicketLock::new());
//! {
//!     let _held = lock.lock();   // released when `_held` drops
//!     assert!(lock.is_locked());
//! }
//! assert!(!lock.is_locked());
//! ```

pub mod api;
pub mod asynclock;
pub mod backoff;
pub mod blocking;
pub mod bravo;
pub mod ccsynch;
pub mod clh;
pub mod cohort;
pub mod delegation;
pub mod fcban;
pub mod flatcomb;
pub mod futex;
pub mod gcr;
pub mod mcs;
pub mod plain;
mod pool;
pub mod proportional;
pub mod rcl;
pub mod rw_ticket;
pub mod shuffle;
pub mod tas;
pub mod telemetry;
pub mod ticket;
pub mod timed;

pub use api::{DynLock, DynMutex, DynRwLock, DynRwMutex, Guard, Mutex, MutexGuard, ReadGuard};
pub use asynclock::{AsyncDynMutex, AsyncGuard, AsyncMutex, AsyncPolicy};
pub use backoff::BackoffLock;
pub use blocking::{McsStpLock, PthreadMutex};
pub use bravo::Bravo;
pub use ccsynch::CcSynch;
pub use clh::ClhLock;
pub use cohort::CohortLock;
pub use delegation::{
    bridge_apply, BridgeOp, DelegatedMutex, DelegationHandle, DelegationLock, SlotHandle, SlotLock,
    SlotsExhausted, MAX_SLOTS,
};
pub use fcban::FcBan;
pub use flatcomb::FlatCombiner;
pub use gcr::{Gcr, GcrConfig};
pub use mcs::{
    CnaLock, Cull, Fifo, FissileLock, HeadPolicy, Impatient, MalthusianLock, McsLock, Numa,
    QueueLock, Shuffle, ShuffleLock,
};
pub use plain::{ExclusiveRw, PlainLock, PlainRwLock, PlainRwToken, PlainToken};
pub use proportional::ProportionalLock;
pub use rcl::{RclLock, RclServer};
pub use rw_ticket::RwTicketLock;
pub use shuffle::{Candidate, ShufflePolicy};
pub use tas::TasLock;
pub use telemetry::{Instrumented, InstrumentedRw, TelemetryCell, TelemetrySnapshot};
pub use ticket::TicketLock;
pub use timed::RawTimedLock;

/// A statically dispatched lock.
///
/// `lock` returns a token that must be passed back to `unlock` by the
/// same thread. Textbook queue locks use the token to carry their
/// queue node; simple locks use `()`.
pub trait RawLock: Send + Sync {
    /// Proof of acquisition, consumed by [`RawLock::unlock`].
    type Token;

    /// Acquire, blocking (spinning or parking) until granted.
    fn lock(&self) -> Self::Token;

    /// Try to acquire without waiting.
    fn try_lock(&self) -> Option<Self::Token>;

    /// Release. `token` must come from a matching `lock`/`try_lock`
    /// on this lock by the calling thread.
    fn unlock(&self, token: Self::Token);

    /// Heuristic "is anyone holding or queued" check — the
    /// reorderable lock's `is_lock_free` probe reads this. May be
    /// momentarily stale; never used for mutual exclusion itself.
    fn is_locked(&self) -> bool;

    /// Short lock name for reports.
    const NAME: &'static str;
}

/// Marker: the lock grants strictly in arrival (FIFO) order.
/// The reorderable lock requires its underlying lock to be FIFO for
/// the paper's bounded-reordering guarantee to hold.
pub trait FifoLock: RawLock {}

/// A statically dispatched reader-writer lock: a [`RawLock`] with a
/// shared side.
///
/// The exclusive side is the [`RawLock`] interface itself — `lock`
/// excludes both readers and other writers, its token is the lock's
/// `Token`, and `is_locked` sees holders of either mode — so every
/// layer written over `RawLock` ([`api::Guard`], [`api::Mutex`],
/// [`Instrumented`], the facade) serves rwlocks unchanged. `read`
/// admits any number of concurrent holders. Like
/// [`RawLock`], acquisitions return tokens that must be passed back to
/// the matching unlock by the same thread — application code should
/// hold them as RAII guards from [`api`] ([`api::ReadGuard`],
/// [`api::Guard`], [`api::Mutex::read`]) instead of threading tokens
/// by hand.
pub trait RawRwLock: RawLock {
    /// Proof of a shared acquisition, consumed by
    /// [`RawRwLock::unlock_read`].
    type ReadToken;

    /// Acquire shared, blocking until granted. Multiple readers may
    /// hold the lock simultaneously; no writer can.
    fn read(&self) -> Self::ReadToken;

    /// Try to acquire shared without waiting.
    fn try_read(&self) -> Option<Self::ReadToken>;

    /// Release a shared acquisition. `token` must come from a matching
    /// `read`/`try_read` on this lock by the calling thread.
    fn unlock_read(&self, token: Self::ReadToken);

    /// Heuristic "is a writer holding or draining readers" check.
    fn is_write_locked(&self) -> bool;
}

#[cfg(test)]
mod tests {
    //! Cross-implementation mutual-exclusion tests: every lock type
    //! protects a plain (non-atomic) counter against data races.
    use super::*;
    use std::sync::Arc;

    fn hammer<L: RawLock + 'static>(lock: Arc<L>, threads: usize, iters: usize) -> u64 {
        // A non-atomic counter in an UnsafeCell: only mutual exclusion
        // makes this race-free.
        struct Shared<L> {
            lock: Arc<L>,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl<L: Send + Sync> Sync for Shared<L> {}
        let shared = Arc::new(Shared {
            lock,
            value: std::cell::UnsafeCell::new(0),
        });
        let mut handles = vec![];
        for _ in 0..threads {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    let tok = s.lock.lock();
                    unsafe { *s.value.get() += 1 };
                    s.lock.unlock(tok);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        unsafe { *shared.value.get() }
    }

    #[test]
    fn tas_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(TasLock::default()), 8, 10_000), 80_000);
    }

    #[test]
    fn ticket_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(TicketLock::new()), 8, 10_000), 80_000);
    }

    #[test]
    fn backoff_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(BackoffLock::new()), 8, 10_000), 80_000);
    }

    #[test]
    fn mcs_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(McsLock::new()), 8, 10_000), 80_000);
    }

    #[test]
    fn clh_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(ClhLock::new()), 8, 10_000), 80_000);
    }

    #[test]
    fn proportional_mutual_exclusion() {
        assert_eq!(
            hammer(Arc::new(ProportionalLock::new(10)), 8, 10_000),
            80_000
        );
    }

    #[test]
    fn pthread_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(PthreadMutex::new()), 8, 10_000), 80_000);
    }

    #[test]
    fn mcs_stp_mutual_exclusion() {
        assert_eq!(hammer(Arc::new(McsStpLock::new()), 8, 10_000), 80_000);
    }

    #[test]
    fn blocking_locks_progress_with_four_threads_per_cpu() {
        // 4x more threads than cores: blocking locks must still finish.
        let n = 4 * asl_runtime::affinity::online_cpus().min(8);
        assert_eq!(
            hammer(Arc::new(PthreadMutex::new()), n, 2_000) as usize,
            n * 2_000
        );
        assert_eq!(
            hammer(Arc::new(McsStpLock::new()), n, 2_000) as usize,
            n * 2_000
        );
    }
}
