//! # libasl — asymmetry-aware scalable locking
//!
//! A comprehensive Rust reproduction of *"Asymmetry-aware Scalable
//! Locking"* (Liu et al., PPoPP 2022): the LibASL lock, every baseline
//! it is evaluated against, the asymmetric-multicore substrate the
//! evaluation needs, five database-like workloads, a deterministic
//! simulator, and a harness regenerating every figure of the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`runtime`] — virtual AMP topologies, core registry, emulated
//!   work, cache-line arenas ([`asl_runtime`]).
//! * [`locks`] — the lock zoo: TAS, ticket, back-off, MCS, CLH,
//!   proportional (SHFL-PB), futex mutex, spin-then-park MCS, plus
//!   the reader-writer substrates (phase-fair ticket, BRAVO) — and
//!   the guard-based unified API every layer locks through
//!   (`asl_locks::api`: one guard per acquisition mode — [`Guard`]
//!   exclusive, a reader-writer lock's included, and [`ReadGuard`]
//!   shared — handed out alike by a bare lock and by the one
//!   data-carrying container `api::Mutex`, generic over the lock type,
//!   which over a reader-writer lock also reads; below them, the
//!   erased facade, whose one handle [`DynLock`] — [`DynRwLock`] is
//!   `DynLock<dyn PlainRwLock>` — is the type parameter for locks
//!   chosen at runtime, [`DynMutex`] and [`DynRwMutex`] being
//!   aliases) ([`asl_locks`]).
//!   Observability is first-class: `asl_locks::telemetry` records
//!   lock-agnostic acquisition counters ([`TelemetryCell`],
//!   [`Instrumented`]). The contention-adaptive lock,
//!   `asl_locks::FissileLock`, is one more policy of the MCS queue
//!   lock: arrivals barge past the queue until its head runs out of
//!   patience. Generic concurrency restriction ([`Gcr`]) wraps
//!   *any* lock in an admission gate that parks surplus waiters
//!   passively — the collapse-proofing layer behind every
//!   `gcr-<name>` registry spec (`Gcr<DynLock>`), `gcr-adaptive`
//!   included: restriction is written once. The async
//!   layer, one [`AsyncMutex`] built with its [`AsyncPolicy`], parks
//!   waiters as queued wakers on the [`runtime`]'s executor
//!   ([`Executor`], [`block_on`]) and wakes them FIFO or in SLO-aware
//!   deadline order. The delegation family ([`FlatCombiner`],
//!   [`CcSynch`], [`RclLock`], [`FcBan`]) executes submitted ops at a
//!   combiner or dedicated server instead of migrating the lock.
//!   Three of the four are one publication-slot engine,
//!   [`SlotLock`], whose two `const` parameters are who executes (a
//!   combining submitter or a dedicated server) and the usage policy
//!   (none or ban); the names are aliases of it and [`SlotHandle`] is
//!   its one handle. The family is unified by
//!   [`DelegationLock`]/[`DelegationHandle`] and bridged into the
//!   registry (`flatcomb`, `ccsynch`, `rcl`, `fc-ban`) by
//!   [`DelegatedMutex`], which wraps a guard's critical section in
//!   two delegated baton-transfer ops (the section itself runs on
//!   the caller).
//! * [`core`] — LibASL itself: the one [`AslLock`] (bounded
//!   reordering and the asymmetry-aware dispatch), epoch/SLO feedback,
//!   the [`Mutex`] over it ([`asl_core`]).
//! * [`sim`] — the deterministic virtual-time engine that runs the
//!   real lock zoo on a modeled machine ([`asl_sim`]).
//! * [`dbsim`] — the five miniature storage engines of the paper's
//!   application benchmarks ([`asl_dbsim`]).
//! * [`harness`] — measurement, per-figure reproduction drivers and
//!   the `repro` CLI ([`asl_harness`]).
//!
//! ## Quick start
//!
//! Everything locks through RAII guards — acquisitions are values,
//! released on drop (even across panics):
//!
//! ```
//! use libasl::{epoch, Mutex};
//! use libasl::runtime::{register_on_core, Topology};
//! use libasl::runtime::topology::CoreId;
//!
//! // Describe the AMP; register this thread on a little core.
//! let topo = Topology::apple_m1();
//! register_on_core(&topo, CoreId(4));
//!
//! let inventory = Mutex::new(0u64);
//!
//! // A latency-critical request handler with a 2 ms SLO (epoch 0).
//! epoch::with_epoch(0, 2_000_000, || {
//!     *inventory.lock() += 1; // guard acquired and dropped in place
//! });
//! assert_eq!(*inventory.lock(), 1);
//! ```
//!
//! Runtime-chosen locks come from the string-addressable registry
//! (`repro locks` lists every name) and hand out the same guards:
//!
//! ```
//! use libasl::harness::locks::LockSpec;
//!
//! let spec: LockSpec = "libasl-max".parse().unwrap();
//! let lock = spec.make_dyn();
//! {
//!     let _held = lock.lock();
//!     assert!(lock.is_locked());
//! } // released on drop
//! assert!(!lock.is_locked());
//! ```
//!
//! Contended hot state can skip lock migration entirely: the
//! delegation family ([`FlatCombiner`], [`CcSynch`], [`RclLock`],
//! [`FcBan`]) ships the *operation* to a combiner or server thread
//! instead of shipping the lock to the waiter. Submit ops through a
//! per-thread handle; the result comes back when some thread has
//! executed it:
//!
//! ```
//! use libasl::{CcSynch, DelegationHandle};
//!
//! // The op language: add `n`, return the new total.
//! let counter = CcSynch::new(0u64, |total: &mut u64, n: u64| {
//!     *total += n;
//!     *total
//! });
//! let h = counter.register();
//! assert_eq!(h.apply(2), 2);
//! let t = {
//!     let h2 = counter.register();
//!     std::thread::spawn(move || h2.apply(3))
//! };
//! assert_eq!(t.join().unwrap(), 5);
//! drop(h);
//! assert_eq!(counter.into_inner(), 5);
//! ```
//!
//! When runnable threads outnumber cores, restrict instead of queue:
//! [`Gcr`] wraps any lock in an admission gate — at most `K` threads
//! compete inside, the rest park passively (off the run queue) and
//! are reintroduced periodically for long-term fairness. The same
//! guards, no collapse at 128 threads on 8 cores:
//!
//! ```
//! use libasl::locks::{RawLock, TicketLock};
//! use libasl::{Gcr, GcrConfig, Guard};
//!
//! // Admit at most 2 threads into the ticket lock's waiter set.
//! let lock = Gcr::with_config(TicketLock::new(), GcrConfig::fixed(2));
//! {
//!     let _held = Guard::new(&lock);
//!     assert!(lock.is_locked());
//!     assert_eq!(lock.limit(), 2);
//! }
//! assert!(!lock.is_locked());
//! ```
//!
//! Read-mostly state goes behind a reader-writer lock — the same
//! container over a lock with a shared side: shared guards overlap,
//! exclusive guards exclude everyone:
//!
//! ```
//! use libasl::RwLock;
//!
//! let catalog: RwLock<Vec<&str>> = RwLock::new(vec!["a"]);
//! catalog.lock().push("b");         // exclusive
//! let r1 = catalog.read();          // shared...
//! let r2 = catalog.read();          // ...concurrently
//! assert_eq!(r1.len() + r2.len(), 4);
//! ```
//!
//! Async critical sections park *tasks*, not threads: `lock().await`
//! queues a waker a few hundred bytes wide, which is what lets the KV
//! service model 10⁵–10⁶ concurrent clients. Guards release on drop
//! here too:
//!
//! ```
//! use std::sync::Arc;
//! use libasl::{block_on, AsyncMutex, AsyncPolicy, Executor};
//!
//! let exec = Executor::new(2);
//! let total = Arc::new(AsyncMutex::new(AsyncPolicy::Fifo, 0u64));
//! let handles: Vec<_> = (0..8)
//!     .map(|_| {
//!         let total = total.clone();
//!         exec.spawn(async move { *total.lock().await += 1 })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join();
//! }
//! assert_eq!(*block_on(total.lock()), 8);
//! ```

pub use asl_core as core;
pub use asl_dbsim as dbsim;
pub use asl_harness as harness;
pub use asl_locks as locks;
pub use asl_runtime as runtime;
pub use asl_sim as sim;

pub use asl_core::epoch;
pub use asl_core::{AslBlockingLock, AslCondvar, AslLock, AslMutex, AslRwLock, AslSpinLock};
pub use asl_locks::api::{DynLock, DynMutex, DynRwLock, DynRwMutex, Guard, ReadGuard};
pub use asl_locks::{AsyncGuard, AsyncMutex, AsyncPolicy};
pub use asl_locks::{
    CcSynch, DelegatedMutex, DelegationHandle, DelegationLock, FcBan, FlatCombiner, RclLock,
    RclServer, SlotHandle, SlotLock, SlotsExhausted,
};
pub use asl_locks::{Gcr, GcrConfig};
pub use asl_locks::{Instrumented, TelemetryCell, TelemetrySnapshot};
pub use asl_runtime::clock;
pub use asl_runtime::{
    block_on, wait_stats, CoreKind, ExecStats, Executor, JoinHandle, Topology, WaitStats,
};

/// The recommended application-facing mutex: the LibASL lock over MCS
/// (its statistics are `raw().stats()`).
pub type Mutex<T> = asl_core::AslMutex<T>;

/// The recommended application-facing reader-writer lock: shared
/// reads batched over a LibASL writer substrate. It is the mutex
/// container over an rwlock: `lock` writes, `read` reads.
pub type RwLock<T> = asl_locks::api::Mutex<T, asl_core::AslRwLock>;
