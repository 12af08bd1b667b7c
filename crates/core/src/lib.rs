//! # asl-core — LibASL: asymmetry-aware scalable locking
//!
//! The paper's contribution (PPoPP 2022), reproduced, with two
//! measured and documented departures ([`wait`], [`epoch`]):
//!
//! * [`ReorderableLock`] (paper Algorithm 1) — exposes *bounded
//!   reordering* atop any underlying lock: `lock_immediately` enqueues
//!   now; `lock_reorder(window)` first stands by, probing the lock on
//!   every poll, and only enqueues when the lock looks free or the
//!   window expires.
//! * [`epoch`] (after Algorithm 2) — per-thread epoch metadata and the
//!   SLO feedback loop, a scale-free percentile tracker: a miss cuts a
//!   quarter of a little core's reorder window, a hit adds 0.19 % (at
//!   PCT = 99), so misses settle just under the `(100-PCT)%` allowed.
//! * [`AslLock`] / [`AslMutex`] (Algorithm 3) — the dispatch layer:
//!   big cores lock immediately, little cores stand by for the current
//!   epoch's window (or the default max window outside epochs).
//!   Generic over its FIFO substrate (`AslLock<L: RawLock + FifoLock>`
//!   with MCS as the default; `AslLock::new(ClhLock::new())` and the
//!   like pick the alternatives), and itself a
//!   `RawLock`, so the RAII guard API of `asl_locks::api` applies.
//!   Acquisitions are held as guards and released on drop — the
//!   manual `acquire`/`release` pairing of earlier revisions survives
//!   only as the documented low-level escape hatch.
//! * [`AslRwLock`] — reader-writer locking with LibASL ordering:
//!   reacquisition-based reader batching over an [`AslLock`] writer
//!   substrate, so SLO-aware reordering composes with shared access
//!   (read-mostly workloads like YCSB-B/C).
//! * [`wait`] — standby waiting policies: spinning (default) and
//!   `nanosleep`-based back-off for over-subscribed systems (Bench-6).
//! * [`profile`] — the paper's profiling tool: sweep an SLO range and
//!   emit the latency-throughput curve for applications without a
//!   predefined SLO. Profile points carry the lock-agnostic
//!   `asl_locks::telemetry::TelemetrySnapshot`, the same shared
//!   format [`LockStats`] embeds — ASL path counters are a thin layer
//!   over the zoo-wide telemetry subsystem, not a private scheme.
//!
//! ## Quick start
//!
//! ```
//! use asl_core::{epoch, AslMutex};
//! use asl_runtime::{register_on_core, Topology};
//! use asl_runtime::topology::CoreId;
//!
//! // Describe the AMP and register this thread on a little core.
//! let topo = Topology::apple_m1();
//! register_on_core(&topo, CoreId(5));
//!
//! let counter = AslMutex::new(0u64);
//! // A latency-critical request handler: epoch 0 with a 1 ms SLO.
//! epoch::with_epoch(0, 1_000_000, || {
//!     *counter.lock() += 1;
//! });
//! assert_eq!(*counter.lock(), 1);
//! ```

pub mod condvar;
pub mod config;
pub mod epoch;
pub mod mutex;
pub mod profile;
pub mod reorderable;
pub mod rwlock;
pub mod stats;
pub mod wait;

pub use condvar::AslCondvar;
pub use mutex::{AslBlockingLock, AslLock, AslMutex, AslSpinLock};
pub use reorderable::ReorderableLock;
pub use rwlock::AslRwLock;
pub use stats::{LockStats, LockStatsSnapshot};
pub use wait::{SleepWait, SpinWait, WaitPolicy};
