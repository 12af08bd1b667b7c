//! # asl-runtime — virtual asymmetric-multicore (AMP) substrate
//!
//! The LibASL paper (PPoPP 2022) evaluates on an Apple M1 with 4 "big"
//! and 4 "little" cores. This crate reproduces the *behavioural*
//! asymmetry of such a machine on ordinary symmetric hardware:
//!
//! * [`Topology`] describes a virtual AMP: a set of [`VirtualCore`](topology::VirtualCore)s,
//!   each either [`CoreKind::Big`] or [`CoreKind::Little`], and a
//!   `perf_ratio` — how many times slower a little core executes the
//!   same work.
//! * [`registry`] binds a thread to a virtual core. Thread-locals make
//!   `is_big_core()` a few-nanosecond lookup, exactly like the paper's
//!   "get the core id and look up a pre-defined table". Threads run on
//!   a modeled machine through `asl_sim::exec::run_threads`, which
//!   registers each of its virtual threads; a test whose point is real
//!   concurrency registers its own OS threads.
//! * [`work`] executes *emulated work*: a calibrated spin loop whose
//!   iteration count is multiplied by `perf_ratio` when the calling
//!   thread is registered on a little core. Every critical- and
//!   non-critical-section body in the reproduction runs through it, so
//!   little cores really do spend `ratio×` longer holding locks.
//! * [`cacheline`] provides a shared, 64-byte-aligned arena so critical
//!   sections generate genuine cache-coherence traffic (the paper's
//!   "read-modify-write k shared cache lines").
//! * [`atomic_model`] models the asymmetric success rate of atomic
//!   operations (paper §2.2): a configurable penalty that the
//!   disadvantaged core class pays between failed lock attempts.
//! * [`affinity`] pins a thread to one physical CPU — the simulator's
//!   engine runs that way — and counts the CPUs a process may use.
//! * [`exec`] is a minimal no-dependency async executor (multi-worker
//!   run queue, spin-then-park `block_on`, one allocation and no
//!   system call per task that never waits) — the task substrate for
//!   connection-per-task serving workloads, where `asl-locks`' async
//!   mutexes park waiters as queued wakers instead of blocked threads.
//! * [`substrate`] is the pluggable execution backend behind every
//!   lock-visible platform interaction (clock reads, spin-loop
//!   relaxes, emulated work, park/unpark). The default is the OS —
//!   one relaxed atomic load of overhead on the hot paths; `asl-sim`
//!   installs a virtual-time backend to run the unmodified locks on a
//!   modeled machine, deterministically.
//! * [`fault`] decorates either substrate backend with seeded,
//!   replayable fault injection — lock-holder stalls at poll/park/wake
//!   boundaries, spurious park returns, forward clock jumps, planned
//!   critical-section panics — so the torture harness can drive the
//!   unmodified locks through their liveness obligations.
//!
//! Nothing in this crate depends on the lock algorithms; it is the
//! hardware stand-in every other crate builds on.

pub mod affinity;
pub mod atomic_model;
pub mod cacheline;
pub mod clock;
pub mod exec;
pub mod fault;
pub mod registry;
pub mod relax;
pub mod stats;
pub mod substrate;
pub mod topology;
pub mod work;

pub use atomic_model::AtomicAffinity;
pub use cacheline::CacheLineArena;
pub use clock::now_ns;
pub use exec::{block_on, wait_stats, ExecStats, Executor, JoinHandle, WaitStats};
pub use fault::{FaultInjector, FaultPlan, FaultState, FaultStats};
pub use registry::{current_core, is_big_core, register_on_core, CoreAssignment};
pub use relax::Spin;
pub use substrate::Substrate;
pub use topology::{CoreId, CoreKind, Topology};
pub use work::{execute_raw_units, execute_units, units_per_us};
