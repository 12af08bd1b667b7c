//! Exact, always-on assertions of properties real threads show only
//! when the host has a CPU per thread: on a small host the OS scheduler
//! can preempt a waiter (blowing the starvation bound) or serialize
//! readers (hiding their overlap). On the simulated machine parallelism
//! is a modeling fact, not an OS accident, so both are asserted
//! *exactly* and unconditionally here:
//!
//! * read-side overlap of a reader-writer lock (`rw_api.rs` keeps the
//!   real-thread mutual-exclusion half);
//! * the reorder-window starvation bound of the LibASL lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asl_core::AslSpinLock;
use asl_locks::plain::PlainRwLock;
use asl_locks::RwTicketLock;
use asl_runtime::work::execute_units;
use asl_runtime::{now_ns, Topology};
use asl_sim::exec::{run_threads, ZooConfig};
use asl_sim::zoo::run_lock;

/// Outcome of [`rw_mix`].
#[derive(Debug, Clone, PartialEq)]
struct RwMix {
    total_reads: u64,
    total_writes: u64,
    per_thread_ops: Vec<u64>,
    /// Exact maximum number of read guards held concurrently (in
    /// virtual time) at any point.
    max_concurrent_readers: u64,
    virtual_ns: u64,
}

/// Deterministic per-(thread, iteration) coin for read/write mixes.
fn splitmix(tid: u64, iter: u64) -> u64 {
    let mut z = tid
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(iter)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `cfg.threads` virtual threads cycling *operation → NCS* until
/// `cfg.duration_ns`, each operation a write with probability `write_pct`%
/// (deterministic per thread and iteration), otherwise a read. The
/// reader counts are plain atomics and still exact: the engine runs
/// one virtual thread at a time.
fn rw_mix(cfg: &ZooConfig, lock: Arc<dyn PlainRwLock>, write_pct: u32) -> RwMix {
    let (reads, writes) = (AtomicU64::new(0), AtomicU64::new(0));
    let (readers_now, readers_max) = (AtomicU64::new(0), AtomicU64::new(0));
    let ops: Vec<AtomicU64> = (0..cfg.threads).map(|_| AtomicU64::new(0)).collect();
    let virtual_ns = run_threads(cfg, |tid| {
        let mut iter = 0u64;
        while now_ns() < cfg.duration_ns {
            if splitmix(tid as u64, iter) % 100 < u64::from(write_pct) {
                let token = lock.acquire();
                writes.fetch_add(1, Ordering::Relaxed);
                execute_units(cfg.cs_units);
                lock.release(token);
            } else {
                let token = lock.acquire_read();
                reads.fetch_add(1, Ordering::Relaxed);
                let now = readers_now.fetch_add(1, Ordering::Relaxed) + 1;
                readers_max.fetch_max(now, Ordering::Relaxed);
                execute_units(cfg.cs_units);
                readers_now.fetch_sub(1, Ordering::Relaxed);
                lock.release_read(token);
            }
            ops[tid].fetch_add(1, Ordering::Relaxed);
            execute_units(cfg.ncs_units);
            iter += 1;
        }
    });
    RwMix {
        total_reads: reads.into_inner(),
        total_writes: writes.into_inner(),
        per_thread_ops: ops.into_iter().map(AtomicU64::into_inner).collect(),
        max_concurrent_readers: readers_max.into_inner(),
        virtual_ns,
    }
}

/// A parallel read-only run overlaps its readers — exactly, in
/// virtual time, regardless of how many CPUs the host has.
///
/// On OS threads a small host may serialize the readers.
#[test]
fn read_only_run_overlaps_readers_exactly() {
    let mut cfg = ZooConfig::quick(Topology::symmetric(4), 4, 42);
    // Long read sections, short think time: readers spend most of
    // their virtual life inside the lock.
    cfg.cs_units = 5_000;
    cfg.ncs_units = 500;
    let r = rw_mix(&cfg, Arc::new(RwTicketLock::new()), 0);
    assert_eq!(r.total_writes, 0);
    assert!(r.total_reads > 0);
    assert!(
        r.max_concurrent_readers >= 2,
        "read-only run must overlap readers, saw {}",
        r.max_concurrent_readers
    );
    // The sim makes the stronger exact claim: with 10:1 read sections
    // all four readers pile up.
    assert_eq!(
        r.max_concurrent_readers, 4,
        "all four readers should overlap in virtual time"
    );
    // And the whole thing is reproducible, not a lucky interleaving.
    let again = rw_mix(&cfg, Arc::new(RwTicketLock::new()), 0);
    assert_eq!(r, again);
}

/// A write-heavy run never exceeds the reader overlap of the
/// read-only run, and writers actually execute.
#[test]
fn writers_limit_reader_overlap() {
    let mut cfg = ZooConfig::quick(Topology::symmetric(4), 4, 42);
    cfg.cs_units = 5_000;
    cfg.ncs_units = 500;
    let mixed = rw_mix(&cfg, Arc::new(RwTicketLock::new()), 50);
    assert!(mixed.total_writes > 0 && mixed.total_reads > 0);
    assert!(mixed.max_concurrent_readers <= 4);
}

/// The LibASL starvation bound, exactly: a little-core thread's worst
/// acquire latency stays within its reorder window plus queue-drain
/// slack, under constant big-core pressure.
///
/// On OS threads a preempted waiter can sit out arbitrarily many
/// scheduler quanta, so the wall-clock bound only holds on a big
/// machine. Virtual time has no such accidents — the bound is tight
/// and unconditional.
#[test]
fn reorderable_starvation_bound_holds_exactly() {
    // 200 µs window against a 2 ms run: small enough that a starved
    // standby would blow the bound many times over.
    let mut lock = AslSpinLock::default();
    lock.set_max_window_ns(200_000);
    let mut cfg = ZooConfig::quick(Topology::custom(4, 4, 3.0), 8, 42);
    cfg.duration_ns = 2_000_000;
    cfg.cs_units = 300;
    cfg.ncs_units = 300;
    let r = run_lock(&cfg, Arc::new(lock));

    assert!(r.run.little_ops > 0, "little cores acquired at least once");
    // Bound: the 200 µs reorder window, plus draining a full FIFO
    // queue of 8 threads' critical sections (ratio-3 stretch, handoff
    // and preemption charges included) — comfortably under 3x the
    // window on this machine, and *exact*: same seed, same worst wait.
    assert!(
        r.run.little.max() < 600_000,
        "worst little-core wait {}ns exceeds the starvation bound",
        r.run.little.max()
    );
}
