//! # asl-dbsim — miniature storage engines with the paper's locking
//! structure (Table 1)
//!
//! The paper's application evaluation runs five databases whose
//! *per-epoch lock acquisition patterns* drive the results:
//!
//! | Engine | Workload | Locks in each epoch |
//! |---|---|---|
//! | [`kyoto::Kyoto`] | 50% put / 50% get | slot-level lock + method lock |
//! | [`upscale::UpscaleDb`] | 50% put / 50% get | global lock + worker-pool lock |
//! | [`lmdb::Lmdb`] | 50% put / 50% get | global (writer) lock + metadata lock |
//! | [`leveldb::LevelDb`] | random read | metadata (snapshot) lock |
//! | [`sqlite::Sqlite`] | ⅓ insert, ⅓ simple select, ⅓ complex select | state-machine lock + table lock |
//!
//! Each engine implements a small but real data path (hash slots,
//! ordered maps, version snapshots, a SQLite-style file-lock state
//! machine) and is parameterized over *any* lock via
//! [`LockFactory`], so the harness can swap in TAS, MCS, SHFL-PB or
//! LibASL exactly the way the paper relinks `pthread_mutex_lock`.
//!
//! The engines are reader-writer aware: state that `Op::Read` paths
//! only inspect lives in a [`guarded_rw_slot`] and is probed under
//! shared guards, while updates take exclusive guards. Under an
//! exclusive lock spec the shared guards degenerate to exclusive
//! acquisitions (bit-for-bit the old behaviour); under an rwlock spec
//! (`rw-ticket`, `bravo-*`, `libasl-rw-*`) reads genuinely overlap,
//! which is what makes the YCSB-B/C read-mostly mixes
//! ([`workload::Mix`]) meaningful.
//!
//! Request processing cost is expressed in emulated work units
//! (`asl_runtime::work`), so critical sections take proportionally
//! longer on little cores — the asymmetry under study.
//!
//! Beyond the thread-per-core engines, the crate also hosts the
//! *serving-side* evaluation: [`kv`] is a sharded KV service whose
//! shard locks are `asl-locks` async mutexes (FIFO or SLO-aware), and
//! [`openloop`] drives it with an open-loop simulated client
//! population — arrivals drawn from an [`arrival::ArrivalProcess`] on
//! the generator's own clock, so tail latency is measured free of
//! coordinated omission.

pub mod arrival;
pub mod kv;
pub mod kyoto;
pub mod leveldb;
pub mod lmdb;
pub mod openloop;
pub mod sqlite;
pub mod upscale;
pub mod workload;

use std::sync::Arc;

use asl_locks::api::{DynLock, DynMutex, DynRwLock, DynRwMutex};
use asl_locks::plain::{ExclusiveRw, PlainLock, PlainRwLock};
use rand::rngs::SmallRng;
use rand::Rng;

/// Factory producing lock instances for an engine's internal locks.
pub trait LockFactory: Send + Sync {
    /// Create one fresh lock.
    fn make(&self) -> Arc<dyn PlainLock>;

    /// Create one fresh reader-writer lock.
    ///
    /// The default wraps [`LockFactory::make`] in
    /// [`ExclusiveRw`], so exclusive-only factories keep working:
    /// their "shared" mode degenerates to an exclusive acquisition.
    /// Factories backed by a genuine rwlock spec override this, and
    /// the engines' `Op::Read` paths then overlap.
    fn make_rw(&self) -> Arc<dyn PlainRwLock> {
        Arc::new(ExclusiveRw::new(self.make()))
    }

    /// [`LockFactory::make`] for a *named* engine lock ("kyoto.slot",
    /// "lmdb.writer", ...). The default wires the name into the
    /// process-wide telemetry registry while profiling is on
    /// (`asl_locks::telemetry`), so per-engine lock stats can
    /// attribute contention to the lock that caused it; otherwise it
    /// is exactly `make()`. Harness factories override this to fold
    /// the lock-spec label into the name.
    fn make_labeled(&self, label: &'static str) -> Arc<dyn PlainLock> {
        asl_locks::telemetry::maybe_instrument(label, self.make())
    }

    /// [`LockFactory::make_rw`] for a named engine lock (telemetry
    /// registers the shared and exclusive sides as `<label>.read` /
    /// `<label>.write`).
    fn make_rw_labeled(&self, label: &'static str) -> Arc<dyn PlainRwLock> {
        asl_locks::telemetry::maybe_instrument_rw(label, self.make_rw())
    }
}

impl<F> LockFactory for F
where
    F: Fn() -> Arc<dyn PlainLock> + Send + Sync,
{
    fn make(&self) -> Arc<dyn PlainLock> {
        self()
    }
}

/// The engines' shared guarded-slot helper: a fresh lock from
/// `factory`, *named* for telemetry attribution, fused with the state
/// it protects.
///
/// Every internal engine lock that guards data (hash slots, B-trees,
/// version pointers, protocol state) is one of these; locking returns
/// an RAII guard that derefs to the state, so the copy-pasted
/// `acquire`/`release` blocks of earlier revisions cannot come back.
/// The label ("sqlite.table", ...) is what per-engine lock stats
/// report contention under when profiling is on.
pub fn guarded_slot<T>(factory: &dyn LockFactory, label: &'static str, value: T) -> DynMutex<T> {
    DynMutex::with_lock(value, DynLock::new(factory.make_labeled(label)))
}

/// A named, data-free lock from `factory` (pure ordering points like
/// method or writer locks), held as an RAII guard.
pub fn guarded_lock(factory: &dyn LockFactory, label: &'static str) -> DynLock {
    DynLock::new(factory.make_labeled(label))
}

/// The reader-writer guarded-slot helper: a fresh named rwlock from
/// `factory` fused with the state it protects.
///
/// Engine state that is read on `Op::Read` paths and mutated on
/// `Op::Update` paths is one of these: reads take shared guards
/// (overlapping under rwlock specs, degenerating to exclusive under
/// exclusive specs via [`ExclusiveRw`]) and writes take exclusive
/// guards.
pub fn guarded_rw_slot<T>(
    factory: &dyn LockFactory,
    label: &'static str,
    value: T,
) -> DynRwMutex<T> {
    DynRwMutex::with_lock(value, DynRwLock::new(factory.make_rw_labeled(label)))
}

/// A named, data-free reader-writer lock from `factory`
/// (shared/exclusive ordering points like a method lock), held as an
/// RAII guard.
pub fn guarded_rw_lock(factory: &dyn LockFactory, label: &'static str) -> DynRwLock {
    DynRwLock::new(factory.make_rw_labeled(label))
}

/// Fixed-size record value (16 bytes, like the paper's small KV
/// items).
pub type Value = [u8; 16];

/// Derive a value from a key (verifiable round-trip in tests).
pub fn value_for(key: u64) -> Value {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
    v
}

/// A database engine benchmarkable by the harness.
pub trait Engine: Send + Sync {
    /// Execute one request (one epoch body) with the worker's RNG.
    fn run_request(&self, rng: &mut SmallRng);

    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Labels of the engine's internal locks ("kyoto.slot", ...), the
    /// names its acquisitions are filed under in the telemetry
    /// registry when profiling is on. The harness prints them in
    /// figure notes so readers can match `--profile` stats rows
    /// (`kyoto.slot[mcs]`) to the engine that owns the lock.
    fn lock_labels(&self) -> &'static [&'static str] {
        &[]
    }
}

/// Key-space shared by the KV workloads.
pub const KEYSPACE: u64 = 1 << 16;

/// Draw a uniform key (the paper's insert-or-find random items,
/// YCSB-A style).
pub fn random_key(rng: &mut SmallRng) -> u64 {
    rng.gen_range(0..KEYSPACE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn value_roundtrip() {
        let v = value_for(42);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 42);
        assert_ne!(value_for(1), value_for(2));
    }

    #[test]
    fn random_key_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(random_key(&mut rng) < KEYSPACE);
        }
    }

    #[test]
    fn closure_is_a_factory() {
        let f = || -> Arc<dyn PlainLock> { Arc::new(asl_locks::McsLock::new()) };
        let lock = DynLock::new(LockFactory::make(&f));
        let held = lock.lock();
        assert!(lock.is_locked());
        held.unlock();
    }

    #[test]
    fn guarded_rw_slot_defaults_to_exclusive_and_upgrades() {
        // Exclusive factory: shared guards degenerate (no overlap).
        let f = || -> Arc<dyn PlainLock> { Arc::new(asl_locks::McsLock::new()) };
        let slot = guarded_rw_slot(&f, "test.slot", 1u64);
        {
            let r = slot.read();
            assert_eq!(*r, 1);
            assert!(
                slot.try_read().is_none(),
                "exclusive substrate: reads serialize"
            );
        }
        *slot.lock() += 1;
        assert_eq!(*slot.read(), 2);

        // rw-capable factory: shared guards overlap.
        struct RwFactory;
        impl LockFactory for RwFactory {
            fn make(&self) -> Arc<dyn PlainLock> {
                Arc::new(asl_locks::McsLock::new())
            }
            fn make_rw(&self) -> Arc<dyn asl_locks::PlainRwLock> {
                Arc::new(asl_locks::RwTicketLock::new())
            }
        }
        let slot = guarded_rw_slot(&RwFactory, "test.slot", 1u64);
        {
            let a = slot.read();
            let b = slot.try_read().expect("rw substrate: reads overlap");
            assert_eq!(*a + *b, 2);
            assert!(slot.try_lock().is_none());
        }
        let l = guarded_rw_lock(&RwFactory, "test.lock");
        {
            let _r1 = l.read();
            let _r2 = l.try_read().expect("data-free rw lock shares too");
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn guarded_slot_fuses_lock_and_state() {
        let f = || -> Arc<dyn PlainLock> { Arc::new(asl_locks::McsLock::new()) };
        let slot = guarded_slot(&f, "test.slot", 41u64);
        *slot.lock() += 1;
        assert_eq!(*slot.lock(), 42);
        assert!(!slot.is_locked());
        let l = guarded_lock(&f, "test.lock");
        let held = l.lock();
        assert!(l.is_locked());
        drop(held);
        assert!(!l.is_locked());
    }
}
