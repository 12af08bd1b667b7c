//! LMDB-like memory-mapped B-tree store.
//!
//! Table 1: "On-disk KV, 50% Put 50% Get; Global Lock, Metadata
//! Locks". LMDB serializes writers on one global write lock (a write
//! transaction owns the tree for its duration) while readers only
//! take short metadata locks to pin a snapshot — in real LMDB many
//! readers pin snapshots concurrently. We reproduce that split
//! faithfully: puts hold the global lock (a pure [`DynLock`] ordering
//! point) for the full write transaction and briefly take the
//! metadata lock *exclusively* to publish the new root; gets pin the
//! tree under a *shared* metadata guard ([`guarded_rw_slot`]), so
//! under an rwlock spec readers overlap exactly as LMDB's do, while
//! an exclusive spec reproduces the old serialized metadata lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use asl_locks::api::{DynLock, DynRwMutex};
use asl_runtime::work::execute_units;
use rand::rngs::SmallRng;

use crate::workload::{Mix, Op};
use crate::{guarded_lock, guarded_rw_slot, random_key, value_for, Engine, LockFactory, Value};

/// Emulated write-transaction cost (page COW + fsync stand-in).
const WRITE_TXN_UNITS: u64 = 520;
/// Emulated root-publication cost under the metadata lock.
const PUBLISH_UNITS: u64 = 60;
/// Emulated reader cost under the metadata lock.
const READ_UNITS: u64 = 90;

/// The LMDB-like engine.
pub struct Lmdb {
    /// Writers serialize here for the whole write transaction.
    write_lock: DynLock,
    /// The tree behind the metadata lock: shared for readers, brief
    /// exclusive sections for the writer's root publication.
    tree: DynRwMutex<BTreeMap<u64, Value>>,
    version: AtomicU64,
    mix: Mix,
}

impl Lmdb {
    /// Create with locks from `factory` and the paper's fifty-fifty
    /// put/get mix.
    pub fn new(factory: &dyn LockFactory) -> Self {
        Self::with_mix(factory, Mix::ycsb_a())
    }

    /// Create with an explicit operation mix (YCSB-B/C read-mostly
    /// experiments).
    pub fn with_mix(factory: &dyn LockFactory, mix: Mix) -> Self {
        Lmdb {
            write_lock: guarded_lock(factory, "lmdb.writer"),
            tree: guarded_rw_slot(factory, "lmdb.meta", BTreeMap::new()),
            version: AtomicU64::new(0),
            mix,
        }
    }

    /// The operation mix this engine runs.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// Write transaction: COW pages, then publish the new root.
    pub fn put(&self, key: u64, value: Value) {
        let _txn = self.write_lock.lock();
        // Copy-on-write page work happens outside the metadata lock —
        // readers keep reading the old root meanwhile.
        execute_units(WRITE_TXN_UNITS);
        // Publish: nested metadata lock (exclusive), swap the root.
        let mut tree = self.tree.lock();
        tree.insert(key, value);
        self.version.fetch_add(1, Ordering::Release);
        execute_units(PUBLISH_UNITS);
    }

    /// Read transaction: pin a snapshot under a shared metadata guard
    /// and probe the tree.
    pub fn get(&self, key: u64) -> Option<Value> {
        let tree = self.tree.read();
        let v = tree.get(&key).copied();
        execute_units(READ_UNITS);
        v
    }

    /// Committed write-transaction count.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Record count (test helper).
    pub fn len(&self) -> usize {
        self.tree.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Engine for Lmdb {
    fn run_request(&self, rng: &mut SmallRng) {
        let key = random_key(rng);
        match self.mix.sample(rng) {
            Op::Update => self.put(key, value_for(key)),
            Op::Read => {
                let _ = self.get(key);
            }
        }
    }

    fn name(&self) -> &'static str {
        "lmdb"
    }

    fn lock_labels(&self) -> &'static [&'static str] {
        &["lmdb.writer", "lmdb.meta"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_locks::plain::PlainLock;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn factory() -> impl LockFactory {
        || -> Arc<dyn PlainLock> { Arc::new(asl_locks::McsLock::new()) }
    }

    #[test]
    fn roundtrip_and_versioning() {
        let db = Lmdb::new(&factory());
        assert_eq!(db.version(), 0);
        db.put(10, value_for(10));
        db.put(11, value_for(11));
        assert_eq!(db.version(), 2);
        assert_eq!(db.get(10), Some(value_for(10)));
        assert_eq!(db.get(99), None);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn writers_serialize_readers_progress() {
        let db = Arc::new(Lmdb::new(&factory()));
        let mut handles = vec![];
        for i in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(i);
                for _ in 0..1_000 {
                    db.run_request(&mut rng);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(db.version() > 0);
        assert!(!db.is_empty());
    }

    #[test]
    fn rw_spec_pins_snapshots_concurrently() {
        struct RwFactory;
        impl LockFactory for RwFactory {
            fn make(&self) -> Arc<dyn PlainLock> {
                Arc::new(asl_locks::McsLock::new())
            }
            fn make_rw(&self) -> Arc<dyn asl_locks::PlainRwLock> {
                Arc::new(asl_locks::RwTicketLock::new())
            }
        }
        let db = Lmdb::with_mix(&RwFactory, Mix::ycsb_c());
        db.put(3, value_for(3));
        let pinned = db.tree.read();
        // A concurrent reader still gets in while a snapshot is
        // pinned; a writer's publication would have to wait.
        assert_eq!(db.get(3), Some(value_for(3)));
        assert!(db.tree.try_lock().is_none(), "readers block publication");
        drop(pinned);
    }
}
