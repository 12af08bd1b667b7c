//! upscaledb-like on-disk KV.
//!
//! Table 1: "On-disk KV, 50% Put 50% Get; Global Lock, Worker Pool
//! Lock". upscaledb serializes every operation on one global
//! environment lock (the dominant contention point — which is why TAS
//! shows its biggest wins/losses here in the paper) and dispatches
//! requests through a worker pool protected by a short queue lock.
//! The global B-tree lock is a [`guarded_rw_slot`]: gets probe it
//! under a shared guard (overlapping under rwlock specs), puts mutate
//! it exclusively. Pool dispatch registers under a shared guard of
//! the pool lock — the pool's internal depth bookkeeping is atomic —
//! so read requests never take an exclusive lock anywhere on their
//! path, while an exclusive `LockSpec` degenerates to the old
//! fully-serialized behaviour.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use asl_locks::api::{DynRwLock, DynRwMutex};
use asl_runtime::work::execute_units;
use rand::rngs::SmallRng;

use crate::workload::{Mix, Op};
use crate::{guarded_rw_lock, guarded_rw_slot, random_key, value_for, Engine, LockFactory, Value};

/// Emulated B-tree insert + page-dirty cost under the global lock.
const PUT_UNITS: u64 = 420;
/// Emulated B-tree probe cost under the global lock.
const GET_UNITS: u64 = 180;
/// Emulated queue push/pop under the worker-pool lock.
const POOL_UNITS: u64 = 30;

/// The upscaledb-like engine.
pub struct UpscaleDb {
    pool_lock: DynRwLock,
    pool_depth: AtomicU64,
    tree: DynRwMutex<BTreeMap<u64, Value>>,
    mix: Mix,
}

impl UpscaleDb {
    /// Create the engine with locks from `factory` and the paper's
    /// fifty-fifty put/get mix.
    pub fn new(factory: &dyn LockFactory) -> Self {
        Self::with_mix(factory, Mix::ycsb_a())
    }

    /// Create with an explicit operation mix (YCSB-B/C read-mostly
    /// experiments).
    pub fn with_mix(factory: &dyn LockFactory, mix: Mix) -> Self {
        UpscaleDb {
            pool_lock: guarded_rw_lock(factory, "upscale.pool"),
            pool_depth: AtomicU64::new(0),
            tree: guarded_rw_slot(factory, "upscale.tree", BTreeMap::new()),
            mix,
        }
    }

    /// The operation mix this engine runs.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// Requests currently inside the dispatch section (approximate —
    /// the counter is relaxed bookkeeping, not synchronization).
    pub fn pool_depth(&self) -> u64 {
        self.pool_depth.load(Ordering::Relaxed)
    }

    fn enqueue_dispatch(&self) {
        // Dispatch registers in the pool under a shared guard (depth
        // itself is atomic); an exclusive spec serializes here exactly
        // like the old queue lock did.
        let _queue = self.pool_lock.read();
        self.pool_depth.fetch_add(1, Ordering::Relaxed);
        execute_units(POOL_UNITS);
        self.pool_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Insert or update.
    pub fn put(&self, key: u64, value: Value) {
        self.enqueue_dispatch();
        let mut tree = self.tree.lock();
        tree.insert(key, value);
        execute_units(PUT_UNITS);
    }

    /// Look up (fully shared path).
    pub fn get(&self, key: u64) -> Option<Value> {
        self.enqueue_dispatch();
        let tree = self.tree.read();
        let v = tree.get(&key).copied();
        execute_units(GET_UNITS);
        v
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

impl Engine for UpscaleDb {
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
        "upscaledb"
    }

    fn lock_labels(&self) -> &'static [&'static str] {
        &["upscale.pool", "upscale.tree"]
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
    fn roundtrip() {
        let db = UpscaleDb::new(&factory());
        assert!(db.is_empty());
        db.put(1, value_for(1));
        db.put(2, value_for(2));
        assert_eq!(db.get(1), Some(value_for(1)));
        assert_eq!(db.get(3), None);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn concurrent_consistency() {
        let db = Arc::new(UpscaleDb::new(&factory()));
        let mut handles = vec![];
        for i in 0..6 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + i);
                for _ in 0..1_500 {
                    db.run_request(&mut rng);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (k, v) in db.tree.read().iter() {
            assert_eq!(*v, value_for(*k));
        }
        assert_eq!(db.pool_depth(), 0, "dispatch sections all exited");
    }

    #[test]
    fn read_mostly_mix_reads_overlap() {
        struct RwFactory;
        impl LockFactory for RwFactory {
            fn make(&self) -> Arc<dyn PlainLock> {
                Arc::new(asl_locks::McsLock::new())
            }
            fn make_rw(&self) -> Arc<dyn asl_locks::PlainRwLock> {
                Arc::new(asl_locks::RwTicketLock::new())
            }
        }
        let db = UpscaleDb::with_mix(&RwFactory, Mix::ycsb_b());
        db.put(9, value_for(9));
        // Hold the tree shared and probe again: both reads coexist.
        let held = db.tree.read();
        assert_eq!(db.get(9), Some(value_for(9)));
        drop(held);
        assert!((db.mix().read_fraction() - 0.95).abs() < 1e-9);
    }
}
