//! LevelDB-like store, random-read benchmark.
//!
//! Table 1: "On-disk KV, db_bench Random Read; Metadata Lock". The
//! paper only exercises LevelDB's `Get` path (LevelDB's `Put` uses a
//! custom blocking scheme rather than `pthread_mutex_lock`): every
//! read "acquires a global lock to take a snapshot of internal
//! database structures" and then searches without the lock. We model
//! the version set as an `Arc` snapshot swapped under a metadata
//! lock; readers pin it under a *shared* guard ([`guarded_rw_slot`])
//! — overlapping under rwlock specs, exactly like LevelDB readers
//! ref-counting the current version — then probe the (immutable)
//! snapshot outside the lock. Version installs (the compaction path)
//! take the metadata lock exclusively.
//!
//! A version's table is what an SSTable is: one array of `(key,
//! value)` pairs sorted by key, probed by binary search. It is one
//! allocation filled in key order, so building an engine costs no
//! per-node allocation (the benchmark builds ten engines per run);
//! none of it is charged to virtual time.
//!
//! The default mix is the paper's pure random read (YCSB-C shape); a
//! configurable mix turns updates into version installs so the
//! exclusive-vs-shared contrast is measurable.

use std::sync::Arc;

use asl_locks::api::DynRwMutex;
use asl_runtime::work::execute_units;
use rand::rngs::SmallRng;

use crate::workload::{Mix, Op};
use crate::{guarded_rw_slot, random_key, value_for, Engine, LockFactory, Value};

/// Emulated snapshot-pin cost under the metadata lock (ref-count the
/// version, record the sequence number).
const SNAPSHOT_UNITS: u64 = 70;
/// Emulated memtable+SSTable probe cost outside the lock.
const SEARCH_UNITS: u64 = 200;
/// Emulated version-install bookkeeping under the metadata lock.
const INSTALL_UNITS: u64 = 120;

/// An immutable version of the database. The table is itself behind
/// an `Arc` so version installs (sequence bumps) need not copy it.
pub struct DbVersion {
    /// Table contents: `(key, value)` pairs sorted by key, one per key.
    pub table: Arc<Vec<(u64, Value)>>,
    /// Version sequence number.
    pub sequence: u64,
}

/// The LevelDB-like engine.
pub struct LevelDb {
    /// The current version pointer, guarded by the metadata lock.
    current: DynRwMutex<Arc<DbVersion>>,
    mix: Mix,
}

impl LevelDb {
    /// Create with `preload` sequential keys materialized (the
    /// `db_bench` fill phase) and the paper's pure-read workload.
    pub fn new(factory: &dyn LockFactory, preload: u64) -> Self {
        Self::with_mix(factory, preload, Mix::ycsb_c())
    }

    /// Create with an explicit operation mix: updates install a new
    /// version (compaction tick) under the exclusive metadata lock.
    pub fn with_mix(factory: &dyn LockFactory, preload: u64, mix: Mix) -> Self {
        let table: Vec<_> = (0..preload).map(|k| (k, value_for(k))).collect();
        LevelDb {
            current: guarded_rw_slot(
                factory,
                "leveldb.version",
                Arc::new(DbVersion {
                    table: Arc::new(table),
                    sequence: 1,
                }),
            ),
            mix,
        }
    }

    /// Default sizing used by the figures.
    pub fn with_default_size(factory: &dyn LockFactory) -> Self {
        Self::new(factory, crate::KEYSPACE)
    }

    /// The operation mix this engine runs.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// Pin the current version (the contended metadata-lock section,
    /// shared among readers).
    pub fn snapshot(&self) -> Arc<DbVersion> {
        let current = self.current.read();
        let snap = current.clone();
        execute_units(SNAPSHOT_UNITS);
        snap
    }

    /// Random-read: snapshot, then search outside the lock.
    pub fn get(&self, key: u64) -> Option<Value> {
        let snap = self.snapshot();
        let v = snap
            .table
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| snap.table[i].1);
        execute_units(SEARCH_UNITS);
        v
    }

    /// Install a new version (compaction stand-in; exclusive). `table`
    /// may come in any order; a key given twice keeps its last value.
    pub fn install_version(&self, mut table: Vec<(u64, Value)>) {
        // Reversed, a stable sort puts a repeated key's last value first.
        table.reverse();
        table.sort_by_key(|&(k, _)| k);
        table.dedup_by_key(|&mut (k, _)| k);
        let mut current = self.current.lock();
        let sequence = current.sequence + 1;
        *current = Arc::new(DbVersion {
            table: Arc::new(table),
            sequence,
        });
    }

    /// Re-install the current table as a new version (the cheap
    /// compaction tick used as the workload's update operation).
    pub fn bump_version(&self) {
        let mut current = self.current.lock();
        let sequence = current.sequence + 1;
        let table = current.table.clone();
        *current = Arc::new(DbVersion { table, sequence });
        execute_units(INSTALL_UNITS);
    }

    /// Sequence number of the current version.
    pub fn sequence(&self) -> u64 {
        self.current.read().sequence
    }
}

impl Engine for LevelDb {
    fn run_request(&self, rng: &mut SmallRng) {
        let key = random_key(rng);
        match self.mix.sample(rng) {
            Op::Read => {
                let _ = self.get(key);
            }
            Op::Update => self.bump_version(),
        }
    }

    fn name(&self) -> &'static str {
        "leveldb"
    }

    fn lock_labels(&self) -> &'static [&'static str] {
        &["leveldb.version"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_locks::plain::PlainLock;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn factory() -> impl LockFactory {
        || -> Arc<dyn PlainLock> { Arc::new(asl_locks::McsLock::new()) }
    }

    #[test]
    fn preloaded_reads_hit() {
        let db = LevelDb::new(&factory(), 1_000);
        for k in 0..1_000 {
            assert_eq!(db.get(k), Some(value_for(k)), "key {k}");
        }
        for k in [1_000, 1_001, 4_096, crate::KEYSPACE, u64::MAX] {
            assert_eq!(db.get(k), None, "key {k}");
        }
        assert_eq!(db.sequence(), 1);
    }

    #[test]
    fn an_installed_table_reads_like_a_btreemap() {
        // Unsorted, every key given several times: the last value wins.
        let mut rng = SmallRng::seed_from_u64(7);
        let pairs: Vec<_> = (0..2_000)
            .map(|i| (rng.gen_range(0..500), value_for(i)))
            .collect();
        let mut reference = BTreeMap::new();
        for &(k, v) in &pairs {
            reference.insert(k, v);
        }
        let db = LevelDb::new(&factory(), 0);
        db.install_version(pairs);
        for k in 0..600 {
            assert_eq!(db.get(k), reference.get(&k).copied(), "key {k}");
        }
        let snap = db.snapshot();
        assert!(snap
            .table
            .iter()
            .map(|&(k, _)| k)
            .eq(reference.keys().copied()));
    }

    #[test]
    fn snapshots_are_stable_across_installs() {
        let db = LevelDb::new(&factory(), 10);
        let snap = db.snapshot();
        db.install_version(Vec::new());
        // Old snapshot still sees old data; new reads see new version.
        assert_eq!(snap.table.len(), 10);
        assert_eq!(db.get(5), None);
        assert_eq!(db.sequence(), 2);
    }

    #[test]
    fn bump_version_shares_the_table() {
        let db = LevelDb::new(&factory(), 10);
        db.bump_version();
        assert_eq!(db.sequence(), 2);
        assert_eq!(db.get(5), Some(value_for(5)), "data survives the bump");
    }

    #[test]
    fn concurrent_reads() {
        let db = Arc::new(LevelDb::new(&factory(), 1_000));
        let mut handles = vec![];
        for i in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(i);
                for _ in 0..2_000 {
                    db.run_request(&mut rng);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.sequence(), 1);
    }

    #[test]
    fn mixed_workload_installs_versions() {
        struct RwFactory;
        impl LockFactory for RwFactory {
            fn make(&self) -> Arc<dyn PlainLock> {
                Arc::new(asl_locks::McsLock::new())
            }
            fn make_rw(&self) -> Arc<dyn asl_locks::PlainRwLock> {
                Arc::new(asl_locks::RwTicketLock::new())
            }
        }
        let db = Arc::new(LevelDb::with_mix(&RwFactory, 100, Mix::ycsb_b()));
        // Two snapshots pinned concurrently under the rw metadata
        // lock; an install would have to wait.
        let a = db.current.read();
        assert_eq!(db.get(1), Some(value_for(1)));
        assert!(
            db.current.try_lock().is_none(),
            "pinned snapshots block installs"
        );
        drop(a);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2_000 {
            db.run_request(&mut rng);
        }
        assert!(db.sequence() > 1, "updates install new versions");
    }
}
