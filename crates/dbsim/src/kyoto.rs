//! Kyoto-Cabinet-like in-memory hash KV.
//!
//! Table 1: "In-memory KV, 50% Put 50% Get; Slot-level Lock, Method
//! Lock". Kyoto Cabinet's `HashDB` hashes each key to one of a fixed
//! number of slots, locks that slot for the record operation, and
//! takes a short global *method* lock on every API call. We reproduce
//! exactly that, reader-writer aware: each slot is a
//! [`guarded_rw_slot`] (gets take shared guards, puts exclusive ones)
//! and the method lock is a [`guarded_rw_lock`] — which mirrors Kyoto
//! Cabinet's actual method lock, a shared/exclusive rwlock. Under an
//! exclusive `LockSpec` both degenerate to the old exclusive
//! behaviour; under an rwlock spec gets overlap.
//!
//! The default workload is the paper's YCSB-A fifty-fifty mix; the
//! read fraction is configurable ([`Kyoto::with_mix`]) so YCSB-B/C
//! read-mostly experiments stop being degenerate.

use asl_locks::api::{DynRwLock, DynRwMutex};
use asl_runtime::work::execute_units;
use rand::rngs::SmallRng;

use crate::workload::{Mix, Op};
use crate::{guarded_rw_lock, guarded_rw_slot, random_key, value_for, Engine, LockFactory, Value};

const BUCKETS_PER_SLOT: usize = 512;

/// Emulated record-processing cost (units) for a put.
const PUT_UNITS: u64 = 260;
/// Emulated record-processing cost for a get.
const GET_UNITS: u64 = 120;
/// Emulated method-dispatch cost under the method lock.
const METHOD_UNITS: u64 = 25;

/// Chained buckets of one independently locked hash slot.
type Slot = DynRwMutex<Vec<Vec<(u64, Value)>>>;

/// The Kyoto-Cabinet-like engine.
pub struct Kyoto {
    method_lock: DynRwLock,
    slots: Vec<Slot>,
    mix: Mix,
}

impl Kyoto {
    /// Create with `slots` independently locked hash slots and the
    /// paper's fifty-fifty put/get mix.
    pub fn new(factory: &dyn LockFactory, slots: usize) -> Self {
        Self::with_mix(factory, slots, Mix::ycsb_a())
    }

    /// Create with an explicit operation mix (YCSB-B/C read-mostly
    /// experiments).
    pub fn with_mix(factory: &dyn LockFactory, slots: usize, mix: Mix) -> Self {
        assert!(slots > 0);
        Kyoto {
            method_lock: guarded_rw_lock(factory, "kyoto.method"),
            slots: (0..slots)
                .map(|_| guarded_rw_slot(factory, "kyoto.slot", vec![Vec::new(); BUCKETS_PER_SLOT]))
                .collect(),
            mix,
        }
    }

    /// Default sizing used by the figures (16 slots, paper-like
    /// slot-level contention at 8 threads).
    pub fn with_default_size(factory: &dyn LockFactory) -> Self {
        Self::new(factory, 16)
    }

    /// The operation mix this engine runs.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    #[inline]
    fn slot_of(&self, key: u64) -> &Slot {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.slots[(h >> 32) as usize % self.slots.len()]
    }

    /// Insert or update a record.
    pub fn put(&self, key: u64, value: Value) {
        // Method lock: normal API calls mutate shared method state, so
        // writes dispatch exclusively.
        {
            let _held = self.method_lock.lock();
            execute_units(METHOD_UNITS);
        }

        let mut buckets = self.slot_of(key).lock();
        let b = &mut buckets[(key as usize) % BUCKETS_PER_SLOT];
        match b.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => b.push((key, value)),
        }
        execute_units(PUT_UNITS);
    }

    /// Look up a record. The whole path is shared: method dispatch and
    /// the slot probe take read guards.
    pub fn get(&self, key: u64) -> Option<Value> {
        {
            let _held = self.method_lock.read();
            execute_units(METHOD_UNITS);
        }

        let buckets = self.slot_of(key).read();
        let found = buckets[(key as usize) % BUCKETS_PER_SLOT]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v);
        execute_units(GET_UNITS);
        found
    }

    /// Total records (test helper; takes every slot lock shared).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.read().iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Engine for Kyoto {
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
        "kyoto"
    }

    fn lock_labels(&self) -> &'static [&'static str] {
        &["kyoto.method", "kyoto.slot"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_locks::plain::PlainLock;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn mcs_factory() -> impl LockFactory {
        || -> Arc<dyn PlainLock> { Arc::new(asl_locks::McsLock::new()) }
    }

    #[test]
    fn put_get_roundtrip() {
        let db = Kyoto::new(&mcs_factory(), 4);
        assert!(db.get(7).is_none());
        db.put(7, value_for(7));
        assert_eq!(db.get(7), Some(value_for(7)));
        db.put(7, value_for(8)); // update in place
        assert_eq!(db.get(7), Some(value_for(8)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn many_keys_across_slots() {
        let db = Kyoto::new(&mcs_factory(), 8);
        for k in 0..1_000 {
            db.put(k, value_for(k));
        }
        assert_eq!(db.len(), 1_000);
        for k in 0..1_000 {
            assert_eq!(db.get(k), Some(value_for(k)), "key {k}");
        }
    }

    #[test]
    fn concurrent_requests_consistent() {
        let db = Arc::new(Kyoto::new(&mcs_factory(), 8));
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
        // Values must always round-trip to their key.
        for k in 0..crate::KEYSPACE {
            if let Some(v) = db.get(k) {
                assert_eq!(v, value_for(k));
            }
        }
    }

    #[test]
    fn rw_spec_overlaps_readers() {
        // Under a genuine rwlock factory, two gets may hold the same
        // slot concurrently.
        struct RwFactory;
        impl LockFactory for RwFactory {
            fn make(&self) -> Arc<dyn PlainLock> {
                Arc::new(asl_locks::McsLock::new())
            }
            fn make_rw(&self) -> Arc<dyn asl_locks::PlainRwLock> {
                Arc::new(asl_locks::RwTicketLock::new())
            }
        }
        let db = Kyoto::with_mix(&RwFactory, 1, Mix::ycsb_c());
        db.put(1, value_for(1));
        let slot = db.slot_of(1).read();
        // A second shared probe succeeds while the first is held.
        assert_eq!(db.get(1), Some(value_for(1)));
        drop(slot);
        assert_eq!(db.mix().read_fraction(), 1.0);
    }

    #[test]
    fn engine_name() {
        assert_eq!(Kyoto::new(&mcs_factory(), 1).name(), "kyoto");
    }
}
