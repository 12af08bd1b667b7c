//! Sharded in-memory KV service over async SLO-aware locks.
//!
//! The serving-side counterpart of the thread-per-core engines: a
//! record array over the key space, dealt out to `shards` independent
//! shards. Each shard is one [`AsyncMutex`] whose [`AsyncPolicy`] comes
//! from the harness lock registry (`Fifo` for FIFO-ordered specs, `Slo`
//! for LibASL specs).
//!
//! A request locks exactly one shard and does a small amount of
//! emulated work while holding it (index probe + record copy). Then it
//! completes. Under Zipfian keys a handful of hot shards carry most of
//! the traffic, so the shard lock's *wait-queue policy* — FIFO versus
//! SLO-aware reordering — is what shapes the service's tail latency.
//!
//! Requests carry the deadline computed by the open-loop driver
//! (scheduled arrival + SLO), so an SLO-aware shard lock grants in
//! earliest-deadline order within its reorder window, exactly the
//! paper's lock semantics lifted into the async layer.

use asl_locks::{AsyncMutex, AsyncPolicy};
use rand::rngs::SmallRng;

use crate::workload::{KeyDist, Mix, Op};
use crate::{value_for, Value};

/// Configuration for one [`ShardedKv`] instance.
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Number of independent shards (≥ 1).
    pub shards: usize,
    /// Wait-queue policy of every shard lock.
    pub policy: AsyncPolicy,
    /// Total key space: the store holds one 17-byte slot per key, so
    /// this sets its memory (1.1 MB for the default 2^16 keys).
    pub keyspace: u64,
    /// Emulated work units executed while holding the shard lock
    /// (models index probe + record copy inside the critical section).
    pub cs_units: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            shards: 16,
            policy: AsyncPolicy::Fifo,
            keyspace: crate::KEYSPACE,
            cs_units: 4,
        }
    }
}

/// One shard's records: slot `key / shards` holds `key`'s record, if
/// it has one.
type Shard = Vec<Option<Value>>;

/// A sharded KV store; every shard is one async-locked slot array.
pub struct ShardedKv {
    shards: Vec<AsyncMutex<Shard>>,
    keyspace: u64,
    cs_units: u64,
}

impl ShardedKv {
    /// Build an empty store.
    ///
    /// # Panics
    /// Panics if `shards` or `keyspace` is zero.
    pub fn new(cfg: KvConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.keyspace > 0, "empty key space");
        let slots = cfg.keyspace.div_ceil(cfg.shards as u64) as usize;
        ShardedKv {
            shards: (0..cfg.shards)
                .map(|_| AsyncMutex::new(cfg.policy, vec![None; slots]))
                .collect(),
            keyspace: cfg.keyspace,
            cs_units: cfg.cs_units,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Key space size.
    pub fn keyspace(&self) -> u64 {
        self.keyspace
    }

    /// The shard a key lives on: keys are dealt out in turn, `key %
    /// shards`. [`crate::workload::KeyDist`] already scatters Zipfian
    /// ranks over the key space, so hotness concentrates through the
    /// key distribution, not through an accident of layout.
    pub fn shard_of(&self, key: u64) -> usize {
        self.locate(key).0
    }

    /// A key's shard and its slot there, `key / shards`.
    fn locate(&self, key: u64) -> (usize, usize) {
        let shards = self.shards.len() as u64;
        ((key % shards) as usize, (key / shards) as usize)
    }

    /// Synchronously pre-populate every `fill_every`-th key so reads
    /// hit.
    ///
    /// Must run before any traffic: it takes each shard's guard once,
    /// with `try_lock` (panicking if one is held), and writes that
    /// shard's slots in order under it.
    pub fn prefill(&self, fill_every: u64) {
        let step = fill_every.max(1);
        let shards = self.shards.len();
        for (first, shard) in self.shards.iter().enumerate() {
            let mut slots = shard.try_lock().expect("prefill must run before traffic");
            let keys = (first as u64..self.keyspace).step_by(shards);
            for (key, slot) in keys.zip(slots.iter_mut()) {
                if key % step == 0 {
                    *slot = Some(value_for(key));
                }
            }
        }
    }

    /// Execute one request against the owning shard.
    ///
    /// `deadline_ns` is the absolute completion deadline the open-loop
    /// driver derived from the request's *scheduled* arrival; SLO-aware
    /// shard locks use it to order their wait queue, FIFO shards ignore
    /// it. Returns `true` for updates and for reads that hit.
    ///
    /// # Panics
    /// Panics if `key` is outside the key space.
    pub async fn request(&self, op: Op, key: u64, deadline_ns: Option<u64>) -> bool {
        assert!(
            key < self.keyspace,
            "key {key} is outside the key space 0..{}",
            self.keyspace
        );
        let (shard, slot) = self.locate(key);
        let shard = &self.shards[shard];
        let mut guard = match deadline_ns {
            Some(d) => shard.lock_with_deadline(d).await,
            None => shard.lock().await,
        };
        if self.cs_units > 0 {
            asl_runtime::work::execute_units(self.cs_units);
        }
        match op {
            Op::Read => guard[slot].is_some(),
            Op::Update => {
                guard[slot] = Some(value_for(key));
                true
            }
        }
    }

    /// Total records across all shards (locks each shard briefly).
    pub async fn len(&self) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.lock().await.iter().flatten().count();
        }
        total
    }

    /// Whether the store holds no records.
    pub async fn is_empty(&self) -> bool {
        self.len().await == 0
    }
}

/// Per-client request script: the pre-drawn key and operation for one
/// simulated client's single request.
#[derive(Debug, Clone, Copy)]
pub struct KvRequest {
    /// Target key.
    pub key: u64,
    /// Operation kind.
    pub op: Op,
}

/// Draw one request from a key distribution and operation mix.
pub fn draw_request(dist: &KeyDist, mix: &Mix, rng: &mut SmallRng) -> KvRequest {
    KvRequest {
        key: dist.sample(rng),
        op: mix.sample(rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::block_on;
    use rand::SeedableRng;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let kv = ShardedKv::new(KvConfig {
            shards: 7,
            ..KvConfig::default()
        });
        for key in 0..1_000 {
            let s = kv.shard_of(key);
            assert!(s < 7);
            assert_eq!(s, kv.shard_of(key), "routing must be a pure function");
        }
    }

    #[test]
    fn put_then_get_roundtrip() {
        let kv = ShardedKv::new(KvConfig {
            shards: 4,
            cs_units: 0,
            ..KvConfig::default()
        });
        block_on(async {
            assert!(kv.is_empty().await);
            assert!(!kv.request(Op::Read, 42, None).await, "miss before put");
            assert!(kv.request(Op::Update, 42, None).await);
            assert!(
                kv.request(Op::Read, 42, Some(u64::MAX)).await,
                "hit after put"
            );
            assert_eq!(kv.len().await, 1);
        });
    }

    #[test]
    fn prefill_populates_every_step() {
        let kv = ShardedKv::new(KvConfig {
            shards: 4,
            keyspace: 64,
            cs_units: 0,
            ..KvConfig::default()
        });
        kv.prefill(2);
        block_on(async {
            assert_eq!(kv.len().await, 32);
            assert!(kv.request(Op::Read, 0, None).await);
            assert!(!kv.request(Op::Read, 1, None).await);
        });
    }

    #[test]
    fn prefill_fills_an_uneven_split_exactly() {
        // 1 000 keys, every third: 334 records over 7 shards that do
        // not divide them evenly.
        let kv = ShardedKv::new(KvConfig {
            shards: 7,
            keyspace: 1_000,
            cs_units: 0,
            ..KvConfig::default()
        });
        kv.prefill(3);
        block_on(async {
            assert_eq!(kv.len().await, 334);
            for key in 0..1_000 {
                let filled = key % 3 == 0;
                assert_eq!(kv.request(Op::Read, key, None).await, filled, "key {key}");
            }
        });
    }

    #[test]
    fn every_key_has_its_own_slot() {
        for shards in [1, 4, 7, 16] {
            for keyspace in [64, 1_000, 1 << 16] {
                let kv = ShardedKv::new(KvConfig {
                    shards,
                    keyspace,
                    ..KvConfig::default()
                });
                let slots = keyspace.div_ceil(shards as u64) as usize;
                let mut taken = vec![vec![false; slots]; shards];
                for key in 0..keyspace {
                    let (shard, slot) = kv.locate(key);
                    assert!(
                        !std::mem::replace(&mut taken[shard][slot], true),
                        "{shards} shards, {keyspace} keys: key {key} reuses ({shard}, {slot})"
                    );
                }
            }
        }
    }

    /// The host-kv benchmark's four shards carry the same keys as when
    /// a key's shard was `key · FIB % shards` (FIB ≡ 1 mod 4).
    #[test]
    fn four_shards_route_as_the_fibonacci_scatter_did() {
        const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
        let kv = ShardedKv::new(KvConfig {
            shards: 4,
            ..KvConfig::default()
        });
        for key in 0..crate::KEYSPACE {
            assert_eq!(kv.shard_of(key), (key.wrapping_mul(FIB) % 4) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "key 64 is outside the key space 0..64")]
    fn a_key_past_the_key_space_panics() {
        let kv = ShardedKv::new(KvConfig {
            keyspace: 64,
            cs_units: 0,
            ..KvConfig::default()
        });
        block_on(kv.request(Op::Read, 64, None));
    }

    #[test]
    fn draw_request_uses_dist_and_mix() {
        let dist = KeyDist::Uniform { n: 8 };
        let mix = Mix::ycsb_c();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = draw_request(&dist, &mix, &mut rng);
            assert!(r.key < 8);
            assert_eq!(r.op, Op::Read);
        }
    }
}
