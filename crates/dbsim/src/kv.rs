//! Sharded in-memory KV service over async SLO-aware locks.
//!
//! The serving-side counterpart of the thread-per-core engines: a hash
//! map split into `shards` independent shards, each protected by one
//! [`AsyncMutex`] whose [`AsyncPolicy`] comes from the harness lock
//! registry (`Fifo` for FIFO-ordered specs, `Slo` for LibASL specs).
//! A request locks exactly one shard, does a small amount of emulated
//! work while holding it (index probe + record copy), and completes. Under Zipfian keys a handful of hot shards carry most of
//! the traffic, so the shard lock's *wait-queue policy* — FIFO versus
//! SLO-aware reordering — is what shapes the service's tail latency.
//!
//! Requests carry the deadline computed by the open-loop driver
//! (scheduled arrival + SLO), so an SLO-aware shard lock grants in
//! earliest-deadline order within its reorder window, exactly the
//! paper's lock semantics lifted into the async layer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Total key space (keys hash across shards).
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

/// Fibonacci multiplier (2^64 / golden ratio): `shard_of` scatters
/// keys with it and [`KeyHasher`] hashes them with it.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard maps' hasher: one multiply, for `u64` keys only.
///
/// The product is rotated before the table sees it. A table indexes
/// its buckets with the hash's low bits, and those bits of `key · FIB`
/// are exactly what [`ShardedKv::shard_of`] reduces `% shards`: with a
/// power-of-two shard count every key of one shard has the same low
/// bits, so the unrotated product would put a shard's keys in
/// 1/`shards` of its buckets. Rotating left by 22 brings bits 42..63 —
/// the well-mixed end that Fibonacci hashing takes its index from —
/// down to the bucket mask of every table up to 2^22 buckets; over
/// `KEYSPACE` one shard's keys then cover ≥ 95 % of their hashes'
/// 4 096 low-12-bit values for 1, 4, 7 or 16 shards (a random hash
/// covers 63 % at 16). The default SipHash is keyed against keys
/// crafted to collide, which costs several times the multiply; this
/// store's keys come from its own workload generators, not from
/// outside the program.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by u64");
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(FIB).rotate_left(22);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard's records.
type Shard = HashMap<u64, Value, BuildHasherDefault<KeyHasher>>;

/// A sharded KV store; every shard is one async-locked hash map.
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
        ShardedKv {
            shards: (0..cfg.shards)
                .map(|_| AsyncMutex::new(cfg.policy, Shard::default()))
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

    /// The shard a key lives on. Keys are scattered with a Fibonacci
    /// multiplier so Zipfian rank order does not map hot ranks onto
    /// one shard by accident of layout — hotness still concentrates
    /// (that is the point), but via the key distribution, not aliasing.
    pub fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) % self.shards.len() as u64) as usize
    }

    /// Synchronously pre-populate every `fill_every`-th key so reads
    /// hit.
    ///
    /// Must run before any traffic: it takes every shard's guard once,
    /// with `try_lock` (panicking if one is held), and keeps them all
    /// for the whole fill instead of locking per key. Before the first
    /// insert each shard reserves its share of the keys — their count
    /// over the shard count, rounded up; the Fibonacci scatter of
    /// [`ShardedKv::shard_of`] deals keys out about evenly — so a map
    /// is sized once for what it will hold instead of rehashing as it
    /// grows.
    pub fn prefill(&self, fill_every: u64) {
        let step = fill_every.max(1);
        let keys = self.keyspace.div_ceil(step);
        let share = keys.div_ceil(self.shards.len() as u64) as usize;
        let mut guards: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.try_lock().expect("prefill must run before traffic"))
            .collect();
        for guard in &mut guards {
            guard.reserve(share);
        }
        for key in (0..self.keyspace).step_by(step as usize) {
            guards[self.shard_of(key)].insert(key, value_for(key));
        }
    }

    /// Execute one request against the owning shard.
    ///
    /// `deadline_ns` is the absolute completion deadline the open-loop
    /// driver derived from the request's *scheduled* arrival; SLO-aware
    /// shard locks use it to order their wait queue, FIFO shards ignore
    /// it. Returns `true` for updates and for reads that hit.
    pub async fn request(&self, op: Op, key: u64, deadline_ns: Option<u64>) -> bool {
        let shard = &self.shards[self.shard_of(key)];
        let mut guard = match deadline_ns {
            Some(d) => shard.lock_with_deadline(d).await,
            None => shard.lock().await,
        };
        if self.cs_units > 0 {
            asl_runtime::work::execute_units(self.cs_units);
        }
        match op {
            Op::Read => guard.get(&key).is_some(),
            Op::Update => {
                guard.insert(key, value_for(key));
                true
            }
        }
    }

    /// Total records across all shards (locks each shard briefly).
    pub async fn len(&self) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.lock().await.len();
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
    fn one_shards_keys_spread_over_its_buckets() {
        use std::hash::BuildHasher;
        let hash = BuildHasherDefault::<KeyHasher>::default();
        for shards in [1, 4, 7, 16] {
            let kv = ShardedKv::new(KvConfig {
                shards,
                ..KvConfig::default()
            });
            for shard in 0..shards {
                let mut seen = [false; 4_096];
                for key in (0..crate::KEYSPACE).filter(|&k| kv.shard_of(k) == shard) {
                    seen[(hash.hash_one(key) & 4_095) as usize] = true;
                }
                let covered = seen.iter().filter(|&&s| s).count();
                assert!(
                    covered * 10 >= 4_096 * 9,
                    "{shards} shards: shard {shard}'s keys hit {covered} of 4096 low-bit values"
                );
            }
        }
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
