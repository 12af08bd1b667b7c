//! SQLite-like embedded database.
//!
//! Table 1: "On-disk Database; 1/3 Insert, 1/3 Simple Select, 1/3
//! Complex Select; State Machine Lock, Metadata Locks". SQLite's
//! concurrency hinges on its five-state file-lock protocol
//! (UNLOCKED → SHARED → RESERVED → PENDING → EXCLUSIVE); transactions
//! retry until the protocol admits them, which is why the paper sees
//! strongly fluctuating, non-linear latencies here. We implement that
//! state machine under a *state-machine lock* (a [`guarded_slot`]
//! around [`FileLockState`]) plus a short *table lock* (the metadata
//! lock, a guarded slot around rows + index).
//!
//! Workload (paper §4.2): DEFERRED transactions with ⅓ inserts,
//! ⅓ simple point queries on an indexed column, ⅓ complex range
//! queries filtered on a non-indexed column — and an "extremely long
//! full-table scan every 1000 executions" to stress SLO keeping.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use asl_locks::api::DynMutex;
use asl_runtime::work::{execute_raw_units, execute_units};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{guarded_slot, Engine, LockFactory};

/// Emulated cost of one row insert (cache modification).
const INSERT_UNITS: u64 = 260;
/// Emulated commit (journal+fsync stand-in) cost.
const COMMIT_UNITS: u64 = 320;
/// Emulated point-query cost.
const SIMPLE_SELECT_UNITS: u64 = 140;
/// Emulated per-row cost of range scans.
const RANGE_ROW_UNITS: u64 = 6;
/// Rows visited by a complex select.
const RANGE_ROWS: usize = 64;
/// Row cap for the full-table scan.
const SCAN_CAP: usize = 4_096;
/// A full scan runs every N requests.
const SCAN_EVERY: u64 = 1_000;

/// One table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Primary key.
    pub id: u64,
    /// Indexed column (range queries).
    pub indexed: u64,
    /// Non-indexed column (filters).
    pub payload: u64,
}

/// SQLite file-lock protocol state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileLockState {
    /// Number of SHARED holders (a writer also holds one).
    pub shared: u32,
    /// A RESERVED writer exists.
    pub reserved: bool,
    /// PENDING: a writer wants EXCLUSIVE; new SHARED is refused.
    pub pending: bool,
    /// EXCLUSIVE: the writer owns the file.
    pub exclusive: bool,
}

impl FileLockState {
    /// Protocol invariants (checked by tests on every transition).
    pub fn valid(&self) -> bool {
        // EXCLUSIVE implies PENDING was taken and only the writer's
        // own SHARED remains.
        (!self.exclusive || (self.pending && self.shared == 1))
            // PENDING implies a RESERVED writer.
            && (!self.pending || self.reserved)
    }
}

/// Row store + index, guarded together by the table (metadata) lock.
struct TableData {
    rows: Vec<Row>,
    index: BTreeMap<u64, usize>,
}

/// The SQLite-like engine.
pub struct Sqlite {
    /// The file-lock protocol state under the state-machine lock.
    state: DynMutex<FileLockState>,
    /// Rows and index under the short table (metadata) lock.
    table: DynMutex<TableData>,
    requests: AtomicU64,
    next_id: AtomicU64,
    #[cfg(test)]
    invariant_violations: AtomicU64,
}

impl Sqlite {
    /// Create with `prefill` rows.
    pub fn new(factory: &dyn LockFactory, prefill: u64) -> Self {
        let rows: Vec<Row> = (0..prefill)
            .map(|id| Row {
                id,
                indexed: id * 3 % (prefill.max(1) * 2),
                payload: id * 7,
            })
            .collect();
        // One bulk build. Where an indexed value repeats, the later row
        // holds it (`BTreeMap::from_iter` keeps a key's last value), as
        // with `insert`.
        let index = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.indexed, i))
            .collect();
        Sqlite {
            state: guarded_slot(factory, "sqlite.state", FileLockState::default()),
            table: guarded_slot(factory, "sqlite.table", TableData { rows, index }),
            requests: AtomicU64::new(0),
            next_id: AtomicU64::new(prefill),
            #[cfg(test)]
            invariant_violations: AtomicU64::new(0),
        }
    }

    /// Default sizing used by the figures (the paper scans "a 100k
    /// table"; we prefill 10k and cap a full scan at `SCAN_CAP`
    /// rows, which keeps it the occasional request two orders of
    /// magnitude longer than the rest without one scan filling a
    /// whole `--quick` measurement cell).
    pub fn with_default_size(factory: &dyn LockFactory) -> Self {
        Self::new(factory, 10_000)
    }

    #[inline]
    fn with_state<R>(&self, f: impl FnOnce(&mut FileLockState) -> R) -> R {
        let mut state = self.state.lock();
        let r = f(&mut state);
        #[cfg(test)]
        if !state.valid() {
            self.invariant_violations.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn acquire_shared(&self) {
        let mut backoff = 50u64;
        loop {
            let ok = self.with_state(|s| {
                if !s.pending && !s.exclusive {
                    s.shared += 1;
                    true
                } else {
                    false
                }
            });
            if ok {
                return;
            }
            execute_raw_units(backoff);
            backoff = (backoff * 2).min(4_000);
        }
    }

    fn release_shared(&self) {
        self.with_state(|s| {
            debug_assert!(s.shared > 0);
            s.shared -= 1;
        });
    }

    /// Try to take RESERVED. On refusal the *caller must drop its
    /// SHARED lock and retry the transaction*: holding SHARED while
    /// waiting would deadlock against the reserved writer's
    /// EXCLUSIVE promotion (which waits for readers to drain). This
    /// is SQLite's actual behaviour — the second writer gets
    /// `SQLITE_BUSY` here rather than blocking.
    fn try_acquire_reserved(&self) -> bool {
        self.with_state(|s| {
            if !s.reserved && !s.pending && !s.exclusive {
                s.reserved = true;
                true
            } else {
                false
            }
        })
    }

    fn promote_exclusive(&self) {
        // PENDING refuses new readers...
        self.with_state(|s| s.pending = true);
        // ...then wait for existing readers to drain (we hold one
        // SHARED ourselves).
        let mut backoff = 50u64;
        loop {
            let ok = self.with_state(|s| {
                if s.shared == 1 {
                    s.exclusive = true;
                    true
                } else {
                    false
                }
            });
            if ok {
                return;
            }
            execute_raw_units(backoff);
            backoff = (backoff * 2).min(4_000);
        }
    }

    fn commit_and_unlock(&self) {
        self.with_state(|s| {
            s.exclusive = false;
            s.pending = false;
            s.reserved = false;
            s.shared -= 1;
        });
    }

    /// INSERT transaction (DEFERRED: shared → reserved → exclusive).
    ///
    /// When RESERVED is busy the transaction observes `SQLITE_BUSY`:
    /// it drops SHARED, backs off and restarts — the retry loop that
    /// makes SQLite epoch latencies "greatly fluctuate and grow
    /// non-linearly" in the paper's Figure 10f.
    pub fn insert(&self, indexed: u64, payload: u64) -> u64 {
        let mut backoff = 50u64;
        loop {
            self.acquire_shared();
            if self.try_acquire_reserved() {
                break;
            }
            // SQLITE_BUSY: restart the transaction from scratch.
            self.release_shared();
            execute_raw_units(backoff);
            backoff = (backoff * 2).min(8_000);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Modify the page cache (short metadata lock; RESERVED
        // excludes other writers).
        {
            let mut table = self.table.lock();
            let slot = table.rows.len();
            table.index.insert(indexed, slot);
            table.rows.push(Row {
                id,
                indexed,
                payload,
            });
            execute_units(INSERT_UNITS);
        }
        // Commit: spill to the database file under EXCLUSIVE.
        self.promote_exclusive();
        execute_units(COMMIT_UNITS);
        self.commit_and_unlock();
        id
    }

    /// Simple SELECT: point query on the indexed column.
    pub fn select_point(&self, indexed: u64) -> Option<Row> {
        self.acquire_shared();
        let row = {
            let table = self.table.lock();
            let row = table.index.get(&indexed).map(|&i| table.rows[i]);
            execute_units(SIMPLE_SELECT_UNITS);
            row
        };
        self.release_shared();
        row
    }

    /// Complex SELECT: range over the index, filter on the
    /// non-indexed payload column.
    pub fn select_range(&self, from: u64, filter_mod: u64) -> usize {
        self.acquire_shared();
        let hits = {
            let table = self.table.lock();
            let hits = table
                .index
                .range(from..)
                .take(RANGE_ROWS)
                .filter(|(_, &i)| table.rows[i].payload % filter_mod.max(1) == 0)
                .count();
            execute_units(RANGE_ROWS as u64 * RANGE_ROW_UNITS);
            hits
        };
        self.release_shared();
        hits
    }

    /// Full-table scan (the occasional extremely long request).
    pub fn full_scan(&self) -> u64 {
        self.acquire_shared();
        let count = {
            let table = self.table.lock();
            let n = table.rows.len().min(SCAN_CAP);
            let sum: u64 = table.rows[..n].iter().map(|r| r.payload).sum();
            execute_units(n as u64 * RANGE_ROW_UNITS);
            sum
        };
        self.release_shared();
        count
    }

    /// Row count (test helper).
    pub fn len(&self) -> usize {
        self.table.lock().rows.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the protocol state (tests).
    pub fn lock_state(&self) -> FileLockState {
        self.with_state(|s| *s)
    }

    #[cfg(test)]
    fn violations(&self) -> u64 {
        self.invariant_violations.load(Ordering::Relaxed)
    }
}

impl Engine for Sqlite {
    fn run_request(&self, rng: &mut SmallRng) {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        if n % SCAN_EVERY == SCAN_EVERY - 1 {
            self.full_scan();
            return;
        }
        match rng.gen_range(0..3u8) {
            0 => {
                let indexed = rng.gen_range(0..1 << 20);
                let payload = rng.gen::<u32>() as u64;
                self.insert(indexed, payload);
            }
            1 => {
                let _ = self.select_point(rng.gen_range(0..1 << 20));
            }
            _ => {
                let _ = self.select_range(rng.gen_range(0..1 << 20), 7);
            }
        }
    }

    fn name(&self) -> &'static str {
        "sqlite"
    }

    fn lock_labels(&self) -> &'static [&'static str] {
        &["sqlite.state", "sqlite.table"]
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
    fn insert_and_point_query() {
        let db = Sqlite::new(&factory(), 0);
        assert!(db.is_empty());
        db.insert(100, 700);
        let row = db.select_point(100).expect("inserted row");
        assert_eq!(row.payload, 700);
        assert!(db.select_point(101).is_none());
        assert_eq!(db.len(), 1);
        // After the transaction everything is unlocked again.
        assert_eq!(db.lock_state(), FileLockState::default());
    }

    #[test]
    fn range_query_counts_filtered_rows() {
        let db = Sqlite::new(&factory(), 0);
        for i in 0..100 {
            db.insert(i, i); // payload == indexed
        }
        // payload % 1 == 0 always: all RANGE_ROWS rows hit.
        assert_eq!(db.select_range(0, 1), RANGE_ROWS.min(100));
        // payload % 2: half.
        let hits = db.select_range(0, 2);
        assert!(hits > 0 && hits <= RANGE_ROWS);
    }

    #[test]
    fn full_scan_runs() {
        let db = Sqlite::new(&factory(), 1_000);
        assert!(db.full_scan() > 0);
    }

    #[test]
    fn prefill_sizes() {
        let db = Sqlite::with_default_size(&factory());
        assert_eq!(db.len(), 10_000);
    }

    #[test]
    fn the_prefilled_index_is_the_row_by_row_one() {
        // 10 000 (the default) has no repeated indexed value; a prefill
        // divisible by 3 repeats `id·3 mod 2·prefill`, and the later
        // row must hold the key.
        for prefill in [10_000, 3, 999] {
            let db = Sqlite::new(&factory(), prefill);
            let table = db.table.lock();
            let mut reference = BTreeMap::new();
            for (i, row) in table.rows.iter().enumerate() {
                reference.insert(row.indexed, i);
            }
            assert_eq!(table.index, reference, "prefill {prefill}");
        }
        let db = Sqlite::new(&factory(), 3);
        assert_eq!(db.select_point(0).map(|r| r.id), Some(2));
    }

    #[test]
    fn concurrent_transactions_keep_invariants() {
        let db = Arc::new(Sqlite::new(&factory(), 500));
        let mut handles = vec![];
        for i in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(i);
                for _ in 0..500 {
                    db.run_request(&mut rng);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.violations(), 0, "file-lock protocol invariant broken");
        assert_eq!(db.lock_state(), FileLockState::default());
        assert!(db.len() >= 500);
    }

    #[test]
    fn concurrent_writers_do_not_deadlock() {
        // Regression: two DEFERRED writers used to deadlock — one
        // spinning for RESERVED while holding SHARED, the other
        // waiting in EXCLUSIVE promotion for SHARED to drain. The
        // SQLITE_BUSY retry (drop SHARED, restart) must resolve it.
        let db = Arc::new(Sqlite::new(&factory(), 0));
        let mut handles = vec![];
        for i in 0..8u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..300 {
                    db.insert(i * 1_000 + j, j);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 8 * 300);
        assert_eq!(db.violations(), 0);
        assert_eq!(db.lock_state(), FileLockState::default());
    }

    #[test]
    fn state_validity_rules() {
        assert!(FileLockState::default().valid());
        assert!(FileLockState {
            shared: 3,
            ..Default::default()
        }
        .valid());
        // EXCLUSIVE without PENDING: invalid.
        assert!(!FileLockState {
            shared: 1,
            exclusive: true,
            ..Default::default()
        }
        .valid());
        // PENDING without RESERVED: invalid.
        assert!(!FileLockState {
            pending: true,
            ..Default::default()
        }
        .valid());
        // Proper writer commit state: valid.
        assert!(FileLockState {
            shared: 1,
            reserved: true,
            pending: true,
            exclusive: true
        }
        .valid());
    }
}
