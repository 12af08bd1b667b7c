//! The paper's two-sided claim on the database engines, in the
//! simulator's deterministic virtual time (`common::run_engine`): with
//! LibASL under them the engines do **more** work than under FIFO
//! `mcs`, and the little cores' epochs stay inside the SLO PCT = 99 %
//! of the time. Two engines stand for the two ways that used to fail:
//!
//! * **SQLite** — a file-lock state machine with several acquisitions
//!   per request. A standby competitor that probes with exponential
//!   back-off spins blind on a free `sqlite.state` lock while it holds
//!   SHARED/PENDING state and everyone else is refused: LibASL ran at
//!   0.875x `mcs` on this cell.
//! * **Kyoto** — a 9 µs SLO, where the old controller's 100 ns growth
//!   floor was three times Algorithm 2's unit and 2.7 % of little
//!   epochs missed.
//!
//! Same machine, thread count and SLOs as the repo benchmark's
//! `amp-db` workload at a fifth of its length, so a cell is ~3 000
//! SQLite requests or ~800 counted little-core Kyoto epochs and one
//! seed is one draw: over seeds 1–8, 11 and 42 SQLite read
//! 0.966–1.096x `mcs` (eight of ten at or over 1; 0.87x under the
//! old exponential prober) and Kyoto 0.50–0.79 % misses (2.8 % under
//! the old controller). The seed is fixed, so
//! the file is deterministic; the claim across seeds at full length
//! is the benchmark's to make.
//!
//! How an engine is built is host work and must move no virtual ns:
//! the LevelDB and SQLite cells under both locks are pinned by epoch
//! count and latency digest.

mod common;

use std::sync::Arc;

use common::{run_engine, ThreadEpochs};
use libasl::dbsim::kyoto::Kyoto;
use libasl::dbsim::leveldb::LevelDb;
use libasl::dbsim::sqlite::Sqlite;
use libasl::locks::plain::PlainLock;
use libasl::locks::McsLock;
use libasl::runtime::Topology;
use libasl::sim::ZooConfig;
use libasl::AslSpinLock;

const SEED: u64 = 1;

fn cfg(slo_ns: Option<u64>) -> ZooConfig {
    ZooConfig {
        ncs_units: 100,
        duration_ns: 3_000_000,
        slo_ns,
        ..ZooConfig::quick(Topology::apple_m1(), 8, SEED)
    }
}

fn mcs() -> Arc<dyn PlainLock> {
    Arc::new(McsLock::new())
}

fn asl() -> Arc<dyn PlainLock> {
    Arc::new(AslSpinLock::default())
}

fn epochs(threads: &[ThreadEpochs]) -> usize {
    threads.iter().map(|t| t.latencies.len()).sum()
}

/// FNV-1a over every thread's core class and epoch latencies, in
/// thread order.
fn digest(threads: &[ThreadEpochs]) -> u64 {
    threads
        .iter()
        .flat_map(|t| std::iter::once(u64::from(t.big)).chain(t.latencies.iter().copied()))
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(cell, epochs, digest)` of the four cells, recorded on the commit
/// that still kept LevelDB's table in a `BTreeMap` and built SQLite's
/// index one insert at a time. Same SLOs as `amp-db`.
const PINNED: [(&str, usize, u64); 4] = [
    ("leveldb/mcs", 13_321, 5_332_759_363_279_988_423),
    ("leveldb/libasl-8700ns", 15_496, 15_073_991_892_649_767_009),
    ("sqlite/mcs", 2_931, 13_590_989_846_072_178_281),
    ("sqlite/libasl-300us", 2_984, 5_933_869_758_493_696_414),
];

#[test]
fn leveldb_and_sqlite_cells_repeat_to_the_virtual_ns() {
    let cells = [
        run_engine(&cfg(None), &LevelDb::with_default_size(&mcs)),
        run_engine(&cfg(Some(8_700)), &LevelDb::with_default_size(&asl)),
        run_engine(&cfg(None), &Sqlite::with_default_size(&mcs)),
        run_engine(&cfg(Some(300_000)), &Sqlite::with_default_size(&asl)),
    ];
    let got: Vec<_> = PINNED
        .iter()
        .zip(&cells)
        .map(|(&(name, ..), threads)| (name, epochs(threads), digest(threads)))
        .collect();
    assert_eq!(got, PINNED);
}

#[test]
fn sqlite_under_libasl_does_not_lose_to_fifo() {
    let fifo = epochs(&run_engine(&cfg(None), &Sqlite::with_default_size(&mcs)));
    let reordered = epochs(&run_engine(
        &cfg(Some(300_000)),
        &Sqlite::with_default_size(&asl),
    ));
    assert!(
        reordered >= fifo,
        "libasl-300us finished {reordered} requests, mcs {fifo} ({:.3}x)",
        reordered as f64 / fifo as f64
    );
}

#[test]
fn kyoto_little_cores_meet_a_9us_slo_99_percent_of_the_time() {
    const SLO_NS: u64 = 9_000;
    // Each thread's first 200 epochs are the descent from the 10 µs
    // default window to one this SLO can afford.
    const DESCENT: usize = 200;
    let threads = run_engine(&cfg(Some(SLO_NS)), &Kyoto::with_default_size(&asl));
    let (misses, counted) = threads
        .iter()
        .filter(|t| !t.big)
        .map(|t| t.misses_after(DESCENT, SLO_NS))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(counted > 500, "only {counted} little epochs counted");
    assert!(
        misses * 100 <= counted,
        "{misses} of {counted} little epochs over {SLO_NS} ns ({:.2} %)",
        100.0 * misses as f64 / counted as f64
    );
}
