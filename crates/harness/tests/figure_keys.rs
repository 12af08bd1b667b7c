//! The figures that drive the delegation family and the collapse
//! figure run on the shared timed runner; what they *emit* is pinned
//! here to the committed references (`baselines/sim/`, which CI also
//! byte-diffs whole), so a change to the drivers cannot rename,
//! drop or reorder a `(lock, threads)` cell of their
//! `BENCH_<figure>.json`. Tiny profile: the values are meaningless,
//! the keys are the test.

use asl_harness::figures::{find, Profile};
use asl_harness::locks::{listing, registry};

const TINY: Profile = Profile {
    duration_ms: 10,
    warmup_ms: 2,
};

/// The `(lock, threads)` keys of a committed `baselines/sim/BENCH_*.json`,
/// read off its result lines as `report::render_bench_json` writes them
/// (`{"lock": "<name>", "threads": <n>, ...`; names carry no quotes).
fn baseline_keys(file: &str) -> Vec<(String, usize)> {
    let path = format!("{}/../../baselines/sim/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let keys: Vec<(String, usize)> = text
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("{\"lock\": \""))
        .map(|rest| {
            let (lock, rest) = rest.split_once("\", \"threads\": ").expect(path.as_str());
            let threads = rest.split(',').next().and_then(|n| n.parse().ok());
            (lock.to_string(), threads.expect(path.as_str()))
        })
        .collect();
    assert!(!keys.is_empty(), "{path}: no result lines");
    keys
}

#[test]
fn delegation_and_collapse_sample_keys_match_the_committed_baselines() {
    for (id, file) in [
        ("delegation", "BENCH_delegation.json"),
        ("collapse", "BENCH_collapse.json"),
    ] {
        let tables = find(id).expect("registered figure")(&TINY);
        assert_eq!(tables.len(), 1, "{id}");
        assert_eq!(tables[0].id, id);
        let keys: Vec<(String, usize)> = tables[0]
            .samples
            .iter()
            .map(|s| (s.lock.clone(), s.threads))
            .collect();
        assert_eq!(keys, baseline_keys(file), "{id}: sample keys moved");
    }
}

#[test]
fn sec5_delegation_rows_keep_their_labels() {
    // This figure emits rows only (no samples, so no baseline file):
    // its keys are the first two columns.
    let tables = find("sec5-delegation").expect("registered figure")(&TINY);
    assert_eq!(tables.len(), 1);
    let keys: Vec<(&str, &str)> = tables[0]
        .rows
        .iter()
        .map(|r| (r[0].as_str(), r[1].as_str()))
        .collect();
    let structures = ["flat-combining", "delegation-server", "mcs", "libasl-max"];
    let expected: Vec<(&str, &str)> = ["high", "low"]
        .into_iter()
        .flat_map(|contention| structures.map(|s| (contention, s)))
        .collect();
    assert_eq!(keys, expected);
}

/// `repro locks` prints the library's listing, whose first column is
/// exactly the table's canonical names, in table order.
#[test]
fn repro_locks_first_column_is_the_table() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("locks")
        .output()
        .expect("repro runs");
    let printed = String::from_utf8(out.stdout).expect("utf-8");
    let rows = listing();
    assert!(printed.starts_with(&rows), "repro locks prints `listing()`");
    let column: Vec<&str> = rows.lines().filter_map(|l| l.split(' ').next()).collect();
    let names: Vec<String> = registry().iter().map(|e| e.spec.to_string()).collect();
    assert_eq!(column, names);
}
