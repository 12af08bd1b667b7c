//! Busy-wait hygiene audit.
//!
//! PR 1 convention: every busy-wait loop in the workspace goes
//! through `asl_runtime::relax::Spin`, which yields on single-CPU /
//! oversubscribed hosts so lock hand-offs don't burn scheduler
//! quanta. A raw `spin_loop()` hint in a wait loop silently
//! reintroduces the 500x CI slowdown that motivated it — so this test
//! greps the source tree and fails if one sneaks in outside the
//! explicit allowlist.

use std::path::{Path, PathBuf};

/// Files allowed to call `spin_loop` directly:
/// * `relax.rs` *is* the Spin implementation;
/// * `blocking.rs` uses bounded pre-park spin phases (fixed iteration
///   counts before a futex wait, not open-ended waits);
/// * `exec.rs` likewise: `block_on`'s pre-park spin, bounded by a
///   budget that halves each time it runs out (and `Spin` would route
///   an executor wait to the simulator substrate);
/// * this audit names the pattern it greps for.
const ALLOWED: &[&str] = &[
    "crates/runtime/src/relax.rs",
    "crates/runtime/src/exec.rs",
    "crates/locks/src/blocking.rs",
    "tests/spin_hygiene.rs",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn raw_spin_loop_hints_only_in_allowlisted_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(
        sources.len() > 50,
        "source walk looks broken: {} files",
        sources.len()
    );

    let mut offenders = Vec::new();
    for path in &sources {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        if ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(path).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            if line.contains("spin_loop") {
                offenders.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "raw spin_loop hint outside the allowlist — use asl_runtime::relax::Spin \
         (yields under oversubscription) instead:\n{}",
        offenders.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Clock hygiene: the hot-path latency overhaul's invariants.
//
// The paper budgets ~45 cycles per `clock_gettime` and spends them
// sparingly; our convention after the overhaul is that *spin waiter
// loops never read the precise clock* — deadline checks ride
// `asl_runtime::clock::coarse_now_ns`'s amortized per-thread cache —
// and `ReorderableLock::lock_reorder` anchors everything on a single
// precise read per acquisition. A stray `now_ns()` in those regions
// silently reintroduces a clock read per spin iteration, so these
// grep-style audits pin the source down.
// ---------------------------------------------------------------------------

/// The file's code before its `#[cfg(test)]` module.
fn non_test_source(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).expect("readable source file");
    text.split("#[cfg(test)]")
        .next()
        .expect("non-empty")
        .to_string()
}

/// The slice from `needle` to the next top-level `impl` (or EOF).
fn block_after<'a>(src: &'a str, needle: &str) -> &'a str {
    let start = src
        .find(needle)
        .unwrap_or_else(|| panic!("{needle:?} not found — hygiene audit is stale"));
    let rest = &src[start..];
    match rest[needle.len()..].find("\nimpl ") {
        Some(end) => &rest[..needle.len() + end],
        None => rest,
    }
}

/// Occurrences of precise `now_ns(` calls (excluding `coarse_now_ns(`).
fn precise_clock_reads(src: &str) -> usize {
    src.matches("now_ns(").count() - src.matches("coarse_now_ns(").count()
}

#[test]
fn spin_wait_policies_read_only_the_coarse_clock() {
    let src = non_test_source("crates/core/src/wait.rs");
    let body = block_after(&src, "impl WaitPolicy for SpinWait");
    assert_eq!(
        precise_clock_reads(body),
        0,
        "SpinWait's waiter loop must check deadlines via coarse_now_ns \
         (a precise now_ns per iteration is the regression this audit exists for):\n{body}"
    );
}

#[test]
fn lock_reorder_precise_clock_budget() {
    // Acceptance invariant: with sampling off (production), at most
    // one precise `now_ns()` call per standby acquisition — the
    // deadline anchor. The source budget is exactly two occurrences:
    // that anchor and the sampling-gated end-read of a wait that found
    // the lock held (off in production; precise because blocking in
    // inner.lock() never refreshes the coarse cache). The free-entry
    // path reads none — there was no wait — and the clock reads of a
    // timed hold are the telemetry cell's, one hold in sixteen
    // (`tests/acquire_hygiene.rs` counts them). The waiter loop itself
    // — audited separately above — performs zero precise reads.
    let src = non_test_source("crates/core/src/reorderable.rs");
    let start = src
        .find("pub fn lock_reorder")
        .expect("lock_reorder not found — hygiene audit is stale");
    let rest = &src[start..];
    let body = match rest["pub fn ".len()..].find("\n    pub fn ") {
        Some(end) => &rest[.."pub fn ".len() + end],
        None => rest,
    };
    assert_eq!(
        precise_clock_reads(body),
        2,
        "lock_reorder's clock budget is one deadline anchor plus one \
         sampling-gated end-read of a contended wait:\n{body}"
    );
    assert_eq!(
        body.matches("if sampling").count(),
        1,
        "the measurement read must stay behind its sampling gate:\n{body}"
    );
}

#[test]
fn deadline_arithmetic_is_saturating() {
    // `now + window` style sums wrap for huge windows and turn an
    // effectively-infinite deadline into an already-expired one
    // (clock::busy_wait_ns regressed on this once). This grep catches
    // the *direct-sum* form — a `now_ns()` (or `coarse_now_ns()`)
    // read and a `+` on the same line — across every non-test source
    // in the workspace. Sums over a timestamp saved in an earlier
    // statement (e.g. bravo.rs's inhibit deadline, fixed to
    // saturating_add in the same overhaul) are beyond a line grep;
    // those need review, and this audit makes no claim about them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let mut offenders = Vec::new();
    for path in &sources {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let src = non_test_source(&rel);
        for (i, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if code.contains("now_ns() +") || (code.contains("now_ns()") && code.contains(") + ")) {
                offenders.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "deadline sums over a clock read must use saturating_add:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn allowlist_entries_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ALLOWED {
        assert!(root.join(rel).is_file(), "stale allowlist entry: {rel}");
    }
}
