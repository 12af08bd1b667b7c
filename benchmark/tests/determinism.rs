//! The properties later PRs rely on when they compare two runs.

use std::sync::Mutex;

use libasl_benchmark::amp::AMP_LOCK;
use libasl_benchmark::metrics::{per_layer_names, Clock, Metric};
use libasl_benchmark::report::contract_json;
use libasl_benchmark::run::traced;

/// Tracing is a process-wide switch and the test harness runs tests
/// on parallel threads: the tests that simulate take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `(name, bits)` of every virtual-clock metric.
fn virtual_values(metrics: &[Metric]) -> Vec<(String, u64)> {
    metrics
        .iter()
        .filter(|m| m.clock == Clock::Virtual)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn amp_lock_repeats_byte_for_byte() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A short virtual window (0.4 s of budget): the values are noisy
    // as statistics but must still be a pure function of the seed.
    let a = AMP_LOCK.run(0.4, 7);
    let b = AMP_LOCK.run(0.4, 7);
    assert_eq!(a.failed, 0);
    assert_eq!(a.attempted, b.attempted);
    let (va, vb) = (
        virtual_values(&a.e2e.metrics(a.clock)),
        virtual_values(&b.e2e.metrics(b.clock)),
    );
    assert_eq!(va.len(), 3, "all but setup_s are virtual");
    assert_eq!(va, vb);
    assert_eq!(virtual_values(&a.detail), virtual_values(&b.detail));
    // And the seed is really an input.
    let c = AMP_LOCK.run(0.4, 8);
    assert_ne!(va, virtual_values(&c.e2e.metrics(c.clock)));
}

#[test]
fn a_traced_run_reports_every_layer_and_loses_no_time() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let layers = traced("amp-lock", 1.0, 3);
    let got: Vec<&str> = layers.metrics.iter().map(|m| m.name.as_str()).collect();
    let want = per_layer_names();
    let want: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want);
    // `failed` counts oracle failures, missing metrics, and requests
    // whose span self-times do not sum to the request span.
    assert_eq!(layers.failed, 0);
    assert!(
        !layers.logs.is_empty(),
        "the asked-for workload's spans are kept"
    );
    assert!(layers.logs.iter().all(|l| l.cell.starts_with("amp-lock/")));
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        contract_json(),
        "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --contract > BENCHMARK.json"
    );
}
