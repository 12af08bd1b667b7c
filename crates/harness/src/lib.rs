//! # asl-harness — measurement and paper-figure reproduction
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`hist`] — log-linear latency histogram (HDR-style) with
//!   percentiles, CDFs and merging.
//! * [`runner`] — timed experiment runner on the deterministic
//!   simulator: virtual threads on a modeled AMP topology, warm-up and
//!   measurement windows in virtual time, and a per-core-class result
//!   breakdown (the paper reports Big P99 / Little P99 / Overall P99
//!   separately).
//! * [`locks`] — runtime lock selection: every baseline and every
//!   LibASL configuration as an `Arc<dyn PlainLock>` plus epoch/SLO
//!   annotation metadata.
//! * [`scenario`] — the paper's micro-benchmark bodies (Bench-1..6,
//!   Figures 1/4/5/8) parameterized by lock, cache-line count and
//!   inter-acquisition work.
//! * [`figures`] — one driver per paper figure, each returning
//!   [`report::Table`] rows that mirror the published series.
//! * [`report`] — markdown/CSV emitters.
//!
//! The `repro` binary ties it together:
//! `repro fig8a`, `repro all --quick`, `repro list`.

pub mod diff;
pub mod figures;
pub mod hist;
pub mod locks;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod torture;

pub use hist::Hist;
pub use runner::{run_timed_with_setup, RunConfig, RunResult};

/// Serializes unit tests that touch `asl_locks::telemetry`'s
/// process-wide state (the recording/profiling gates and the cell
/// registry). `cargo test` runs this crate's tests on parallel
/// threads of one process, so any two tests that toggle a gate, or
/// that register cells while another clears them, race without this.
#[cfg(test)]
pub(crate) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A panicking holder doesn't corrupt the (unit) state.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}
