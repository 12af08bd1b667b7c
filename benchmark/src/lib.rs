//! The repo benchmark: five workloads, four gated end-to-end metrics,
//! 116 per-layer metrics. `benchmark/README.md` has the why and the
//! glossary; `main.rs` is the command line.

pub mod amp;
pub mod amp_db;
pub mod host_acquire;
pub mod host_kv;
pub mod metrics;
pub mod report;
pub mod run;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workload;
