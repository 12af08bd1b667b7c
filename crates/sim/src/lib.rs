//! # asl-sim — the real lock zoo on a modeled machine
//!
//! A deterministic virtual-time engine for the paper's experimental
//! setup. The locks are not modeled — [`exec::run_threads`] steps the
//! *real*, unmodified implementations cooperatively in virtual time
//! (via the [`asl_runtime::substrate`] backend) — the machine is:
//! cache-line transfer costs, remote sockets, the little-core slowdown,
//! core oversubscription ([`CostModel`], [`asl_runtime::Topology`]).
//!
//! [`exec::run_threads`] is the one entry point, running any body per
//! virtual thread; a body reaches the machine only through the
//! substrate. The workloads are drivers over it. [`zoo::run_timed`]
//! is the one timed loop (warm-up, measurement window, latencies by
//! core class in a [`RunResult`]): the harness's runner (the paper
//! figures) and the workspace tests' jittered cells call it, and
//! [`zoo::run_lock`], the standard lock loop behind the `repro sim-*`
//! figures, is it with one lock op — the only workload that pays a
//! lock hand-off. The torture sweep and the repo benchmark's `amp-*`
//! workloads run their own bodies. The same [`ZooConfig`] and body
//! yield the same virtual result, so figure *shapes* are assertable in
//! tests (`tests/integration_shapes.rs` at the workspace root).

pub mod exec;
pub mod zoo;

pub use exec::{CostModel, ZooConfig};
pub use zoo::{run_lock, run_timed, RunResult, ZooResult};
