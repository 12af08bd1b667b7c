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
//! virtual thread; the workloads are drivers over it: the harness's
//! timed runner (the paper figures), the torture sweep, the repo
//! benchmark's `amp-*` workloads, and [`zoo::run_lock`], the standard
//! lock loop behind the `repro sim-*` figures. The same [`ZooConfig`]
//! and body yield the same virtual result, so figure *shapes* are
//! assertable in tests (`tests/integration_shapes.rs` at the workspace
//! root, through the jittered loop of its `tests/common`).

pub mod exec;
pub mod zoo;

pub use exec::{CostModel, ZooConfig};
pub use zoo::{run_lock, ZooResult};
