//! # asl-sim — the real lock zoo on a modeled machine
//!
//! A deterministic virtual-time engine for the paper's experimental
//! setup: `N` threads on the cores of an asymmetric machine, each
//! cycling *non-critical section → acquire → critical section →
//! release*. The locks are not modeled — [`exec::run_lock`] steps the
//! *real*, unmodified implementations cooperatively in virtual time
//! (via the [`asl_runtime::substrate`] backend), and what is modeled
//! is the machine: cache-line transfer costs, remote sockets, the
//! little-core slowdown, core oversubscription ([`CostModel`],
//! [`asl_runtime::Topology`]).
//!
//! Everything is seeded and deterministic: the same [`ZooConfig`] and
//! lock type yield the same [`ZooResult`], grant trace included —
//! which makes figure *shapes* assertable in tests without wall-clock
//! noise (`tests/integration_shapes.rs` at the workspace root holds
//! the paper's Figure 1/4/5/8 shapes to the executed zoo),
//! complementing the real-thread harness. [`exec::run_threads`] runs
//! an arbitrary body per virtual thread for workloads beyond the
//! standard loop (the repo benchmark's `amp-*` workloads, the
//! database engines).

pub mod exec;

pub use exec::{run_lock, run_rw, CostModel, ZooConfig, ZooResult, ZooRwResult};
