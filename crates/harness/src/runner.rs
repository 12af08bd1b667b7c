//! Timed experiment runner, in virtual time.
//!
//! Reproduces the paper's measurement protocol on the deterministic
//! simulator: `n` virtual threads bound big-cores-first on a modeled
//! topology, a warm-up window, then a fixed measurement window, both in
//! virtual nanoseconds. Throughput is completed operations per virtual
//! second and latency, read off the virtual clock, is collected per
//! core class so reports can show Big P99 / Little P99 / Overall P99
//! side by side. A run is a pure function of its configuration and the
//! runner's `SEED`: the same call gives the same numbers on any host,
//! whatever CPUs it lends the process.
//!
//! The loop and its record are the simulator's
//! ([`asl_sim::zoo::run_timed`], [`RunResult`]); this module fixes the
//! machine's seed and cost model for the paper figures and notes which
//! machines a figure modeled. Every timed figure is a call to
//! [`run_timed_with_setup`]. What varies per figure goes in the two
//! closures — `setup` builds each worker's own state on its virtual
//! thread (its RNG, a delegation handle; a server may serve from it),
//! `op` runs one operation against it.

use std::cell::RefCell;

use asl_runtime::topology::Topology;
use asl_sim::exec::ZooConfig;
pub use asl_sim::zoo::RunResult;

/// Schedule seed of every run: the simulator's seeded start stagger.
pub(crate) const SEED: u64 = 1;

/// Configuration for a timed run.
#[derive(Clone)]
pub struct RunConfig {
    /// The modeled machine.
    pub topology: Topology,
    /// Worker count (may exceed core count for over-subscription).
    pub threads: usize,
    /// Measurement window (virtual ns).
    pub duration_ns: u64,
    /// Warm-up (not recorded) before measuring (virtual ns).
    pub warmup_ns: u64,
}

thread_local! {
    /// Names of the machines this thread's runs modeled since the last
    /// [`take_machines`].
    static MACHINES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The machines the calling thread's runs modeled since the last call,
/// in first-use order: what a figure's "virtual time" note names.
pub(crate) fn take_machines() -> Vec<&'static str> {
    MACHINES.with(|m| std::mem::take(&mut *m.borrow_mut()))
}

/// Run `op` repeatedly on every worker for the configured windows:
/// [`asl_sim::zoo::run_timed`] (which documents `setup` and `op`) on
/// `cfg`'s machine with the runner's `SEED` and the default cost
/// model, ending at warm-up plus window.
pub fn run_timed_with_setup<W, S, F>(cfg: &RunConfig, setup: S, op: F) -> RunResult
where
    S: Fn(usize) -> W + Sync,
    F: Fn(usize, &mut W) -> u64 + Sync,
{
    MACHINES.with(|m| {
        let mut m = m.borrow_mut();
        if !m.contains(&cfg.topology.name()) {
            m.push(cfg.topology.name());
        }
    });
    let zoo = ZooConfig {
        duration_ns: cfg.warmup_ns + cfg.duration_ns,
        ..ZooConfig::quick(cfg.topology.clone(), cfg.threads, SEED)
    };
    asl_sim::zoo::run_timed(&zoo, cfg.warmup_ns, setup, op)
}
