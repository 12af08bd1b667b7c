//! Per-figure reproduction drivers.
//!
//! Each driver regenerates one paper figure (or a group sharing a
//! workload) as [`Table`]s: the same series the paper plots, in text
//! form. Absolute values differ from the paper (the machine is a
//! modeled one — the simulator's M1-like topology in virtual time,
//! through [`crate::runner`] — not an Apple M1); the *shape* — who
//! wins, by what rough factor, where crossovers sit — is the
//! reproduction target. `overhead` and `kv` measure the host instead,
//! and the `sim-*` family drives the simulator's own workload.
//!
//! LibASL SLO settings are anchored to the *measured* MCS P99 of the
//! same workload (the paper picks absolute values hand-tuned to its
//! hardware; anchoring keeps the comparisons meaningful on any
//! machine model).

pub mod bench1;
pub mod collapse;
pub mod db;
pub mod delegation;
pub mod extra;
pub mod kv;
pub mod micro;
pub mod overhead;
pub mod rw;
pub mod sim;

use asl_runtime::topology::Topology;

use crate::report::Table;
use crate::runner::{run_timed_with_setup, take_machines, RunConfig, RunResult, SEED};
use crate::scenario::{worker_rng, MicroScenario};

/// Virtual nanoseconds a runner window lasts per profile millisecond
/// (quick: 2.1 ms measured after a 0.7 ms warm-up).
pub(crate) const VIRTUAL_NS_PER_MS: u64 = 17_500;

/// Measurement effort per data point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Measurement window per point (ms; the runner simulates 17.5 µs
    /// of virtual time for each).
    pub duration_ms: u64,
    /// Warmup per point (ms).
    pub warmup_ms: u64,
}

impl Profile {
    /// Fast mode for CI / smoke runs.
    pub fn quick() -> Self {
        Profile {
            duration_ms: 120,
            warmup_ms: 40,
        }
    }

    /// Paper-style mode (longer, steadier points).
    pub fn full() -> Self {
        Profile {
            duration_ms: 600,
            warmup_ms: 150,
        }
    }

    /// Runner config on the default M1-like topology.
    pub fn config(&self, threads: usize) -> RunConfig {
        self.config_on(Topology::apple_m1(), threads)
    }

    /// Runner config on an explicit topology.
    pub fn config_on(&self, topology: Topology, threads: usize) -> RunConfig {
        RunConfig {
            topology,
            threads,
            duration_ns: self.duration_ms * VIRTUAL_NS_PER_MS,
            warmup_ns: self.warmup_ms * VIRTUAL_NS_PER_MS,
        }
    }
}

/// Run a micro-scenario for one data point: workers seed their RNG,
/// then hammer `scenario.run_op`.
pub fn run_micro(profile: &Profile, scenario: &MicroScenario, threads: usize) -> RunResult {
    run_micro_on(profile, Topology::apple_m1(), scenario, threads)
}

/// [`run_micro`] on an explicit topology (Hikey970, Intel-DVFS, ...).
pub fn run_micro_on(
    profile: &Profile,
    topology: Topology,
    scenario: &MicroScenario,
    threads: usize,
) -> RunResult {
    let cfg = profile.config_on(topology, threads);
    run_timed_with_setup(&cfg, worker_rng, |_, rng| scenario.run_op(rng))
}

/// One-off CLI sweep: run the Bench-1 micro-benchmark under a single
/// named lock (`repro --lock <name>`); any registry name works, so
/// every experiment point is addressable from the command line.
pub fn single_lock(profile: &Profile, spec: &crate::locks::LockSpec) -> Table {
    let [t] = noted(|| {
        let scenario = MicroScenario::bench1(spec);
        let r = run_micro(profile, &scenario, 8);
        let mut t = Table::new(
            &format!("lock-{spec}"),
            &format!("Bench-1 micro-benchmark under `{spec}` (8 threads, M1-like topology)"),
            &micro::COMPARISON_COLS,
        );
        t.push_row(micro::comparison_row(&spec.label(), &r));
        t.push_sample(&spec.label(), 8, r.throughput);
        [t]
    });
    t
}

/// Run figure `id` (`None` if there is no such figure). Every table of
/// a figure the runner produced gets one note naming how: virtual
/// time, the machines modeled, the runner's seed and the cost model.
pub fn run(id: &str, profile: &Profile) -> Option<Vec<Table>> {
    let driver = find(id)?;
    Some(noted(|| driver(profile)))
}

/// `tables()`, each noted with the machines the runner modeled for it.
fn noted<T: AsMut<[Table]>>(tables: impl FnOnce() -> T) -> T {
    take_machines();
    let mut tables = tables();
    let machines = take_machines();
    if !machines.is_empty() {
        let note = format!(
            "virtual time, modeled {}, seed {SEED}, default cost model (asl_sim::exec::CostModel)",
            machines.join(" / ")
        );
        for t in tables.as_mut() {
            t.note(note.clone());
        }
    }
    tables
}

/// A figure-reproduction entry point: profile in, tables out.
pub type FigureFn = fn(&Profile) -> Vec<Table>;

/// All registered figures, in paper order.
pub fn registry() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("fig1", micro::fig1 as FigureFn),
        ("fig4", micro::fig4),
        ("fig5", micro::fig5),
        ("fig8a", bench1::fig8a),
        ("fig8b", bench1::fig8b),
        ("fig8c", bench1::fig8c),
        ("fig8d", bench1::fig8d),
        ("fig8ef", micro::fig8ef),
        ("fig8g", micro::fig8g),
        ("fig8hi", bench1::fig8hi),
        ("fig9-kyoto", db::fig9_kyoto),
        ("fig9-upscale", db::fig9_upscale),
        ("fig9-lmdb", db::fig9_lmdb),
        ("fig10-leveldb", db::fig10_leveldb),
        ("fig10-sqlite", db::fig10_sqlite),
        ("alt-topology", db::alt_topology),
        ("sec2-numa", extra::sec2_numa),
        ("sec5-delegation", extra::sec5_delegation),
        ("delegation", delegation::delegation),
        ("collapse", collapse::collapse),
        ("rw", rw::rw),
        ("overhead", overhead::overhead),
        ("kv", kv::kv),
        ("sim-numa", sim::sim_numa),
        ("sim-fair", sim::sim_fair),
        ("sim-oversub", sim::sim_oversub),
        ("sim-ablate", sim::sim_ablate),
    ]
}

/// Look up one figure driver by id.
pub fn find(id: &str) -> Option<fn(&Profile) -> Vec<Table>> {
    registry()
        .into_iter()
        .find(|(n, _)| *n == id)
        .map(|(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_findable() {
        let reg = registry();
        let mut ids: Vec<_> = reg.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len(), "duplicate figure ids");
        for (id, _) in &reg {
            assert!(find(id).is_some(), "{id} not findable");
        }
        assert!(find("not-a-figure").is_none());
    }

    #[test]
    fn registry_covers_every_paper_figure() {
        let reg = registry();
        let has = |id: &str| reg.iter().any(|(n, _)| *n == id);
        // One driver per paper figure group, plus the §2.2/§5 claims
        // and the read-mostly extension.
        for id in [
            "rw",
            "overhead",
            "kv",
            "fig1",
            "fig4",
            "fig5",
            "fig8a",
            "fig8b",
            "fig8c",
            "fig8d",
            "fig8ef",
            "fig8g",
            "fig8hi",
            "fig9-kyoto",
            "fig9-upscale",
            "fig9-lmdb",
            "fig10-leveldb",
            "fig10-sqlite",
            "alt-topology",
            "sec2-numa",
            "sec5-delegation",
            "delegation",
            "collapse",
            "sim-numa",
            "sim-fair",
            "sim-oversub",
            "sim-ablate",
        ] {
            assert!(has(id), "missing driver for {id}");
        }
    }

    #[test]
    fn profiles_sane() {
        let q = Profile::quick();
        let f = Profile::full();
        assert!(q.duration_ms < f.duration_ms);
        assert!(q.warmup_ms < q.duration_ms);
        let cfg = q.config(8);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.topology.len(), 8);
    }
}
