//! Figures 9 and 10: the five database benchmarks, plus the §4.2
//! alternative-topology experiment.
//!
//! Each database gets the paper's trio of sub-figures:
//!   (a) lock comparison bars, (b) a variant-SLO sweep, (c) a latency
//! CDF at a representative SLO. The TAS affinity per engine follows
//! the paper's observations (big-core affinity everywhere except
//! SQLite, where the paper reports little-core affinity).

use std::sync::Arc;

use asl_dbsim::{kyoto::Kyoto, leveldb::LevelDb, lmdb::Lmdb, sqlite::Sqlite, upscale::UpscaleDb};
use asl_dbsim::{Engine, LockFactory};
use asl_runtime::{AtomicAffinity, Topology};

use crate::locks::LockSpec;
use crate::report::{fmt_p99, Table};
use crate::runner::run_timed_with_setup;
use crate::scenario::worker_rng;

use super::micro::{comparison_row, slo_sweep_row, COMPARISON_COLS, SLO_SWEEP_COLS};
use super::Profile;

/// Engine constructor used by the drivers.
type MakeEngine = fn(&dyn LockFactory) -> Arc<dyn Engine>;

fn make_kyoto(f: &dyn LockFactory) -> Arc<dyn Engine> {
    Arc::new(Kyoto::with_default_size(f))
}
fn make_upscale(f: &dyn LockFactory) -> Arc<dyn Engine> {
    Arc::new(UpscaleDb::new(f))
}
fn make_lmdb(f: &dyn LockFactory) -> Arc<dyn Engine> {
    Arc::new(Lmdb::new(f))
}
fn make_leveldb(f: &dyn LockFactory) -> Arc<dyn Engine> {
    Arc::new(LevelDb::with_default_size(f))
}
fn make_sqlite(f: &dyn LockFactory) -> Arc<dyn Engine> {
    Arc::new(Sqlite::with_default_size(f))
}

/// Run one engine × lock-spec point: every request is one epoch
/// (wrapped with the spec's SLO when it has one). Shared by the
/// Fig. 9/10 drivers and the `rw` read-mostly figure.
pub(crate) fn run_engine_point(
    profile: &Profile,
    topology: Topology,
    engine: Arc<dyn Engine>,
    spec: &LockSpec,
    threads: usize,
) -> crate::runner::RunResult {
    let cfg = profile.config_on(topology, threads);
    let slo = spec.epoch_slo();
    run_timed_with_setup(&cfg, worker_rng, move |_, rng| match slo {
        Some(slo) => {
            let (_, lat) = asl_core::epoch::with_epoch_timed(0, slo, || {
                engine.run_request(rng);
            });
            lat
        }
        None => {
            let t0 = asl_runtime::clock::now_ns();
            engine.run_request(rng);
            asl_runtime::clock::now_ns() - t0
        }
    })
}

/// [`run_engine_point`] with the engine built fresh from the spec.
fn run_db_point(
    profile: &Profile,
    topology: Topology,
    make: MakeEngine,
    spec: &LockSpec,
    threads: usize,
) -> crate::runner::RunResult {
    let engine = make(spec);
    run_engine_point(profile, topology, engine, spec, threads)
}

/// The paper's trio for one database: comparison bars, SLO sweep,
/// latency CDF.
fn db_trio(
    profile: &Profile,
    id: &str,
    name: &str,
    make: MakeEngine,
    affinity: AtomicAffinity,
) -> Vec<Table> {
    let topo = Topology::apple_m1;

    // The engine's internal lock names: `--profile` stats rows are
    // filed under `<label>[<spec>]`, so the note tells readers which
    // rows belong to this figure's engine.
    let lock_labels = make(&LockSpec::Mcs).lock_labels().join(", ");

    // Anchor on the measured MCS P99 for this engine.
    let anchor = run_db_point(profile, topo(), make, &LockSpec::Mcs, 8)
        .overall
        .percentile(99.0)
        .max(1_000);
    let slo_lo = anchor * 3 / 2;
    let slo_hi = anchor * 3;

    // (a) comparison bars.
    let specs = vec![
        LockSpec::Pthread,
        LockSpec::Tas(affinity),
        LockSpec::Ticket,
        LockSpec::ShflPb(10),
        LockSpec::Mcs,
        LockSpec::asl(Some(0)),
        LockSpec::asl(Some(slo_lo)),
        LockSpec::asl(Some(slo_hi)),
        LockSpec::asl(None),
    ];
    let mut bars = Table::new(
        &format!("{id}a"),
        &format!("{name}: lock comparison"),
        &COMPARISON_COLS,
    );
    for spec in &specs {
        let r = run_db_point(profile, topo(), make, spec, 8);
        bars.push_row(comparison_row(&spec.label(), &r));
        bars.push_sample(&spec.label(), 8, r.throughput);
    }
    bars.note(format!(
        "SLO anchor: measured MCS P99 = {}us; LibASL SLOs at 1.5x/3x anchor",
        anchor / 1_000
    ));
    bars.note(format!(
        "engine locks (telemetry labels under --profile): {lock_labels}"
    ));

    // (b) variant SLOs.
    let mut sweep = Table::new(
        &format!("{id}b"),
        &format!("{name}: variant SLOs"),
        &SLO_SWEEP_COLS,
    );
    let steps = 8u64;
    for i in 0..=steps {
        let slo = anchor * 4 * i / steps;
        let spec = LockSpec::asl(Some(slo));
        let r = run_db_point(profile, topo(), make, &spec, 8);
        sweep.push_row(slo_sweep_row(slo, &r));
        sweep.push_sample(&spec.label(), 8, r.throughput);
    }

    // (c) CDF at the representative SLO.
    let r = run_db_point(profile, topo(), make, &LockSpec::asl(Some(slo_hi)), 8);
    let mut cdf = Table::new(
        &format!("{id}c"),
        &format!("{name}: latency CDF at SLO {}us", slo_hi / 1_000),
        &["latency_us", "overall_cum", "little_cum"],
    );
    // Sample the CDF on a fixed grid up to 1.5x SLO.
    let grid = 30u64;
    for i in 1..=grid {
        let v = slo_hi * 3 / 2 * i / grid;
        cdf.push_row(vec![
            format!("{:.1}", v as f64 / 1_000.0),
            format!("{:.3}", r.overall.fraction_at_or_below(v)),
            format!("{:.3}", r.little.fraction_at_or_below(v)),
        ]);
    }
    cdf.note(format!(
        "little P99 = {}us vs SLO {}us; half-SLO boundary per paper Fig. 9c",
        r.little.percentile(99.0) / 1_000,
        slo_hi / 1_000
    ));

    vec![bars, sweep, cdf]
}

/// Figure 9a/9b/9c — Kyoto Cabinet.
pub fn fig9_kyoto(profile: &Profile) -> Vec<Table> {
    db_trio(
        profile,
        "fig9-kyoto-",
        "kyoto cabinet",
        make_kyoto,
        AtomicAffinity::big_wins(),
    )
}

/// Figure 9d/9e/9f — upscaledb.
pub fn fig9_upscale(profile: &Profile) -> Vec<Table> {
    db_trio(
        profile,
        "fig9-upscale-",
        "upscaledb",
        make_upscale,
        AtomicAffinity::big_wins(),
    )
}

/// Figure 9g/9h/9i — LMDB.
pub fn fig9_lmdb(profile: &Profile) -> Vec<Table> {
    db_trio(
        profile,
        "fig9-lmdb-",
        "lmdb",
        make_lmdb,
        AtomicAffinity::big_wins(),
    )
}

/// Figure 10a/10b/10c — LevelDB (random read).
pub fn fig10_leveldb(profile: &Profile) -> Vec<Table> {
    db_trio(
        profile,
        "fig10-leveldb-",
        "leveldb",
        make_leveldb,
        AtomicAffinity::big_wins(),
    )
}

/// Figure 10d/10e/10f — SQLite (the paper reports little-core TAS
/// affinity here).
pub fn fig10_sqlite(profile: &Profile) -> Vec<Table> {
    db_trio(
        profile,
        "fig10-sqlite-",
        "sqlite",
        make_sqlite,
        AtomicAffinity::little_wins(),
    )
}

/// §4.2: LibASL's improvement is not M1-specific — rerun one database
/// comparison on Hikey970-like and Intel-DVFS-like topologies.
pub fn alt_topology(profile: &Profile) -> Vec<Table> {
    let mut table = Table::new(
        "alt-topology",
        "LibASL vs MCS on other AMP topologies (upscaledb)",
        &[
            "topology",
            "mcs_thpt",
            "libasl_thpt",
            "speedup",
            "libasl_little_p99_us",
        ],
    );
    for topo in [
        Topology::apple_m1(),
        Topology::hikey970(),
        Topology::intel_dvfs(),
    ] {
        let name = topo.name();
        let mcs = run_db_point(profile, topo.clone(), make_upscale, &LockSpec::Mcs, 8);
        let anchor = mcs.overall.percentile(99.0).max(1_000);
        let asl = run_db_point(
            profile,
            topo,
            make_upscale,
            &LockSpec::asl(Some(anchor * 3)),
            8,
        );
        table.push_row(vec![
            name.to_string(),
            format!("{:.0}", mcs.throughput),
            format!("{:.0}", asl.throughput),
            format!("{:.2}", asl.throughput / mcs.throughput.max(1.0)),
            fmt_p99(&asl.little),
        ]);
    }
    table.note("SLO = 3x measured MCS P99 per topology (paper reports 34-94% gains)");
    vec![table]
}
