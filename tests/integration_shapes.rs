//! Figure-shape assertions on the **executed** lock zoo.
//!
//! These tests encode the paper's *qualitative* results — who wins,
//! roughly by how much, where behaviour flips — and hold the real,
//! unmodified lock implementations to them on a modeled 4-big /
//! 4-little, ratio-3 machine, in the simulator's deterministic virtual
//! time (`common::run`: the engine's standard workload with jittered
//! section lengths, one CPU per cell). A regression in any lock or in
//! the window feedback shows up as a failed shape, on any host.
//!
//! Every cell is a 3 ms virtual window (≈ 1 k acquisitions): long
//! enough for stable P99s, short enough that the file runs in a few
//! seconds. The paper's competitors map onto the zoo as: FIFO →
//! `McsLock`; TAS with an atomic-affinity bias → `TasLock`;
//! SHFL-PB<n> → `ProportionalLock`; LibASL-MAX → `AslSpinLock` outside
//! any epoch; LibASL-<slo> → `AslSpinLock` with every operation an
//! epoch; LibASL-OPT → `StaticWindowLock`.
//!
//! The `*_table_*` tests hold the `repro` figure drivers themselves to
//! the same shapes: they read the tables `repro <id> --quick` prints
//! (the timed runner on the modeled M1, 2.1 ms measured a point).

mod common;

use std::sync::{Arc, OnceLock};

use common::{run, Cell};
use libasl::harness::figures::{self, Profile};
use libasl::harness::locks::StaticWindowLock;
use libasl::harness::report::Table;
use libasl::locks::plain::PlainLock;
use libasl::locks::{McsLock, ProportionalLock, TasLock};
use libasl::runtime::{AtomicAffinity, Topology};
use libasl::sim::ZooConfig;
use libasl::AslSpinLock;

const PERF_RATIO: f64 = 3.0;

fn cfg(threads: usize) -> ZooConfig {
    ZooConfig {
        cs_units: 2_000,
        ncs_units: 2_000,
        duration_ns: 3_000_000,
        ..ZooConfig::quick(Topology::custom(4, 4, PERF_RATIO), threads, 11)
    }
}

fn with_slo(slo_ns: u64) -> ZooConfig {
    ZooConfig {
        slo_ns: Some(slo_ns),
        ..cfg(8)
    }
}

fn mcs() -> Arc<dyn PlainLock> {
    Arc::new(McsLock::new())
}

fn asl() -> Arc<dyn PlainLock> {
    Arc::new(AslSpinLock::default())
}

fn tas(affinity: AtomicAffinity) -> Arc<dyn PlainLock> {
    Arc::new(TasLock::with_affinity(affinity))
}

// Cells several shapes compare against, run once.

/// FIFO on the four big cores alone.
fn fifo4() -> &'static Cell {
    static CELL: OnceLock<Cell> = OnceLock::new();
    CELL.get_or_init(|| run(&cfg(4), mcs()))
}

/// FIFO on all eight cores.
fn fifo8() -> &'static Cell {
    static CELL: OnceLock<Cell> = OnceLock::new();
    CELL.get_or_init(|| run(&cfg(8), mcs()))
}

/// LibASL-MAX on all eight cores.
fn asl_max8() -> &'static Cell {
    static CELL: OnceLock<Cell> = OnceLock::new();
    CELL.get_or_init(|| run(&cfg(8), asl()))
}

#[test]
fn fig1_shape_fifo_and_tas_collapse() {
    // Figure 1: scaling from 4 big cores to 4+4 collapses FIFO
    // throughput; little-affinity TAS is even worse on throughput and
    // collapses big-core latency.
    let (f4, f8) = (fifo4(), fifo8());
    let t8 = run(&cfg(8), tas(AtomicAffinity::little_wins()));

    assert!(f8.throughput < f4.throughput, "FIFO collapse");
    assert!(
        t8.throughput < f8.throughput * 1.05,
        "little-affinity TAS should not beat FIFO (paper: 35% worse)"
    );
    assert!(
        t8.p99_big > f8.p99_overall * 2,
        "TAS latency collapse: {} vs FIFO {}",
        t8.p99_big,
        f8.p99_overall
    );
}

#[test]
fn fig4_shape_big_affinity_tas_beats_mcs_on_throughput_only() {
    let f8 = fifo8();
    let t8 = run(&cfg(8), tas(AtomicAffinity::big_wins()));
    assert!(
        t8.throughput > f8.throughput * 1.15,
        "paper: +32% throughput; got {} vs {}",
        t8.throughput,
        f8.throughput
    );
    assert!(
        t8.p99_little > f8.p99_little * 2,
        "but little-core tail collapses"
    );
}

#[test]
fn fig5_shape_proportion_sweep_is_a_tradeoff_curve() {
    // Larger proportion => more throughput and a longer little tail,
    // monotone-ish along the sweep.
    let mut last_thpt = 0.0;
    let mut first_tail = 0;
    let mut last_tail = 0;
    for n in [0u32, 2, 8, 29] {
        let r = run(&cfg(8), Arc::new(ProportionalLock::new(n)));
        assert!(
            r.throughput > last_thpt * 0.95,
            "throughput should not drop along the sweep (n={n})"
        );
        last_thpt = r.throughput;
        if n == 0 {
            first_tail = r.p99_little;
        }
        last_tail = r.p99_little;
    }
    assert!(last_tail > first_tail, "tail must grow with the proportion");
}

#[test]
fn fig8b_shape_throughput_monotone_in_slo_and_tail_tracks_slo() {
    let mut prev = 0.0;
    for slo in [20_000u64, 60_000, 200_000, 1_000_000] {
        let r = run(&with_slo(slo), asl());
        assert!(
            r.throughput >= prev * 0.97,
            "throughput should grow with SLO (slo={slo}): {} < {}",
            r.throughput,
            prev
        );
        prev = r.throughput;
        // Feedback keeps the little tail near (not wildly past) the SLO.
        assert!(
            r.p99_little <= slo.saturating_mul(14) / 10 + 10_000,
            "slo={slo}: little P99 {} too far past SLO",
            r.p99_little
        );
    }
}

#[test]
fn fig8e_shape_libasl_max_keeps_big_core_throughput() {
    // Paper Fig. 8e: LibASL-MAX throughput "does not drop at all"
    // when little cores join.
    let (f4, asl) = (fifo4(), asl_max8());
    assert!(
        asl.throughput > f4.throughput * 0.85,
        "LibASL-MAX {} vs 4-big FIFO {}",
        asl.throughput,
        f4.throughput
    );
}

#[test]
fn fig8g_shape_little_cores_help_at_low_contention() {
    // At low contention (long NCS), 8 cores under LibASL beat 4 big
    // cores — the paper's 68% observation.
    let mk = |threads: usize, lock: Arc<dyn PlainLock>, ncs_units: u64| {
        run(
            &ZooConfig {
                ncs_units,
                ..cfg(threads)
            },
            lock,
        )
    };
    let low_contention_ncs = 200_000; // 100x the CS
    let big_only = mk(4, mcs(), low_contention_ncs);
    let asl_all = mk(8, asl(), low_contention_ncs);
    assert!(
        asl_all.throughput > big_only.throughput * 1.3,
        "little cores should add throughput at low contention: {} vs {}",
        asl_all.throughput,
        big_only.throughput
    );

    // And at very high contention LibASL ~ matches 4-big-core FIFO.
    let big_only_hot = mk(4, mcs(), 200);
    let asl_hot = mk(8, asl(), 200);
    let ratio = asl_hot.throughput / big_only_hot.throughput;
    assert!(
        (0.8..1.3).contains(&ratio),
        "under saturation LibASL should track MCS-4: ratio {ratio:.2}"
    );
}

#[test]
fn theoretical_speedup_bound_respected() {
    // Footnote 5: LibASL's gain over FIFO is bounded by (r+1)/2.
    let bound = (PERF_RATIO + 1.0) / 2.0;
    let speedup = asl_max8().throughput / fifo8().throughput;
    assert!(speedup > 1.05, "LibASL must beat FIFO under contention");
    assert!(
        speedup <= bound * 1.15,
        "speedup {speedup:.2} exceeds the theoretical bound {bound:.2}"
    );
}

#[test]
fn slo_feedback_outperforms_fifo_and_respects_slo_vs_static() {
    // The feedback window should land near the best static window for
    // the same observed tail.
    let slo = 80_000u64;
    let r_fb = run(&with_slo(slo), asl());

    // Offline-optimal static window search (the paper's LibASL-OPT).
    let mut best_static = 0.0f64;
    for w in [5_000u64, 10_000, 20_000, 40_000, 80_000, 160_000] {
        let r = run(&cfg(8), Arc::new(StaticWindowLock::new(w)));
        if r.p99_little <= slo * 12 / 10 {
            best_static = best_static.max(r.throughput);
        }
    }
    assert!(best_static > 0.0, "some static window must satisfy the SLO");
    // Paper Fig. 8a: feedback costs only ~6% against OPT.
    assert!(
        r_fb.throughput > best_static * 0.75,
        "feedback {} too far below static-optimal {}",
        r_fb.throughput,
        best_static
    );
}

// The same shapes, read off the figure drivers' own tables (the
// `repro` path: modeled M1, virtual time, jittered think time).

/// Figure `id`'s tables at the quick profile: what `repro <id>
/// --quick` prints.
fn figure(id: &str) -> Vec<Table> {
    figures::run(id, &Profile::quick()).expect("a registered figure")
}

/// The cell in `column` of every row, parsed.
fn column(t: &Table, column: &str) -> Vec<f64> {
    let i = t.columns.iter().position(|c| c == column).expect(column);
    t.rows.iter().map(|r| r[i].parse().expect(column)).collect()
}

/// The cell in `column` of the row whose first cells are `key`.
fn cell(t: &Table, key: &[&str], column: &str) -> f64 {
    let i = t.columns.iter().position(|c| c == column).expect(column);
    let row = t
        .rows
        .iter()
        .find(|r| r.iter().zip(key).all(|(c, k)| c == k));
    row.unwrap_or_else(|| panic!("{}: no row {key:?}", t.id))[i]
        .parse()
        .expect(column)
}

#[test]
fn fig4_table_tas_big_wins_throughput_and_loses_the_tail() {
    let t = &figure("fig4")[0];
    let at8 = |col| cell(t, &["8"], col);
    assert!(at8("tas-big_thpt_ops_s") > at8("mcs_thpt_ops_s"), "{t:?}");
    assert!(at8("tas-big_p99_us") > at8("mcs_p99_us"), "{t:?}");
}

#[test]
fn fig8b_table_throughput_is_monotone_in_the_slo_and_the_little_tail_tracks_it() {
    let t = &figure("fig8b")[0];
    let (slo, little, thpt) = (
        column(t, "slo_us"),
        column(t, "little_p99_us"),
        column(t, "thpt_ops_s"),
    );
    // Monotone to within 1 %: below the anchor the points fall back to
    // FIFO and differ by the schedule alone (2 ops at runner seed 2).
    assert!(thpt.windows(2).all(|w| w[1] >= 0.99 * w[0]), "{thpt:?}");
    // The sweep ends at 6x the MCS anchor.
    let anchor = slo[slo.len() - 1] / 6.0;
    for (slo, little) in slo.iter().zip(&little).filter(|(s, _)| **s >= anchor) {
        assert!(*little <= 1.1 * slo, "slo {slo} us: little p99 {little} us");
    }
}

#[test]
fn fig8hi_table_blocking_libasl_beats_pthread_oversubscribed() {
    let t = &figure("fig8hi")[0];
    let thpt = |lock| cell(t, &[lock], "thpt_ops_s");
    assert!(thpt("libasl-blk-max") >= thpt("pthread"), "{t:?}");
}

#[test]
fn collapse_table_gcr_holds_up_where_every_bare_family_collapses() {
    let t = &figure("collapse")[0];
    for family in ["tas", "ticket", "mcs", "libasl-max"] {
        let thpt = |lock: &str| cell(t, &[lock, "128"], "thpt_ops_s");
        let (bare, gcr) = (thpt(family), thpt(&format!("gcr-{family}")));
        assert!(
            gcr >= 2.0 * bare,
            "{family} at 128 threads: gcr {gcr} vs bare {bare}"
        );
    }
}

#[test]
fn alt_topology_table_libasl_beats_mcs_on_every_machine_and_repeats() {
    let a = figure("alt-topology");
    let speedup = column(&a[0], "speedup");
    assert_eq!(speedup.len(), 3);
    assert!(speedup.iter().all(|&s| s >= 1.3), "{speedup:?}");
    // A figure is a pure function of its profile: run it again.
    let b = figure("alt-topology");
    assert_eq!(a[0].samples, b[0].samples);
    assert_eq!(a[0].rows, b[0].rows);
}
