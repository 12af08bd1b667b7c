//! `amp-lock` and `amp-oversub`: one contended lock on a modeled
//! asymmetric machine, in virtual time.
//!
//! * `amp-lock` is the paper's Fig. 8: 8 virtual threads on the
//!   M1-like 4 big + 4 little machine hammer one lock (critical
//!   section 2000 units, think time 600). The lock and the `asl-core`
//!   reorder layer do almost all the work, so this is where a change
//!   to the lock path shows largest.
//! * `amp-oversub` runs the same loop with 16 threads on a 2 + 2
//!   machine (4× oversubscribed), where park/wake and admission
//!   control matter instead of spinning: a spin-path gain bought at
//!   the blocking path's expense shows here as its own row.
//!
//! SLOs are constants pinned to the seed state (see the README's SLO
//! table) and never re-derived at run time, so a change that slows the
//! FIFO baseline cannot loosen its own limit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asl_harness::locks::LockSpec;
use asl_locks::plain::PlainLock;
use asl_runtime::clock::now_ns;
use asl_runtime::topology::Topology;
use asl_runtime::work::execute_units;
use asl_sim::exec::{run_threads, CostModel, ZooConfig};

use crate::metrics::{Clock, EndToEndValues, Metric, AMP_LOCK_CELLS, AMP_OVERSUB_CELLS};
use crate::sim::{
    jittered_think, merged_median, request_rng, run_cell, span_durations, speed_metrics,
    CellConfig, CellResult, RacyCounter, EPOCH_ID,
};
use crate::stats::{median_f, quantile};
use crate::trace;
use crate::workload::{overhead_share, timed_setup, Layers, Outcome, SetupTime};

/// One of the two lock workloads.
pub struct LockWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Cell labels (registry names); `[0]` is the FIFO baseline.
    cells: &'static [&'static str],
    /// The cell whose throughput is the headline.
    headline: &'static str,
    /// The cell whose little-core tail is held against `slo_ns`.
    slo_cell: &'static str,
    /// The pinned SLO (virtual ns).
    pub slo_ns: u64,
    topology: fn() -> Topology,
    threads: usize,
    cs_units: u64,
    think_units: u64,
    /// Virtual ns simulated per cell for each host second of budget,
    /// when only the gated cells run…
    gated_vns_per_second: f64,
    /// …and when the whole line-up runs.
    lineup_vns_per_second: f64,
    /// Whether the traced run also reports the `core.*` metrics (they
    /// are taken on `amp-lock`'s machine and SLO cell).
    reports_core: bool,
}

/// `amp-lock`: SLO 60 µs = 2× the seed `mcs` little-core p99 (29.6 µs).
pub const AMP_LOCK: LockWorkload = LockWorkload {
    name: "amp-lock",
    cells: &AMP_LOCK_CELLS,
    headline: "libasl-60us",
    slo_cell: "libasl-60us",
    slo_ns: 60_000,
    topology: Topology::apple_m1,
    threads: 8,
    cs_units: 2_000,
    think_units: 600,
    gated_vns_per_second: 4_500_000.0,
    lineup_vns_per_second: 2_200_000.0,
    reports_core: true,
};

/// `amp-oversub`: 16 threads on 4 cores; SLO 500 µs on the blocking
/// LibASL cell.
pub const AMP_OVERSUB: LockWorkload = LockWorkload {
    name: "amp-oversub",
    cells: &AMP_OVERSUB_CELLS,
    headline: "gcr-mcs",
    slo_cell: "libasl-blk-500us",
    slo_ns: 500_000,
    topology: oversub_topology,
    threads: 16,
    cs_units: 600,
    think_units: 600,
    gated_vns_per_second: 7_000_000.0,
    lineup_vns_per_second: 6_000_000.0,
    reports_core: false,
};

fn oversub_topology() -> Topology {
    Topology::custom(2, 2, 3.0)
}

/// Set-up is building the cells' lock objects, well under a
/// microsecond each: batch many builds per timed repetition.
const SETUP_REPS: usize = 21;
const SETUP_BUILDS: usize = 2_000;

struct Pass {
    window_ns: u64,
    /// `(label, result)` of every cell that ran, in line-up order.
    cells: Vec<(&'static str, CellResult)>,
    attempted: u64,
    failed: u64,
    setup: SetupTime,
}

impl LockWorkload {
    fn cell<'a>(&self, pass: &'a Pass, label: &str) -> &'a CellResult {
        let found = pass.cells.iter().find(|(l, _)| *l == label);
        &found.expect("the cell ran in this pass").1
    }

    /// Run the cells once for `seconds` of host budget: the whole
    /// line-up, or only the cells the end-to-end values are taken from
    /// (which then get the whole budget, and so a longer window).
    fn pass(&self, seconds: f64, seed: u64, whole_lineup: bool) -> Pass {
        let gated = [self.cells[0], self.headline, self.slo_cell];
        let labels: Vec<&'static str> = self
            .cells
            .iter()
            .copied()
            .filter(|c| whole_lineup || gated.contains(c))
            .collect();
        let per_second = if whole_lineup {
            self.lineup_vns_per_second
        } else {
            self.gated_vns_per_second
        };
        let window_ns = ((seconds * per_second) as u64).max(200_000);
        let specs: Vec<LockSpec> = labels
            .iter()
            .map(|c| c.parse().expect("cell names are registry names"))
            .collect();
        let (locks, setup) = timed_setup(SETUP_REPS, SETUP_BUILDS, || {
            specs
                .iter()
                .map(LockSpec::make_lock_raw)
                .collect::<Vec<Arc<dyn PlainLock>>>()
        });
        let mut pass = Pass {
            window_ns,
            cells: Vec::new(),
            attempted: 0,
            failed: 0,
            setup,
        };
        for ((label, spec), lock) in labels.iter().zip(&specs).zip(locks) {
            let cfg = CellConfig {
                label: format!("{}/{label}", self.name),
                topology: (self.topology)(),
                threads: self.threads,
                think_units: self.think_units,
                window_ns,
                seed,
                slo_ns: spec.epoch_slo(),
            };
            let counter = RacyCounter::default();
            let (cs_units, think_units) = (self.cs_units, self.think_units);
            let r = run_cell(&cfg, self.slo_ns, |_, req| {
                let wait = trace::begin("wait", req, trace::stamp());
                let token = lock.acquire();
                let granted = trace::stamp();
                trace::end(wait, granted);
                let hold = trace::begin("hold", req, granted);
                let seen = counter.read();
                execute_units(cs_units);
                counter.write(seen + 1);
                lock.release(token);
                trace::end(hold, trace::stamp());
                jittered_think(&mut request_rng(seed, req), think_units)
            });
            // Mutual exclusion: every critical section's bump landed.
            pass.attempted += r.epochs;
            pass.failed += r.epochs.abs_diff(counter.read());
            pass.cells.push((label, r));
        }
        pass
    }

    /// The untraced run: end-to-end values and the issue's named
    /// numbers.
    pub fn run(&self, seconds: f64, seed: u64) -> Outcome {
        let pass = self.pass(seconds, seed, false);
        let head = self.cell(&pass, self.headline);
        let base = self.cell(&pass, self.cells[0]);
        let slo = self.cell(&pass, self.slo_cell);
        let vops = head.vops_s(pass.window_ns);
        let speedup = vops / base.vops_s(pass.window_ns);
        let little = slo.little_p99();
        let over = little.value as f64 / self.slo_ns as f64;
        let big = head.big_p99();
        let v = Clock::Virtual;
        let mut detail = vec![
            Metric::new("vthroughput_ops_s", vops, "1/s", v)
                .with_note(format!("{} over {} vns", self.headline, pass.window_ns)),
            Metric::new("speedup_vs_fifo", speedup, "x", v)
                .with_note(format!("{} / {}", self.headline, self.cells[0])),
            Metric::new("little_p99_over_slo", over, "x", v).with_note(format!(
                "{} little p{} {} vns of {} epochs, SLO {} vns",
                self.slo_cell, little.percentile, little.value, little.samples, self.slo_ns
            )),
            Metric::new("slo_miss_share", slo.miss_share(), "share", v).with_note(format!(
                "{} of {} little epochs",
                slo.little_misses,
                slo.latency.little.len()
            )),
            Metric::new("big_p99_vus", big.value as f64 / 1e3, "vus", v).with_note(format!(
                "{} big p{} of {} epochs",
                self.headline, big.percentile, big.samples
            )),
            pass.setup.detail(),
        ];
        for (label, cell) in &pass.cells {
            detail.push(
                Metric::new(
                    format!("cell.{label}.vops_s"),
                    cell.vops_s(pass.window_ns),
                    "1/s",
                    v,
                )
                .with_note(format!(
                    "{} epochs, little p99 {} vns, final {} vns, {:.3} host s",
                    cell.epochs,
                    cell.little_p99().value,
                    cell.final_vns,
                    cell.host_ns as f64 / 1e9
                )),
            );
        }
        Outcome {
            e2e: EndToEndValues {
                throughput_ops_s: vops,
                speedup_vs_baseline: speedup,
                latency_over_slo: over,
                setup_s: pass.setup.total_s(),
            },
            clock: v,
            detail,
            attempted: pass.attempted,
            failed: pass.failed,
        }
    }

    /// The traced run: an untraced pass for reference, then the same
    /// cells with spans around `acquire` and the critical section.
    pub fn layers(&self, seconds: f64, seed: u64) -> Layers {
        let plain = self.pass(seconds / 2.0, seed, true);
        trace::set_enabled(true);
        let mut traced = self.pass(seconds / 2.0, seed, true);
        trace::set_enabled(false);

        let v = Clock::Virtual;
        let topology = (self.topology)();
        let mut out = Layers {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            ..Layers::default()
        };
        for (label, cell) in &traced.cells {
            let waits = span_durations(&cell.logs, "wait", &topology);
            let note = format!(
                "{} big + {} little waits",
                waits.big.len(),
                waits.little.len()
            );
            let m = |stat: &str, value: f64, unit| {
                Metric::new(format!("locks.{label}.{stat}"), value, unit, v)
            };
            out.metrics.extend([
                m("vops_s", cell.vops_s(traced.window_ns), "1/s"),
                m("wait_p50_vns", merged_median(&waits) as f64, "vns").with_note(note.clone()),
                m("wait_p99_big_vns", quantile(&waits.big, 0.99) as f64, "vns"),
                m(
                    "wait_p99_little_vns",
                    quantile(&waits.little, 0.99) as f64,
                    "vns",
                ),
                m(
                    "little_share",
                    cell.little_in_window as f64 / cell.in_window.max(1) as f64,
                    "share",
                ),
            ]);
            let (roots, bad) = trace::check_logs(&cell.logs);
            out.attempted += roots;
            out.failed += bad;
        }
        if self.reports_core {
            out.metrics.push(epoch_cost(seed));
            let windows: Vec<f64> = self
                .cell(&traced, self.slo_cell)
                .final_windows
                .iter()
                .map(|&w| w as f64)
                .collect();
            out.metrics.push(
                Metric::new("core.window_final_vns", median_f(windows.clone()), "vns", v)
                    .with_note(format!("median of {} little threads", windows.len())),
            );
        }
        out.metrics
            .extend(speed_metrics(self.name, plain.cells.iter().map(|(_, c)| c)));
        out.metrics.push(
            Metric::new(
                format!("trace.{}.overhead_share", self.name),
                overhead_share(
                    self.cell(&traced, self.headline).vops_s(traced.window_ns),
                    self.cell(&plain, self.headline).vops_s(plain.window_ns),
                ),
                "share",
                v,
            )
            .with_note("traced / untraced headline vops_s - 1"),
        );
        for (_, cell) in &mut traced.cells {
            out.logs.append(&mut cell.logs);
        }
        out
    }
}

/// `core.epoch_vns`: virtual cost of an empty `epoch_start` +
/// `epoch_end` pair on one little-core virtual thread, net of the
/// clock read that brackets it.
fn epoch_cost(seed: u64) -> Metric {
    const PAIRS: u64 = 1_000;
    // One little core only, so thread 0 is a little thread and
    // `epoch_end` takes its window-feedback branch.
    let zoo = ZooConfig::quick(Topology::custom(0, 1, 3.0), 1, seed);
    let total = AtomicU64::new(0);
    run_threads(&zoo, |_| {
        let t0 = now_ns();
        for _ in 0..PAIRS {
            asl_core::epoch::with_epoch(EPOCH_ID, u64::MAX, || {});
        }
        let t1 = now_ns();
        total.store(t1 - t0, Ordering::Relaxed);
    });
    let clock_read = CostModel::default().clock_read_ns;
    let per_pair = total.into_inner().saturating_sub(clock_read) as f64 / PAIRS as f64;
    Metric::new("core.epoch_vns", per_pair, "vns", Clock::Virtual).with_note(format!(
        "mean of {PAIRS} empty epochs on one little vthread"
    ))
}
