//! Shared machinery of the three virtual-time workloads.
//!
//! A *cell* is one closed loop of N virtual threads on a modeled
//! machine, run by `asl_sim::exec::run_threads`: the engine steps
//! exactly one OS thread at a time, so every number derived from the
//! virtual clock is a pure function of configuration and seed and does
//! not depend on the host's scheduler. Only `host_ns` (how long the
//! simulator took) is host time.
//!
//! Each virtual thread loops *epoch → think* until the virtual window
//! closes. Throughput counts only epochs that *finish inside* the
//! window: a thread starved by `libasl-max` finishes its last epoch
//! long after the others have left, and dividing by that final time
//! would understate everyone else's rate fourfold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use asl_runtime::clock::now_ns;
use asl_runtime::registry::is_big_core;
use asl_runtime::topology::{CoreKind, Topology};
use asl_sim::exec::{run_threads, ZooConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{Clock, Metric};
use crate::stats::{quantile, tail, Tail};
use crate::trace::{self, ThreadLog};
use crate::workload::pinned;

/// Epoch id the simulated workloads annotate their requests with.
pub const EPOCH_ID: usize = 3;

/// Shape of one cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Cell label ("amp-lock/libasl-60us"), used for span logs.
    pub label: String,
    /// The modeled machine.
    pub topology: Topology,
    /// Virtual threads (more than cores = oversubscribed).
    pub threads: usize,
    /// Typical think time between epochs, in work units (sizes the
    /// seeded start stagger; the epoch body returns the actual think
    /// time of each round).
    pub think_units: u64,
    /// Virtual window in which epochs are counted (ns).
    pub window_ns: u64,
    /// Schedule seed: staggers thread start times.
    pub seed: u64,
    /// Epoch SLO; `Some` wraps every epoch in
    /// `asl_core::epoch::with_epoch`, which drives LibASL's window
    /// feedback.
    pub slo_ns: Option<u64>,
}

/// Epoch latencies of one core class.
#[derive(Debug, Clone, Default)]
pub struct ClassSamples {
    /// Big-core threads.
    pub big: Vec<u64>,
    /// Little-core threads.
    pub little: Vec<u64>,
}

impl ClassSamples {
    fn of(&mut self, big: bool) -> &mut Vec<u64> {
        if big {
            &mut self.big
        } else {
            &mut self.little
        }
    }
}

/// What one cell measured.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// Epochs started (every one also finished: threads run their
    /// last epoch to completion).
    pub epochs: u64,
    /// Epochs that finished inside the window.
    pub in_window: u64,
    /// Little-core share of the in-window epochs.
    pub little_in_window: u64,
    /// Epoch latency (start → end, virtual ns) by class.
    pub latency: ClassSamples,
    /// Little-core epochs whose latency exceeded the miss limit.
    pub little_misses: u64,
    /// Final reorder window of each little thread (SLO cells).
    pub final_windows: Vec<u64>,
    /// Final virtual time of the machine.
    pub final_vns: u64,
    /// Host time the simulator needed.
    pub host_ns: u64,
    /// Span logs (traced runs only).
    pub logs: Vec<ThreadLog>,
}

impl CellResult {
    /// In-window epochs per virtual second.
    pub fn vops_s(&self, window_ns: u64) -> f64 {
        self.in_window as f64 / (window_ns as f64 / 1e9)
    }

    /// Little-core epoch p99 (degraded per [`tail`] when samples are
    /// few).
    pub fn little_p99(&self) -> Tail {
        tail(&mut self.latency.little.clone(), 99.0)
    }

    /// Big-core epoch p99.
    pub fn big_p99(&self) -> Tail {
        tail(&mut self.latency.big.clone(), 99.0)
    }

    /// Little-core misses ÷ little-core epochs attempted.
    pub fn miss_share(&self) -> f64 {
        self.little_misses as f64 / (self.latency.little.len().max(1)) as f64
    }
}

#[derive(Default)]
struct ThreadOut {
    big: bool,
    latencies: Vec<u64>,
    in_window: u64,
    final_window: u64,
    spans: Vec<trace::Span>,
}

/// Run one cell. `epoch(tid, req)` is the body of one epoch (one lock
/// round-trip, one engine request…) and returns the think time, in
/// work units, to spend before the next one; it runs on a simulated
/// thread, so every clock read and work unit inside it is virtual.
/// `miss_ns` is the latency beyond which a little-core epoch counts as
/// an SLO miss (the cell's own SLO, or the pinned one for a baseline
/// cell).
pub fn run_cell(
    cfg: &CellConfig,
    miss_ns: u64,
    epoch: impl Fn(usize, u64) -> u64 + Sync,
) -> CellResult {
    let zoo = ZooConfig {
        // Sizes the seeded start stagger; `run_threads` ignores the
        // other workload fields.
        ncs_units: cfg.think_units,
        ..ZooConfig::quick(cfg.topology.clone(), cfg.threads, cfg.seed)
    };
    let outs: Mutex<Vec<(usize, ThreadOut)>> = Mutex::new(Vec::new());
    let host = Instant::now();
    // The engine runs one thread at a time, so a second CPU buys
    // nothing and costs a cross-CPU wake-up on every baton pass: pinned,
    // the same cell takes 0.9 s of host time every time; unpinned,
    // anything from 0.9 s to 5 s. Virtual results are identical.
    let final_vns = pinned(0, || {
        run_threads(&zoo, |tid| {
            let mut out = ThreadOut {
                big: is_big_core(),
                ..ThreadOut::default()
            };
            let mut req = (tid as u64) << 32;
            loop {
                let t0 = now_ns();
                if t0 >= cfg.window_ns {
                    break;
                }
                let span = trace::begin("request", req, t0);
                let think = match cfg.slo_ns {
                    Some(slo) => asl_core::epoch::with_epoch(EPOCH_ID, slo, || epoch(tid, req)),
                    None => epoch(tid, req),
                };
                let t1 = now_ns();
                trace::end(span, t1);
                out.latencies.push(t1 - t0);
                out.in_window += u64::from(t1 <= cfg.window_ns);
                asl_runtime::work::execute_units(think);
                req += 1;
            }
            out.final_window = asl_core::epoch::epoch_meta(EPOCH_ID).window;
            out.spans = trace::take_thread();
            outs.lock().expect("collector poisoned").push((tid, out));
        })
    });
    let host_ns = host.elapsed().as_nanos() as u64;

    let mut outs = outs.into_inner().expect("collector poisoned");
    outs.sort_by_key(|(tid, _)| *tid);
    let mut r = CellResult {
        final_vns,
        host_ns,
        ..CellResult::default()
    };
    for (tid, out) in outs {
        r.epochs += out.latencies.len() as u64;
        r.in_window += out.in_window;
        if !out.big {
            r.little_in_window += out.in_window;
            r.little_misses += out.latencies.iter().filter(|&&l| l > miss_ns).count() as u64;
            if cfg.slo_ns.is_some() {
                r.final_windows.push(out.final_window);
            }
        }
        r.latency.of(out.big).extend(out.latencies);
        if !out.spans.is_empty() {
            r.logs.push(ThreadLog {
                cell: cfg.label.clone(),
                thread: tid,
                clock: Clock::Virtual,
                spans: out.spans,
            });
        }
    }
    r
}

/// The generator for request `req`: its inputs (keys, operations, think
/// time) are a pure function of `(seed, thread, request number)`, the
/// latter two encoded in `req`.
pub fn request_rng(seed: u64, req: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ req.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Think time before the next request: uniform in `0..=2 × mean`.
///
/// Identical threads looping over constant-length sections phase-lock
/// in a noise-free simulator, and which pattern they lock into depends
/// on the seeded start stagger: with constant think times LevelDB's
/// `mcs` cell moved 4.5 → 11.7 M ops/s between seeds. A little
/// randomness in the think time — which real clients have — removes
/// the artifact.
pub fn jittered_think(rng: &mut SmallRng, mean: u64) -> u64 {
    rng.gen_range(0..=2 * mean)
}

/// The simulator's own speed over `cells`, as `sim.<workload>.*`.
pub fn speed_metrics<'a>(
    workload: &str,
    cells: impl Iterator<Item = &'a CellResult> + Clone,
) -> [Metric; 2] {
    let host_s: f64 = cells.clone().map(|c| c.host_ns as f64 / 1e9).sum();
    let epochs: u64 = cells.clone().map(|c| c.epochs).sum();
    let vns: u64 = cells.map(|c| c.final_vns).sum();
    [
        Metric::new(
            format!("sim.{workload}.host_ops_per_s"),
            epochs as f64 / host_s,
            "1/s",
            Clock::Host,
        )
        .with_note(format!(
            "{epochs} epochs in {host_s:.3} host s, untraced pass"
        )),
        Metric::new(
            format!("sim.{workload}.virtual_ns_per_host_s"),
            vns as f64 / host_s,
            "vns/s",
            Clock::Host,
        ),
    ]
}

/// Durations of the spans called `name` across `logs`, split by the
/// core class the recording thread has on `topology`, sorted.
pub fn span_durations(logs: &[ThreadLog], name: &str, topology: &Topology) -> ClassSamples {
    let mut out = ClassSamples::default();
    for log in logs {
        let big = topology.assignment_for_thread(log.thread).kind == CoreKind::Big;
        out.of(big).extend(
            log.spans
                .iter()
                .filter(|s| s.name == name)
                .map(trace::Span::duration),
        );
    }
    out.big.sort_unstable();
    out.little.sort_unstable();
    out
}

/// Median of the merged (big and little) samples.
pub fn merged_median(samples: &ClassSamples) -> u64 {
    let mut all: Vec<u64> = samples.big.iter().chain(&samples.little).copied().collect();
    all.sort_unstable();
    quantile(&all, 0.5)
}

/// A counter that the critical sections under test bump without
/// excluding each other: the mutual-exclusion oracle.
///
/// The bump is deliberately split around the critical section's work
/// (`read … work … write`), because the simulator runs one thread at a
/// time and a single increment could never interleave: with the split,
/// two threads inside the section at the same virtual time lose an
/// update and the final count falls short of the operation count.
#[derive(Default)]
pub struct RacyCounter(AtomicU64);

impl RacyCounter {
    /// Read the count (first half of a bump).
    pub fn read(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Store `v` (second half of a bump).
    pub fn write(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}
