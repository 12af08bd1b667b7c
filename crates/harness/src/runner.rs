//! Timed multi-threaded experiment runner.
//!
//! Reproduces the paper's measurement protocol: `n` threads bound
//! big-cores-first on a virtual topology, a warmup phase, then a
//! fixed measurement window; throughput is completed operations per
//! second and latency is collected per core class so reports can show
//! Big P99 / Little P99 / Overall P99 side by side.
//!
//! This is the workspace's one warm-up → measure → done loop: every
//! timed real-thread figure is a call to [`run_timed_with_setup`].
//! What varies per figure goes in the two closures — `setup` builds
//! each worker's own state on the worker thread (its RNG, a
//! delegation handle, a per-worker section length; it may also move
//! the worker to another core), `op` runs one operation against it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use asl_runtime::clock::now_ns;
use asl_runtime::spawn::{run_on_topology_with_stop, ThreadCtx};
use asl_runtime::topology::Topology;
use asl_runtime::CoreKind;

use crate::hist::Hist;

/// Phases of a timed run.
const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_DONE: u8 = 2;

/// Configuration for a timed run.
#[derive(Clone)]
pub struct RunConfig {
    /// The virtual AMP to run on.
    pub topology: Topology,
    /// Worker count (may exceed core count for over-subscription).
    pub threads: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Warmup (not recorded) before measuring.
    pub warmup: Duration,
    /// Pin workers to physical CPUs.
    pub pin: bool,
}

impl RunConfig {
    /// Conventional config: all 8 cores of an M1-like topology.
    pub fn m1_default() -> Self {
        RunConfig {
            topology: Topology::apple_m1(),
            threads: 8,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            pin: true,
        }
    }

    /// Scale measurement and warmup durations by `f` (quick modes).
    pub fn scaled(mut self, f: f64) -> Self {
        self.duration = Duration::from_secs_f64(self.duration.as_secs_f64() * f);
        self.warmup = Duration::from_secs_f64((self.warmup.as_secs_f64() * f).max(0.02));
        self
    }
}

/// Per-class and overall outcome of a timed run.
pub struct RunResult {
    /// Measurement window actually used.
    pub elapsed: Duration,
    /// Operations completed inside the measurement window.
    pub total_ops: u64,
    /// Operations per second.
    pub throughput: f64,
    /// Latency across all workers.
    pub overall: Hist,
    /// Latency of workers on big cores.
    pub big: Hist,
    /// Latency of workers on little cores.
    pub little: Hist,
    /// Ops completed by big-core workers.
    pub big_ops: u64,
    /// Ops completed by little-core workers.
    pub little_ops: u64,
    /// Ops completed by each worker, in worker-index order (fairness
    /// figures: who got what share).
    pub per_worker_ops: Vec<u64>,
    /// Per-lock telemetry registered during the run (empty unless
    /// `asl_locks::telemetry` profiling is on — `repro --profile`).
    pub telemetry: Vec<(String, asl_locks::telemetry::TelemetrySnapshot)>,
}

impl RunResult {
    /// Overall P99 in microseconds (convenience for reports).
    pub fn p99_us(&self) -> f64 {
        self.overall.p99() as f64 / 1_000.0
    }
}

/// Worker-side view of a run: drives one operation at a time.
pub struct OpCtx<'a> {
    /// Spawn context (index, assignment, stop flag).
    pub thread: &'a ThreadCtx,
    phase: &'a AtomicU8,
}

impl OpCtx<'_> {
    /// True while the measurement (or warmup) should continue.
    #[inline]
    pub fn running(&self) -> bool {
        self.phase.load(Ordering::Relaxed) != PHASE_DONE
    }

    /// True when samples should be recorded.
    #[inline]
    pub fn recording(&self) -> bool {
        self.phase.load(Ordering::Relaxed) == PHASE_MEASURE
    }
}

/// Run `op` repeatedly on every worker for the configured window.
///
/// `op` performs one operation (one epoch / one request) and returns
/// the latency to record in nanoseconds.
pub fn run_timed<F>(cfg: &RunConfig, op: F) -> RunResult
where
    F: Fn(&OpCtx) -> u64 + Sync,
{
    run_timed_with_setup(cfg, |_| (), |octx, ()| op(octx))
}

/// [`run_timed`] with per-worker state: `setup` runs once on each
/// worker thread, after core registration and before the first
/// operation, and builds the value every `op` of that worker gets
/// (`&mut`, so a worker's RNG advances from op to op). It is also the
/// place for per-thread preparation (resetting epoch state).
pub fn run_timed_with_setup<W, S, F>(cfg: &RunConfig, setup: S, op: F) -> RunResult
where
    S: Fn(&ThreadCtx) -> W + Sync,
    F: Fn(&OpCtx, &mut W) -> u64 + Sync,
{
    let phase = Arc::new(AtomicU8::new(PHASE_WARMUP));
    let stop = Arc::new(AtomicBool::new(false));
    let measured_ns = Arc::new(AtomicU64::new(0));

    // Controller flips phases on schedule.
    let controller = {
        let phase = phase.clone();
        let stop = stop.clone();
        let measured_ns = measured_ns.clone();
        let warmup = cfg.warmup;
        let duration = cfg.duration;
        std::thread::spawn(move || {
            std::thread::sleep(warmup);
            let t0 = now_ns();
            // Ordering audit: these are measurement-protocol flags,
            // not synchronization of shared data. Workers poll
            // `phase` with relaxed loads already — the window edges
            // are inherently fuzzy by one op — and `measured_ns` is
            // read only after `controller.join()`, whose
            // happens-before edge orders it. `Relaxed` suffices on
            // every store.
            phase.store(PHASE_MEASURE, Ordering::Relaxed);
            std::thread::sleep(duration);
            phase.store(PHASE_DONE, Ordering::Relaxed);
            measured_ns.store(now_ns() - t0, Ordering::Relaxed);
            stop.store(true, Ordering::Relaxed);
        })
    };

    struct WorkerOut {
        kind: CoreKind,
        ops: u64,
        hist: Hist,
    }

    let phase_ref = &phase;
    let outs: Vec<WorkerOut> =
        run_on_topology_with_stop(&cfg.topology, cfg.threads, cfg.pin, stop.clone(), |ctx| {
            let mut state = setup(ctx);
            let octx = OpCtx {
                thread: ctx,
                phase: phase_ref,
            };
            let mut hist = Hist::new();
            let mut ops = 0u64;
            while octx.running() {
                let was_recording = octx.recording();
                let latency = op(&octx, &mut state);
                // Count an op only if it *started* during measurement;
                // ops spanning the end are counted (paper counts
                // executed critical sections in the window).
                if was_recording {
                    ops += 1;
                    hist.record(latency);
                }
            }
            WorkerOut {
                kind: ctx.assignment.kind,
                ops,
                hist,
            }
        });

    controller.join().expect("controller panicked");

    // Relaxed: `controller.join()` above provides the happens-before.
    let elapsed = Duration::from_nanos(measured_ns.load(Ordering::Relaxed).max(1));
    let mut overall = Hist::new();
    let mut big = Hist::new();
    let mut little = Hist::new();
    let (mut big_ops, mut little_ops) = (0u64, 0u64);
    for o in &outs {
        overall.merge(&o.hist);
        match o.kind {
            CoreKind::Big => {
                big.merge(&o.hist);
                big_ops += o.ops;
            }
            CoreKind::Little => {
                little.merge(&o.hist);
                little_ops += o.ops;
            }
        }
    }
    let total_ops = big_ops + little_ops;
    RunResult {
        elapsed,
        total_ops,
        throughput: total_ops as f64 / elapsed.as_secs_f64(),
        overall,
        big,
        little,
        big_ops,
        little_ops,
        per_worker_ops: outs.iter().map(|o| o.ops).collect(),
        telemetry: asl_locks::telemetry::snapshots(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::work::execute_units;

    fn quick_cfg(threads: usize) -> RunConfig {
        RunConfig {
            topology: Topology::apple_m1(),
            threads,
            duration: Duration::from_millis(80),
            warmup: Duration::from_millis(20),
            pin: false,
        }
    }

    #[test]
    fn measures_throughput_and_latency() {
        let cfg = quick_cfg(4);
        let r = run_timed(&cfg, |_| {
            let t0 = now_ns();
            execute_units(200);
            now_ns() - t0
        });
        assert!(r.total_ops > 0);
        assert!(r.throughput > 0.0);
        assert!(!r.overall.is_empty());
        assert_eq!(r.total_ops, r.big_ops + r.little_ops);
        assert_eq!(r.overall.count(), r.total_ops);
        assert_eq!(r.per_worker_ops.len(), 4);
        assert_eq!(r.per_worker_ops.iter().sum::<u64>(), r.total_ops);
    }

    #[test]
    fn class_split_matches_topology() {
        let cfg = quick_cfg(8); // 4 big + 4 little
        let r = run_timed(&cfg, |_| {
            let t0 = now_ns();
            execute_units(500);
            now_ns() - t0
        });
        assert!(r.big_ops > 0);
        assert!(r.little_ops > 0);
        // Little cores run 3x slower on pure emulated work.
        let big_rate = r.big_ops as f64 / 4.0;
        let little_rate = r.little_ops as f64 / 4.0;
        assert!(
            big_rate > little_rate * 1.5,
            "big {big_rate} vs little {little_rate}"
        );
    }

    #[test]
    fn little_latency_exceeds_big() {
        let cfg = quick_cfg(8);
        let r = run_timed(&cfg, |_| {
            let t0 = now_ns();
            execute_units(1_000);
            now_ns() - t0
        });
        assert!(
            r.little.percentile(50.0) > r.big.percentile(50.0),
            "little p50 {} <= big p50 {}",
            r.little.percentile(50.0),
            r.big.percentile(50.0)
        );
    }

    #[test]
    fn worker_state_advances_across_ops_and_repeats_across_runs() {
        // The worker's RNG is seeded once, in `setup`: consecutive ops
        // of one worker draw different values (seeding inside `op`
        // replayed the first draw forever), and a second run draws the
        // same sequence. How many ops fit the window varies, so compare
        // the first few draws of worker 0.
        use crate::scenario::worker_rng;
        use rand::Rng;
        const DRAWS: usize = 8;
        let draws = || {
            let setups = AtomicU64::new(0);
            let seen = std::sync::Mutex::new(Vec::new());
            run_timed_with_setup(
                &quick_cfg(1),
                |ctx| {
                    setups.fetch_add(1, Ordering::Relaxed);
                    worker_rng(ctx.index)
                },
                |_, rng| {
                    let mut seen = seen.lock().unwrap();
                    if seen.len() < DRAWS {
                        seen.push(rng.gen::<u64>());
                    }
                    0
                },
            );
            assert_eq!(setups.into_inner(), 1, "one setup per worker");
            seen.into_inner().unwrap()
        };
        let first = draws();
        assert_eq!(first.len(), DRAWS);
        assert_ne!(first[0], first[1], "one draw replayed");
        assert_eq!(first, draws(), "runs must repeat");
    }

    #[test]
    fn scaled_config() {
        let cfg = RunConfig::m1_default().scaled(0.5);
        assert_eq!(cfg.duration, Duration::from_millis(200));
    }
}
