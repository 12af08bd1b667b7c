//! What a workload hands back, and the helpers all five share.

use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::{Clock, EndToEndValues, Metric};
use crate::stats::median_f;
use crate::trace::ThreadLog;

/// Result of one untraced run of a workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The gated end-to-end values.
    pub e2e: EndToEndValues,
    /// Clock of the end-to-end values (set-up time is always host).
    pub clock: Clock,
    /// The workload's own named numbers (the issue's vocabulary), from
    /// which the end-to-end values were taken.
    pub detail: Vec<Metric>,
    /// Operations checked against an oracle.
    pub attempted: u64,
    /// Operations that failed an oracle or never completed.
    pub failed: u64,
}

/// Result of the traced pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// The workload's per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Spans recorded by the traced pass.
    pub logs: Vec<ThreadLog>,
    /// Operations checked against an oracle (both passes).
    pub attempted: u64,
    /// Operations that failed an oracle (both passes).
    pub failed: u64,
}

/// Time the workload's set-up and return the last product with the
/// host seconds it took: the process's one-off work-unit calibration
/// plus the median of `reps` repetitions, each of which calls `build`
/// `builds_per_rep` times.
///
/// The build is repeated because one build is mostly timer, allocator
/// and first-touch noise; cheap builds (a handful of lock objects take
/// well under a microsecond) are additionally batched so that each
/// repetition is long enough to time. The calibration
/// (`asl_runtime::work::units_per_us`, ~15 ms of spinning) can only run
/// once per process; forcing it here also keeps it out of every timed
/// region and brings a freshly started process's CPU up to speed.
pub fn timed_setup<T>(
    reps: usize,
    builds_per_rep: usize,
    mut build: impl FnMut() -> T,
) -> (T, SetupTime) {
    let calibration_s = calibration_s();
    let builds = builds_per_rep.max(1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..builds {
            // The previous product is dropped here, inside the timed
            // region: tearing a set-up down is part of its cost.
            last = Some(build());
        }
        times.push(t0.elapsed().as_secs_f64() / builds as f64);
    }
    let time = SetupTime {
        calibration_s,
        build_s: median_f(times),
    };
    (last.expect("at least one set-up"), time)
}

/// Force the once-per-process work-unit calibration and return the
/// host seconds it took when it ran (every workload of an `--all` run
/// reports the same figure: each would pay it in a process of its own).
fn calibration_s() -> f64 {
    static TOOK: OnceLock<f64> = OnceLock::new();
    *TOOK.get_or_init(|| {
        let t0 = Instant::now();
        let _ = asl_runtime::work::units_per_us();
        t0.elapsed().as_secs_f64()
    })
}

/// Host seconds of a workload's set-up, by part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTime {
    /// The once-per-process work-unit calibration.
    pub calibration_s: f64,
    /// Median of the repeated builds.
    pub build_s: f64,
}

impl SetupTime {
    /// The gated `setup_s`.
    pub fn total_s(&self) -> f64 {
        self.calibration_s + self.build_s
    }

    /// The build part as a detail metric beside `setup_s`.
    pub fn detail(&self) -> Metric {
        Metric::new("setup_build_s", self.build_s, "s", Clock::Host).with_note(format!(
            "median build; one-off calibration {:.6} s on top",
            self.calibration_s
        ))
    }
}

/// Run `f` on a helper thread pinned to the `nth` CPU this process may
/// use (0 = first). Threads that `f` spawns inherit the pin; the
/// caller's own affinity is untouched. With fewer CPUs it pins to the
/// last one there is, and where pinning is refused `f` runs unpinned:
/// placement only steadies the host-time numbers, it never changes a
/// result.
pub fn pinned<R: Send>(nth: usize, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            // Walk the CPU ids, pinning to each that accepts, and stop at
            // the nth success.
            let _ = (0..64)
                .filter(|&cpu| asl_runtime::affinity::pin_to_cpu(cpu))
                .nth(nth);
            f()
        });
        helper.join().expect("pinned section panicked")
    })
}

/// `traced ÷ untraced − 1`: the tracing overhead on a value.
pub fn overhead_share(traced: f64, untraced: f64) -> f64 {
    if untraced == 0.0 {
        0.0
    } else {
        traced / untraced - 1.0
    }
}

/// The work-unit cost `host-acquire`'s gated values are normalised to:
/// what one unit of `asl_runtime::work` took on the reference host when
/// the benchmark was defined.
pub const REFERENCE_UNIT_NS: f64 = 1.35;

/// Factor that rescales a host time measured while one work unit took
/// `unit_ns` to what it would read at [`REFERENCE_UNIT_NS`].
///
/// On the shared reference host the whole machine runs several percent
/// faster or slower from one minute to the next and every
/// single-threaded timed path moves with it; dividing by a co-measured
/// pure-CPU reference takes that common factor out (run-to-run spread
/// of the acquire ladder: 4–7 % raw, 1–3 % normalised). It does not
/// help the two-thread `host-kv` paths, which are left as measured.
pub fn speed_factor(unit_ns: f64) -> f64 {
    if unit_ns > 0.0 {
        REFERENCE_UNIT_NS / unit_ns
    } else {
        1.0
    }
}
