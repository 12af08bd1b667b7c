//! Calibrated emulated work.
//!
//! The paper expresses workloads in instruction counts ("execute a
//! fixed number of NOP instructions"). We express them in abstract
//! *work units*: one unit is one iteration of an opaque spin loop on a
//! big core. [`execute_units`] multiplies the unit count by the
//! calling thread's core multiplier, which is exactly the asymmetry
//! the paper studies — the same critical section takes `ratio×` longer
//! on a little core.
//!
//! [`execute_raw_units`] skips the multiplier; lock-internal delays
//! (back-off, affinity penalties) use it so the *protocol* timing can
//! be controlled independently of core speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::registry::work_multiplier;

/// Sink that keeps the spin loop from being optimized away without
/// generating shared-memory traffic (one private line per thread
/// would be ideal; a single process-global relaxed add per *call*,
/// not per iteration, keeps overhead negligible).
static SINK: AtomicU64 = AtomicU64::new(0);

/// Execute `units` iterations of the calibration loop, *unscaled*.
///
/// On a thread with an installed [`crate::substrate`] backend the loop
/// is not executed: the units are charged to the virtual clock
/// instead (the simulation's unit-to-nanosecond exchange rate is the
/// backend's business).
#[inline]
pub fn execute_raw_units(units: u64) {
    if crate::substrate::with_current(|s| s.charge_work_units(units)).is_some() {
        return;
    }
    run_raw_loop(units);
}

/// The calibration loop itself, with no substrate dispatch. Substrate
/// decorators that fall through to real execution
/// ([`crate::fault::FaultInjector`] over the OS backend) call this
/// directly — going through [`execute_raw_units`] would recurse into
/// the substrate hook — and so does [`units_per_us`], which must time
/// the host whichever thread asks.
#[inline]
pub(crate) fn run_raw_loop(units: u64) {
    let mut acc: u64 = units;
    for i in 0..units {
        // A data-dependent multiply-xor chain: roughly constant work
        // per iteration, resistant to vectorization.
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i) ^ (acc >> 29);
        std::hint::black_box(&acc);
    }
    if units > 0 {
        SINK.fetch_add(acc & 1, Ordering::Relaxed);
    }
}

/// Execute `units` of emulated work scaled by the calling thread's
/// core multiplier (little cores run the loop `perf_ratio×` more).
#[inline]
pub fn execute_units(units: u64) {
    let m = work_multiplier();
    let scaled = if m == 1.0 {
        units
    } else {
        (units as f64 * m) as u64
    };
    execute_raw_units(scaled);
}

/// Units in one calibration block: ≈ 8 µs on the reference host.
const CALIBRATION_BLOCK: u64 = 4_000;
/// Calibration blocks timed; the fastest one is the answer.
const CALIBRATION_BLOCKS: usize = 12;

/// Calibration: how many raw units a *big* core executes per
/// microsecond. Measured once per process; used to convert between
/// work units and (approximate) nanoseconds when sizing workloads.
///
/// What it measures is the host: the bare loop (`run_raw_loop`) timed
/// with [`crate::clock::os_now_ns`], neither of which goes through a
/// substrate, so the first call may come from a simulated thread
/// without charging its virtual clock or caching the simulator's
/// exchange rate for the whole process. It times
/// `CALIBRATION_BLOCKS` blocks of `CALIBRATION_BLOCK` units and keeps
/// the fastest: ≈ 0.10 ms in all.
///
/// The blocks are short on purpose. A slow block is not the loop's
/// cost but a preemption, a migration or a co-tenant on the same
/// core, and the fastest of several blocks estimates the loop only if
/// one of them escaped all of that: a short block escapes more often.
/// Fresh processes on the reference host (2-CPU x86-64, shared with
/// other tenants), alternated between builds, each reading checked
/// against the best of five 400 000-unit blocks timed afterwards in
/// the same process:
///
/// | blocks            | processes | took (ms)               | error vs. the long reading   |
/// |-------------------|-----------|-------------------------|------------------------------|
/// | 12 × 40 000 units | 40        | 1.03–1.33, median 1.08  | −4.5 … +7.2 %, median 0.0 %  |
/// | 12 × 4 000 units  | 60        | 0.13–0.20, median 0.14  | −9.5 … +3.4 %, median −1.1 % |
/// | 8 × 8 000 units   | 20        | 0.16–0.24, median 0.17  | −0.7 … +9.7 %, median 0.0 %  |
/// | 16 × 2 000 units  | 20        | 0.09–0.18, median 0.11  | −13.7 … +7.7 %, median −1.5 % |
///
/// Every reading of the first three shapes is within 10 %. The short
/// blocks read ≈ 1 % low in the median, and part of that is the
/// clock: one [`crate::clock::os_now_ns`] read (≈ 35 ns) is ≈ 0.4 %
/// of an 8 µs block.
pub fn units_per_us() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let fastest_ns = (0..CALIBRATION_BLOCKS)
            .map(|_| {
                let t0 = crate::clock::os_now_ns();
                run_raw_loop(CALIBRATION_BLOCK);
                crate::clock::os_now_ns() - t0
            })
            .fold(u64::MAX, u64::min)
            .max(1);
        CALIBRATION_BLOCK as f64 * 1_000.0 / fastest_ns as f64
    })
}

/// Convert a target duration in nanoseconds into raw work units using
/// the calibration (big-core time).
pub fn units_for_ns(ns: u64) -> u64 {
    (ns as f64 * units_per_us() / 1_000.0).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{register_on_core, unregister};
    use crate::topology::{CoreId, Topology};

    #[test]
    fn raw_units_zero_is_noop() {
        execute_raw_units(0);
    }

    #[test]
    fn calibration_positive_and_stable() {
        let a = units_per_us();
        let b = units_per_us();
        assert!(a > 0.0);
        assert_eq!(a, b, "calibration must be cached");
    }

    #[test]
    fn units_for_ns_monotone() {
        assert!(units_for_ns(10_000) <= units_for_ns(100_000));
        assert!(units_for_ns(1) >= 1);
    }

    #[test]
    fn little_core_work_takes_longer() {
        let t = Topology::custom(1, 1, 4.0);
        let units = 400_000;

        register_on_core(&t, CoreId(0));
        let t0 = crate::clock::now_ns();
        execute_units(units);
        let big = crate::clock::now_ns() - t0;

        register_on_core(&t, CoreId(1));
        let t0 = crate::clock::now_ns();
        execute_units(units);
        let little = crate::clock::now_ns() - t0;
        unregister();

        // 4x multiplier: allow generous noise margins, but little must
        // clearly exceed big.
        assert!(
            little as f64 > big as f64 * 2.0,
            "little={little}ns big={big}ns"
        );
    }
}
