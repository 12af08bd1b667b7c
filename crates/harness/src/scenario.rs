//! The paper's micro-benchmark bodies.
//!
//! All of Figures 1, 4, 5 and 8 share one skeleton: each operation
//! (an *epoch* in LibASL terms) acquires one or more locks, reads-
//! modifies-writes shared cache lines inside each critical section,
//! and executes emulated non-critical work between operations.
//! [`MicroScenario`] parameterizes that skeleton:
//!
//! * `sections` — the critical sections per epoch (Bench-1 uses
//!   "4 critical sections of different lengths protected by 2
//!   different locks"; Figure 1 uses a single 4-line section).
//! * `cs_units_per_line` — emulated per-line processing cost, which
//!   is what makes little-core critical sections slower.
//! * `ncs_units` — the paper's "fixed number of NOP instructions
//!   between two lock acquisitions".
//! * `length` — epoch-length models for Bench-2 (phase changes) and
//!   Bench-3 (mixed short/long epochs).
//! * `epoch_slo` — when set, each operation runs inside epoch 0 with
//!   this SLO (the LibASL configurations).

use std::sync::Arc;

use asl_core::epoch;
use asl_locks::api::DynLock;
use asl_runtime::clock::now_ns;
use asl_runtime::work::execute_units;
use asl_runtime::CacheLineArena;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::locks::LockSpec;

/// Emulated processing cost per cache line inside a critical section
/// (raw units on a big core; little cores scale it by the topology's
/// perf ratio).
pub const CS_UNITS_PER_LINE: u64 = 30;

/// One critical section within an epoch.
#[derive(Debug, Clone, Copy)]
pub struct CsSpec {
    /// Index into [`MicroScenario::locks`].
    pub lock_idx: usize,
    /// Shared cache lines to read-modify-write.
    pub lines: usize,
}

/// How epoch lengths vary across operations.
#[derive(Clone)]
pub enum LengthModel {
    /// Every epoch identical.
    Fixed,
    /// Bench-3: a `long_ratio` fraction of epochs are `long_factor`×
    /// longer (extra emulated work).
    Mixed {
        /// Fraction of long epochs in `[0, 1]`.
        long_ratio: f64,
        /// Work multiplier of long epochs.
        long_factor: u64,
    },
    /// Bench-2: `(end_ns, multiplier)` phases on the clock — an op
    /// started before `end_ns` (and after the previous phase's end)
    /// runs `multiplier`× longer; the last phase holds after its end.
    /// `u64::MAX` means "randomize per op in 1..=4" (heterogeneous
    /// but individually SLO-feasible lengths — the paper's random
    /// phase stays within the SLO, so the drawn lengths must remain
    /// feasible; infeasibility is exercised by the explicit
    /// "impossible" phase instead).
    Phased(Vec<(u64, u64)>),
}

/// A configured micro-benchmark.
pub struct MicroScenario {
    /// The lock instances used by `sections`.
    pub locks: Vec<DynLock>,
    /// Shared cache-line arena.
    pub arena: Arc<CacheLineArena>,
    /// Critical sections per epoch.
    pub sections: Vec<CsSpec>,
    /// Emulated per-line cost (see [`CS_UNITS_PER_LINE`]).
    pub cs_units_per_line: u64,
    /// Emulated work between epochs (mean; each op draws ±25 %).
    pub ncs_units: u64,
    /// Epoch-length model.
    pub length: LengthModel,
    /// `Some(slo)` wraps every op in epoch 0 with that SLO.
    pub epoch_slo: Option<u64>,
}

impl MicroScenario {
    /// Single-lock scenario: one `lines`-line critical section and
    /// `ncs_units` of think time (Figures 1/4/5/8e/8f/8g).
    pub fn simple(spec: &LockSpec, lines: usize, ncs_units: u64) -> Self {
        MicroScenario {
            locks: vec![spec.make_dyn()],
            arena: Arc::new(CacheLineArena::new(lines.max(1))),
            sections: vec![CsSpec { lock_idx: 0, lines }],
            cs_units_per_line: CS_UNITS_PER_LINE,
            ncs_units,
            length: LengthModel::Fixed,
            epoch_slo: spec.epoch_slo(),
        }
    }

    /// Bench-1 (Figures 8a-8d): "4 critical sections of different
    /// lengths protected by 2 different locks ... 64 \[lines\] in
    /// total", 600·27 NOPs between epochs.
    pub fn bench1(spec: &LockSpec) -> Self {
        MicroScenario {
            locks: vec![spec.make_dyn(), spec.make_dyn()],
            arena: Arc::new(CacheLineArena::new(64)),
            sections: vec![
                CsSpec {
                    lock_idx: 0,
                    lines: 8,
                },
                CsSpec {
                    lock_idx: 1,
                    lines: 16,
                },
                CsSpec {
                    lock_idx: 0,
                    lines: 24,
                },
                CsSpec {
                    lock_idx: 1,
                    lines: 16,
                },
            ],
            cs_units_per_line: CS_UNITS_PER_LINE,
            // The paper's 600·27 NOPs, scaled down: a work unit is one
            // iteration of the calibration loop (`asl_runtime::work`),
            // several instructions, not one NOP.
            ncs_units: 600 * 27 / 10,
            length: LengthModel::Fixed,
            epoch_slo: spec.epoch_slo(),
        }
    }

    /// Execute one operation; returns the recorded latency (ns):
    /// the epoch latency when epochs are enabled, otherwise the span
    /// from first acquire to last release (the paper's "from
    /// acquiring to releasing").
    #[inline]
    pub fn run_op(&self, rng: &mut SmallRng) -> u64 {
        let factor = match &self.length {
            LengthModel::Fixed => 1,
            LengthModel::Mixed {
                long_ratio,
                long_factor,
            } => {
                if rng.gen_bool(*long_ratio) {
                    *long_factor
                } else {
                    1
                }
            }
            LengthModel::Phased(phases) => {
                let now = now_ns();
                let phase = phases.iter().find(|&&(end, _)| now < end);
                match phase.or(phases.last()).map_or(1, |&(_, f)| f) {
                    u64::MAX => rng.gen_range(1..=4),
                    f => f.max(1),
                }
            }
        };
        let latency = match self.epoch_slo {
            Some(slo) => {
                let (_, lat) = epoch::with_epoch_timed(0, slo, || self.critical_work(factor));
                lat
            }
            None => {
                let t0 = now_ns();
                self.critical_work(factor);
                now_ns() - t0
            }
        };
        // Think time jittered ±25 %: identical loops over constant
        // lengths phase-lock in virtual time, and the pattern they lock
        // into, not the lock, then decides the figure.
        let span = self.ncs_units / 4;
        execute_units(rng.gen_range(self.ncs_units - span..=self.ncs_units + span));
        latency
    }

    #[inline]
    fn critical_work(&self, factor: u64) {
        for (i, cs) in self.sections.iter().enumerate() {
            let _held = self.locks[cs.lock_idx].lock();
            self.arena.rmw(i * 8, cs.lines);
            execute_units(cs.lines as u64 * self.cs_units_per_line * factor);
        } // critical section ends when `_held` drops
    }
}

/// Deterministic per-worker RNG.
pub fn worker_rng(thread_idx: usize) -> SmallRng {
    SmallRng::seed_from_u64(0x5EED_0000 + thread_idx as u64)
}

/// Paper parameter: Figure 1 critical section size (cache lines).
pub const FIG1_LINES: usize = 4;
/// Paper parameter: Figure 4 / Bench-4 critical section size.
pub const FIG4_LINES: usize = 64;
/// Paper parameter: Bench-5 critical section size.
pub const FIG8G_LINES: usize = 2;
/// Think-time units for Figures 1/4 (the paper's "400*27 NOPs",
/// scaled to emulated units: a unit is one iteration of the
/// calibration loop in `asl_runtime::work`, several instructions, so
/// the NOP count is divided by 10).
pub const FIG1_NCS_UNITS: u64 = 400 * 27 / 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_scenario_runs() {
        let s = MicroScenario::simple(&LockSpec::Mcs, 4, 100);
        let mut rng = worker_rng(0);
        let lat = s.run_op(&mut rng);
        assert!(lat > 0);
        assert!(s.arena.total() >= 4, "rmw must touch the arena");
        let units: u64 = s.sections.iter().map(|c| c.lines as u64).sum();
        assert_eq!(units * s.cs_units_per_line, 4 * CS_UNITS_PER_LINE);
    }

    #[test]
    fn bench1_shape_matches_paper() {
        let s = MicroScenario::bench1(&LockSpec::Mcs);
        assert_eq!(s.locks.len(), 2, "two distinct locks");
        assert_eq!(s.sections.len(), 4, "four critical sections");
        let lines: usize = s.sections.iter().map(|c| c.lines).sum();
        assert_eq!(lines, 64, "64 lines in total");
        let mut rng = worker_rng(1);
        let lat = s.run_op(&mut rng);
        assert!(lat > 0);
    }

    #[test]
    fn epoch_slo_drives_epoch_path() {
        asl_runtime::registry::unregister(); // big core: no window changes
        let s = MicroScenario::simple(&LockSpec::asl(Some(1_000_000)), 2, 10);
        assert_eq!(s.epoch_slo, Some(1_000_000));
        let mut rng = worker_rng(2);
        let lat = s.run_op(&mut rng);
        assert!(lat > 0);
    }

    #[test]
    fn mixed_lengths_produce_bimodal_latency() {
        let mut s = MicroScenario::simple(&LockSpec::Mcs, 2, 0);
        s.length = LengthModel::Mixed {
            long_ratio: 0.5,
            long_factor: 50,
        };
        let mut rng = worker_rng(3);
        let lats: Vec<u64> = (0..200).map(|_| s.run_op(&mut rng)).collect();
        let max = *lats.iter().max().unwrap();
        let min = *lats.iter().min().unwrap();
        assert!(max > min * 5, "expected bimodal spread, got {min}..{max}");
    }

    #[test]
    fn phase_multiplier_scales_latency() {
        // Phases are read off the clock; past the schedule's end its
        // last phase holds.
        let run = |phases| {
            let mut s = MicroScenario::simple(&LockSpec::Mcs, 2, 0);
            s.length = LengthModel::Phased(phases);
            let mut rng = worker_rng(4);
            (0..50).map(|_| s.run_op(&mut rng)).sum::<u64>()
        };
        let short = run(vec![(u64::MAX, 1)]);
        let long = run(vec![(1, 64)]);
        assert!(long > short * 4, "short={short} long={long}");
    }

    #[test]
    fn worker_rng_deterministic() {
        let mut a = worker_rng(7);
        let mut b = worker_rng(7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
