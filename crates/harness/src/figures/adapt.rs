//! `repro adapt` — the contention-adaptive lock's morph point vs
//! thread count.
//!
//! Fissile-style substrate morphing (see `asl_locks::adaptive`): the
//! lock starts as a TAS and promotes itself to a FIFO ticket funnel
//! when its telemetry shows a sustained contended streak. This figure
//! sweeps thread count over a short-critical-section hammer and
//! reports, per point, the telemetry the morph decision is made from
//! — contended ratio, spin iterations, morph counters — plus the
//! substrate the lock ended the run in (`final_mode`: `tas` or
//! `queue`, the lock's two stages). At one thread the lock must
//! finish in TAS mode with zero morphs; as threads grow the morph
//! point appears and the lock ends in queue mode.
//!
//! The oracle is telemetry (counters), not timing: throughput is
//! reported for context, but the morph columns are what reproduce the
//! claim.

use std::sync::Arc;

use asl_locks::{Adaptive, AdaptiveMode, RawLock};
use asl_runtime::clock::now_ns;
use asl_runtime::work::execute_units;
use asl_runtime::CacheLineArena;

use crate::report::Table;
use crate::runner::run_timed_with_setup;

use super::Profile;

/// Cache lines each critical section touches.
const CS_LINES: usize = 4;
/// Emulated units inside the critical section.
const CS_UNITS: u64 = 400;
/// Emulated think time between acquisitions. Zero: the figure wants
/// the lock near-saturated so the morph point appears as soon as a
/// second thread exists.
const NCS_UNITS: u64 = 0;

/// The `adapt` figure driver.
pub fn adapt(profile: &Profile) -> Vec<Table> {
    let mut table = Table::new(
        "adapt",
        "contention-adaptive lock: morph point vs thread count",
        &[
            "threads",
            "thpt_ops_s",
            "acquisitions",
            "contended_pct",
            "spin_iters",
            "morphs_to_queue",
            "morphs_to_tas",
            "final_mode",
        ],
    );
    for threads in [1usize, 2, 4, 8] {
        let lock = Arc::new(Adaptive::new());
        let arena = Arc::new(CacheLineArena::new(CS_LINES));
        let cfg = profile.config(threads);
        let r = {
            let lock = lock.clone();
            let arena = arena.clone();
            run_timed_with_setup(
                &cfg,
                |_| (),
                move |_, ()| {
                    let t0 = now_ns();
                    let token = lock.lock();
                    arena.rmw(0, CS_LINES);
                    execute_units(CS_UNITS);
                    lock.unlock(token);
                    let latency = now_ns() - t0;
                    execute_units(NCS_UNITS);
                    latency
                },
            )
        };
        let snap = lock.telemetry().snapshot();
        let mode = match lock.mode() {
            AdaptiveMode::Tas => "tas",
            AdaptiveMode::Queue => "queue",
        };
        table.push_row(vec![
            threads.to_string(),
            format!("{:.0}", r.throughput),
            snap.acquisitions.to_string(),
            format!("{:.1}", 100.0 * snap.contention_ratio()),
            snap.spin_iters.to_string(),
            lock.morphs_to_queue().to_string(),
            lock.morphs_to_tas().to_string(),
            mode.to_string(),
        ]);
        table.push_sample("adaptive", threads, r.throughput);
    }
    table.note(format!(
        "TAS -> queue after {} consecutive contended acquisitions; \
         queue -> TAS after {} idle arrivals; oracle is telemetry, not timing",
        asl_locks::adaptive::DEFAULT_PROMOTE_AFTER,
        asl_locks::adaptive::DEFAULT_DEMOTE_AFTER,
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_never_morphs() {
        // The deterministic end of the figure's claim: an uncontended
        // hammer stays in TAS mode with zero morphs.
        let profile = Profile {
            duration_ms: 40,
            warmup_ms: 10,
        };
        let tables = adapt(&profile);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4);
        let one_thread = &t.rows[0];
        assert_eq!(one_thread[0], "1");
        assert_eq!(one_thread[5], "0", "1 thread: no morph to queue");
        assert_eq!(one_thread[7], "tas", "1 thread: ends in TAS mode");
        assert_eq!(t.samples.len(), 4);
        assert_eq!(t.samples[0].lock, "adaptive");
    }
}
