//! Bench-2 in miniature: watch the reorder window self-adapt.
//!
//! One little-core thread competes with four big-core threads for a
//! LibASL lock while the critical section changes length abruptly
//! (1× → 8× → 1× → 32×-infeasible). The example prints the little
//! thread's epoch latency and its current reorder window over time:
//! every SLO violation cuts a quarter of the window; every epoch inside
//! the SLO adds 0.19 % of it back — the percentile-tracking feedback of
//! `libasl::epoch` (after paper Algorithm 2).
//!
//! The threads run in virtual time on the simulator
//! (`asl_harness::runner`), and the phases switch on the virtual
//! clock, so every run prints the same trace.
//!
//! Run with: `cargo run --release --example variable_load`

use libasl::epoch;
use libasl::harness::runner::{run_timed_with_setup, RunConfig};
use libasl::runtime::clock::now_ns;
use libasl::runtime::work::execute_units;
use libasl::runtime::{is_big_core, Topology};
use libasl::AslMutex;

const SLO_NS: u64 = 400_000; // 400 µs
const BASE_UNITS: u64 = 2_000;
/// Virtual length of each phase.
const PHASE_NS: u64 = 5_000_000;
/// Critical-section multiplier of each phase, in order.
const PHASES: [u64; 4] = [1, 8, 1, 32];
/// Virtual time between two lines of the little thread's trace.
const PRINT_EVERY_NS: u64 = 500_000;

fn main() {
    let lock = AslMutex::new(0u64);

    println!(
        "SLO = {} us; phases: x1, x8, x1, x32 (infeasible), {} virtual ms each",
        SLO_NS / 1_000,
        PHASE_NS / 1_000_000
    );
    println!("clock: virtual time on the simulator (4 big + 1 little of a modeled M1)\n");
    println!("t_ms  phase  little_latency_us  window_us");

    let cfg = RunConfig {
        topology: Topology::apple_m1(),
        // Workers 0-3 are big cores; worker 4 is the observed little.
        threads: 5,
        duration_ns: PHASE_NS * PHASES.len() as u64,
        warmup_ns: 0,
    };
    run_timed_with_setup(
        &cfg,
        // The last trace line the little thread printed.
        |_| 0u64,
        |_, printed| {
            let m = PHASES[((now_ns() / PHASE_NS) as usize).min(PHASES.len() - 1)];
            let (_, latency) = epoch::with_epoch_timed(0, SLO_NS, || {
                let mut g = lock.lock();
                *g += 1;
                execute_units(BASE_UNITS * m);
            });
            execute_units(BASE_UNITS / 2);
            let t = now_ns();
            if !is_big_core() && t / PRINT_EVERY_NS > *printed {
                *printed = t / PRINT_EVERY_NS;
                let w = epoch::epoch_meta(0).window;
                println!(
                    "{:>4.1}  x{:<4} {:>18.1} {:>10.1}{}",
                    t as f64 / 1e6,
                    m,
                    latency as f64 / 1_000.0,
                    w as f64 / 1_000.0,
                    if latency > SLO_NS {
                        "  <-- SLO violated, window cut"
                    } else {
                        ""
                    }
                );
            }
            latency
        },
    );

    println!("\ntotal critical sections: {}", *lock.lock());
    println!("expected shape: while the little core's epochs meet the SLO (x1, x8) the");
    println!("window grows geometrically; in the infeasible x32 phase every epoch misses,");
    println!("each miss cuts a quarter, and LibASL falls back towards FIFO.");
}
