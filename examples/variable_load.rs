//! Bench-2 in miniature: watch the reorder window self-adapt.
//!
//! One little-core thread competes with three big-core threads for a
//! LibASL lock while the epoch length changes abruptly (1× → 8× →
//! 1× → 32×-infeasible). The example prints the little thread's epoch
//! latency and its current reorder window over time: every SLO
//! violation cuts a quarter of the window; every epoch inside the SLO
//! adds 0.19 % of it back — the percentile-tracking feedback of
//! `libasl::epoch` (after paper Algorithm 2).
//!
//! Run with: `cargo run --release --example variable_load`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use libasl::epoch;
use libasl::runtime::spawn::run_on_topology_with_stop;
use libasl::runtime::work::execute_units;
use libasl::runtime::{CoreKind, Topology};
use libasl::AslMutex;

const SLO_NS: u64 = 400_000; // 400 µs
const BASE_UNITS: u64 = 2_000;

fn main() {
    let topology = Topology::apple_m1();
    let lock = Arc::new(AslMutex::new(0u64));
    let multiplier = Arc::new(AtomicU64::new(1));
    let stop = Arc::new(AtomicBool::new(false));

    println!(
        "SLO = {} us; phases: x1, x8, x1, x32 (infeasible)",
        SLO_NS / 1_000
    );
    println!("t_ms  phase  little_latency_us  window_us");

    // Phase controller.
    let controller = {
        let multiplier = multiplier.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            for (ms, m) in [(300u64, 1u64), (300, 8), (300, 1), (300, 32)] {
                multiplier.store(m, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            stop.store(true, Ordering::Relaxed);
        })
    };

    let t0 = std::time::Instant::now();
    let lock2 = lock.clone();
    let mult2 = multiplier.clone();
    run_on_topology_with_stop(&topology, 5, true, stop, move |ctx| {
        epoch::reset_thread_epochs();
        // Workers 0-3 are big cores; worker 4 is the observed little.
        let is_little = ctx.assignment.kind == CoreKind::Little;
        let mut printed = 0u64;
        while !ctx.stopped() {
            let m = mult2.load(Ordering::Relaxed);
            let (_, latency) = epoch::with_epoch_timed(0, SLO_NS, || {
                let mut g = lock2.lock();
                *g += 1;
                execute_units(BASE_UNITS * m);
            });
            execute_units(BASE_UNITS / 2);
            if is_little {
                let t_ms = t0.elapsed().as_millis() as u64;
                // Print roughly every 40 ms of progress.
                if t_ms / 40 > printed {
                    printed = t_ms / 40;
                    let w = epoch::epoch_meta(0).window;
                    println!(
                        "{:>4}  x{:<4} {:>18.1} {:>10.1}{}",
                        t_ms,
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
            }
        }
    });
    controller.join().unwrap();

    println!("\ntotal critical sections: {}", *lock.lock());
    println!("expected shape: window collapses at each phase switch, then grows");
    println!("geometrically; during the x32 phase LibASL stays collapsed (FIFO fallback).");
}
