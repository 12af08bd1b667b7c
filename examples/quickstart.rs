//! Quickstart: LibASL as a drop-in mutex on a modeled Apple M1.
//!
//! Eight workers (4 big, 4 little) hammer one shared counter. Each
//! increment runs inside an epoch with a 200 µs SLO — LibASL lets big
//! cores overtake little cores exactly as much as that SLO allows.
//! The example prints the per-class acquisition shares, worst epoch
//! latencies and the paths the lock took.
//!
//! The workers run in virtual time on the simulator
//! (`asl_harness::runner`): big and little cores really run at once
//! whatever the host has, and every run prints the same numbers.
//!
//! Run with: `cargo run --release --example quickstart`

use libasl::epoch;
use libasl::harness::runner::{run_timed_with_setup, RunConfig};
use libasl::runtime::work::execute_units;
use libasl::{Mutex, Topology};

const SLO_NS: u64 = 200_000; // 200 µs, P99
const RUN_NS: u64 = 10_000_000; // 10 virtual ms

fn main() {
    let topology = Topology::apple_m1();
    println!(
        "topology: {} ({} big + {} little, little {}x slower)",
        topology.name(),
        topology.big_count(),
        topology.little_count(),
        topology.perf_ratio()
    );
    println!(
        "clock: virtual time on the simulator, {} ms",
        RUN_NS / 1_000_000
    );

    let counter = Mutex::new(0u64);
    let cfg = RunConfig {
        topology,
        threads: 8,
        duration_ns: RUN_NS,
        // No warm-up: every increment counts, so the lock's path
        // counters below add up to the class totals.
        warmup_ns: 0,
    };
    let r = run_timed_with_setup(
        &cfg,
        |_| (),
        |_, ()| {
            // One latency-critical request: epoch 0, 200 µs SLO.
            let (_, latency) = epoch::with_epoch_timed(0, SLO_NS, || {
                let mut guard = counter.lock();
                *guard += 1;
                // Some work while holding the lock (slower on littles).
                execute_units(300);
            });
            execute_units(500); // think time between requests
            latency
        },
    );

    println!(
        "\ntotal increments: {} (counter = {})",
        r.total_ops,
        *counter.lock()
    );
    for (class, ops, hist) in [
        ("big", r.big_ops, &r.big),
        ("little", r.little_ops, &r.little),
    ] {
        println!(
            "  {:>6}: {:>9} ops ({:>4.1}%), worst epoch latency {:.1} us (SLO {} us)",
            class,
            ops,
            100.0 * ops as f64 / r.total_ops as f64,
            hist.max() as f64 / 1_000.0,
            SLO_NS / 1_000,
        );
    }

    // The lock counts the little cores' standby paths only: a big
    // core's acquire is the inner lock's own, so its count is the big
    // class's operations.
    let s = counter.raw().stats().snapshot();
    println!(
        "\nlock paths: {} immediate (big), {} standby-free, {} standby-reordered, {} window-expired",
        r.big_ops, s.standby_free_entry, s.standby_observed_free, s.standby_expired
    );
    println!("done.");
}
