//! Quickstart: LibASL as a drop-in mutex on an emulated Apple M1.
//!
//! Eight worker threads (4 big, 4 little) hammer one shared counter.
//! Each increment runs inside an epoch with a 200 µs SLO — LibASL
//! lets big cores overtake little cores exactly as much as that SLO
//! allows, then prints the per-class acquisition shares and tail
//! latencies.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use libasl::epoch;
use libasl::runtime::clock::now_ns;
use libasl::runtime::spawn::run_on_topology_with_stop;
use libasl::runtime::work::execute_units;
use libasl::{CoreKind, Mutex, Topology};

const SLO_NS: u64 = 200_000; // 200 µs, P99

fn main() {
    let topology = Topology::apple_m1();
    println!(
        "topology: {} ({} big + {} little, little {}x slower)",
        topology.name(),
        topology.big_count(),
        topology.little_count(),
        topology.perf_ratio()
    );

    let counter = Arc::new(Mutex::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));

    // Stop the experiment after one second.
    let stopper = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(1));
            stop.store(true, Ordering::Relaxed);
        })
    };

    let counter2 = counter.clone();
    let results = run_on_topology_with_stop(&topology, 8, true, stop, move |ctx| {
        let mut ops = 0u64;
        let mut worst = 0u64;
        while !ctx.stopped() {
            // One latency-critical request: epoch 0, 200 µs SLO.
            let (_, latency) = epoch::with_epoch_timed(0, SLO_NS, || {
                let mut guard = counter2.lock();
                *guard += 1;
                // Some work while holding the lock (slower on littles).
                execute_units(300);
            });
            worst = worst.max(latency);
            ops += 1;
            execute_units(500); // think time between requests
        }
        (ctx.assignment.kind, ops, worst)
    });
    stopper.join().unwrap();

    let total: u64 = results.iter().map(|(_, ops, _)| ops).sum();
    println!(
        "\ntotal increments: {total} (counter = {})",
        *counter.lock()
    );
    let mut big_ops = 0;
    for kind in [CoreKind::Big, CoreKind::Little] {
        let class: Vec<_> = results.iter().filter(|(k, _, _)| *k == kind).collect();
        let ops: u64 = class.iter().map(|(_, o, _)| o).sum();
        let worst = class.iter().map(|(_, _, w)| *w).max().unwrap_or(0);
        if kind == CoreKind::Big {
            big_ops = ops;
        }
        println!(
            "  {:>6}: {:>9} ops ({:>4.1}%), worst epoch latency {:.1} us (SLO {} us)",
            kind.label(),
            ops,
            100.0 * ops as f64 / total as f64,
            worst as f64 / 1_000.0,
            SLO_NS / 1_000,
        );
    }

    // The lock counts the little cores' standby paths only: a big
    // core's acquire is the inner lock's own, so its count is the big
    // class's operations.
    let s = counter.raw().stats().snapshot();
    println!(
        "\nlock paths: {big_ops} immediate (big), {} standby-free, {} standby-reordered, {} window-expired",
        s.standby_free_entry, s.standby_observed_free, s.standby_expired
    );
    let _ = now_ns();
    println!("done.");
}
