//! A tour of the lock zoo: run every lock implementation through the
//! same contended counter workload on an emulated Apple-M1 topology
//! and print per-class acquisition shares.
//!
//! This makes the paper's §2.2 observations tangible in one screen:
//! FIFO locks split acquisitions evenly (and are slow on AMP), the
//! big-core-affinity TAS starves little cores, SHFL-PB10 gives big
//! cores a fixed multiple, and LibASL-MAX batches big cores while
//! keeping little cores alive.
//!
//! ```sh
//! cargo run --release --example lock_zoo_tour
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libasl::harness::locks::LockSpec;
use libasl::runtime::spawn::run_on_topology_with_stop;
use libasl::runtime::work::execute_units;
use libasl::runtime::{CacheLineArena, CoreKind, Topology};

fn main() {
    let topo = Topology::apple_m1();
    println!(
        "topology: {} ({} big + {} little, ratio {:.1}x)\n",
        topo.name(),
        topo.big_count(),
        topo.little_count(),
        topo.perf_ratio()
    );
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>8}",
        "lock", "ops/s", "big_ops", "little_ops", "big%"
    );

    // Registry names: `repro locks` lists them with their capabilities.
    for name in [
        "mcs",
        "ticket",
        "tas-big",
        "tas-little",
        "pthread",
        "shfl-pb10",
        "cna",
        "cohort",
        "malthusian",
        "shfl-local16",
        "libasl-max",
    ] {
        let spec: LockSpec = name.parse().expect("a registry name");
        let (thpt, big, little) = measure(&topo, &spec);
        let share = 100.0 * big as f64 / (big + little).max(1) as f64;
        println!("{name:<16} {thpt:>12.0} {big:>10} {little:>10} {share:>7.1}%");
    }

    println!(
        "\nReading guide: FIFO locks sit near 50% big share (throughput collapse);\n\
         big-affinity TAS and LibASL-MAX sit high (throughput recovered), but only\n\
         LibASL does it without unbounded latency — see `repro fig8a`."
    );
}

/// Run one lock spec for 300 ms of contended counting; returns
/// (ops/s, big ops, little ops).
fn measure(topo: &Topology, spec: &LockSpec) -> (f64, u64, u64) {
    let lock = spec.make_dyn();
    let arena = Arc::new(CacheLineArena::new(4));
    let big_ops = Arc::new(AtomicU64::new(0));
    let little_ops = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let stopper = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        })
    };

    let t0 = std::time::Instant::now();
    run_on_topology_with_stop(topo, topo.len(), false, stop.clone(), |ctx| {
        let ctr = if ctx.assignment.kind == CoreKind::Big {
            &big_ops
        } else {
            &little_ops
        };
        while !ctx.stopped() {
            {
                let _held = lock.lock(); // RAII guard: released at scope end
                arena.rmw(0, 4);
                execute_units(120);
            }
            ctr.fetch_add(1, Ordering::Relaxed);
            execute_units(400);
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    stopper.join().unwrap();

    let b = big_ops.load(Ordering::Relaxed);
    let l = little_ops.load(Ordering::Relaxed);
    ((b + l) as f64 / dt, b, l)
}
