//! A tour of the lock zoo: run every lock implementation through the
//! same contended counter workload on a modeled Apple-M1 topology
//! and print per-class acquisition shares.
//!
//! This makes the paper's §2.2 observations tangible in one screen:
//! FIFO locks grant in arrival order (and are slow on AMP), the
//! class-aware policies tilt the split toward big cores, and LibASL-MAX
//! lets big cores overtake for as long as its window allows.
//!
//! Every cell runs in virtual time on the simulator
//! (`asl_harness::runner`), so the table is the same on every run and
//! every host.
//!
//! ```sh
//! cargo run --release --example lock_zoo_tour
//! ```

use libasl::harness::locks::LockSpec;
use libasl::harness::runner::{run_timed_with_setup, RunConfig, RunResult};
use libasl::runtime::work::execute_units;
use libasl::runtime::{CacheLineArena, Topology};

fn main() {
    let topo = Topology::apple_m1();
    println!(
        "topology: {} ({} big + {} little, ratio {:.1}x)",
        topo.name(),
        topo.big_count(),
        topo.little_count(),
        topo.perf_ratio()
    );
    println!("clock: virtual time on the simulator, 3 ms per lock after 0.5 ms of warm-up\n");
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
        let r = measure(&topo, &spec);
        let (big, little) = (r.big_ops, r.little_ops);
        let share = 100.0 * big as f64 / (big + little).max(1) as f64;
        println!(
            "{name:<16} {:>12.0} {big:>10} {little:>10} {share:>7.1}%",
            r.throughput
        );
    }

    println!(
        "\nReading guide: FIFO locks (mcs, ticket) grant in arrival order, so their big\n\
         share is only the big cores' shorter think time; the other policies tilt it.\n\
         LibASL-MAX lets big cores overtake until a little core's reorder window\n\
         (its 100 ms bound) runs out, longer than this run: with no epoch SLO nothing\n\
         shorter bounds the littles' wait — `repro fig8b` sweeps the SLO that does."
    );
}

/// Run one lock spec for 3 virtual ms of contended counting on all
/// eight cores.
fn measure(topo: &Topology, spec: &LockSpec) -> RunResult {
    let lock = spec.make_dyn();
    let arena = CacheLineArena::new(4);
    let cfg = RunConfig {
        topology: topo.clone(),
        threads: topo.len(),
        duration_ns: 3_000_000,
        warmup_ns: 500_000,
    };
    run_timed_with_setup(
        &cfg,
        |_| (),
        |_, ()| {
            {
                let _held = lock.lock(); // RAII guard: released at scope end
                arena.rmw(0, 4);
                execute_units(120);
            }
            execute_units(400);
            0
        },
    )
}
