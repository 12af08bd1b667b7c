//! YCSB-style skewed workloads against the Kyoto-like engine.
//!
//! The paper's DB benchmarks use a uniform 50/50 put-get mix
//! ("referring to YCSB-A"). Real YCSB defaults to a zipfian key
//! distribution — skew concentrates traffic on a few hash slots,
//! which raises slot-lock contention and therefore widens the gap
//! between lock designs. This example drives the engine with
//! YCSB-A/B/C under uniform and zipfian keys, under MCS vs LibASL-MAX,
//! in virtual time on the simulator (`asl_harness::runner`), so every
//! run prints the same table.
//!
//! ```sh
//! cargo run --release --example ycsb_zipf
//! ```

use libasl::dbsim::workload::{KeyDist, Mix, Op, Zipfian};
use libasl::dbsim::{kyoto::Kyoto, value_for, KEYSPACE};
use libasl::harness::locks::LockSpec;
use libasl::harness::runner::{run_timed_with_setup, RunConfig};
use libasl::Topology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let topo = Topology::apple_m1();
    println!("clock: virtual time on the simulator, 8 threads on a modeled M1, 2 ms per cell\n");
    println!(
        "{:<10} {:<9} {:<12} {:>12} {:>12}",
        "workload", "keys", "", "mcs ops/s", "libasl ops/s"
    );
    for (mix_name, mix) in [
        ("YCSB-A", Mix::ycsb_a()),
        ("YCSB-B", Mix::ycsb_b()),
        ("YCSB-C", Mix::ycsb_c()),
    ] {
        for (dist_name, dist) in [
            ("uniform", KeyDist::Uniform { n: KEYSPACE }),
            ("zipfian", KeyDist::Zipfian(Zipfian::ycsb(KEYSPACE))),
        ] {
            let mcs = run_once(&topo, &LockSpec::Mcs, mix, &dist);
            let asl = run_once(&topo, &LockSpec::asl(None), mix, &dist);
            println!(
                "{:<10} {:<9} {:<12} {:>12.0} {:>12.0}",
                mix_name, dist_name, "", mcs, asl
            );
        }
    }
    println!("\nZipfian skew concentrates slot-lock traffic on a few hash slots. Each cell");
    println!("is one deterministic schedule of constant-length sections, and such schedules");
    println!("can phase-lock: a gap between the two locks in one cell is not a verdict.");
}

/// Operations per virtual second of `mix` over `dist` against a fresh
/// Kyoto-like engine whose slot locks are `spec`.
fn run_once(topo: &Topology, spec: &LockSpec, mix: Mix, dist: &KeyDist) -> f64 {
    let db = Kyoto::with_default_size(spec);

    // Preload half the key space so reads hit.
    for k in 0..KEYSPACE / 2 {
        db.put(k * 2, value_for(k * 2));
    }

    let cfg = RunConfig {
        topology: topo.clone(),
        threads: topo.len(),
        duration_ns: 2_000_000,
        warmup_ns: 500_000,
    };
    let r = run_timed_with_setup(
        &cfg,
        |w| SmallRng::seed_from_u64(0xC0FFEE + w as u64),
        |_, rng| {
            let key = dist.sample(rng);
            match mix.sample(rng) {
                Op::Read => {
                    let _ = db.get(key);
                }
                Op::Update => db.put(key, value_for(key)),
            }
            0
        },
    );
    r.throughput
}
