//! A latency-critical KV "server" (the paper's Figure 6 usage model).
//!
//! The Kyoto-Cabinet-like engine from `asl-dbsim` handles a 50/50
//! put/get request mix on a modeled M1, in virtual time (5 ms after
//! a 1 ms warm-up, on the simulator). Each request handler is
//! wrapped in an epoch with an SLO — the only integration work LibASL
//! asks of an application. The example runs the same workload under
//! MCS and under LibASL at two SLOs, printing the familiar
//! throughput-vs-tail-latency trade.
//!
//! A second phase serves the *same policy lineup* through the async
//! path: the sharded KV store from `asl_dbsim::kv`, one async task per
//! simulated client, under open-loop Poisson traffic — thread-per-core
//! epochs and task-per-connection shard locks side by side.
//!
//! Run with: `cargo run --release --example kv_slo_server`

use std::sync::Arc;

use libasl::dbsim::kv::{KvConfig, ShardedKv};
use libasl::dbsim::kyoto::Kyoto;
use libasl::dbsim::openloop::{run_open_loop, OpenLoopConfig};
use libasl::dbsim::Engine;
use libasl::harness::locks::LockSpec;
use libasl::harness::runner::{run_timed_with_setup, RunConfig};
use libasl::harness::Hist;
use libasl::runtime::Topology;

fn serve(spec: &LockSpec) -> (f64, f64, f64) {
    let engine = Arc::new(Kyoto::with_default_size(spec));
    let cfg = RunConfig {
        topology: Topology::apple_m1(),
        threads: 8,
        duration_ns: 5_000_000,
        warmup_ns: 1_000_000,
    };
    let slo = spec.epoch_slo();
    let engine2 = engine.clone();
    let r = run_timed_with_setup(
        &cfg,
        libasl::harness::scenario::worker_rng,
        move |_, rng| {
            let mut run = || engine2.run_request(rng);
            match slo {
                // The paper's integration: 2 lines around the handler.
                Some(slo) => libasl::epoch::with_epoch_timed(0, slo, run).1,
                None => {
                    let t0 = libasl::runtime::clock::now_ns();
                    run();
                    libasl::runtime::clock::now_ns() - t0
                }
            }
        },
    );
    (
        r.throughput,
        r.overall.p99() as f64 / 1_000.0,
        r.little.p99() as f64 / 1_000.0,
    )
}

fn main() {
    println!("kyoto-like KV store, 8 threads on a modeled M1 (50% put / 50% get, virtual time)\n");
    println!(
        "{:<16} {:>14} {:>16} {:>16}",
        "lock", "ops/s", "overall P99 (us)", "little P99 (us)"
    );

    // Baseline: FIFO MCS.
    let (thpt, p99, lp99) = serve(&LockSpec::Mcs);
    println!("{:<16} {:>14.0} {:>16.1} {:>16.1}", "mcs", thpt, p99, lp99);
    let anchor = (p99 * 1_000.0) as u64;

    // LibASL at a tight and a loose SLO (anchored on the MCS tail).
    for (label, slo) in [
        ("libasl (tight)", anchor * 3 / 2),
        ("libasl (loose)", anchor * 4),
    ] {
        let (thpt, p99, lp99) = serve(&LockSpec::asl(Some(slo)));
        println!(
            "{:<16} {:>14.0} {:>16.1} {:>16.1}   (SLO {} us)",
            label,
            thpt,
            p99,
            lp99,
            slo / 1_000
        );
    }

    // LibASL-MAX: throughput first, latency unconstrained.
    let (thpt, p99, lp99) = serve(&LockSpec::asl(None));
    println!(
        "{:<16} {:>14.0} {:>16.1} {:>16.1}",
        "libasl-max", thpt, p99, lp99
    );

    println!("\nexpected shape: LibASL trades little-core tail latency (up to its SLO)");
    println!("for throughput; the loose SLO should approach libasl-max throughput.");

    // ---- Async path: the same policies as shard locks of an
    // open-loop KV service (task-per-connection serving model).
    println!(
        "\nasync sharded KV service, 50k simulated clients at 250k req/s (4 shards, 4 workers)\n"
    );
    println!(
        "{:<16} {:>14} {:>12} {:>12}",
        "shard lock", "ops/s", "P99 (us)", "P99.9 (us)"
    );
    for (label, spec) in [
        ("mcs (fifo)", LockSpec::Mcs),
        ("libasl-100us", LockSpec::asl(Some(100_000))),
        ("libasl-max", LockSpec::asl(None)),
    ] {
        let (thpt, p99, p999) = serve_async(&spec);
        println!("{label:<16} {thpt:>14.0} {p99:>12.1} {p999:>12.1}");
    }

    println!("\nexpected shape: deadline-ordered wake-ups (libasl-*) cut the p99.9 that");
    println!("FIFO poll-order handoff leaves on the table; latency counts from each");
    println!("request's scheduled arrival, so nothing hides behind a slow generator.");
}

/// Serve the open-loop KV workload with `spec`'s policy on every
/// shard lock; returns (ops/s, p99 µs, p99.9 µs).
fn serve_async(spec: &LockSpec) -> (f64, f64, f64) {
    let kv = Arc::new(ShardedKv::new(KvConfig {
        shards: 4,
        policy: spec.async_policy(),
        cs_units: libasl::runtime::work::units_for_ns(1_500),
        ..KvConfig::default()
    }));
    kv.prefill(1);
    let report = run_open_loop(
        kv,
        &OpenLoopConfig {
            clients: 50_000,
            rate_per_sec: 250_000.0,
            slo_ns: Some(100_000),
            workers: 4,
            ..OpenLoopConfig::default()
        },
    );
    let mut hist = Hist::new();
    for &l in &report.latencies_ns {
        hist.record(l);
    }
    (
        report.throughput,
        hist.p99() as f64 / 1_000.0,
        hist.p999() as f64 / 1_000.0,
    )
}
