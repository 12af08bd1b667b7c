//! The paper's SLO profiling tool (§3.1).
//!
//! "For applications without clear SLOs, LibASL provides a profiling
//! tool that generates a latency-throughput graph to help choose
//! suitable SLOs." This example profiles the Bench-1 micro-workload
//! across an SLO range, prints the curve, and recommends a setting.
//!
//! Run with: `cargo run --release --example profiling_tool`

use libasl::core::profile::{
    profile_slo_range, recommend_slo, render_table, slo_steps, ProfileSample,
};
use libasl::harness::figures::{run_micro, Profile};
use libasl::harness::locks::LockSpec;
use libasl::harness::scenario::MicroScenario;
use libasl::locks::telemetry;

fn main() {
    let profile = Profile::quick();

    // Record per-lock telemetry for every lock the registry builds:
    // each profile point carries the shared TelemetrySnapshot, so the
    // curve shows *why* each SLO lands where it does (contention).
    telemetry::set_profiling(true);

    // Anchor the range on the FIFO tail (below it, SLOs are
    // infeasible and LibASL just behaves like MCS).
    let mcs = run_micro(&profile, &MicroScenario::bench1(&LockSpec::Mcs), 8);
    let anchor = mcs.overall.percentile(99.0).max(1_000);
    println!("clock: virtual time on the simulator, 8 threads on a modeled M1\n");
    println!(
        "baseline MCS: {:.0} ops/s, P99 {:.1} us",
        mcs.throughput,
        anchor as f64 / 1_000.0
    );

    let range = slo_steps(anchor / 2, anchor * 6, 8);
    println!("\nprofiling {} SLO settings...\n", range.len());

    let points = profile_slo_range(range, |slo_ns| {
        telemetry::clear_registered();
        let scenario = MicroScenario::bench1(&LockSpec::asl(Some(slo_ns)));
        let r = run_micro(&profile, &scenario, 8);
        // Aggregate this point's per-lock telemetry into one sample.
        let telemetry = r.telemetry.iter().fold(
            Default::default(),
            |acc: libasl::locks::TelemetrySnapshot, (_, s)| acc.merged(s),
        );
        ProfileSample {
            throughput: r.throughput,
            p99_ns: r.overall.percentile(99.0),
            telemetry,
        }
    });

    println!("{}", render_table(&points));

    match recommend_slo(&points, 1.10) {
        Some(p) => println!(
            "recommended SLO: {:.0} us ({:.0} ops/s at P99 {:.1} us)",
            p.slo_ns as f64 / 1_000.0,
            p.throughput,
            p.p99_ns as f64 / 1_000.0
        ),
        None => println!("no profiled SLO kept its own tail-latency target"),
    }
}
