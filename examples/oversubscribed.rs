//! Bench-6 in miniature: blocking LibASL under core over-subscription.
//!
//! Sixteen threads on eight modeled cores, in virtual time (the
//! simulator schedules them with quanta). Spinning wastes the CPU
//! the lock holder needs, so this configuration swaps the MCS lock
//! for a futex-based mutex and the spinning standby wait for
//! `nanosleep` back-off — the paper's blocking LibASL. Compare it
//! against the plain pthread-style mutex and the spin-then-park MCS.
//!
//! Run with: `cargo run --release --example oversubscribed`

use libasl::harness::figures::{run_micro, Profile};
use libasl::harness::locks::LockSpec;
use libasl::harness::scenario::MicroScenario;

fn main() {
    let profile = Profile::quick();
    let threads = 16; // 2x over-subscription of the 8-core topology

    println!("Bench-1 workload, {threads} threads on 8 modeled cores (virtual time)\n");
    println!(
        "{:<18} {:>12} {:>14} {:>14}",
        "lock", "ops/s", "overall P99 us", "little P99 us"
    );

    // Anchor SLOs on the blocking mutex tail.
    let pthread = run_micro(
        &profile,
        &MicroScenario::bench1(&LockSpec::Pthread),
        threads,
    );
    let anchor = pthread.overall.percentile(99.0).max(1_000);
    print_row("pthread", &pthread);

    let stp = run_micro(&profile, &MicroScenario::bench1(&LockSpec::McsStp), threads);
    print_row("mcs-stp", &stp);

    for (label, slo) in [
        ("libasl-blk (0)", Some(0u64)),
        ("libasl-blk (1x)", Some(anchor)),
        ("libasl-blk (2x)", Some(anchor * 2)),
        ("libasl-blk (max)", None),
    ] {
        let r = run_micro(
            &profile,
            &MicroScenario::bench1(&LockSpec::AslBlocking { slo_ns: slo }),
            threads,
        );
        print_row(label, &r);
    }

    println!("\nexpected shape (paper Fig. 8h): FIFO + parking (mcs-stp) collapses —");
    println!("every handover pays a wake-up; blocking LibASL beats pthread as the SLO loosens.");
}

fn print_row(label: &str, r: &libasl::harness::runner::RunResult) {
    println!(
        "{:<18} {:>12.0} {:>14.1} {:>14.1}",
        label,
        r.throughput,
        r.overall.percentile(99.0) as f64 / 1_000.0,
        r.little.percentile(99.0) as f64 / 1_000.0
    );
}
