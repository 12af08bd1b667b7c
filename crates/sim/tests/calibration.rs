//! The work-unit calibration measures the host, whoever asks first.
//!
//! `units_per_us()` is measured once per process and cached. If it
//! timed its blocks through the substrate, a simulated thread that
//! called it first would charge millions of work units to its virtual
//! clock and cache the simulator's exchange rate (one unit per virtual
//! ns, 1 000 units/µs) for every host measurement after it. This binary
//! holds a single test so that its call is the process's first.

use std::sync::Mutex;

use asl_runtime::clock::now_ns;
use asl_runtime::work::units_per_us;
use asl_runtime::Topology;
use asl_sim::exec::{run_threads, ZooConfig};

#[test]
fn a_simulated_first_caller_calibrates_the_host_and_charges_no_virtual_time() {
    // (gap between two back-to-back clock reads, gap across the call,
    // the calibration), recorded inside and asserted after the machine
    // has stopped: a vthread that panics strands the simulator.
    let seen = Mutex::new(None);
    run_threads(&ZooConfig::quick(Topology::symmetric(1), 1, 7), |_| {
        let a = now_ns();
        let b = now_ns();
        let per_us = units_per_us();
        let c = now_ns();
        *seen.lock().unwrap() = Some((b - a, c - b, per_us));
    });
    let (read_gap, call_gap, per_us) = seen.into_inner().unwrap().expect("the vthread ran");
    assert_eq!(
        call_gap, read_gap,
        "virtual ns between two clock reads {read_gap}, across the calibration {call_gap}"
    );
    assert!(per_us > 0.0 && per_us.is_finite());
    assert_eq!(
        per_us,
        units_per_us(),
        "a host thread reads the same cached value"
    );
}
