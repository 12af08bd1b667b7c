//! A virtual thread that panics does not hang the machine.
//!
//! An unwinding vthread that kept the engine's baton would leave every
//! other vthread waiting for it forever, at 0 % CPU. The engine hands
//! the baton on, lets the others run to their end and rethrows the
//! payload from `run_threads`.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicU64, Ordering};

use asl_runtime::work::execute_units;
use asl_runtime::Topology;
use asl_sim::exec::{run_threads, ZooConfig};

#[test]
fn a_panicking_body_reaches_the_caller() {
    const OPS: u64 = 16;
    let cfg = ZooConfig::quick(Topology::apple_m1(), 4, 42);
    let done = AtomicU64::new(0);
    let caught = catch_unwind(|| {
        run_threads(&cfg, |tid| {
            for op in 0..OPS {
                assert!(tid != 0 || op != 3, "vthread 0 fails its 4th op");
                execute_units(1_000);
                done.fetch_add(1, Ordering::Relaxed);
            }
        })
    });
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"vthread 0 fails its 4th op")
    );
    // The other three ran to their end; vthread 0 stopped after three.
    assert_eq!(done.into_inner(), 3 * OPS + 3);
}
