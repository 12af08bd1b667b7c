//! The usage-fair combiner suppresses a hog, exactly: the skewed
//! hold-time duel between the `ccsynch` and `fc-ban` rows, run in
//! virtual time on a modeled 4-core machine where every op count is a
//! pure function of the seed (on the OS a 2-CPU host decided it).

use std::sync::Mutex;

use asl_harness::locks::{Caps, LockSpec};
use asl_locks::delegation::{DelegationHandle, DelegationLock};
use asl_locks::{CcSynch, FcBan};
use asl_runtime::clock::{busy_wait_ns, now_ns};
use asl_runtime::Topology;
use asl_sim::exec::{run_threads, ZooConfig};

const WORKERS: usize = 4;
/// Worker 0, the hog, holds 25× longer than its peers.
const HOG_NS: u64 = 50_000;
const BASE_NS: u64 = 2_000;
const WINDOW_NS: u64 = 2_000_000;

/// Ops each worker completed in the window, worker 0 being the hog.
/// The registry builds these rows behind the baton bridge, where a
/// usage policy meters two transfers and nothing worth banning, so the
/// duel drives the structure the row names through `apply`. Handles
/// are claimed in worker order: a slot's place in the scan decides how
/// soon its owner is served again.
fn duel<L>(row: &str, lock: L, seed: u64) -> [u64; WORKERS]
where
    L: DelegationLock<Op = u64, Out = ()>,
{
    let spec: LockSpec = row.parse().expect("a registry row");
    assert!(spec.caps().has(Caps::DELEGATION), "{row}");
    let handles: Vec<_> = (0..WORKERS)
        .map(|_| Mutex::new(lock.try_register().ok()))
        .collect();
    let ops = Mutex::new([0; WORKERS]);
    let cfg = ZooConfig::quick(Topology::custom(WORKERS, 0, 1.0), WORKERS, seed);
    run_threads(&cfg, |w| {
        let handle = handles[w].lock().unwrap().take().expect("a free slot");
        let hold_ns = if w == 0 { HOG_NS } else { BASE_NS };
        let mut done = 0;
        while now_ns() < WINDOW_NS {
            handle.apply(hold_ns);
            done += 1;
        }
        ops.lock().unwrap()[w] = done;
    });
    ops.into_inner().unwrap()
}

#[test]
fn fcban_suppresses_hog_share_vs_ccsynch() {
    let wait = |_: &mut (), ns: u64| busy_wait_ns(ns);
    let cc = duel("ccsynch", CcSynch::new((), wait), 7);
    // Zero slack so the first overdrawn pass already bans.
    let fb = duel("fc-ban", FcBan::with_slack((), wait, 0), 7);
    let replay = duel("fc-ban", FcBan::with_slack((), wait, 0), 7);
    assert_eq!(fb, replay, "a pure function of the seed");

    // CC-Synch's round-robin combining hands the hog an even op share
    // despite its 25x usage; the ban must at least halve it, and the
    // peers must pick up the reclaimed ops. Integer cross-products:
    // no tolerance, no rounding.
    let (cc_total, fb_total): (u64, u64) = (cc.iter().sum(), fb.iter().sum());
    assert!(cc[0] * 10 > cc_total, "ccsynch hog share: {cc:?}");
    assert!(
        fb[0] * cc_total * 2 < cc[0] * fb_total,
        "fc-ban failed to suppress the hog: ccsynch={cc:?} fc-ban={fb:?}"
    );
    let peer_min = fb[1..].iter().min().expect("peers");
    assert!(
        *peer_min > fb[0],
        "peers out-complete the banned hog: {fb:?}"
    );
}
