//! Cross-cutting delegation semantics: every member of the family
//! (FlatCombiner, CcSynch, RclLock, FcBan, and the unnamed fourth
//! combination of the slot engine's axes) must survive a panicking
//! op without wedging, execute each thread's ops once and in its own
//! submission order, report slot exhaustion as a clean error, and —
//! for the usage-fair combiner — actually suppress a hog's ops share
//! relative to CC-Synch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use asl_locks::ccsynch::CcSynch;
use asl_locks::delegation::{
    DelegationHandle, DelegationLock, SlotLock, SlotsExhausted, MAX_SLOTS,
};
use asl_locks::fcban::FcBan;
use asl_locks::flatcomb::FlatCombiner;
use asl_locks::rcl::RclLock;
use asl_runtime::clock::busy_wait_ns;

const WORKERS: usize = 4;

/// The hog-share duel compares op counts of spinning threads, so it
/// needs the CPUs to itself: it holds this for writing, the contract
/// checks (which spin four workers each) for reading.
static HOST: RwLock<()> = RwLock::new(());

/// Protected state of the contract checks.
#[derive(Default)]
struct State {
    total: u64,
    executed: [u64; WORKERS],
}

/// Op language of the contract checks.
enum Op {
    /// Add to the counter; returns the new total.
    Add(u64),
    /// Panic on the executor.
    Poison,
    /// Count one op of `worker`; returns how many of its ops have
    /// executed so far.
    Mine(usize),
}

fn apply(state: &mut State, op: Op) -> u64 {
    match op {
        Op::Add(n) => {
            state.total += n;
            state.total
        }
        Op::Poison => panic!("poisoned op"),
        Op::Mine(worker) => {
            state.executed[worker] += 1;
            state.executed[worker]
        }
    }
}

/// The contract every delegation structure upholds, checked on the
/// one `make` builds (with whatever keeps it served — an RCL server
/// guard — as the second value; each check gets a fresh instance).
fn upholds_the_family_contract<L, G>(name: &str, make: impl Fn() -> (L, G))
where
    L: DelegationLock<Op = Op, Out = u64>,
{
    let _sharing_the_host = HOST.read().unwrap_or_else(PoisonError::into_inner);

    // Panic isolation: thread A's poisoned op panics *at A's call
    // site*, and afterwards both A and a fresh thread B still
    // complete ops (the executor isn't wedged).
    {
        let (lock, _serving) = make();
        let ha = lock.try_register().expect("slot");
        let hb = lock.try_register().expect("slot");
        assert_eq!(ha.apply(Op::Add(5)), 5, "{name}: pre-panic op");
        let boom = catch_unwind(AssertUnwindSafe(|| ha.apply(Op::Poison)));
        assert!(boom.is_err(), "{name}: poisoned op must panic");
        assert_eq!(ha.apply(Op::Add(7)), 12, "{name}: same handle after panic");
        let t = std::thread::spawn(move || hb.apply(Op::Add(8)));
        let after = t.join().expect("worker");
        assert_eq!(after, 20, "{name}: other thread after panic");
    }

    // Per-thread order: whoever ends up executing, a thread's n-th op
    // is the n-th of its ops to execute — none lost, duplicated or
    // overtaken by its own successor.
    {
        const OPS: u64 = 500;
        let (lock, _serving) = make();
        let joins: Vec<_> = (0..WORKERS)
            .map(|w| {
                let h = lock.try_register().expect("slot");
                let name = name.to_string();
                std::thread::spawn(move || {
                    for nth in 1..=OPS {
                        assert_eq!(h.apply(Op::Mine(w)), nth, "{name}: worker {w} op order");
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().expect("worker");
        }
    }

    // Slot exhaustion: exactly MAX_SLOTS handles can be claimed, the
    // last one works, one more is a clean typed error that keeps
    // erroring, and existing handles are unaffected.
    {
        let (lock, _serving) = make();
        let handles: Vec<_> = (0..MAX_SLOTS)
            .map(|_| lock.try_register().expect("slot"))
            .collect();
        assert_eq!(handles[MAX_SLOTS - 1].apply(Op::Add(3)), 3, "{name}");
        for _ in 0..2 {
            assert_eq!(
                lock.try_register().err(),
                Some(SlotsExhausted { limit: MAX_SLOTS }),
                "{name}"
            );
        }
        assert_eq!(handles[0].apply(Op::Add(4)), 7, "{name}");
    }
}

#[test]
fn flatcomb_upholds_the_family_contract() {
    upholds_the_family_contract("flatcomb", || {
        (FlatCombiner::new(State::default(), apply), ())
    });
}

#[test]
fn ccsynch_upholds_the_family_contract() {
    upholds_the_family_contract("ccsynch", || (CcSynch::new(State::default(), apply), ()));
}

#[test]
fn rcl_upholds_the_family_contract() {
    upholds_the_family_contract("rcl", || {
        let lock = RclLock::new(State::default(), apply);
        let server = lock.start();
        (lock, server)
    });
}

#[test]
fn banned_server_upholds_the_family_contract() {
    // The combination no alias names: the engine's axes are type
    // parameters, so it costs nothing to build — and must hold too.
    upholds_the_family_contract("rcl+ban", || {
        let lock = SlotLock::<_, _, _, _, true, true>::new(State::default(), apply);
        let server = lock.start();
        (lock, server)
    });
}

#[test]
fn fcban_upholds_the_family_contract() {
    upholds_the_family_contract("fc-ban", || (FcBan::new(State::default(), apply), ()));
}

/// Skewed-hold-time duel: worker 0's critical sections are 10× longer
/// (emulated via `busy_wait_ns` inside the op). Returns each worker's
/// share of completed ops.
fn hog_shares<H>(handles: Vec<H>, hog_ns: u64, base_ns: u64, window: Duration) -> Vec<f64>
where
    H: DelegationHandle<Op = u64, Out = ()> + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let joins: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(w, h)| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let ns = if w == 0 { hog_ns } else { base_ns };
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.apply(ns);
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let counts: Vec<u64> = joins
        .into_iter()
        .map(|j| j.join().expect("worker"))
        .collect();
    let total: u64 = counts.iter().sum::<u64>().max(1);
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

fn wait_apply() -> impl Fn(&mut (), u64) + Send + Sync + 'static {
    |_, ns| busy_wait_ns(ns)
}

/// The banning combiner must cut the hog's ops share well below what
/// CC-Synch (no usage accounting) gives it: the hog burns 10× the
/// lock time per op, so usage-fairness delays its re-entry while
/// CC-Synch admits it every round.
#[test]
fn fcban_suppresses_hog_share_vs_ccsynch() {
    const THREADS: usize = 4;
    const HOG_NS: u64 = 500_000;
    const BASE_NS: u64 = 20_000;
    let window = Duration::from_millis(250);
    let _alone_on_the_host = HOST.write().unwrap_or_else(PoisonError::into_inner);

    let cc = CcSynch::new((), wait_apply());
    let cc_handles: Vec<_> = (0..THREADS).map(|_| cc.register()).collect();
    let cc_shares = hog_shares(cc_handles, HOG_NS, BASE_NS, window);

    // Zero slack so the first overdrawn pass already bans.
    let fb = FcBan::with_slack((), wait_apply(), 0);
    let fb_handles: Vec<_> = (0..THREADS).map(|_| fb.register()).collect();
    let fb_shares = hog_shares(fb_handles, HOG_NS, BASE_NS, window);

    let (cc_hog, fb_hog) = (cc_shares[0], fb_shares[0]);
    // CC-Synch's round-robin combining hands the hog a near-even op
    // share despite its 10x usage; the ban must at least halve it.
    assert!(
        cc_hog > 0.10,
        "ccsynch hog share unexpectedly low: {cc_shares:?}"
    );
    assert!(
        fb_hog < cc_hog * 0.5,
        "fc-ban failed to suppress the hog: ccsynch={cc_shares:?} fc-ban={fb_shares:?}"
    );
    // The peers must actually pick up the reclaimed ops.
    let fb_peer_min = fb_shares[1..].iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        fb_peer_min > fb_hog,
        "peers should out-complete the banned hog: {fb_shares:?}"
    );
}
