//! Cross-cutting delegation semantics: every member of the family
//! (FlatCombiner, CcSynch, RclLock, FcBan, and the unnamed fourth
//! combination of the slot engine's axes) must survive a panicking
//! op without wedging, execute each thread's ops once and in its own
//! submission order, and report slot exhaustion as a clean error.
//! (That the usage-fair combiner suppresses a hog's share relative to
//! CC-Synch is exact in virtual time:
//! `crates/harness/tests/delegation_hog.rs`.)

use std::panic::{catch_unwind, AssertUnwindSafe};

use asl_locks::ccsynch::CcSynch;
use asl_locks::delegation::{
    DelegationHandle, DelegationLock, SlotLock, SlotsExhausted, MAX_SLOTS,
};
use asl_locks::fcban::FcBan;
use asl_locks::flatcomb::FlatCombiner;
use asl_locks::rcl::RclLock;

const WORKERS: usize = 4;

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
