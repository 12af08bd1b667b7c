//! `QueueLock`'s lock word, on the simulated machine, under every head
//! policy (`mcs`, `cna`, `malthusian`, `shfl-local16`).
//!
//! The queue is where threads wait for the word, and four paths exist
//! only because of that split: a *head* whose timed wait expires hands
//! headship on without the word; a waiter that abandons mid-queue is
//! adopted by whichever head passes headship over it; a waiter that
//! abandons while a policy holds it out of the queue is adopted when
//! the stash goes back; an arrival that finds the word free but
//! somebody queued must queue too. Each runs here as a script in
//! virtual time — fixed arrival times, strict virtual-time order (no
//! reschedule slack), one thread a core — with a mutual-exclusion
//! oracle around every hold and the grant order asserted exactly.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use asl_locks::shuffle::ClassLocalPolicy;
use asl_locks::{CnaLock, MalthusianLock, McsLock, RawTimedLock, ShuffleLock};
use asl_runtime::clock::{busy_wait_ns, now_ns};
use asl_runtime::Topology;
use asl_sim::exec::{run_threads, ZooConfig};

/// A counter bumped with a read, a yield point and a write: two
/// holders at once lose an update.
struct RacyCounter(UnsafeCell<u64>);
unsafe impl Sync for RacyCounter {}

/// One lock and what its script observed. A virtual thread that
/// panics while it holds the lock leaves the others spinning on it, so
/// scripts *note* and the test asserts once the machine has stopped.
struct Stage<L: RawTimedLock> {
    lock: L,
    inside: AtomicBool,
    overlaps: AtomicU64,
    holds: RacyCounter,
    /// Thread per hold, in grant order.
    grants: Mutex<Vec<usize>>,
    /// `(thread, what, virtual ns or 0/1)`.
    notes: Mutex<Vec<(usize, &'static str, u64)>>,
}

impl<L: RawTimedLock> Stage<L> {
    fn new(lock: L) -> Self {
        Stage {
            lock,
            inside: AtomicBool::new(false),
            overlaps: AtomicU64::new(0),
            holds: RacyCounter(UnsafeCell::new(0)),
            grants: Mutex::new(Vec::new()),
            notes: Mutex::new(Vec::new()),
        }
    }

    fn note(&self, tid: usize, what: &'static str, value: u64) {
        self.notes.lock().unwrap().push((tid, what, value));
    }

    fn noted(&self, tid: usize, what: &str) -> u64 {
        let notes = self.notes.lock().unwrap();
        let found = notes.iter().find(|n| n.0 == tid && n.1 == what);
        found
            .unwrap_or_else(|| panic!("thread {tid} noted no {what}"))
            .2
    }

    /// The critical section of `tid`, `ns` long; the caller holds the
    /// lock. Notes when it `began`.
    fn hold(&self, tid: usize, ns: u64) {
        let overlap = self.inside.swap(true, Ordering::Acquire);
        self.overlaps
            .fetch_add(u64::from(overlap), Ordering::Relaxed);
        self.note(tid, "began", now_ns());
        self.grants.lock().unwrap().push(tid);
        // SAFETY: exclusive while the lock under test excludes.
        let seen = unsafe { *self.holds.0.get() };
        busy_wait_ns(ns);
        unsafe { *self.holds.0.get() = seen + 1 };
        self.inside.store(false, Ordering::Release);
    }

    fn lock_hold_unlock(&self, tid: usize, ns: u64) {
        let token = self.lock.lock();
        self.hold(tid, ns);
        self.lock.unlock(token);
    }

    /// `try_lock_for(timeout)` against a lock the script keeps held:
    /// notes whether it `timed_out` and when it `returned`.
    fn timed_attempt(&self, tid: usize, timeout_ns: u64) {
        let got = self.lock.try_lock_for(timeout_ns);
        self.note(tid, "timed_out", u64::from(got.is_none()));
        self.note(tid, "returned", now_ns());
        if let Some(token) = got {
            self.lock.unlock(token);
        }
    }

    /// Grant order, after checking that holds excluded each other and
    /// nothing is left behind: the word free, the queue closed.
    fn grant_order(&self) -> Vec<usize> {
        let grants = self.grants.lock().unwrap().clone();
        assert_eq!(self.overlaps.load(Ordering::Relaxed), 0, "two holders");
        // SAFETY: the machine has stopped.
        assert_eq!(
            unsafe { *self.holds.0.get() },
            grants.len() as u64,
            "lost hold"
        );
        assert!(!self.lock.is_locked(), "residue: word taken or queue open");
        let token = self.lock.try_lock().expect("a free lock's fast path");
        self.lock.unlock(token);
        grants
    }
}

/// A failing script names the policy it ran under.
impl<L: RawTimedLock> Drop for Stage<L> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("under {}", L::NAME);
        }
    }
}

/// Run each script once per head policy: `$script(make)` for a
/// constructor of each.
macro_rules! every_policy {
    ($script:ident) => {
        $script(McsLock::new);
        $script(CnaLock::new);
        $script(MalthusianLock::new);
        $script(|| ShuffleLock::new(ClassLocalPolicy::new(16)));
    };
}

/// `threads` virtual threads, each on a core of its own, started
/// within 64 ns of zero and stepped in strict virtual-time order.
fn script(threads: usize, seed: u64, body: impl Fn(usize) + Send + Sync) {
    script_on(Topology::symmetric(threads), seed, body);
}

/// [`script`] on `topology`, one thread a core.
fn script_on(topology: Topology, seed: u64, body: impl Fn(usize) + Send + Sync) {
    let threads = topology.len();
    let mut cfg = ZooConfig::quick(topology, threads, seed);
    cfg.ncs_units = 0;
    cfg.cost.resched_slack_ns = 0;
    // No charge for a core's first thread: script times are literal.
    cfg.cost.switch_ns = 0;
    run_threads(&cfg, body);
}

#[test]
fn a_head_past_its_deadline_hands_headship_on_without_the_word() {
    every_policy!(head_past_its_deadline);
}

fn head_past_its_deadline<L: RawTimedLock>(make: impl Fn() -> L) {
    for seed in [1, 2, 3] {
        let stage = Stage::new(make());
        script(3, seed, |tid| match tid {
            0 => stage.lock_hold_unlock(0, 10_000),
            // The word is taken and nobody queued: the queue's head
            // from its first instant, and still head at its deadline.
            1 => {
                busy_wait_ns(1_000);
                stage.timed_attempt(1, 3_000);
            }
            // Queues behind that head and inherits the headship.
            _ => {
                busy_wait_ns(2_000);
                stage.lock_hold_unlock(2, 1_000);
            }
        });
        assert_eq!(stage.noted(1, "timed_out"), 1, "held throughout");
        let gave_up = stage.noted(1, "returned");
        assert!((4_000..4_200).contains(&gave_up), "gave up at {gave_up}");
        let (out, next_in) = (stage.noted(0, "began") + 10_000, stage.noted(2, "began"));
        assert!(
            (out..out + 50).contains(&next_in),
            "out {out}, in {next_in}"
        );
        assert_eq!(stage.grant_order(), [0, 2], "seed {seed}");
    }
}

#[test]
fn a_lone_head_past_its_deadline_closes_the_queue() {
    every_policy!(lone_head_past_its_deadline);
}

fn lone_head_past_its_deadline<L: RawTimedLock>(make: impl Fn() -> L) {
    let stage = Stage::new(make());
    script(2, 7, |tid| match tid {
        0 => stage.lock_hold_unlock(0, 10_000),
        _ => {
            busy_wait_ns(1_000);
            stage.timed_attempt(1, 3_000);
            // Out of the queue, so the release alone frees the lock:
            // a node left as tail would read "locked" for good.
            stage.note(1, "locked_while_held", u64::from(stage.lock.is_locked()));
            busy_wait_ns(10_000);
            stage.note(1, "locked_after", u64::from(stage.lock.is_locked()));
            stage.lock_hold_unlock(1, 1_000);
        }
    });
    assert_eq!(stage.noted(1, "timed_out"), 1);
    assert_eq!(stage.noted(1, "locked_while_held"), 1);
    assert_eq!(
        stage.noted(1, "locked_after"),
        0,
        "the head's node stayed queued"
    );
    assert_eq!(stage.grant_order(), [0, 1]);
}

#[test]
fn a_mid_queue_abandon_is_adopted_by_the_next_headship_pass() {
    every_policy!(mid_queue_abandon);
}

fn mid_queue_abandon<L: RawTimedLock>(make: impl Fn() -> L) {
    // `live_behind`: whether a live waiter stands behind the abandoned
    // node (headship skips to it) or nobody does (the adopter closes
    // the queue over the abandoned node).
    for live_behind in [false, true] {
        let stage = Stage::new(make());
        script(4, 11, |tid| match tid {
            0 => stage.lock_hold_unlock(0, 10_000),
            1 => {
                busy_wait_ns(1_000);
                stage.lock_hold_unlock(1, 2_000);
            }
            // Behind the head: abandons five virtual µs before the
            // head — thread 1, word in hand — passes headship.
            2 => {
                busy_wait_ns(2_000);
                stage.timed_attempt(2, 3_000);
            }
            _ if live_behind => {
                busy_wait_ns(3_000);
                stage.lock_hold_unlock(3, 1_000);
            }
            _ => {}
        });
        assert_eq!(stage.noted(2, "timed_out"), 1, "mid-queue");
        let gave_up = stage.noted(2, "returned");
        assert!((5_000..5_200).contains(&gave_up), "gave up at {gave_up}");
        let head_in = stage.noted(1, "began");
        assert!(head_in >= stage.noted(0, "began") + 10_000);
        if live_behind {
            let (out, next_in) = (head_in + 2_000, stage.noted(3, "began"));
            assert!(
                (out..out + 50).contains(&next_in),
                "out {out}, in {next_in}"
            );
            assert_eq!(stage.grant_order(), [0, 1, 3]);
        } else {
            assert_eq!(stage.grant_order(), [0, 1]);
        }
    }
}

/// A policy that takes a waiter out of the queue keeps it in a stash
/// the head passes on; a timed waiter that gives up there is adopted
/// when the stash goes back. Five big cores and one little: thread 2
/// becomes head at 10 µs with the little thread 5 and the big threads
/// 3 and 4 queued behind it, so CNA moves 5 to its secondary queue
/// (other class, a successor linked) and Malthusian culls it (two
/// waiters linked). Thread 5 gives up at 13 µs, stashed; at 13.5 µs
/// thread 4, the last one queued, takes the word and publishes the
/// stash as the queue — the grant CAS finds 5 abandoned, adopts it and
/// closes the queue. The contrast is `mcs`: there thread 5 is head when
/// thread 2 releases at 12.5 µs, and gets the word in time.
#[test]
fn a_stashed_abandon_is_adopted_when_the_stash_goes_back() {
    stashed_abandon(CnaLock::new(), true);
    stashed_abandon(MalthusianLock::new(), true);
    stashed_abandon(McsLock::new(), false);
}

fn stashed_abandon<L: RawTimedLock>(lock: L, stashes: bool) {
    let stage = Stage::new(lock);
    script_on(Topology::custom(5, 1, 1.0), 13, |tid| match tid {
        0 => stage.lock_hold_unlock(0, 10_000),
        1 => {
            busy_wait_ns(1_000);
            stage.lock_hold_unlock(1, 2_000);
        }
        2 => {
            busy_wait_ns(1_500);
            stage.lock_hold_unlock(2, 500);
        }
        3 | 4 => {
            busy_wait_ns(tid as u64 * 1_000);
            stage.lock_hold_unlock(tid, 1_000);
        }
        _ => {
            busy_wait_ns(2_000);
            stage.timed_attempt(5, 11_000);
        }
    });
    assert_eq!(stage.noted(5, "timed_out"), u64::from(stashes));
    if stashes {
        let gave_up = stage.noted(5, "returned");
        assert!((13_000..13_200).contains(&gave_up), "gave up at {gave_up}");
    }
    let (out, next_in) = (stage.noted(3, "began") + 1_000, stage.noted(4, "began"));
    assert!(
        (out..out + 50).contains(&next_in),
        "out {out}, in {next_in}"
    );
    assert_eq!(stage.grant_order(), [0, 1, 2, 3, 4]);
}

/// The release is a store, the head polls every 25 virtual ns: for up
/// to 25 ns the word reads free while the head has not taken it yet.
/// An arrival in that gap must queue behind the head — the fast path
/// is for an *empty* queue — or it would overtake a waiter that came
/// 8 µs earlier. The sweep lands an arrival on every nanosecond of
/// the 100 around the release, so some fall in the gap (asserted), and
/// every one of them is granted last.
#[test]
fn an_arrival_between_the_release_and_the_heads_poll_queues_behind_it() {
    every_policy!(arrival_in_the_gap);
}

fn arrival_in_the_gap<L: RawTimedLock>(make: impl Fn() -> L) {
    let mut in_the_gap = 0;
    let mut sweep = Vec::new();
    for step in 0..100u64 {
        let stage = Stage::new(make());
        script(3, 5, |tid| match tid {
            0 => {
                let token = stage.lock.lock();
                stage.hold(0, 10_000);
                // The read is the last yield point before the store.
                stage.note(0, "released", now_ns());
                stage.lock.unlock(token);
            }
            1 => {
                busy_wait_ns(2_000);
                stage.lock_hold_unlock(1, 2_000);
            }
            _ => {
                busy_wait_ns(9_970 + step);
                stage.note(2, "arrived", now_ns());
                stage.lock_hold_unlock(2, 1_000);
            }
        });
        let released = stage.noted(0, "released");
        let arrived = stage.noted(2, "arrived");
        // Noted one clock charge (8 ns) after the poll that took the
        // word.
        let head_in = stage.noted(1, "began");
        if released < arrived && arrived + 8 < head_in {
            in_the_gap += 1;
        }
        sweep.push((released, arrived, head_in));
        assert_eq!(stage.grant_order(), [0, 1, 2], "arrival at {arrived}");
    }
    assert!(in_the_gap >= 2, "no arrival in the gap: {sweep:?}");
}
