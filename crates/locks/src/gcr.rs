//! Generic concurrency restriction (GCR): an admission-control
//! wrapper that stops scalability collapse for *any* lock.
//!
//! When runnable threads far exceed cores, every spin-based lock in
//! the zoo collapses: waiters burn scheduler quanta, holders get
//! preempted mid-critical-section, and FIFO queues convoy behind
//! descheduled successors. Dice & Kogan's *Avoiding Scalability
//! Collapse by Restricting Concurrency* observes that the fix is
//! lock-agnostic: bound the number of threads allowed to *compete*
//! for the lock, and park the excess where they cost nothing.
//!
//! [`Gcr`] wraps any [`RawLock`] — a runtime-chosen one included:
//! the registry's `gcr-<name>` specs are `Gcr<DynLock>` over the
//! erased handle ([`crate::api::DynLock`]) — with an admission gate:
//!
//! * at most `K` threads are **admitted** — inside the wrapped lock's
//!   own waiter set or holding it;
//! * excess arrivals push onto a **passive LIFO** and park through
//!   [`asl_runtime::substrate::park_or`], so they are off the run
//!   queue on the OS and charged bounded virtual waits on the
//!   simulator — the same code runs unmodified in both worlds;
//! * long-term fairness comes from **periodic reintroduction**: every
//!   `reintroduce_period` handovers that happen while waiters are
//!   passive, the *oldest* passive waiter is force-admitted (the LIFO
//!   keeps recently-run, cache-warm threads circulating; the tail
//!   pull bounds starvation);
//! * an **adaptive controller** grows or shrinks `K` from
//!   [`TelemetryCell`] signals. Shrink on either collapse signature:
//!   windowed hold times inflating past the best observed window
//!   (by [`INFLATION_PCT`]%) while the contended streak spans it
//!   ([`SHRINK_STREAK`] acquisitions: holders being preempted),
//!   or windowed wait time exceeding 4x the windowed hold time
//!   (queueing — holds can stay perfectly clean while waits explode,
//!   e.g. behind a reordering lock). Grow, with waiters passive, when
//!   a window runs fully uncontended *or* when the wrapped lock was
//!   busy under [`GROW_UTIL_PCT`]% of the window's wall time and
//!   waits are still below holds — the gate is binding but the lock
//!   still has headroom. The wait/hold band (grow below 1x, shrink
//!   above 4x) is the hysteresis that keeps the two rules from
//!   fighting. An uncontended window with *nobody* passive switches
//!   the whole mechanism off (below).
//!
//! Admission accounting is per-acquisition: a slot is held from
//! `lock()` to `unlock()`, never across the caller's think time. A
//! release leaves *its own* freed slot alone — the bet is that the
//! releaser comes back after its think time and reclaims it with zero
//! park/unpark traffic, which is what keeps the restricted set
//! cache-warm and syscall-free. What a release does hand over is a
//! slot *somebody else* left behind: when [`SPARE_STREAK`] exits in a
//! row have each found, while still holding their own slot, the
//! admitted set under `K` and a waiter parked, the last of them wakes
//! the head of the LIFO (`Gate::exit`), which admits itself. The
//! streak is the grace that tells a thread that has gone from one that
//! is merely thinking. A thread that stops locking therefore strands
//! nobody for longer than that many more releases. The passive
//! waiters' own headroom check every [`PASSIVE_RESCUE_BOUND`] (a
//! bounded virtual-time charge on the simulator) is the backstop for
//! the one case with no releaser left to do it: every admitted thread
//! gone.
//!
//! # Disengaged until contended
//!
//! All of the above is machinery for a saturated lock, and an
//! adaptive `Gcr` charges nobody for it until there is one (Dice &
//! Kogan's GCR is likewise *disabled* until contention is seen; the
//! Fissile Locks rule — the uncontended path stays the bare lock). It
//! starts **disengaged**: `lock` / `try_lock` / `unlock` are the inner
//! lock's own plus one relaxed load of the gate's `engaged` flag, a
//! look at whether the inner lock is held (the contention signal) and
//! the holder-owned acquisition count — no RMW on the admitted count,
//! no peak, no clock read, no controller tick. Between the inner
//! lock's acquire and its release that leaves **one plain store** (the
//! count; the holder-owned mark below is only read) — what the
//! `gcr_mcs` rung of `host-acquire` pays over `dyn_mcs`, besides a
//! second erased call on each side and the look at the inner lock, see
//! "No store before the RMW" on [`TelemetryCell`]. An arrival that does
//! find the lock held counts itself among the uncounted waiters for
//! the length of its wait, and the one that makes [`ENGAGE_WAITERS`]
//! of them at once **engages** the gate before it queues (sizing a
//! default `K` to the machine *it* runs on — [`GcrConfig::default`] —
//! and having the next counted holder open a fresh controller window);
//! a whole controller window that ran uncontended with nobody passive
//! **disengages** it again. Waiters, not completed acquisitions, are
//! the signal because a herd arrives all at once: by the time a
//! contended *acquisition* or four had completed, 127 threads were
//! inside a ticket lock's queue, uncounted, and the 2-CPU host took a
//! `collapse` cell's whole run to serve them (`gcr-ticket` at 128
//! threads read 708 k, 166 k and 65 k ops/s in three runs against
//! 470–550 k engaged from the start). Two threads handing a lock back
//! and forth never have two waiters, and never engage a gate that
//! could only cost them. Threads of both kinds can be in flight across
//! a switch, so which way a holder came in travels with the lock, not
//! with the flag: a counted acquirer sets a holder-owned mark
//! (`TelemetryCell`'s holder-owned rule: written and read only between
//! the inner acquire and the inner release) that tells `unlock` to
//! give a slot back. An uncounted thread caught in flight by an
//! engagement is simply not in `active` — the admitted set overshoots
//! by the few that were already inside the inner lock, and that drains
//! within one pass of its queue.
//!
//! Disengaging is a Dekker pair with passive publishers: the holder
//! stores `engaged = false` and then re-reads the passive count
//! (re-engaging if it is not zero); a publisher bumps the passive
//! count and then re-reads `engaged` (retracting and taking the bare
//! path if it is off). Both are `SeqCst`, so a waiter can never park
//! behind a gate whose holders no longer call `Gate::exit`.
//!
//! [`GcrConfig::fixed`] asks for an exact peak bound, so a fixed
//! `Gcr` is engaged from construction and stays so; it runs no
//! controller.
//!
//! While engaged, the wrapper's own [`TelemetryCell`] samples hold and
//! wait times — the controller's feedback signal, two clock reads per
//! acquisition and two more around a contended inner wait. Disengaged,
//! it reads no clock.
//!
//! ```
//! use asl_locks::api::Guard;
//! use asl_locks::gcr::{Gcr, GcrConfig};
//! use asl_locks::TicketLock;
//!
//! // Admit at most 2 threads into the ticket queue; everyone else
//! // parks passively until a slot frees or reintroduction fires.
//! let lock = Gcr::with_config(TicketLock::new(), GcrConfig::fixed(2));
//! assert_eq!(lock.limit(), 2);
//! {
//!     let _held = Guard::new(&lock);
//! }
//! assert_eq!(lock.peak_active(), 1);
//! assert_eq!(lock.passive_len(), 0);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::thread::Thread;

use asl_runtime::clock::now_ns;

use crate::telemetry::{TelemetryCell, TelemetrySnapshot};
use crate::{RawLock, TasLock};

const WAITING: u32 = 0;
const GRANTED: u32 = 1;

/// Upper bound on how long a passive waiter sleeps between headroom
/// checks on the OS (the simulator's park charge bounds the same loop
/// in virtual time). A backstop: while anybody is still releasing, a
/// slot left behind is handed over within [`SPARE_STREAK`] releases
/// (`Gate::exit`), so this is the latency to claim one only when
/// every admitted thread has gone. Long enough that a full 128-thread
/// passive set costs well under 1% CPU in spurious wakes, short enough
/// that draining an abandoned gate is prompt.
pub const PASSIVE_RESCUE_BOUND: std::time::Duration = std::time::Duration::from_millis(50);

/// Consecutive exits that must each see a spare slot — the admitted
/// set, the exiting thread included, under the limit — with a waiter
/// parked before the last of them wakes that waiter (`Gate::exit`).
///
/// A slot is held per acquisition, so every thread of a saturated
/// restricted set leaves one "spare" for the length of its think time,
/// and waking a passive thread into *that* adds a runnable thread the
/// restriction exists to keep off the CPUs. Measured on the 2-CPU
/// reference host with the `collapse` cell (think = 2 × critical
/// section, `gcr-mcs`, 400 ms cells, median of 5 alternated runs; no
/// wake at all reads 638 k ops/s, p99 9.7 µs at 8 threads and 612 k,
/// 14.1 µs at 32): a streak of 2 costs 8 % / 6 % of the throughput and
/// triples p99 (31.7 / 34.8 µs), 4 costs 6 % / 10 % (20.0 / 26.1 µs),
/// 8 2 % / 4 % (13.3 / 16.9 µs), 16 and 32 nothing that shows. Sixteen
/// releases are microseconds to a millisecond of a lock anybody is
/// still using, against the 50 ms of [`PASSIVE_RESCUE_BOUND`]. The
/// streak discriminates less the larger `K` is (some other thread is
/// then nearly always thinking); thread-based admission accounting
/// would not need it.
pub const SPARE_STREAK: u32 = 16;

/// Threads waiting at once for the inner lock of a disengaged [`Gcr`]
/// at which the last to arrive engages it (module docs, "Disengaged
/// until contended"): one waiter is a hand-off, two are a queue.
pub const ENGAGE_WAITERS: u32 = 2;

/// How an arrival got past a [`Gate`] (or did not).
enum Entry {
    /// Holds an admission slot; `waited` is the gate's contention
    /// signal (it had to park for it).
    Counted { waited: bool },
    /// The gate is disengaged: go straight to the resource, uncounted.
    Bare,
    /// The deadline passed first; no slot, no passive node.
    TimedOut,
}

/// How a passive wait on the gate ended (see `Gate::wait_passive`).
enum PassiveWait {
    /// An admission slot was transferred to us by a waker.
    Granted,
    /// We delisted ourselves before parking (headroom appeared); no
    /// slot held — re-compete.
    Retracted,
    /// The deadline passed and we delisted ourselves; no slot held.
    TimedOut,
}

/// One parked passive waiter. Lives on the waiting thread's stack;
/// linked into the gate's LIFO under the list lock. Ownership hands
/// back to the waiter the instant `state` becomes [`GRANTED`] — a
/// granter must never touch the node after that store.
#[repr(align(128))]
struct PassiveNode {
    state: AtomicU32,
    thread: Thread,
    /// LIFO link; read and written only under the gate's list lock.
    next: Cell<*mut PassiveNode>,
}

/// The admission gate of a [`Gcr`]: bounds how many threads may
/// compete for the wrapped lock. Private to this module — [`Gcr`] is
/// the one way to put a gate in front of anything, so there is one
/// engage/disengage protocol and one place that pairs every counted
/// entry with a [`Gate::exit`].
///
/// Invariant (fixed limit `K`): successful admissions keep the active
/// count at most `K`, except a periodic forced reintroduction which
/// may overshoot to `K + 1`; [`Gate::peak_active`] observes the
/// maximum ever reached, so the bound is testable, not aspirational.
struct Gate {
    /// Threads currently admitted (between `enter` and `exit`).
    active: AtomicU32,
    /// The admission bound `K`.
    limit: AtomicU32,
    /// Highest `active` reached by a successful admission.
    peak: AtomicU32,
    /// Passive LIFO length (SeqCst: Dekker-paired with `active` so
    /// publish-then-check-active vs decrement-then-check-len can
    /// never both miss).
    passive_len: AtomicU32,
    /// Exits observed while passive waiters existed, since the last
    /// successful reintroduction.
    handovers: AtomicU32,
    /// Forced admissions performed (long-term fairness pulse).
    reintroduced: AtomicU64,
    reintroduce_period: u32,
    /// Whether arrivals are counted at all (see the module docs).
    /// `SeqCst` where it is Dekker-paired with `passive_len`, relaxed
    /// on the entry fast path.
    engaged: AtomicBool,
    /// Consecutive exits that found waiters passive *and* a slot
    /// besides their own free (see [`SPARE_STREAK`]). A hint — relaxed
    /// load and store, racy, and left as it is while nobody is passive
    /// — that can cost or save a little grace, never admit anybody
    /// over the limit.
    spare_streak: AtomicU32,
    /// Guards `head` and every node's `next` link.
    list_lock: TasLock,
    head: UnsafeCell<*mut PassiveNode>,
}

// Safety: `head` and all node links are accessed only under
// `list_lock`; nodes are handed between threads by the
// WAITING→GRANTED protocol (the granter clones the `Thread` handle
// and never touches the node after the Release store).
unsafe impl Send for Gate {}
unsafe impl Sync for Gate {}

impl Gate {
    /// Gate admitting at most `limit` threads, force-admitting the
    /// oldest passive waiter every `reintroduce_period` handovers. One
    /// that is not `engaged` counts nobody until [`Gate::engage`]; its
    /// `limit` may be 0, "not sized yet", to be set before that.
    fn build(limit: u32, reintroduce_period: u32, engaged: bool) -> Self {
        assert!(limit >= 1 || !engaged, "admission limit must be >= 1");
        assert!(reintroduce_period >= 1, "reintroduce period must be >= 1");
        Gate {
            active: AtomicU32::new(0),
            limit: AtomicU32::new(limit),
            peak: AtomicU32::new(0),
            passive_len: AtomicU32::new(0),
            handovers: AtomicU32::new(0),
            reintroduced: AtomicU64::new(0),
            reintroduce_period,
            engaged: AtomicBool::new(engaged),
            spare_streak: AtomicU32::new(0),
            list_lock: TasLock::new(),
            head: UnsafeCell::new(ptr::null_mut()),
        }
    }

    /// Whether arrivals are being counted (entry fast path: relaxed).
    #[inline]
    fn is_engaged(&self) -> bool {
        self.engaged.load(Ordering::Relaxed)
    }

    /// Start counting arrivals. Threads already past the gate stay
    /// uncounted until they leave.
    fn engage(&self) {
        self.engaged.store(true, Ordering::SeqCst);
    }

    /// Stop counting arrivals, unless somebody is (or is about to be)
    /// parked: the holders of a disengaged gate never call `exit`, so
    /// nobody would wake them. Dekker pair with the publish in
    /// `wait_passive` — store, then look; publish, then look. Returns
    /// whether the gate is now disengaged.
    fn disengage(&self) -> bool {
        self.engaged.store(false, Ordering::SeqCst);
        if self.passive_len.load(Ordering::SeqCst) != 0 {
            self.engaged.store(true, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// The current admission bound `K` (0: a gate not sized yet).
    #[inline]
    fn limit(&self) -> u32 {
        self.limit.load(Ordering::Relaxed)
    }

    /// Change the admission bound. Shrinking drains lazily (admitted
    /// threads are never evicted mid-flight); growing only takes
    /// effect for future admissions — call [`Gate::fill`] to wake
    /// passive waiters into the new headroom.
    fn set_limit(&self, limit: u32) {
        assert!(limit >= 1, "admission limit must be >= 1");
        self.limit.store(limit, Ordering::Relaxed);
    }

    /// Threads currently admitted.
    #[inline]
    fn active(&self) -> u32 {
        self.active.load(Ordering::Relaxed)
    }

    /// Passive (parked) waiters right now.
    #[inline]
    fn passive_len(&self) -> u32 {
        self.passive_len.load(Ordering::Relaxed)
    }

    /// Highest admitted-set size any successful admission produced.
    #[inline]
    fn peak_active(&self) -> u32 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Forced (reintroduction) admissions performed so far.
    #[inline]
    fn reintroduced(&self) -> u64 {
        self.reintroduced.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_peak(&self, n: u32) {
        // Load-before-RMW: the peak only ever rises, so an admission
        // that does not raise it (all but a handful) skips the RMW.
        if self.peak.load(Ordering::Relaxed) < n {
            self.peak.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// One CAS attempt loop below the limit. Every successful
    /// admission goes through a bounded compare-exchange (never a
    /// blind `fetch_add`), which is what makes the peak bound exact.
    fn try_enter(&self) -> bool {
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            let a = self.active.load(Ordering::Relaxed);
            if a >= self.limit.load(Ordering::Relaxed) {
                return false;
            }
            match self
                .active
                .compare_exchange_weak(a, a + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.note_peak(a + 1);
                    return true;
                }
                Err(_) => {
                    spin.relax();
                }
            }
        }
    }

    /// Non-blocking admission attempt.
    #[inline]
    fn try_admit(&self) -> bool {
        self.try_enter()
    }

    /// Get past the gate: uncounted if it is disengaged, else into the
    /// admitted set, parking passively (until `deadline_ns`, absolute
    /// [`asl_runtime::clock`] nanoseconds, if any) while that is full.
    /// A caller that gets [`Entry::TimedOut`] holds no admission slot
    /// and has no node left on the passive list.
    #[inline]
    fn enter(&self, deadline_ns: Option<u64>) -> Entry {
        if !self.is_engaged() {
            return Entry::Bare;
        }
        if self.try_enter() {
            return Entry::Counted { waited: false };
        }
        self.enter_passive(deadline_ns)
    }

    #[cold]
    fn enter_passive(&self, deadline_ns: Option<u64>) -> Entry {
        loop {
            match self.wait_passive(deadline_ns) {
                // The waker already transferred a slot to us.
                PassiveWait::Granted => return Entry::Counted { waited: true },
                PassiveWait::TimedOut => return Entry::TimedOut,
                // Retracted — room appeared, or the gate let go.
                PassiveWait::Retracted => {
                    if !self.engaged.load(Ordering::SeqCst) {
                        return Entry::Bare;
                    }
                    if self.try_enter() {
                        return Entry::Counted { waited: true };
                    }
                    if deadline_ns.is_some_and(|d| now_ns() >= d) {
                        return Entry::TimedOut;
                    }
                }
            }
        }
    }

    /// Park on the passive LIFO until granted a slot, retracted, or
    /// (with a deadline) expired. The timeout path is the passive
    /// *self-rescue* path pointed at the caller instead of the gate:
    /// the expired waiter unlinks its own node under the list lock,
    /// exactly like a rescuer delisting itself on observed headroom —
    /// and a failed unlink means a grant is already published, which
    /// the waiter then accepts (a late win, allowed by the timed
    /// contract).
    fn wait_passive(&self, deadline_ns: Option<u64>) -> PassiveWait {
        let node = PassiveNode {
            state: AtomicU32::new(WAITING),
            thread: std::thread::current(),
            next: Cell::new(ptr::null_mut()),
        };
        let node_ptr = &node as *const PassiveNode as *mut PassiveNode;
        self.list_lock.lock();
        unsafe {
            node.next.set(*self.head.get());
            *self.head.get() = node_ptr;
        }
        self.passive_len.fetch_add(1, Ordering::SeqCst);
        // Dekker pair with `exit`: we published our node *before*
        // this load; an exiting thread decrements `active` *before*
        // loading `passive_len`. In any interleaving at least one
        // side observes the other, so the last slot can never slip
        // away unseen while we park. Same pair with `disengage`.
        if self.has_room_or_let_go() {
            // Still holding the list lock, so we are necessarily the
            // head: retract and re-compete instead of parking with
            // possibly nobody left to wake us.
            unsafe {
                *self.head.get() = node.next.get();
            }
            self.passive_len.fetch_sub(1, Ordering::SeqCst);
            self.list_lock.unlock(());
            return PassiveWait::Retracted;
        }
        self.list_lock.unlock(());
        loop {
            if node.state.load(Ordering::Acquire) == GRANTED {
                return PassiveWait::Granted;
            }
            // Self-rescue: a releaser leaves a freed slot silently
            // (no wake — see `exit`), betting it will be reclaimed by
            // a returning thread for free. Passive waiters underwrite
            // that bet: whenever one observes headroom it delists
            // itself and re-competes, so an abandoned slot strands
            // nobody for longer than one park bound.
            if self.has_room_or_let_go() {
                if self.try_unlink(node_ptr) {
                    return PassiveWait::Retracted;
                }
                // Not on the list and not (yet) GRANTED is impossible
                // under the list lock, so a failed unlink means our
                // grant is already published: loop to observe it.
                continue;
            }
            // Timed admission: expire by the same delisting move.
            let mut park_bound = PASSIVE_RESCUE_BOUND;
            if let Some(d) = deadline_ns {
                let now = now_ns();
                if now >= d {
                    if self.try_unlink(node_ptr) {
                        return PassiveWait::TimedOut;
                    }
                    // Grant already published: observe it above.
                    continue;
                }
                // Never oversleep the deadline by a full rescue bound.
                park_bound = park_bound.min(std::time::Duration::from_nanos(d - now));
            }
            // Substrate-aware: on the simulator this charges a
            // bounded virtual wait and returns (so the rescue check
            // above reruns in virtual time); on the OS it parks with
            // a timeout bounding the rescue latency. Spurious returns
            // just re-check the predicate.
            asl_runtime::substrate::park_or(|| std::thread::park_timeout(park_bound));
        }
    }

    /// What a passive waiter must not park through: a free slot, or a
    /// gate that stopped counting (nobody would ever `exit` for it).
    #[inline]
    fn has_room_or_let_go(&self) -> bool {
        !self.engaged.load(Ordering::SeqCst)
            || self.active.load(Ordering::SeqCst) < self.limit.load(Ordering::Relaxed)
    }

    /// Remove our own (still-WAITING) node from the passive list.
    /// Returns `false` if the node is no longer listed — which, since
    /// granters pop and store GRANTED under the list lock, means a
    /// grant is already published for us.
    fn try_unlink(&self, target: *mut PassiveNode) -> bool {
        self.list_lock.lock();
        let found = unsafe {
            let head = self.head.get();
            let mut cur = *head;
            let mut prev: *mut PassiveNode = ptr::null_mut();
            while !cur.is_null() && cur != target {
                prev = cur;
                cur = (*cur).next.get();
            }
            if cur.is_null() {
                false
            } else {
                if prev.is_null() {
                    *head = (*cur).next.get();
                } else {
                    (*prev).next.set((*cur).next.get());
                }
                true
            }
        };
        if found {
            self.passive_len.fetch_sub(1, Ordering::SeqCst);
        }
        self.list_lock.unlock(());
        found
    }

    /// Leave the admitted set. The slot *this* thread frees is
    /// deliberately not handed to a passive waiter: the expected case
    /// is that a circulating thread (this one, after its think time)
    /// reclaims it with zero park/unpark traffic, which is what keeps
    /// the restricted set cache-warm and syscall-free. A slot that was
    /// free *besides* ours — the admitted set, counting us, was under
    /// the limit — may be one a thread left behind for good; once
    /// [`SPARE_STREAK`] exits in a row have seen one with a waiter
    /// parked, the LIFO head is woken to take it. Long-term fairness
    /// comes from the periodic reintroduction pulse: every
    /// `reintroduce_period` exits that happen while waiters are
    /// passive, the *oldest* one is force-admitted. Passive waiters
    /// re-check for headroom themselves every [`PASSIVE_RESCUE_BOUND`],
    /// which only matters once nobody is left to exit.
    fn exit(&self) {
        let admitted = self.active.fetch_sub(1, Ordering::SeqCst);
        if self.passive_len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let h = self.handovers.fetch_add(1, Ordering::Relaxed) + 1;
        if h >= self.reintroduce_period {
            if self.wake_one(true) {
                self.handovers.store(0, Ordering::Relaxed);
            } else {
                // Overshoot in flight or racing retract: stay due so
                // the next exit retries immediately.
                self.handovers
                    .store(self.reintroduce_period, Ordering::Relaxed);
            }
        }
        let spare = admitted < self.limit.load(Ordering::Relaxed);
        let streak = self.spare_streak.load(Ordering::Relaxed);
        if !spare {
            if streak != 0 {
                self.spare_streak.store(0, Ordering::Relaxed);
            }
        } else if streak + 1 < SPARE_STREAK {
            self.spare_streak.store(streak + 1, Ordering::Relaxed);
        } else {
            self.spare_streak.store(0, Ordering::Relaxed);
            self.nudge_head();
        }
    }

    /// Wake the most recent passive waiter *without* reserving the
    /// spare slot for it: it re-checks for headroom as it does after
    /// any park and admits itself. A slot held for a thread that is
    /// still asleep is a slot the running threads cannot use (a
    /// transfer on every second spare exit cost the simulated
    /// `amp-oversub` cell 8–10 %), and if a returning thread got there
    /// first, the woken one parks again and nothing is lost but its
    /// wake-up. On the simulator, whose parked threads poll, this is a
    /// no-op.
    #[cold]
    fn nudge_head(&self) {
        self.list_lock.lock();
        // Safety: the list lock is held; a listed node is alive (its
        // owner unlinks it, under this lock, before it returns).
        let head = unsafe { (*self.head.get()).as_ref() }.map(|n| n.thread.clone());
        self.list_lock.unlock(());
        if let Some(thread) = head {
            thread.unpark();
        }
    }

    /// Admit passive waiters into fresh headroom (after the limit
    /// grew). Returns how many were admitted.
    fn fill(&self) -> u32 {
        let mut n = 0;
        while self.passive_len.load(Ordering::SeqCst) > 0 && self.wake_one(false) {
            n += 1;
        }
        n
    }

    /// Transfer one admission slot to a passive waiter. `forced` is
    /// the reintroduction pulse: it takes the *oldest* waiter (LIFO
    /// tail) and may overshoot the limit by exactly one; a normal
    /// wake takes the head and respects the limit.
    fn wake_one(&self, forced: bool) -> bool {
        self.list_lock.lock();
        // Reserve the slot before popping, so a node is never removed
        // without an admission to hand it.
        let mut spin = asl_runtime::relax::Spin::new();
        let reserved = loop {
            let a = self.active.load(Ordering::Relaxed);
            let bound = if forced {
                self.limit.load(Ordering::Relaxed).saturating_add(1)
            } else {
                self.limit.load(Ordering::Relaxed)
            };
            if a >= bound {
                break false;
            }
            match self
                .active
                .compare_exchange_weak(a, a + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.note_peak(a + 1);
                    break true;
                }
                Err(_) => {
                    spin.relax();
                }
            }
        };
        if !reserved {
            self.list_lock.unlock(());
            return false;
        }
        let node = unsafe {
            if forced {
                self.pop_tail()
            } else {
                self.pop_head()
            }
        };
        match node {
            Some(n) => {
                self.passive_len.fetch_sub(1, Ordering::SeqCst);
                if forced {
                    self.reintroduced.fetch_add(1, Ordering::Relaxed);
                }
                // Clone the handle first: the GRANTED store hands the
                // node back to its owner, which may return (and free
                // the stack frame) immediately.
                let t = unsafe { (*n).thread.clone() };
                unsafe { (*n).state.store(GRANTED, Ordering::Release) };
                self.list_lock.unlock(());
                // On the simulator the waiter re-checks out of its
                // bounded-wait park loop; on the OS this is the wake.
                t.unpark();
                true
            }
            None => {
                // Racing retracts emptied the list. Undo the
                // reservation while still serialized with publishers
                // (their Dekker check runs under this lock too).
                self.active.fetch_sub(1, Ordering::SeqCst);
                self.list_lock.unlock(());
                false
            }
        }
    }

    /// Pop the most recent passive waiter. Caller holds `list_lock`.
    unsafe fn pop_head(&self) -> Option<*mut PassiveNode> {
        let head = self.head.get();
        let n = *head;
        if n.is_null() {
            return None;
        }
        *head = (*n).next.get();
        Some(n)
    }

    /// Pop the *oldest* passive waiter. Caller holds `list_lock`.
    /// O(len) walk, amortized over `reintroduce_period` handovers.
    unsafe fn pop_tail(&self) -> Option<*mut PassiveNode> {
        let head = self.head.get();
        let mut cur = *head;
        if cur.is_null() {
            return None;
        }
        let mut prev: *mut PassiveNode = ptr::null_mut();
        while !(*cur).next.get().is_null() {
            prev = cur;
            cur = (*cur).next.get();
        }
        if prev.is_null() {
            *head = ptr::null_mut();
        } else {
            (*prev).next.set(ptr::null_mut());
        }
        Some(cur)
    }
}

/// Tuning for a [`Gcr`] wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcrConfig {
    /// Starting admission bound; `0` sizes it to the machine when the
    /// wrapper first engages (see [`GcrConfig::default`]).
    pub initial_limit: u32,
    /// Controller floor (≥ 1).
    pub min_limit: u32,
    /// Controller ceiling; `0` sizes it like `initial_limit`.
    pub max_limit: u32,
    /// Force-admit the oldest passive waiter every this many
    /// handovers that occur while waiters are passive.
    pub reintroduce_period: u32,
    /// Controller tick every this many acquisitions; `0` disables the
    /// controller entirely (fixed bound).
    pub ctl_period: u32,
}

impl Default for GcrConfig {
    /// Adaptive, with `K` left to be sized to the machine: the thread
    /// that first engages the wrapper asks
    /// [`asl_runtime::substrate::core_count`] — the modeled machine's
    /// cores on a simulated thread, the host's otherwise — and starts
    /// at that count clamped to `2..=8`, with twice that as the
    /// ceiling. (Sizing at construction would ask about whatever host
    /// thread happened to build the lock, and made a simulated cell's
    /// result depend on the CPU count of the host it ran on.)
    fn default() -> Self {
        GcrConfig {
            initial_limit: 0,
            min_limit: 1,
            max_limit: 0,
            reintroduce_period: 1024,
            ctl_period: 64,
        }
    }
}

impl GcrConfig {
    /// A static admission bound `k`: no controller, `k` forever.
    pub fn fixed(k: u32) -> Self {
        GcrConfig {
            initial_limit: k,
            min_limit: k,
            max_limit: k,
            ctl_period: 0,
            ..Default::default()
        }
    }

    fn validate(&self) {
        assert!(self.min_limit >= 1, "min_limit must be >= 1");
        // A 0 is sized around the explicit values later (`sized`).
        let initial = if self.initial_limit == 0 {
            self.min_limit
        } else {
            self.initial_limit
        };
        let max = if self.max_limit == 0 {
            initial
        } else {
            self.max_limit
        };
        assert!(
            self.min_limit <= initial && initial <= max,
            "need min_limit <= initial_limit <= max_limit"
        );
        assert!(
            self.reintroduce_period >= 1,
            "reintroduce period must be >= 1"
        );
        assert!(
            self.ctl_period != 0 || (self.initial_limit != 0 && self.max_limit != 0),
            "a fixed bound (no controller) must be given explicitly"
        );
    }

    /// `(initial_limit, max_limit)` with every 0 sized to a machine of
    /// `cores` cores; explicit values are kept as they are.
    fn sized(&self, cores: usize) -> (u32, u32) {
        let k = u32::try_from(cores).unwrap_or(u32::MAX).clamp(2, 8);
        let initial = match (self.initial_limit, self.max_limit) {
            (0, 0) => k.max(self.min_limit),
            (0, max) => k.clamp(self.min_limit, max),
            (initial, _) => initial,
        };
        let max = match self.max_limit {
            0 => (2 * k).max(initial),
            max => max,
        };
        (initial, max)
    }
}

/// Grow while the wrapped lock is busy for less than this share of a
/// controller window's wall time (and waiters sit passive): the gate
/// is binding, but the lock itself still has headroom.
pub const GROW_UTIL_PCT: u64 = 85;

/// Shrink on hold inflation only when the cell's consecutive-contended
/// streak is at least this long — sustained saturation, not a
/// contention blip.
pub const SHRINK_STREAK: u64 = 64;

/// Holds are inflated when the windowed mean hold time exceeds the
/// best observed window by more than this percentage (hold-time
/// inflation = holders being preempted = collapse onset).
pub const INFLATION_PCT: u64 = 100;

/// Controller bookkeeping, mutated only while the wrapped lock is
/// held (release-path ticks), so plain fields suffice.
struct CtlState {
    since_tick: u32,
    last: TelemetrySnapshot,
    /// Best (lowest) windowed mean hold time observed — the
    /// uninflated reference the shrink signal compares against.
    baseline_hold: f64,
    /// Wall-clock stamp of the previous tick; `0` until the first
    /// tick completes, so the first window never computes utilization
    /// against an unbounded interval.
    window_start_ns: u64,
}

/// The adaptive-K controller of a [`Gcr`].
struct Controller {
    cfg: GcrConfig,
    /// The ceiling in force: `cfg.max_limit`, or what a 0 there was
    /// sized to at the first engagement (0 until then).
    max_limit: AtomicU32,
    /// Set by an engagement (any thread), taken by the next tick: the
    /// window in `state` is stale. Relaxed — a tick that misses it
    /// judges one window it should have skipped, the next one takes
    /// it.
    reopen: AtomicBool,
    state: UnsafeCell<CtlState>,
    grows: AtomicU64,
    shrinks: AtomicU64,
}

// Safety: `state` is only touched from `tick`, whose contract is
// "caller holds the wrapped lock", which serializes all access.
unsafe impl Sync for Controller {}

impl Controller {
    fn new(cfg: GcrConfig) -> Self {
        Controller {
            cfg,
            max_limit: AtomicU32::new(cfg.max_limit),
            reopen: AtomicBool::new(false),
            state: UnsafeCell::new(CtlState {
                since_tick: 0,
                last: TelemetrySnapshot::default(),
                baseline_hold: 0.0,
                window_start_ns: 0,
            }),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
        }
    }

    /// The controller's part of an engagement, on the engaging thread
    /// (which holds nothing): the first one sizes a `K` the config
    /// left to the machine — this thread's machine; racing engagers
    /// compute and store the same numbers — and every one has the
    /// window reopened, because what the cell counted while nobody was
    /// sampling must not be read as one. `K` as the controller last
    /// left it and the hold baseline carry over from earlier
    /// engagements.
    fn on_engage(&self, gate: &Gate) {
        if gate.limit() == 0 || self.max_limit.load(Ordering::Relaxed) == 0 {
            let (initial, max) = self.cfg.sized(asl_runtime::substrate::core_count());
            if gate.limit() == 0 {
                gate.set_limit(initial);
            }
            self.max_limit.store(max, Ordering::Relaxed);
        }
        self.reopen.store(true, Ordering::Relaxed);
    }

    /// One release-path tick of a counted holder.
    ///
    /// # Safety
    /// The caller must hold the wrapped lock, making this call
    /// exclusive.
    unsafe fn tick(&self, cell: &TelemetryCell, gate: &Gate) {
        if self.cfg.ctl_period == 0 {
            return;
        }
        let st = &mut *self.state.get();
        if self.reopen.load(Ordering::Relaxed) {
            self.reopen.store(false, Ordering::Relaxed);
            st.since_tick = 0;
            st.last = cell.snapshot();
            st.window_start_ns = 0;
            return;
        }
        st.since_tick += 1;
        if st.since_tick < self.cfg.ctl_period {
            return;
        }
        st.since_tick = 0;
        let now = now_ns();
        let wall_ns = if st.window_start_ns == 0 {
            0
        } else {
            now.saturating_sub(st.window_start_ns)
        };
        st.window_start_ns = now;
        let snap = cell.snapshot();
        let w = snap.delta(&st.last);
        st.last = snap;
        // Every tick closed one timed hold (the counted path takes a
        // census), so the window holds exactly `ctl_period` of them —
        // `w.timed_holds`; `w.acquisitions` also counts the untimed
        // holds of threads that came in uncounted across an engagement.
        let avg_hold = w.avg_hold_ns();
        if avg_hold > 0.0 && (st.baseline_hold == 0.0 || avg_hold < st.baseline_hold) {
            st.baseline_hold = avg_hold;
        }
        let limit = gate.limit();
        let inflated = st.baseline_hold > 0.0
            && avg_hold > st.baseline_hold * (1.0 + INFLATION_PCT as f64 / 100.0);
        // Queueing: time spent waiting inside the wrapped lock dwarfs
        // time spent holding it. Holds can stay perfectly clean while
        // this happens — a reordering lock hands off to runnable
        // threads precisely to keep holds short under oversubscription
        // — so it is a shrink signal of its own, not a variant of
        // hold inflation. The 4x band (grow below 1x, shrink above
        // 4x) is the hysteresis that keeps the two rules from
        // fighting.
        let queueing = w.wait_ns > w.hold_ns.saturating_mul(4);
        if ((inflated && cell.contended_streak() >= SHRINK_STREAK) || queueing)
            && limit > self.cfg.min_limit
        {
            // Collapse onset: holds inflating under back-to-back
            // contention means admitted threads are preempting each
            // other. Fewer runnable waiters, shorter holds.
            gate.set_limit(limit - 1);
            self.shrinks.fetch_add(1, Ordering::Relaxed);
        } else if w.contended == 0 && gate.passive_len() == 0 {
            // Nobody met anybody for a whole window and nobody is
            // parked: there is nothing to restrict. Stop charging for
            // it (a publisher racing this keeps the gate engaged).
            gate.disengage();
        } else if limit < self.max_limit.load(Ordering::Relaxed)
            && (w.contended == 0
                || (!inflated
                    && gate.passive_len() > 0
                    && wall_ns > 0
                    && w.wait_ns < w.hold_ns
                    && w.hold_ns.saturating_mul(100) < wall_ns.saturating_mul(GROW_UTIL_PCT)))
        {
            // Two "restriction is not binding tightly enough" shapes,
            // both with threads parked passive: the admitted set ran
            // a whole window uncontended, or the wrapped lock was busy
            // under GROW_UTIL_PCT of the window's wall time AND
            // waiting inside it had not overtaken holding. The latter
            // pair is what think-heavy circulation looks like: each
            // admitted thread only wants the lock a fraction of the
            // time, so throughput scales with K until the lock
            // saturates. The wait < hold guard matters on an
            // oversubscribed host: wall-time utilization stays low
            // exactly when waiters burn the CPU the holder needs, so
            // utilization alone would grow straight into the collapse
            // the gate exists to prevent.
            gate.set_limit(limit + 1);
            self.grows.fetch_add(1, Ordering::Relaxed);
            gate.fill();
        }
    }
}

/// Concurrency-restricted wrapper over any [`RawLock`] (see module
/// docs). The token passes through unchanged, so the wrapper composes
/// with every layer built on `RawLock` — guards, the object-safe
/// facade, instrumentation.
///
/// # Over an erased lock
///
/// `Gcr<DynLock>` is what a `gcr-<name>` registry spec builds, and it
/// is erased again into `Arc<dyn PlainLock>` by the facade's blanket
/// impl (the inner lock's tokens pass through whole, so debug-build
/// ownership tags keep working). It has everything `Gcr<L>` has that
/// is expressed in [`RawLock`] terms. What stops at the erasure
/// boundary is any capability that is a *separate trait* of the inner
/// lock: the timed acquire below needs `L: RawTimedLock`, and
/// [`PlainLock`](crate::plain::PlainLock) has no timed entry point, so
/// `DynLock` cannot offer one whatever it wraps — `gcr-mcs` has no
/// `try_lock_until` although `Gcr<McsLock>` does. (The admission half
/// is inner-lock-agnostic and would work; it is the inner wait that
/// cannot be bounded through the facade.)
pub struct Gcr<L: RawLock> {
    inner: L,
    gate: Gate,
    ctl: Controller,
    cell: TelemetryCell,
    /// "The holder was counted": set by an acquirer that came through
    /// the gate, cleared by its `unlock`, which it sends down the path
    /// that gives the slot back. Holder-owned (written and read only
    /// between the inner acquire and the inner release), so relaxed
    /// loads and stores; the engaged flag cannot stand in for it, a
    /// holder may release on the other side of a switch.
    counted: AtomicBool,
    /// Threads waiting for the inner lock that came in uncounted
    /// ([`ENGAGE_WAITERS`]). Touched only by an arrival that found the
    /// lock held, which is about to wait anyway.
    bare_waiters: AtomicU32,
}

impl<L: RawLock> Gcr<L> {
    /// Wrap `inner` with the default (machine-sized, adaptive) config.
    pub fn new(inner: L) -> Self {
        Self::with_config(inner, GcrConfig::default())
    }

    /// Wrap `inner` with an explicit config. A config with a
    /// controller (`ctl_period != 0`) starts disengaged; a fixed bound
    /// is in force from here on.
    pub fn with_config(inner: L, cfg: GcrConfig) -> Self {
        cfg.validate();
        Gcr {
            inner,
            gate: Gate::build(
                cfg.initial_limit,
                cfg.reintroduce_period,
                cfg.ctl_period == 0,
            ),
            ctl: Controller::new(cfg),
            // Hold/wait sampling on: it is the controller's signal
            // (taken on the counted path only).
            cell: TelemetryCell::sampled(),
            counted: AtomicBool::new(false),
            bare_waiters: AtomicU32::new(0),
        }
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Whether admission is being counted right now (module docs,
    /// "Disengaged until contended").
    pub fn engaged(&self) -> bool {
        self.gate.is_engaged()
    }

    /// Current admission bound `K`; 0 while a `K` left to the machine
    /// ([`GcrConfig::default`]) has not been sized by a first
    /// engagement.
    pub fn limit(&self) -> u32 {
        self.gate.limit()
    }

    /// The controller's ceiling for `K`; 0 under the same condition
    /// as [`Gcr::limit`].
    pub fn max_limit(&self) -> u32 {
        self.ctl.max_limit.load(Ordering::Relaxed)
    }

    /// Threads currently admitted (counted ones: a disengaged wrapper
    /// reports 0 whoever is inside).
    pub fn active(&self) -> u32 {
        self.gate.active()
    }

    /// Passive (parked) waiters right now.
    pub fn passive_len(&self) -> u32 {
        self.gate.passive_len()
    }

    /// Highest admitted-set size ever reached (≤ `K`, or `K + 1`
    /// transiently during reintroduction).
    pub fn peak_active(&self) -> u32 {
        self.gate.peak_active()
    }

    /// Forced reintroductions performed (fairness pulses).
    pub fn reintroduced(&self) -> u64 {
        self.gate.reintroduced()
    }

    /// Controller grow decisions taken.
    pub fn grows(&self) -> u64 {
        self.ctl.grows.load(Ordering::Relaxed)
    }

    /// Controller shrink decisions taken.
    pub fn shrinks(&self) -> u64 {
        self.ctl.shrinks.load(Ordering::Relaxed)
    }

    /// The telemetry the controller feeds on.
    pub fn telemetry(&self) -> &TelemetryCell {
        &self.cell
    }
}

impl<L: RawLock + Default> Default for Gcr<L> {
    fn default() -> Self {
        Self::new(L::default())
    }
}

impl<L: RawLock> Gcr<L> {
    /// An acquisition around the gate: `acquire` is the inner lock's
    /// own. An arrival that finds it held is a waiter the gate cannot
    /// see, so it says so for as long as it waits — and engages the
    /// gate, before it queues, if that makes a queue of them.
    #[inline]
    fn acquire_bare(&self, acquire: impl FnOnce() -> Option<L::Token>) -> Option<L::Token> {
        let contended = self.inner.is_locked();
        if contended && self.bare_waiters.fetch_add(1, Ordering::Relaxed) + 1 >= ENGAGE_WAITERS {
            self.engage();
        }
        let token = acquire();
        if contended {
            self.bare_waiters.fetch_sub(1, Ordering::Relaxed);
        }
        let token = token?;
        self.cell.record_acquisition_exclusive(contended);
        Some(token)
    }

    #[cold]
    fn engage(&self) {
        if !self.gate.is_engaged() {
            self.ctl.on_engage(&self.gate);
            self.gate.engage();
        }
    }

    /// Whether to time the inner wait of a counted acquisition, and
    /// from when (0: no).
    #[inline]
    fn wait_start(&self, contended: bool) -> u64 {
        if self.cell.sampling() && contended {
            now_ns()
        } else {
            0
        }
    }

    /// Bookkeeping of a holder that holds an admission slot.
    #[inline]
    fn acquired_counted(&self, contended: bool, wait_start: u64) {
        if wait_start != 0 {
            self.cell.add_wait_ns(now_ns().saturating_sub(wait_start));
        }
        self.cell.record_acquisition_exclusive(contended);
        self.cell.note_hold_start();
        self.counted.store(true, Ordering::Relaxed);
    }

    /// Release of a counted holder: close the timed hold, tick the
    /// controller, give the slot back.
    fn unlock_counted(&self, token: L::Token) {
        self.counted.store(false, Ordering::Relaxed);
        self.cell.note_hold_end();
        // Safety: we hold the wrapped lock until the next line.
        unsafe { self.ctl.tick(&self.cell, &self.gate) };
        self.inner.unlock(token);
        self.gate.exit();
    }
}

impl<L: RawLock> RawLock for Gcr<L> {
    type Token = L::Token;

    fn lock(&self) -> L::Token {
        let waited = match self.gate.enter(None) {
            Entry::Bare => {
                return self
                    .acquire_bare(|| Some(self.inner.lock()))
                    .expect("an untimed acquire returns with the lock")
            }
            Entry::Counted { waited } => waited,
            Entry::TimedOut => unreachable!("no deadline"),
        };
        let contended = waited || self.inner.is_locked();
        let t0 = self.wait_start(contended);
        let token = self.inner.lock();
        self.acquired_counted(contended, t0);
        token
    }

    fn try_lock(&self) -> Option<L::Token> {
        if !self.gate.is_engaged() {
            let token = self.inner.try_lock()?;
            self.cell.record_acquisition_exclusive(false);
            return Some(token);
        }
        if !self.gate.try_admit() {
            return None;
        }
        match self.inner.try_lock() {
            Some(token) => {
                self.acquired_counted(false, 0);
                Some(token)
            }
            None => {
                self.gate.exit();
                None
            }
        }
    }

    fn unlock(&self, token: L::Token) {
        if self.counted.load(Ordering::Relaxed) {
            self.unlock_counted(token);
        } else {
            self.inner.unlock(token);
        }
    }

    fn is_locked(&self) -> bool {
        self.inner.is_locked() || self.gate.passive_len() > 0
    }

    const NAME: &'static str = "gcr";
}

// Deliberately NOT FifoLock: admission control reorders waiters (the
// passive LIFO jumps recent arrivals ahead of parked ones).

impl<L: crate::timed::RawTimedLock> crate::timed::RawTimedLock for Gcr<L> {
    /// Timed acquisition in two halves sharing one deadline: a timed
    /// admission (the gate's passive wait with a deadline, built on
    /// the passive self-rescue path) and then the inner lock's own
    /// timed wait — or, disengaged, the second half alone. An inner
    /// timeout rolls the admission back, so a `None` leaves no residue
    /// in either layer.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<L::Token> {
        let waited = match self.gate.enter(Some(deadline_ns)) {
            Entry::Bare => return self.acquire_bare(|| self.inner.try_lock_until(deadline_ns)),
            Entry::Counted { waited } => waited,
            Entry::TimedOut => return None,
        };
        let contended = waited || self.inner.is_locked();
        let t0 = self.wait_start(contended);
        match self.inner.try_lock_until(deadline_ns) {
            Some(token) => {
                self.acquired_counted(contended, t0);
                Some(token)
            }
            None => {
                self.gate.exit();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Guard;
    use crate::{McsLock, TicketLock};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn uncontended_roundtrip_and_accessors() {
        let lock = Gcr::with_config(McsLock::new(), GcrConfig::fixed(2));
        assert_eq!(lock.limit(), 2);
        assert_eq!(lock.active(), 0);
        {
            let _g = Guard::new(&lock);
            assert!(RawLock::is_locked(&lock));
            assert_eq!(lock.active(), 1);
        }
        assert!(!RawLock::is_locked(&lock));
        assert_eq!(lock.active(), 0);
        assert_eq!(lock.peak_active(), 1);
        assert_eq!(lock.passive_len(), 0);
        assert_eq!(lock.telemetry().snapshot().acquisitions, 1);
    }

    #[test]
    fn try_lock_respects_gate_and_inner() {
        let lock = Gcr::with_config(TicketLock::new(), GcrConfig::fixed(1));
        lock.try_lock().expect("free");
        // Gate full: a second try must fail *and* roll back cleanly.
        assert!(lock.try_lock().is_none());
        lock.unlock(());
        lock.try_lock().expect("free again after rollback");
        lock.unlock(());
        assert_eq!(lock.active(), 0);
    }

    #[test]
    fn mutual_exclusion_and_admission_bound_under_stress() {
        stress(McsLock::new());
        // The inner lock lets arrivals barge past its queue.
        stress(crate::FissileLock::new());
    }

    fn stress<L: RawLock + 'static>(inner: L) {
        const THREADS: usize = 8;
        const OPS: u64 = 2_000;
        struct Shared<L: RawLock> {
            lock: Gcr<L>,
            value: UnsafeCell<u64>,
        }
        unsafe impl<L: RawLock> Sync for Shared<L> {}
        let s = Arc::new(Shared {
            // Tiny period so reintroduction churns during the run.
            lock: Gcr::with_config(
                inner,
                GcrConfig {
                    reintroduce_period: 8,
                    ..GcrConfig::fixed(2)
                },
            ),
            value: UnsafeCell::new(0),
        });
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        let t = s.lock.lock();
                        unsafe { *s.value.get() += 1 };
                        s.lock.unlock(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *s.value.get() }, THREADS as u64 * OPS);
        // The hard invariant: K + 1 at most, ever (the +1 is the
        // reintroduction overshoot).
        assert!(
            s.lock.peak_active() <= 3,
            "admitted set exceeded K+1: peak={}",
            s.lock.peak_active()
        );
        assert_eq!(s.lock.active(), 0);
        assert_eq!(s.lock.passive_len(), 0);
        assert!(!RawLock::is_locked(&s.lock));
        assert_eq!(
            s.lock.telemetry().snapshot().acquisitions,
            THREADS as u64 * OPS
        );
    }

    /// The caller holds `lock` while `ENGAGE_WAITERS` threads queue
    /// behind it. The last of them to arrive completes the queue of
    /// uncounted waiters and engages the gate *before* it takes its
    /// ticket, so once every ticket is taken the gate is engaged. No
    /// timing involved.
    fn contend(lock: &Arc<Gcr<TicketLock>>) {
        let held = Guard::new(&**lock);
        let waiters: Vec<_> = (0..ENGAGE_WAITERS)
            .map(|_| {
                let lock = lock.clone();
                std::thread::spawn(move || drop(Guard::new(&*lock)))
            })
            .collect();
        while lock.inner().queue_depth() < 1 + u64::from(ENGAGE_WAITERS) {
            std::thread::yield_now();
        }
        assert!(lock.engaged(), "a queue of uncounted waiters engages");
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
    }

    #[test]
    fn an_uncontended_window_disengages_and_contention_re_engages() {
        let lock = Arc::new(Gcr::with_config(
            TicketLock::new(),
            GcrConfig {
                initial_limit: 2,
                min_limit: 1,
                max_limit: 3,
                ctl_period: 4,
                ..GcrConfig::default()
            },
        ));
        // Nobody to restrict: three windows' worth of acquisitions go
        // by uncounted (they used to grow K to its ceiling).
        assert!(!lock.engaged(), "an adaptive wrapper starts disengaged");
        for _ in 0..12 {
            let _held = Guard::new(&*lock);
            assert_eq!(lock.active(), 0);
        }
        assert!(!lock.engaged());
        assert_eq!((lock.peak_active(), lock.grows()), (0, 0));
        assert_eq!(lock.telemetry().snapshot().acquisitions, 12);
        assert_eq!(lock.telemetry().snapshot().hold_ns, 0, "no hold sampled");

        // One waiter at a time is a hand-off, not a queue.
        {
            let held = Guard::new(&*lock);
            let one = {
                let lock = lock.clone();
                std::thread::spawn(move || drop(Guard::new(&*lock)))
            };
            while lock.inner().queue_depth() < 2 {
                std::thread::yield_now();
            }
            drop(held);
            one.join().unwrap();
        }
        assert!(!lock.engaged());

        contend(&lock);
        assert_eq!(lock.limit(), 2);
        assert_eq!(lock.active(), 0, "the waiters came in uncounted");

        // The first counted release reopens the controller's window;
        // then one whole window (4 acquisitions) uncontended, nobody
        // passive: counted while it lasts, disengaged at its end.
        for _ in 0..5 {
            assert!(lock.engaged());
            let held = Guard::new(&*lock);
            assert_eq!(lock.active(), 1);
            drop(held);
            assert_eq!(lock.active(), 0);
        }
        assert!(!lock.engaged(), "an uncontended window disengages");
        assert_eq!(lock.peak_active(), 1);
        let held = Guard::new(&*lock);
        assert_eq!(lock.active(), 0);
        drop(held);

        contend(&lock);
        assert!(lock.engaged(), "and contention engages it again");
        assert_eq!((lock.limit(), lock.grows(), lock.shrinks()), (2, 0, 0));
    }

    /// The two halves of the disengage/publish Dekker pair, one order
    /// at a time (both sides are `SeqCst`, so one of the two orders is
    /// what any real interleaving amounts to): a holder never lets go
    /// of a gate somebody is parked behind, and a publisher that comes
    /// too late to be seen does not park.
    #[test]
    fn disengaging_and_publishing_see_each_other() {
        let gate = Arc::new(Gate::build(1, u32::MAX, true));
        assert!(gate.try_admit(), "the one slot, held throughout");

        // Publisher first: parked before the holder looks.
        let parked = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.enter(None))
        };
        while gate.passive_len() == 0 {
            std::thread::yield_now();
        }
        assert!(!gate.disengage(), "let go with a waiter parked");
        assert!(gate.is_engaged(), "and must have re-engaged");
        gate.set_limit(2);
        assert_eq!(gate.fill(), 1, "wake it into a second slot");
        assert!(
            matches!(parked.join().unwrap(), Entry::Counted { waited: true }),
            "it waited"
        );
        gate.exit();
        gate.set_limit(1);

        // Holder first: the gate lets go, then a publisher that had
        // already found it engaged and full arrives at the list.
        assert!(gate.disengage());
        let (done, finished) = std::sync::mpsc::channel();
        let late = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                let bare = matches!(gate.enter_passive(None), Entry::Bare);
                done.send(bare).unwrap();
            })
        };
        let bare = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a late publisher parked behind a disengaged gate");
        late.join().unwrap();
        assert!(bare, "it must go on uncounted");
        assert_eq!((gate.active(), gate.passive_len()), (1, 0));
    }

    #[test]
    fn a_default_k_is_sized_at_the_first_engagement() {
        let lock = Arc::new(Gcr::new(TicketLock::new()));
        assert_eq!((lock.limit(), lock.max_limit()), (0, 0), "not sized yet");
        contend(&lock);
        // No substrate here: the host's count, clamped.
        let k = (asl_runtime::affinity::process_cpus() as u32).clamp(2, 8);
        assert_eq!((lock.limit(), lock.max_limit()), (k, 2 * k));
        // One of the two given: kept, the other sized around it.
        let lock = Arc::new(Gcr::with_config(
            TicketLock::new(),
            GcrConfig {
                initial_limit: 3,
                ..GcrConfig::default()
            },
        ));
        assert_eq!((lock.limit(), lock.max_limit()), (3, 0));
        contend(&lock);
        assert_eq!((lock.limit(), lock.max_limit()), (3, (2 * k).max(3)));
        // Explicit values are kept, a 0 beside them sized around them.
        let sized = |initial_limit, max_limit, cores| {
            GcrConfig {
                initial_limit,
                max_limit,
                ..GcrConfig::default()
            }
            .sized(cores)
        };
        assert_eq!(sized(0, 0, 4), (4, 8));
        assert_eq!(sized(0, 0, 1), (2, 4));
        assert_eq!(sized(0, 0, 64), (8, 16));
        assert_eq!(sized(3, 5, 64), (3, 5));
        assert_eq!(sized(0, 3, 64), (3, 3));
        assert_eq!(sized(12, 0, 4), (12, 12));
    }

    #[test]
    #[should_panic(expected = "fixed bound")]
    fn a_fixed_bound_cannot_be_left_to_the_machine() {
        let _ = Gcr::with_config(
            McsLock::new(),
            GcrConfig {
                ctl_period: 0,
                ..GcrConfig::default()
            },
        );
    }

    #[test]
    fn controller_shrinks_on_inflated_contended_holds() {
        // A window whose mean hold is 20x the best window's clears the
        // 2x inflation tolerance; two threads hammering the lock keep
        // the contended streak past SHRINK_STREAK, so it must shrink.
        let lock = Arc::new(Gcr::with_config(
            McsLock::new(),
            GcrConfig {
                initial_limit: 4,
                min_limit: 1,
                max_limit: 4,
                ctl_period: 8,
                reintroduce_period: 64,
            },
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let phase = Arc::new(AtomicU64::new(0));
        // The bound as the first holder after a shrink found it. Read
        // under the lock, where no controller tick can intervene (ticks
        // run on the release path); from outside, the controller may
        // have grown back by the time anyone looks.
        let limit_after_shrink = Arc::new(AtomicU32::new(u32::MAX));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let lock = lock.clone();
                let stop = stop.clone();
                let phase = phase.clone();
                let limit_after_shrink = limit_after_shrink.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let t = lock.lock();
                        if lock.shrinks() > 0 {
                            limit_after_shrink.fetch_min(lock.limit(), Ordering::Relaxed);
                        }
                        // Phase 0: short holds (establish baseline).
                        // Phase 1: 20x longer holds (inflation).
                        let ns = if phase.load(Ordering::Relaxed) == 0 {
                            5_000
                        } else {
                            100_000
                        };
                        asl_runtime::clock::busy_wait_ns(ns);
                        lock.unlock(t);
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        phase.store(1, Ordering::Relaxed);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while limit_after_shrink.load(Ordering::Relaxed) == u32::MAX
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        assert!(
            lock.shrinks() >= 1,
            "controller never shrank under inflated contended holds \
             (limit={}, snapshot={:?})",
            lock.limit(),
            lock.telemetry().snapshot()
        );
        assert!(limit_after_shrink.load(Ordering::Relaxed) < 4);
    }

    #[test]
    fn reintroduction_rotates_the_admitted_set() {
        // K=1 and a tiny period: passive waiters must rotate in.
        const THREADS: usize = 4;
        let lock = Arc::new(Gcr::with_config(
            McsLock::new(),
            GcrConfig {
                reintroduce_period: 4,
                ..GcrConfig::fixed(1)
            },
        ));
        let counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let lock = lock.clone();
                let counts = counts.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let t = lock.lock();
                        counts[i].fetch_add(1, Ordering::Relaxed);
                        lock.unlock(t);
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                c.load(Ordering::Relaxed) > 0,
                "thread {i} starved despite reintroduction: {:?}",
                counts
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect::<Vec<_>>()
            );
        }
        assert!(lock.peak_active() <= 2, "K+1 bound violated");
    }

    #[test]
    fn erased_wrapper_delegates_and_restricts() {
        use crate::api::DynLock;
        use crate::plain::PlainLock;
        let lock: Arc<dyn PlainLock> = Arc::new(Gcr::with_config(
            DynLock::of(McsLock::new()),
            GcrConfig::fixed(2),
        ));
        let t = lock.acquire();
        assert!(lock.held());
        lock.release(t);
        assert!(!lock.held());
        assert_eq!(lock.lock_name(), "gcr");
    }

    #[test]
    fn gate_standalone_admits_and_fills() {
        let gate = Gate::build(2, 64, true);
        assert!(gate.try_admit());
        assert!(gate.try_admit());
        assert!(!gate.try_admit(), "limit reached");
        gate.exit();
        assert!(gate.try_admit());
        gate.set_limit(3);
        assert!(gate.try_admit());
        assert!(!gate.try_admit());
        gate.exit();
        gate.exit();
        gate.exit();
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.peak_active(), 3);
        assert_eq!(gate.fill(), 0, "no passive waiters to fill with");
    }

    #[test]
    #[should_panic(expected = "admission limit")]
    fn zero_limit_rejected() {
        let _ = Gate::build(0, 64, true);
    }
}
