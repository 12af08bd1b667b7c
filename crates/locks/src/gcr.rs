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
//! erased handle ([`crate::api::DynLock`]) — with a [`Gate`]:
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
//!   while the contended streak spans it (holders being preempted),
//!   or windowed wait time exceeding 4x the windowed hold time
//!   (queueing — holds can stay perfectly clean while waits explode,
//!   e.g. behind a reordering lock). Grow when a window runs fully
//!   uncontended, *or* when the wrapped lock was busy under
//!   [`GROW_UTIL_PCT`]% of the window's wall time with waiters
//!   passive and waits still below holds — the gate is binding but
//!   the lock still has headroom. The wait/hold band (grow below 1x,
//!   shrink above 4x) is the hysteresis that keeps the two rules
//!   from fighting.
//!
//! Admission accounting is per-acquisition: a slot is held from
//! `lock()` to `unlock()`, never across the caller's think time. A
//! release *never* wakes a passive waiter directly — the freed slot
//! is left for the (expected-back) releaser to reclaim with zero
//! park/unpark traffic, which is what keeps the restricted set
//! cache-warm and the syscall rate at one unpark per
//! `reintroduce_period` operations instead of one pair per
//! operation. A thread that stops locking therefore cannot wedge the
//! gate: passive waiters re-check for headroom at least every
//! [`PASSIVE_RESCUE_BOUND`] (a bounded virtual-time charge on the
//! simulator) and admit themselves into slots nobody reclaimed.
//!
//! The wrapper's own [`TelemetryCell`] has hold/wait sampling on by
//! default — it is the controller's feedback signal, costing up to
//! two clock reads per acquisition. Use [`GcrConfig::fixed`] for a
//! static bound with no controller.
//!
//! ```
//! use asl_locks::api::GuardedLock;
//! use asl_locks::gcr::{Gcr, GcrConfig};
//! use asl_locks::TicketLock;
//!
//! // Admit at most 2 threads into the ticket queue; everyone else
//! // parks passively until a slot frees or reintroduction fires.
//! let lock = Gcr::with_config(TicketLock::new(), GcrConfig::fixed(2));
//! assert_eq!(lock.limit(), 2);
//! {
//!     let _held = lock.guard();
//! }
//! assert_eq!(lock.peak_active(), 1);
//! assert_eq!(lock.passive_len(), 0);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::thread::Thread;

use asl_runtime::clock::now_ns;

use crate::telemetry::{TelemetryCell, TelemetrySnapshot};
use crate::{RawLock, TasLock};

const WAITING: u32 = 0;
const GRANTED: u32 = 1;

/// Upper bound on how long a passive waiter sleeps between headroom
/// checks on the OS (the simulator's park charge bounds the same loop
/// in virtual time). Releases never wake passive waiters directly —
/// see [`Gate::exit`] — so this is the worst-case latency for a
/// parked waiter to claim a slot nobody else wants. Long enough that
/// a full 128-thread passive set costs well under 1% CPU in spurious
/// wakes, short enough that draining an abandoned gate is prompt.
pub const PASSIVE_RESCUE_BOUND: std::time::Duration = std::time::Duration::from_millis(50);

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

/// The admission gate: bounds how many threads may compete for
/// whatever sits behind it.
///
/// Usable standalone (the [`crate::Adaptive`] lock's *restricted*
/// morph stage gates its queue funnel with one): call [`Gate::admit`]
/// before entering the protected resource's waiter set and
/// [`Gate::exit`] after leaving it.
///
/// Invariant (fixed limit `K`): successful admissions keep the active
/// count at most `K`, except a periodic forced reintroduction which
/// may overshoot to `K + 1`; [`Gate::peak_active`] observes the
/// maximum ever reached, so the bound is testable, not aspirational.
pub struct Gate {
    /// Threads currently admitted (between `admit` and `exit`).
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
    /// oldest passive waiter every `reintroduce_period` handovers.
    pub fn new(limit: u32, reintroduce_period: u32) -> Self {
        assert!(limit >= 1, "admission limit must be >= 1");
        assert!(reintroduce_period >= 1, "reintroduce period must be >= 1");
        Gate {
            active: AtomicU32::new(0),
            limit: AtomicU32::new(limit),
            peak: AtomicU32::new(0),
            passive_len: AtomicU32::new(0),
            handovers: AtomicU32::new(0),
            reintroduced: AtomicU64::new(0),
            reintroduce_period,
            list_lock: TasLock::new(),
            head: UnsafeCell::new(ptr::null_mut()),
        }
    }

    /// The current admission bound `K`.
    #[inline]
    pub fn limit(&self) -> u32 {
        self.limit.load(Ordering::Relaxed)
    }

    /// Change the admission bound. Shrinking drains lazily (admitted
    /// threads are never evicted mid-flight); growing only takes
    /// effect for future admissions — call [`Gate::fill`] to wake
    /// passive waiters into the new headroom.
    pub fn set_limit(&self, limit: u32) {
        assert!(limit >= 1, "admission limit must be >= 1");
        self.limit.store(limit, Ordering::Relaxed);
    }

    /// Threads currently admitted.
    #[inline]
    pub fn active(&self) -> u32 {
        self.active.load(Ordering::Relaxed)
    }

    /// Passive (parked) waiters right now.
    #[inline]
    pub fn passive_len(&self) -> u32 {
        self.passive_len.load(Ordering::Relaxed)
    }

    /// Highest admitted-set size any successful admission produced.
    #[inline]
    pub fn peak_active(&self) -> u32 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Forced (reintroduction) admissions performed so far.
    #[inline]
    pub fn reintroduced(&self) -> u64 {
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
    pub fn try_admit(&self) -> bool {
        self.try_enter()
    }

    /// Enter the admitted set, parking passively while it is full.
    /// Returns `true` when the caller had to wait (the gate's
    /// contention signal).
    pub fn admit(&self) -> bool {
        if self.try_enter() {
            return false;
        }
        loop {
            match self.wait_passive(None) {
                PassiveWait::Granted => {
                    // The waker already transferred a slot to us.
                    return true;
                }
                PassiveWait::TimedOut => unreachable!("no deadline"),
                // Retracted — room appeared while we were publishing.
                PassiveWait::Retracted => {
                    if self.try_enter() {
                        return true;
                    }
                }
            }
        }
    }

    /// [`Gate::admit`] with a deadline (absolute
    /// [`asl_runtime::clock`] nanoseconds): the timed-acquisition
    /// front half of [`Gcr`]'s `try_lock_until`. Returns
    /// `Some(waited)` when admitted (`waited` is the contention
    /// signal, as in `admit`), `None` when the deadline passed first —
    /// in which case the caller holds no admission slot and no
    /// passive-list node remains.
    pub fn admit_until(&self, deadline_ns: u64) -> Option<bool> {
        if self.try_enter() {
            return Some(false);
        }
        loop {
            match self.wait_passive(Some(deadline_ns)) {
                PassiveWait::Granted => return Some(true),
                PassiveWait::TimedOut => return None,
                PassiveWait::Retracted => {
                    if self.try_enter() {
                        return Some(true);
                    }
                    if asl_runtime::clock::now_ns() >= deadline_ns {
                        return None;
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
        // away unseen while we park.
        if self.active.load(Ordering::SeqCst) < self.limit.load(Ordering::Relaxed) {
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
            if self.active.load(Ordering::SeqCst) < self.limit.load(Ordering::Relaxed) {
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
                let now = asl_runtime::clock::now_ns();
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

    /// Leave the admitted set. The freed slot is deliberately *not*
    /// handed to a passive waiter: the expected case is that a
    /// circulating thread (this one, after its think time) reclaims
    /// it with zero park/unpark traffic, which is what keeps the
    /// restricted set cache-warm and syscall-free. Passive waiters
    /// cover the other case themselves — each re-checks for headroom
    /// at least every [`PASSIVE_RESCUE_BOUND`] and self-admits — and
    /// long-term fairness comes from the periodic reintroduction
    /// pulse: every `reintroduce_period` exits that happen while
    /// waiters are passive, the *oldest* one is force-admitted.
    pub fn exit(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
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
    }

    /// Admit passive waiters into fresh headroom (after the limit
    /// grew). Returns how many were admitted.
    pub fn fill(&self) -> u32 {
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
    /// Starting admission bound.
    pub initial_limit: u32,
    /// Controller floor (≥ 1).
    pub min_limit: u32,
    /// Controller ceiling.
    pub max_limit: u32,
    /// Force-admit the oldest passive waiter every this many
    /// handovers that occur while waiters are passive.
    pub reintroduce_period: u32,
    /// Controller tick every this many acquisitions; `0` disables the
    /// controller entirely (fixed bound).
    pub ctl_period: u32,
    /// Shrink only when the cell's consecutive-contended streak is at
    /// least this long — sustained saturation, not a contention blip.
    pub shrink_streak: u64,
    /// Shrink when the windowed mean hold time exceeds the best
    /// observed window by more than this percentage (hold-time
    /// inflation = holders being preempted = collapse onset).
    pub inflation_pct: u32,
}

impl Default for GcrConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1);
        GcrConfig {
            initial_limit: cpus.clamp(2, 8),
            min_limit: 1,
            max_limit: cpus.clamp(2, 8) * 2,
            reintroduce_period: 1024,
            ctl_period: 64,
            shrink_streak: 64,
            inflation_pct: 100,
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
        assert!(
            self.min_limit <= self.initial_limit && self.initial_limit <= self.max_limit,
            "need min_limit <= initial_limit <= max_limit"
        );
        assert!(
            self.reintroduce_period >= 1,
            "reintroduce period must be >= 1"
        );
    }
}

/// Grow while the wrapped lock is busy for less than this share of a
/// controller window's wall time (and waiters sit passive): the gate
/// is binding, but the lock itself still has headroom.
pub const GROW_UTIL_PCT: u64 = 85;

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

    /// One release-path tick.
    ///
    /// # Safety
    /// The caller must hold the wrapped lock, making this call
    /// exclusive.
    unsafe fn tick(&self, cell: &TelemetryCell, gate: &Gate) {
        if self.cfg.ctl_period == 0 {
            return;
        }
        let st = &mut *self.state.get();
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
        if w.acquisitions == 0 {
            return;
        }
        let avg_hold = w.hold_ns as f64 / w.acquisitions as f64;
        if avg_hold > 0.0 && (st.baseline_hold == 0.0 || avg_hold < st.baseline_hold) {
            st.baseline_hold = avg_hold;
        }
        let limit = gate.limit();
        let inflated = st.baseline_hold > 0.0
            && avg_hold > st.baseline_hold * (1.0 + self.cfg.inflation_pct as f64 / 100.0);
        // Queueing: time spent waiting inside the wrapped lock dwarfs
        // time spent holding it. Holds can stay perfectly clean while
        // this happens — a reordering lock hands off to runnable
        // threads precisely to keep holds short under oversubscription
        // — so it is a shrink signal of its own, not a variant of
        // hold inflation. The 4x band (grow below 1x, shrink above
        // 4x) is the hysteresis that keeps the two rules from
        // fighting.
        let queueing = w.wait_ns > w.hold_ns.saturating_mul(4);
        if ((inflated && cell.contended_streak() >= self.cfg.shrink_streak) || queueing)
            && limit > self.cfg.min_limit
        {
            // Collapse onset: holds inflating under back-to-back
            // contention means admitted threads are preempting each
            // other. Fewer runnable waiters, shorter holds.
            gate.set_limit(limit - 1);
            self.shrinks.fetch_add(1, Ordering::Relaxed);
        } else if limit < self.cfg.max_limit
            && (w.contended == 0
                || (!inflated
                    && gate.passive_len() > 0
                    && wall_ns > 0
                    && w.wait_ns < w.hold_ns
                    && w.hold_ns.saturating_mul(100) < wall_ns.saturating_mul(GROW_UTIL_PCT)))
        {
            // Two "restriction is not binding tightly enough" shapes:
            // the admitted set ran a whole window uncontended, or —
            // with threads parked passive — the wrapped lock was busy
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
/// `try_lock_until` although `Gcr<McsLock>` does. (The admission half,
/// [`Gate::admit_until`], is inner-lock-agnostic and would work; it is
/// the inner wait that cannot be bounded through the facade.)
pub struct Gcr<L: RawLock> {
    inner: L,
    gate: Gate,
    ctl: Controller,
    cell: TelemetryCell,
}

impl<L: RawLock> Gcr<L> {
    /// Wrap `inner` with the default (host-sized, adaptive) config.
    pub fn new(inner: L) -> Self {
        Self::with_config(inner, GcrConfig::default())
    }

    /// Wrap `inner` with an explicit config.
    pub fn with_config(inner: L, cfg: GcrConfig) -> Self {
        cfg.validate();
        Gcr {
            inner,
            gate: Gate::new(cfg.initial_limit, cfg.reintroduce_period),
            ctl: Controller::new(cfg),
            // Hold/wait sampling on: it is the controller's signal.
            cell: TelemetryCell::sampled(),
        }
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Current admission bound `K`.
    pub fn limit(&self) -> u32 {
        self.gate.limit()
    }

    /// Threads currently admitted.
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

impl<L: RawLock> RawLock for Gcr<L> {
    type Token = L::Token;

    fn lock(&self) -> L::Token {
        let waited = self.gate.admit();
        let contended = waited || self.inner.is_locked();
        let t0 = if self.cell.sampling() && contended {
            now_ns()
        } else {
            0
        };
        let token = self.inner.lock();
        if t0 != 0 {
            self.cell.add_wait_ns(now_ns().saturating_sub(t0));
        }
        self.cell.record_acquisition_exclusive(contended);
        self.cell.note_hold_start();
        token
    }

    fn try_lock(&self) -> Option<L::Token> {
        if !self.gate.try_admit() {
            return None;
        }
        match self.inner.try_lock() {
            Some(token) => {
                self.cell.record_acquisition_exclusive(false);
                self.cell.note_hold_start();
                Some(token)
            }
            None => {
                self.gate.exit();
                None
            }
        }
    }

    fn unlock(&self, token: L::Token) {
        self.cell.note_hold_end();
        // Safety: we hold the wrapped lock until the next line.
        unsafe { self.ctl.tick(&self.cell, &self.gate) };
        self.inner.unlock(token);
        self.gate.exit();
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
    /// admission ([`Gate::admit_until`], built on the passive
    /// self-rescue path) and then the inner lock's own timed wait. An
    /// inner timeout rolls the admission back, so a `None` leaves no
    /// residue in either layer.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<L::Token> {
        let waited = self.gate.admit_until(deadline_ns)?;
        let contended = waited || self.inner.is_locked();
        let t0 = if self.cell.sampling() && contended {
            now_ns()
        } else {
            0
        };
        match self.inner.try_lock_until(deadline_ns) {
            Some(token) => {
                if t0 != 0 {
                    self.cell.add_wait_ns(now_ns().saturating_sub(t0));
                }
                self.cell.record_acquisition_exclusive(contended);
                self.cell.note_hold_start();
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
    use crate::api::GuardedLock;
    use crate::{McsLock, TicketLock};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn uncontended_roundtrip_and_accessors() {
        let lock = Gcr::with_config(McsLock::new(), GcrConfig::fixed(2));
        assert_eq!(lock.limit(), 2);
        assert_eq!(lock.active(), 0);
        {
            let _g = lock.guard();
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
        const THREADS: usize = 8;
        const OPS: u64 = 2_000;
        struct Shared {
            lock: Gcr<McsLock>,
            value: UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            // Tiny period so reintroduction churns during the run.
            lock: Gcr::with_config(
                McsLock::new(),
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
        assert_eq!(
            s.lock.telemetry().snapshot().acquisitions,
            THREADS as u64 * OPS
        );
    }

    #[test]
    fn controller_grows_when_uncontended() {
        let lock = Gcr::with_config(
            McsLock::new(),
            GcrConfig {
                initial_limit: 1,
                min_limit: 1,
                max_limit: 3,
                ctl_period: 4,
                ..GcrConfig::default()
            },
        );
        // 3 windows of 4 uncontended acquisitions: grow 1 -> 3 and cap.
        for _ in 0..12 {
            let t = lock.lock();
            lock.unlock(t);
        }
        assert_eq!(lock.limit(), 3);
        assert_eq!(lock.grows(), 2);
        assert_eq!(lock.shrinks(), 0);
    }

    #[test]
    fn controller_shrinks_on_inflated_contended_holds() {
        // Zero inflation tolerance + tiny streak requirement: any
        // window whose mean hold exceeds the best window while two
        // acquisitions ran back-to-back contended must shrink.
        let lock = Arc::new(Gcr::with_config(
            McsLock::new(),
            GcrConfig {
                initial_limit: 4,
                min_limit: 1,
                max_limit: 4,
                ctl_period: 8,
                shrink_streak: 2,
                inflation_pct: 0,
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
        let gate = Gate::new(2, 64);
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
        let _ = Gate::new(0, 64);
    }
}
