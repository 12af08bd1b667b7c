//! Delegation-lock core: the op-apply [`DelegationLock`] interface,
//! the one publication-slot engine under the array-based members, and
//! the registry bridge.
//!
//! Delegation locks never migrate the lock to the waiter — waiters
//! ship their critical section (an `Op` value) to whichever thread
//! currently *executes* (a combiner or a dedicated server), which
//! applies it against the protected state and ships the result back.
//! The paper's §5 positions this family as the main alternative to
//! SLO-aware reordering: it hides slow cores (the executor can sit on
//! a big core) at the cost of converting critical sections into
//! operations.
//!
//! # One engine, two axes
//!
//! Three of the four members are the same structure — an array of
//! cache-padded publication slots, one per participant, that a single
//! executor scans — and differ in two independent choices only:
//!
//! | | no usage policy | ban policy |
//! |---|---|---|
//! | **a submitter executes** (whoever wins the executor flag) | [`FlatCombiner`](crate::flatcomb::FlatCombiner) | [`FcBan`](crate::fcban::FcBan) |
//! | **a dedicated server executes** (`serve` loop) | [`RclLock`](crate::rcl::RclLock) | — |
//!
//! So the engine is written once, here: one shared-state struct, one
//! pending-slot scan (the only place a published op is executed), one
//! client submit loop, one [`SlotHandle`], and one public type over
//! them, [`SlotLock`], that carries the two axes as `const`
//! parameters — the three names are aliases of it. *Who executes*
//! decides whether a submitter may take the executor flag or a
//! `serve` loop holds it (and whether the type has `serve` at all);
//! the *usage policy* is an optional ban meter around each executed
//! op plus the ban wait before each submit (see
//! [`fcban`](crate::fcban)). The empty cell of the table needs no
//! code of its own: it is `SlotLock<.., true, true>`. The fourth
//! member, [`CcSynch`](crate::ccsynch::CcSynch), threads requests
//! into a *queue* instead of scanning an array; it keeps its own node
//! protocol and takes participant claiming, the panic protocol and
//! wait attribution from this module.
//!
//! The hot path is allocation-free everywhere: `Op`/`Out` values move
//! through preallocated cache-padded slots (or queue nodes), never
//! boxed closures.
//!
//! ```
//! use asl_locks::ccsynch::CcSynch;
//!
//! // Shared state `u64`, operation `u64`, result `u64`.
//! let counter = CcSynch::new(0u64, |v: &mut u64, add: u64| {
//!     *v += add;
//!     *v
//! });
//! let h = counter.try_register().expect("slot");
//! assert_eq!(h.apply(5), 5);
//! assert_eq!(h.apply(2), 7);
//! ```
//!
//! # Panics inside delegated operations
//!
//! A delegated `Op` that panics is *caught on the executor*, which
//! marks the request poisoned and keeps serving everyone else — the
//! combiner/server never wedges. The panic then re-raises on the
//! *submitting* thread as `"delegated operation panicked"` (the
//! original payload stays on the executor's side; transporting it
//! would allocate on the hot path). The protected state keeps
//! whatever partial mutation the op made — the same caveat as
//! [`std::sync::Mutex`] poisoning, minus the sticky flag.
//!
//! # The registry bridge
//!
//! [`DelegatedMutex`] adapts any delegation lock whose op type is
//! [`BridgeOp`] into a [`PlainLock`], so delegation locks are
//! addressable from the harness registry (`repro --lock ccsynch`)
//! and usable behind RAII guards. The bridge does *not* delegate the
//! caller's critical section: it runs two delegated baton-transfer
//! operations around it — a `Lock` op that hands a baton to the
//! caller (the executor never blocks in an op), and an `Unlock` op
//! that returns it — and the section itself runs on the calling
//! thread. This preserves each algorithm's submission mechanics but
//! not its batching benefit, and a usage policy sees only the two
//! transfers (`fc-ban` through the bridge meters nothing worth
//! banning) — real users should delegate whole operations via
//! [`DelegationHandle::apply`].

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use asl_runtime::clock::now_ns;
use asl_runtime::relax::Spin;

use crate::fcban::{Ban, Meter, DEFAULT_SLACK_NS};
use crate::plain::{PlainLock, PlainToken};
use crate::telemetry::{self, register_cell, TelemetryCell};

/// Max participants a delegation structure supports (one padded slot
/// or queue node each). Claiming more reports [`SlotsExhausted`].
pub const MAX_SLOTS: usize = 64;

/// A delegation structure ran out of participant slots: more than
/// [`MAX_SLOTS`] handles were claimed over the structure's lifetime.
///
/// Slots are never recycled (a handle's slot stays claimed even after
/// the handle drops — reclaiming would race the executor's scan), so
/// long-lived structures should register once per thread and reuse
/// the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotsExhausted {
    /// The participant cap that was hit ([`MAX_SLOTS`]).
    pub limit: usize,
}

impl fmt::Display for SlotsExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delegation slots exhausted: more than {} participants registered \
             (register once per thread and reuse the handle)",
            self.limit
        )
    }
}

impl std::error::Error for SlotsExhausted {}

/// Claim the next free slot index, or report exhaustion. The counter
/// never passes [`MAX_SLOTS`], so a failed claim cannot corrupt a
/// neighbouring slot (the silent-overflow bug this replaces).
pub(crate) fn claim_slot(next_slot: &AtomicUsize) -> Result<usize, SlotsExhausted> {
    next_slot
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < MAX_SLOTS).then_some(n + 1)
        })
        .map_err(|_| SlotsExhausted { limit: MAX_SLOTS })
}

/// Run one delegated op on the executor, catching its panic so the
/// executor survives: `None` means the op panicked and wrote no
/// result. The payload cannot ride a preallocated slot without
/// boxing, so it is dropped here and the submitter re-raises a fresh
/// panic ([`reraise_delegated_panic`]).
#[inline]
pub(crate) fn run_caught<T, Op, Out>(
    apply: &impl Fn(&mut T, Op) -> Out,
    data: &mut T,
    op: Op,
) -> Option<Out> {
    catch_unwind(AssertUnwindSafe(|| apply(data, op))).ok()
}

/// The submitter's half of the panic protocol.
pub(crate) fn reraise_delegated_panic() -> ! {
    panic!("delegated operation panicked")
}

/// Wait attribution for one kind of submitter-side wait
/// (`<label>.combine`, `<label>.ban`): a sampled cell in the
/// process-wide profiling registry, or nothing — in which case a wait
/// costs no clock read. Nor does an op that did not wait: a submitter
/// calls [`WaitCell::start`] at its first poll that found the op
/// unserved, so one that combines (or is served) straight away is
/// counted with no wait and no clock read.
pub(crate) struct WaitCell(Option<Arc<TelemetryCell>>);

impl WaitCell {
    /// The cell `<label>.<what>`, registered; no cell without a label.
    pub(crate) fn labelled(label: Option<&str>, what: &str) -> Self {
        WaitCell(label.map(|label| {
            let cell = Arc::new(TelemetryCell::sampled());
            register_cell(format!("{label}.{what}"), cell.clone());
            cell
        }))
    }

    fn armed(&self) -> bool {
        self.0.as_deref().is_some_and(TelemetryCell::armed)
    }

    /// Begin a wait: its start time if it is to be recorded.
    #[inline]
    pub(crate) fn start(&self) -> Option<u64> {
        self.armed().then(now_ns)
    }

    /// Count the op, with the wait begun by [`WaitCell::start`] if it
    /// had one; `contended` = some other thread executed the op.
    #[inline]
    pub(crate) fn finish(&self, t0: Option<u64>, contended: bool) {
        if t0.is_some() || self.armed() {
            let waited = t0.map_or(0, |t0| now_ns().saturating_sub(t0));
            self.record(waited, contended);
        }
    }

    /// Record a finished wait of known length. Out of line: the
    /// submit loops this sits in are the uncontended hot path of every
    /// delegation lock, and recording happens only under profiling.
    #[cold]
    pub(crate) fn record(&self, wait_ns: u64, contended: bool) {
        if let Some(cell) = self.0.as_deref().filter(|c| c.armed()) {
            cell.record_acquisition(contended);
            if wait_ns != 0 {
                cell.add_wait_ns(wait_ns);
            }
        }
    }
}

const SLOT_EMPTY: u32 = 0;
const SLOT_PENDING: u32 = 1;
const SLOT_DONE: u32 = 2;
/// The op panicked on the executor; no result was written.
const SLOT_PANICKED: u32 = 3;

/// One publication slot, cache-line padded: the owner writes `op`,
/// flips `seq` to PENDING, and spins for DONE (or PANICKED); the
/// executor does the reverse.
#[repr(align(128))]
struct Slot<Op, Out> {
    seq: AtomicU32,
    op: UnsafeCell<MaybeUninit<Op>>,
    out: UnsafeCell<MaybeUninit<Out>>,
    /// The owner's usage meter, touched only under a ban policy: kept
    /// here so that charging it and polling it stay on the line the
    /// executor and the owner already have.
    usage: Meter,
}

impl<Op, Out> Slot<Op, Out> {
    fn new() -> Self {
        Slot {
            seq: AtomicU32::new(SLOT_EMPTY),
            op: UnsafeCell::new(MaybeUninit::uninit()),
            out: UnsafeCell::new(MaybeUninit::uninit()),
            usage: Meter::default(),
        }
    }

    /// Publish `op` for the executor (EMPTY → PENDING).
    ///
    /// # Safety
    /// The calling thread must own this slot and the slot must be
    /// EMPTY (no outstanding publication).
    unsafe fn publish(&self, op: Op) {
        (*self.op.get()).write(op);
        self.seq.store(SLOT_PENDING, Ordering::Release);
    }

    /// Execute a PENDING slot's op against `data` (DONE on success,
    /// PANICKED on panic — the submitter re-raises).
    ///
    /// # Safety
    /// Caller must be the sole executor (exclusive access to `data`)
    /// and have observed `seq == PENDING` with acquire ordering.
    unsafe fn execute<T, F: Fn(&mut T, Op) -> Out>(&self, data: *mut T, apply: &F) {
        let op = (*self.op.get()).assume_init_read();
        match run_caught(apply, &mut *data, op) {
            Some(out) => {
                (*self.out.get()).write(out);
                self.seq.store(SLOT_DONE, Ordering::Release);
            }
            None => self.seq.store(SLOT_PANICKED, Ordering::Release),
        }
    }

    /// Consume a finished slot (`seq` observed DONE or PANICKED with
    /// acquire ordering): reset to EMPTY and return the result,
    /// re-raising a delegated panic.
    ///
    /// # Safety
    /// The calling thread must own this slot.
    unsafe fn take_result(&self, seq: u32) -> Out {
        self.seq.store(SLOT_EMPTY, Ordering::Relaxed);
        if seq == SLOT_PANICKED {
            reraise_delegated_panic();
        }
        debug_assert_eq!(seq, SLOT_DONE);
        (*self.out.get()).assume_init_read()
    }
}

/// The publication-slot delegation engine: shared state of a
/// [`SlotLock`]. Its two axes are compile-time constants of the lock
/// and its handles, passed down as `SERVER` and `BAN`, so a
/// combination pays only for the branches it takes.
struct Engine<T, Op, Out, F: Fn(&mut T, Op) -> Out> {
    slots: Box<[Slot<Op, Out>]>,
    next_slot: AtomicUsize,
    data: UnsafeCell<T>,
    apply: F,
    /// The executor flag: whoever holds it has exclusive access to
    /// `data` — a combining submitter for one scan, a server from
    /// `serve` entry to exit (which is also what makes a second
    /// concurrent server an error instead of a data race).
    executing: AtomicBool,
    /// Asks the server to drain and exit; the server consumes it.
    stop: AtomicBool,
    /// The usage policy's state: the ban policy, `Some` iff `BAN`.
    ban: Option<Ban>,
    /// Submitter-wait attribution (`<label>.combine`) when profiled.
    wait: WaitCell,
}

// SAFETY: `data` is only touched by the thread holding `executing`
// (see the field); `op`/`out` of a slot are handed between its owner
// and that thread by the slot's `seq` protocol (release stores,
// acquire loads), so `T`, `Op` and `Out` cross threads (`Send`) but
// are never shared; `apply` is called through `&F` from whichever
// thread executes (`F: Send + Sync`); every other field is an atomic
// or immutable after construction.
unsafe impl<T: Send, Op: Send, Out: Send, F: Fn(&mut T, Op) -> Out + Send + Sync> Send
    for Engine<T, Op, Out, F>
{
}
unsafe impl<T: Send, Op: Send, Out: Send, F: Fn(&mut T, Op) -> Out + Send + Sync> Sync
    for Engine<T, Op, Out, F>
{
}

impl<T, Op, Out, F: Fn(&mut T, Op) -> Out> Engine<T, Op, Out, F> {
    /// Execute every pending published op — the engine's one scan,
    /// and the only place a slot is executed — charging each to its
    /// submitter under a ban policy. Returns how many were served.
    ///
    /// # Safety
    /// Caller must hold the executor flag.
    unsafe fn serve_pending<const BAN: bool>(&self) -> usize {
        let data = self.data.get();
        let claimed = self.next_slot.load(Ordering::Acquire).min(MAX_SLOTS);
        let mut served = 0;
        for slot in &self.slots[..claimed] {
            if slot.seq.load(Ordering::Acquire) != SLOT_PENDING {
                continue;
            }
            let t0 = if BAN { now_ns() } else { 0 };
            // SAFETY: sole executor (caller's contract); PENDING
            // acquired just above.
            slot.execute(data, &self.apply);
            if let (true, Some(ban)) = (BAN, &self.ban) {
                ban.charge(&slot.usage, claimed, now_ns().saturating_sub(t0));
            }
            served += 1;
        }
        served
    }

    /// The one client loop: wait out a ban, publish `op` in slot
    /// `idx`, then spin for its result — taking the executor flag and
    /// scanning for everyone when this engine's submitters combine.
    fn submit<const SERVER: bool, const BAN: bool>(&self, idx: usize, op: Op) -> Out {
        let slot = &self.slots[idx];
        if let (true, Some(ban)) = (BAN, &self.ban) {
            ban.wait_out(&slot.usage);
        }
        // SAFETY: `idx` belongs to the one handle calling this, which
        // is not `Sync`, and the slot is EMPTY (the handle's previous
        // submit consumed its result).
        unsafe { slot.publish(op) };

        let mut t0 = None;
        let mut spin = Spin::new();
        let (seq, combined) = loop {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != SLOT_PENDING {
                break (seq, false);
            }
            if !SERVER && !self.executing.swap(true, Ordering::Acquire) {
                // SAFETY: we hold the executor flag.
                unsafe { self.serve_pending::<BAN>() };
                self.executing.store(false, Ordering::Release);
                // Our own op was pending, so the pass resolved it.
                let seq = slot.seq.load(Ordering::Acquire);
                debug_assert_ne!(seq, SLOT_PENDING, "own op unserved after pass");
                break (seq, true);
            }
            // Somebody else is to serve it: the wait starts here.
            t0 = t0.or_else(|| self.wait.start());
            spin.relax();
        };
        self.wait.finish(t0, !combined);
        // SAFETY: our slot; `seq` observed DONE/PANICKED with acquire.
        unsafe { slot.take_result(seq) }
    }
}

/// A publication-slot delegation lock over a value `T` with operation
/// type `Op`: the engine of this module with its two axes in the type.
/// `SERVER` is who executes — `false`, the submitter that wins the
/// executor flag (flat combining); `true`, a dedicated
/// [`serve`](SlotLock::serve) loop (RCL). `BAN` is the usage policy —
/// `false` for none, `true` for [`fcban`](crate::fcban)'s metering
/// and banning. Use it through the aliases
/// [`FlatCombiner`](crate::flatcomb::FlatCombiner) `<.., false, false>`,
/// [`RclLock`](crate::rcl::RclLock) `<.., true, false>` and
/// [`FcBan`](crate::fcban::FcBan) `<.., false, true>`; the modules
/// they live in say what each combination is for.
pub struct SlotLock<T, Op, Out, F: Fn(&mut T, Op) -> Out, const SERVER: bool, const BAN: bool> {
    engine: Arc<Engine<T, Op, Out, F>>,
}

impl<T, Op, Out, F: Fn(&mut T, Op) -> Out, const SERVER: bool, const BAN: bool>
    SlotLock<T, Op, Out, F, SERVER, BAN>
{
    /// Wrap `value`; `apply` executes one operation against it. With
    /// `SERVER`, no server runs yet — call [`SlotLock::serve`] or
    /// [`SlotLock::start`]. With `BAN`, the ban tolerance is
    /// [`DEFAULT_SLACK_NS`] ([`SlotLock::with_slack`] sets another).
    pub fn new(value: T, apply: F) -> Self {
        Self::labelled(value, apply, None)
    }

    /// [`SlotLock::new`]; with a label, submitter-wait telemetry is
    /// registered as `<label>.combine` — and, with `BAN`, ban-wait
    /// telemetry as `<label>.ban` — in the process-wide profiling
    /// registry.
    pub fn labelled(value: T, apply: F, label: Option<&str>) -> Self {
        Self::over(value, apply, DEFAULT_SLACK_NS, label)
    }

    /// The lock over a fresh engine; `ban_slack_ns` is the ban
    /// policy's tolerance, unused without `BAN`.
    pub(crate) fn over(value: T, apply: F, ban_slack_ns: u64, label: Option<&str>) -> Self {
        let engine = Arc::new(Engine {
            slots: (0..MAX_SLOTS).map(|_| Slot::new()).collect(),
            next_slot: AtomicUsize::new(0),
            data: UnsafeCell::new(value),
            apply,
            executing: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            wait: WaitCell::labelled(label, "combine"),
            ban: BAN.then(|| Ban::new(ban_slack_ns, label)),
        });
        SlotLock { engine }
    }

    /// Claim a participant slot. Call once per thread; the handle
    /// submits operations.
    pub fn try_register(&self) -> Result<SlotHandle<T, Op, Out, F, SERVER, BAN>, SlotsExhausted> {
        Ok(SlotHandle {
            idx: claim_slot(&self.engine.next_slot)?,
            engine: self.engine.clone(),
            _one_thread_at_a_time: PhantomData,
        })
    }

    /// [`SlotLock::try_register`], panicking on exhaustion.
    ///
    /// # Panics
    /// Panics with [`SlotsExhausted`] when more than [`MAX_SLOTS`]
    /// handles are claimed.
    pub fn register(&self) -> SlotHandle<T, Op, Out, F, SERVER, BAN> {
        self.try_register().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Consume, returning the inner value.
    ///
    /// # Panics
    /// Panics if handles (or, with `SERVER`, clones) still exist.
    pub fn into_inner(self) -> T {
        Arc::try_unwrap(self.engine)
            .unwrap_or_else(|_| panic!("handles still registered"))
            .data
            .into_inner()
    }
}

/// The server's side of a lock whose executor is a dedicated loop.
impl<T, Op, Out, F: Fn(&mut T, Op) -> Out, const BAN: bool> SlotLock<T, Op, Out, F, true, BAN> {
    /// Serve on the *calling* thread until [`SlotLock::shutdown`] —
    /// bind/pin the thread first to choose the server's core. The
    /// server holds the executor flag while it scans, drains once
    /// more when asked to stop, and consumes the request as it exits,
    /// so a lock can be served again afterwards.
    ///
    /// # Panics
    /// Panics if a server is already active on this lock.
    pub fn serve(&self) {
        let engine = &*self.engine;
        assert!(
            !engine.executing.swap(true, Ordering::Acquire),
            "rcl: server already active"
        );
        let mut spin = Spin::new();
        loop {
            let stopping = engine.stop.load(Ordering::Relaxed);
            // SAFETY: we hold the executor flag.
            let served = unsafe { engine.serve_pending::<BAN>() };
            if stopping {
                // One full pass ran after the stop flag was observed,
                // so everything published before shutdown was served.
                break;
            }
            if served == 0 {
                spin.relax();
            } else {
                spin.reset();
            }
        }
        engine.stop.store(false, Ordering::Relaxed);
        engine.executing.store(false, Ordering::Release);
    }

    /// Ask the server to drain and exit. With no server active the
    /// request is kept for the next one, which then exits after a
    /// single drain pass — so a shutdown can never race ahead of a
    /// server that is still starting up.
    pub fn shutdown(&self) {
        self.engine.stop.store(true, Ordering::Relaxed);
    }

    /// Whether a server thread is currently polling.
    pub fn server_active(&self) -> bool {
        self.engine.executing.load(Ordering::Relaxed)
    }
}

/// A server lock is shared with its server thread by cloning it.
impl<T, Op, Out, F: Fn(&mut T, Op) -> Out, const BAN: bool> Clone
    for SlotLock<T, Op, Out, F, true, BAN>
{
    fn clone(&self) -> Self {
        SlotLock {
            engine: self.engine.clone(),
        }
    }
}

impl<T, Op, Out, F, const SERVER: bool, const BAN: bool> DelegationLock
    for SlotLock<T, Op, Out, F, SERVER, BAN>
where
    T: Send + 'static,
    Op: Send + 'static,
    Out: Send + 'static,
    F: Fn(&mut T, Op) -> Out + Send + Sync + 'static,
{
    type Op = Op;
    type Out = Out;
    type Handle = SlotHandle<T, Op, Out, F, SERVER, BAN>;

    fn try_register(&self) -> Result<Self::Handle, SlotsExhausted> {
        SlotLock::try_register(self)
    }
}

/// A registered participant of a [`SlotLock`]: owns one publication
/// slot of the structure it was claimed from.
///
/// `Send` but not `Sync`: the slot holds one outstanding op, so one
/// handle submits from one thread at a time.
pub struct SlotHandle<T, Op, Out, F: Fn(&mut T, Op) -> Out, const SERVER: bool, const BAN: bool> {
    idx: usize,
    engine: Arc<Engine<T, Op, Out, F>>,
    _one_thread_at_a_time: PhantomData<Cell<()>>,
}

impl<T, Op, Out, F: Fn(&mut T, Op) -> Out, const SERVER: bool, const BAN: bool>
    SlotHandle<T, Op, Out, F, SERVER, BAN>
{
    /// Publish `op` and block (spin) until some executor has applied
    /// it — possibly this thread, acting as combiner for everyone
    /// pending; under a ban policy an overdrawn thread first waits
    /// out its ban. With a dedicated server this spins until one is
    /// serving.
    pub fn apply(&self, op: Op) -> Out {
        self.engine.submit::<SERVER, BAN>(self.idx, op)
    }
}

impl<T, Op, Out, F, const SERVER: bool, const BAN: bool> DelegationHandle
    for SlotHandle<T, Op, Out, F, SERVER, BAN>
where
    T: Send,
    Op: Send,
    Out: Send,
    F: Fn(&mut T, Op) -> Out + Send + Sync,
{
    type Op = Op;
    type Out = Out;

    fn apply(&self, op: Op) -> Out {
        SlotHandle::apply(self, op)
    }
}

/// A lock whose critical sections are *delegated*: participants
/// register once (claiming a padded slot or queue node) and then
/// submit operations through their [`DelegationHandle`].
///
/// Implemented by [`SlotLock`] (so
/// [`FlatCombiner`](crate::flatcomb::FlatCombiner),
/// [`RclLock`](crate::rcl::RclLock) and
/// [`FcBan`](crate::fcban::FcBan)) and
/// [`CcSynch`](crate::ccsynch::CcSynch).
pub trait DelegationLock: Send + Sync {
    /// The operation shipped to the executor.
    type Op: Send;
    /// The result shipped back.
    type Out: Send;
    /// Per-participant submission handle.
    type Handle: DelegationHandle<Op = Self::Op, Out = Self::Out> + 'static;

    /// Claim a participant slot (call once per thread; the handle is
    /// reused for every submission).
    fn try_register(&self) -> Result<Self::Handle, SlotsExhausted>;
}

/// A registered participant of a [`DelegationLock`]: submits one
/// operation at a time and blocks until its result is back.
pub trait DelegationHandle: Send {
    /// The operation shipped to the executor.
    type Op: Send;
    /// The result shipped back.
    type Out: Send;

    /// Apply `op` to the protected state (possibly becoming the
    /// executor) and return its result.
    ///
    /// # Panics
    /// Re-raises (as a fresh panic) if the delegated op panicked on
    /// the executor.
    fn apply(&self, op: Self::Op) -> Self::Out;
}

/// The operation type of the generic critical-section bridge: a
/// baton-transfer protocol the executor can run without blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeOp {
    /// Try to take the baton for `owner` (a process-unique thread
    /// tag). Succeeds iff the baton is free.
    Lock {
        /// Process-unique tag of the acquiring thread.
        owner: u64,
    },
    /// Return the baton held by `owner`.
    Unlock {
        /// The tag that acquired.
        owner: u64,
    },
}

/// Build the apply function of a bridge: the protected state is the
/// baton (`0` = free, else the holder's thread tag); `mirror` tracks
/// held-ness for the lock-free [`PlainLock::held`] probe.
pub fn bridge_apply(
    mirror: Arc<AtomicBool>,
) -> impl Fn(&mut u64, BridgeOp) -> bool + Send + Sync + 'static {
    move |baton, op| match op {
        BridgeOp::Lock { owner } => {
            if *baton == 0 {
                *baton = owner;
                mirror.store(true, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
        BridgeOp::Unlock { owner } => {
            debug_assert_eq!(*baton, owner, "bridge unlock by non-holder");
            *baton = 0;
            mirror.store(false, Ordering::Relaxed);
            true
        }
    }
}

static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);
static NEXT_MUTEX_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Process-unique tag for the bridge's baton (0 is "free").
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
    /// This thread's registered handle per [`DelegatedMutex`]
    /// instance, keyed by the mutex's process-unique id. Entries are
    /// retained for the thread's lifetime (a handle per delegated
    /// lock the thread ever touched) — registration is once per
    /// (thread, lock), as the slot cap requires.
    static BRIDGE_HANDLES: RefCell<HashMap<u64, Box<dyn Any>>> =
        RefCell::new(HashMap::new());
}

/// [`PlainLock`] adapter over any delegation lock speaking
/// [`BridgeOp`]: generic acquire/release critical sections run as
/// delegated baton transfers, making every delegation lock
/// addressable from the harness registry and the guard API.
///
/// `acquire` retries the `Lock` op (with backoff) until the baton is
/// granted; mutual exclusion comes from the delegation structure
/// serializing ops. Handles are cached per thread automatically.
///
/// # Panics
/// Acquiring from more than [`MAX_SLOTS`] distinct threads panics
/// with [`SlotsExhausted`] (the `PlainLock` interface has no error
/// channel; delegate via [`DelegationLock::try_register`] directly to
/// handle exhaustion).
pub struct DelegatedMutex<L: DelegationLock<Op = BridgeOp, Out = bool>> {
    inner: L,
    mirror: Arc<AtomicBool>,
    name: &'static str,
    id: u64,
    /// Owned attachments dropped with the mutex (e.g. the RCL server
    /// lifecycle guard, which stops and joins the server thread).
    _attachment: Option<Box<dyn Any + Send + Sync>>,
}

impl<L: DelegationLock<Op = BridgeOp, Out = bool> + 'static> DelegatedMutex<L> {
    /// Bridge the lock `build` makes, under `name`. `build` gets the
    /// held-ness mirror to construct the lock's apply function from
    /// ([`bridge_apply`]; the protected state is the baton, initially
    /// `0`) and the label to register wait cells under — `Some(name)`
    /// while `telemetry::profiling` is on, so `repro --profile` shows
    /// `<name>.combine` (and `.ban`) for every bridged lock.
    pub fn bridge(
        name: &'static str,
        build: impl FnOnce(Arc<AtomicBool>, Option<&str>) -> L,
    ) -> Self {
        let mirror = Arc::new(AtomicBool::new(false));
        let inner = build(mirror.clone(), telemetry::profiling().then_some(name));
        DelegatedMutex {
            inner,
            mirror,
            name,
            id: NEXT_MUTEX_ID.fetch_add(1, Ordering::Relaxed),
            _attachment: None,
        }
    }

    /// Tie the lifetime of what `attach` makes from the bridged lock
    /// to the mutex (dropped with it).
    pub fn keep_alive<A: Any + Send + Sync>(mut self, attach: impl FnOnce(&L) -> A) -> Self {
        self._attachment = Some(Box::new(attach(&self.inner)));
        self
    }

    fn apply_bridge(&self, op: BridgeOp) -> bool {
        BRIDGE_HANDLES.with(|m| {
            let mut m = m.borrow_mut();
            let h = m
                .entry(self.id)
                .or_insert_with(|| {
                    let h = self
                        .inner
                        .try_register()
                        .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                    Box::new(h)
                })
                .downcast_ref::<L::Handle>()
                .expect("bridge handle type");
            h.apply(op)
        })
    }
}

impl<L: DelegationLock<Op = BridgeOp, Out = bool> + 'static> PlainLock for DelegatedMutex<L> {
    fn acquire(&self) -> PlainToken {
        let owner = THREAD_TAG.with(|t| *t);
        let mut spin = asl_runtime::relax::Spin::new();
        while !self.apply_bridge(BridgeOp::Lock { owner }) {
            spin.relax();
        }
        PlainToken::issue(self, owner as usize, 0)
    }

    fn try_acquire(&self) -> Option<PlainToken> {
        let owner = THREAD_TAG.with(|t| *t);
        self.apply_bridge(BridgeOp::Lock { owner })
            .then(|| PlainToken::issue(self, owner as usize, 0))
    }

    fn release(&self, token: PlainToken) {
        let (owner, _) = token.redeem(self);
        self.apply_bridge(BridgeOp::Unlock {
            owner: owner as u64,
        });
    }

    fn held(&self) -> bool {
        self.mirror.load(Ordering::Relaxed)
    }

    fn lock_name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_exhausted_reports_limit() {
        let next = AtomicUsize::new(0);
        for i in 0..MAX_SLOTS {
            assert_eq!(claim_slot(&next), Ok(i));
        }
        let err = claim_slot(&next).unwrap_err();
        assert_eq!(err.limit, MAX_SLOTS);
        assert!(err.to_string().contains("64"));
        // The counter is saturated, not corrupted: further claims
        // keep failing cleanly.
        assert!(claim_slot(&next).is_err());
        assert_eq!(next.load(Ordering::Relaxed), MAX_SLOTS);
    }

    #[test]
    fn bridge_apply_baton_protocol() {
        let mirror = Arc::new(AtomicBool::new(false));
        let apply = bridge_apply(mirror.clone());
        let mut baton = 0u64;
        assert!(apply(&mut baton, BridgeOp::Lock { owner: 7 }));
        assert!(mirror.load(Ordering::Relaxed));
        assert!(!apply(&mut baton, BridgeOp::Lock { owner: 9 }), "held");
        assert!(apply(&mut baton, BridgeOp::Unlock { owner: 7 }));
        assert!(!mirror.load(Ordering::Relaxed));
        assert!(apply(&mut baton, BridgeOp::Lock { owner: 9 }));
    }
}
