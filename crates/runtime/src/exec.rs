//! Minimal multi-worker async executor (no dependencies, std only).
//!
//! The paper's serving workload (ROADMAP item 2) is
//! connection-per-task: 10⁵–10⁶ concurrent clients on a handful of
//! cores, where parking a *task* (a queued [`Waker`]) beats parking a
//! *thread* by three orders of magnitude in memory and context-switch
//! cost. [`Executor::new`] starts a fixed pool of workers draining one
//! shared run queue (`Mutex<VecDeque>` + `Condvar`); [`Executor::spawn`]
//! returns a [`JoinHandle`] to `.await` or [`JoinHandle::join`];
//! [`block_on`] drives a future on the calling thread by spin-then-park.
//!
//! Under a 1.5 µs critical section (the benchmark's `host-kv`) this
//! layer, not any lock, was most of a request, so it is held to the
//! locks' own bar: a task that finds a worker awake and completes on
//! its first poll costs **one allocation, no system call and no
//! registry access**; [`Executor::stats`] counts each.
//!
//! * State word, future and join slot share one `Arc`, held by the run
//!   queue, the task's [`Waker`]s and the [`JoinHandle`]. The state
//!   machine (idle / scheduled / running / notified / complete) gives
//!   the poller the future to itself, and no lock guards it.
//! * Workers count themselves asleep under the queue mutex; an enqueue
//!   signals the condition variable (always a `futex` system call)
//!   only if one is. A worker that is awake checks the queue, under
//!   that mutex, before it sleeps: no wake-up is lost.
//! * `join` is `block_on(handle)`, waiting on the waker slot `.await`
//!   uses, with a per-thread waker made once. A wake is one store to
//!   that thread's wait word, and `block_on` spins on the word before
//!   it parks: a joiner in lock-step with its worker is not parked, so
//!   a completion enters the kernel only for a joiner that really
//!   sleeps ([`wait_stats`] counts polls, spin hits and parks).
//! * The spin budget tunes itself, per thread, from nothing but its own
//!   hits and misses (not `relax::yields_every_poll()`, which answers
//!   for whichever thread asked first). An answered spin sets it to
//!   `SPIN_CAP` = 2 048 rounds: one cross-CPU park/unpark pair on the
//!   2-CPU reference host (20 µs, `unpark` alone 9.5 µs; a round is
//!   11 ns). A spin that runs out halves it, so joiner and worker on
//!   one CPU, where no spin can be answered, stop spinning within a
//!   dozen joins, while one answer undoes any run of misses: a few
//!   stalls of the worker in a row cannot strand the budget below a
//!   task's length. At zero, every `PROBE_EVERY` = 32nd park is
//!   preceded by a 64-round probe — 2 rounds a park — which brought a
//!   budget of zero back after 32–64 parks of a 2 000-join burst
//!   across CPUs.
//! * Dropping the executor cancels tasks parked on external primitives
//!   (an async-mutex wait queue), found in a registry a task joins
//!   when a poll first returns `Pending`, and tasks still in the queue.
//!
//! A task's panic is caught and raised again from its handle. No I/O
//! reactor, no timer wheel: they live with the workloads that need them.
//!
//! ```
//! use asl_runtime::exec::{block_on, Executor};
//!
//! let exec = Executor::new(2);
//! let handle = exec.spawn(async { 6 * 7 });
//! assert_eq!(block_on(handle), 42);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::mem::{replace, take, ManuallyDrop};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU8};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;

/// Task is not queued and not running; a wake must enqueue it.
const IDLE: u8 = 0;
/// Task sits in the run queue awaiting a worker.
const SCHEDULED: u8 = 1;
/// A worker is polling the task right now.
const RUNNING: u8 = 2;
/// A wake arrived mid-poll; the worker re-enqueues after polling.
const NOTIFIED: u8 = 3;
/// The future is gone: finished, panicked or cancelled. Final.
const COMPLETE: u8 = 4;

/// No user code runs under a mutex of this module (futures are polled
/// and dropped, and wakers called, outside them): none gets poisoned.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("executor mutex poisoned")
}

/// One spawned future with output `T`, in a single allocation.
struct Task<T, F> {
    state: AtomicU8,
    exec: Weak<Inner>,
    /// Dropped in place when the task completes. Owned by the thread
    /// that last moved `state`: the worker that took it from `SCHEDULED`
    /// to `RUNNING`, or a canceller from a resting state to `COMPLETE`.
    future: UnsafeCell<Option<F>>,
    /// Whether the task is in the shutdown registry (the poller's).
    registered: AtomicBool,
    join: Mutex<Join<T>>,
}

enum Join<T> {
    Waiting(Option<Waker>),
    Done(thread::Result<T>),
    Taken,
}

// SAFETY: the other fields are `Sync` by themselves, given `T: Send`.
// `future` is reached only by the one thread that owns it under the
// rule on the field, so a shared `&Task` never gives two threads
// access to it; `F: Send` lets that thread be any thread.
unsafe impl<T: Send, F: Send> Sync for Task<T, F> {}

/// A task as the run queue and the shutdown registry see it.
trait Runnable: Send + Sync {
    /// Poll the task once, on a worker of `inner`.
    fn run(self: Arc<Self>, inner: &Inner);
    /// Drop the future, unless a worker is polling it.
    fn cancel(&self);
}

impl<T: Send + 'static, F: Future<Output = T> + Send + 'static> Wake for Task<T, F> {
    /// Enqueue an idle task; leave a wake during a poll to the poller.
    fn wake(self: Arc<Self>) {
        let wake = |state| match state {
            IDLE => Some(SCHEDULED),
            RUNNING => Some(NOTIFIED),
            _ => None,
        };
        if self.state.fetch_update(AcqRel, Acquire, wake) == Ok(IDLE) {
            if let Some(inner) = self.exec.upgrade() {
                inner.enqueue(self, false);
            }
        }
    }
}

impl<T: Send + 'static, F: Future<Output = T> + Send + 'static> Runnable for Task<T, F> {
    fn run(self: Arc<Self>, inner: &Inner) {
        // A task cancelled while it sat in the queue is skipped.
        let state = &self.state;
        if state.compare_exchange(SCHEDULED, RUNNING, AcqRel, Acquire) != Ok(SCHEDULED) {
            return;
        }
        // SAFETY: `as_ptr` gives the pointer `into_raw` would. The
        // count this second `Arc` never took is never given back, it is
        // not used once `self` is gone, and clones take their own.
        let borrowed = unsafe { Arc::from_raw(Arc::as_ptr(&self)) };
        let waker = ManuallyDrop::new(Waker::from(borrowed));
        // SAFETY: the transition above made this thread the owner of
        // `future`, until `state` next moves below.
        let slot = unsafe { &mut *self.future.get() };
        let future = slot.as_mut().expect("a queued task has a future");
        // SAFETY: the future lives in the `Arc`'s allocation and is
        // never moved out of it, only dropped in place.
        let future = unsafe { Pin::new_unchecked(future) };
        let mut cx = Context::from_waker(&waker);
        let result = match catch_unwind(AssertUnwindSafe(|| future.poll(&mut cx))) {
            Ok(Poll::Ready(value)) => Ok(value),
            Err(panic) => Err(panic),
            // The executor is being dropped — by this very task, if
            // its worker was detached: cancelled here and now.
            Ok(Poll::Pending) if inner.shutdown.load(Acquire) => {
                *slot = None;
                self.state.store(COMPLETE, Release);
                return;
            }
            Ok(Poll::Pending) => {
                if !self.registered.swap(true, Relaxed) {
                    inner.register(Arc::<Self>::downgrade(&self));
                }
                // RUNNING -> IDLE gives `future` up; if a wake slipped
                // in (NOTIFIED), re-enqueue so it is not lost. Nothing
                // else may move the state of a task during its poll.
                let parked = self.state.compare_exchange(RUNNING, IDLE, AcqRel, Acquire);
                debug_assert!(matches!(parked, Ok(RUNNING) | Err(NOTIFIED)));
                if parked.is_err() {
                    self.state.store(SCHEDULED, Release);
                    inner.enqueue(self, false);
                }
                return;
            }
        };
        // Publish the result; wake the joiner, if one waits, unlocked.
        *slot = None;
        self.state.store(COMPLETE, Release);
        let waiting = replace(&mut *locked(&self.join), Join::Done(result));
        if let Join::Waiting(Some(waker)) = waiting {
            waker.wake();
        }
    }

    fn cancel(&self) {
        let rest = |state| matches!(state, IDLE | SCHEDULED).then_some(COMPLETE);
        if self.state.fetch_update(AcqRel, Acquire, rest).is_ok() {
            // SAFETY: no worker was polling, and none will: `COMPLETE`
            // is final. That makes this thread the owner of `future`.
            unsafe { *self.future.get() = None };
        }
    }
}

/// A task as its [`JoinHandle`] sees it.
impl<T, F> AsRef<Mutex<Join<T>>> for Task<T, F> {
    fn as_ref(&self) -> &Mutex<Join<T>> {
        &self.join
    }
}

/// Counters of an executor since it started ([`Executor::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks spawned.
    pub spawned: u64,
    /// Tasks handed to a worker to poll.
    pub polls: u64,
    /// Enqueues that signalled a sleeping worker: one system call each.
    pub wakeups_sent: u64,
    /// Enqueues that found every worker awake and signalled nobody.
    pub wakeups_elided: u64,
    /// Tasks that returned `Pending` and entered the shutdown registry.
    pub registered: u64,
    /// Longest the run queue has been.
    pub peak_queue_depth: u64,
}

#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<Arc<dyn Runnable>>,
    /// Workers waiting on `available` that no enqueue has signalled.
    sleeping: usize,
    /// All but `registered`, which `Registry` counts.
    stats: ExecStats,
}

/// Tasks that have returned `Pending` and so may be parked on an
/// external primitive — e.g. an async-mutex wait queue — that only
/// dropping their future unlinks them from. Pruned amortized-O(1).
#[derive(Default)]
struct Registry {
    list: Vec<Weak<dyn Runnable>>,
    prune_at: usize,
    registered: u64,
}

#[derive(Default)]
struct Inner {
    queue: Mutex<RunQueue>,
    available: Condvar,
    /// Set (under the queue mutex, so the check-then-wait in
    /// `worker_loop` cannot miss it) when the executor drops.
    shutdown: AtomicBool,
    parked: Mutex<Registry>,
}

impl Inner {
    fn enqueue(&self, task: Arc<dyn Runnable>, spawned: bool) {
        let mut q = locked(&self.queue);
        q.tasks.push_back(task);
        q.stats.spawned += u64::from(spawned);
        q.stats.peak_queue_depth = q.stats.peak_queue_depth.max(q.tasks.len() as u64);
        // A sleeper is claimed under the mutex it counted itself in
        // under; a worker that is awake looks at the queue, under this
        // mutex, before it sleeps, and needs no signal.
        let wake = q.sleeping > 0;
        q.sleeping -= usize::from(wake);
        q.stats.wakeups_sent += u64::from(wake);
        q.stats.wakeups_elided += u64::from(!wake);
        drop(q);
        if wake {
            self.available.notify_one();
        }
    }

    fn register(&self, task: Weak<dyn Runnable>) {
        let mut reg = locked(&self.parked);
        if reg.list.len() >= reg.prune_at {
            reg.list.retain(|task| task.strong_count() > 0);
            reg.prune_at = (reg.list.len() * 2).max(64);
        }
        reg.list.push(task);
        reg.registered += 1;
    }
}

/// A fixed pool of worker threads draining a shared run queue.
///
/// Dropping the executor signals shutdown and joins the workers;
/// tasks still queued or parked are cancelled (their futures run
/// destructors, so cancel-safe primitives — e.g. `asl_locks`' async
/// mutex wait nodes — unlink themselves). A task may drop the last
/// handle to its own executor.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Executor {
    /// Start `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::<Inner>::default();
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("asl-exec-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { inner, workers }
    }

    /// Spawn a future onto the pool; the handle can be `.await`ed or
    /// synchronously [`JoinHandle::join`]ed.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let task = Arc::new(Task {
            state: AtomicU8::new(SCHEDULED),
            exec: Arc::downgrade(&self.inner),
            future: UnsafeCell::new(Some(future)),
            registered: AtomicBool::new(false),
            join: Mutex::new(Join::Waiting(None)),
        });
        self.inner.enqueue(task.clone(), true);
        JoinHandle { task }
    }

    /// Number of tasks currently sitting in the run queue (racy
    /// diagnostic; excludes tasks being polled).
    pub fn queued(&self) -> usize {
        locked(&self.inner.queue).tasks.len()
    }

    /// What the tasks so far cost in wake-up system calls and registry
    /// entries, as exact counts.
    pub fn stats(&self) -> ExecStats {
        let mut stats = locked(&self.inner.queue).stats;
        stats.registered = locked(&self.inner.parked).registered;
        stats
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let q = locked(&self.inner.queue);
        self.inner.shutdown.store(true, Release);
        drop(q);
        self.inner.available.notify_all();
        for worker in self.workers.drain(..) {
            // Dropped by a task on this worker: it cannot join itself.
            // Detached, it exits when the poll it is in returns.
            if worker.thread().id() != thread::current().id() {
                let _ = worker.join();
            }
        }
        // Cancel every unfinished task: drop its future so cancel-safe
        // primitives (async-mutex wait nodes, held guards) unlink and
        // release. No lock is held over a destructor: one that cascades
        // (guard drop → handoff → wake) touches other tasks' state and
        // the run queue. Parked tasks first: what they wake is queued.
        let parked = take(&mut locked(&self.inner.parked).list);
        let parked = parked.iter().filter_map(Weak::upgrade);
        parked.for_each(|task| task.cancel());
        let queued = take(&mut locked(&self.inner.queue).tasks);
        queued.iter().for_each(|task| task.cancel());
    }
}

fn worker_loop(inner: &Inner) {
    let mut q = locked(&inner.queue);
    loop {
        if let Some(task) = q.tasks.pop_front() {
            q.stats.polls += 1;
            drop(q);
            task.run(inner);
            q = locked(&inner.queue);
        } else if inner.shutdown.load(Acquire) {
            return;
        } else {
            q.sleeping += 1;
            q = inner.available.wait(q).expect("executor mutex poisoned");
        }
    }
}

/// Completion handle for a spawned task: `.await` it, or
/// [`JoinHandle::join`] it from sync code, for the task's output — or its
/// panic, resumed as unwrapping [`std::thread::JoinHandle::join`] would.
pub struct JoinHandle<T> {
    task: Arc<dyn AsRef<Mutex<Join<T>>> + Send + Sync>,
}

impl<T> JoinHandle<T> {
    /// Block the calling thread until the task completes.
    ///
    /// # Panics
    /// If the task panicked, or an earlier poll already took the output.
    pub fn join(self) -> T {
        block_on(self)
    }

    /// Whether the task has completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        !matches!(*locked((*self.task).as_ref()), Join::Waiting(_))
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut join = locked((*self.task).as_ref());
        if let Join::Waiting(waker) = &mut *join {
            *waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let Join::Done(result) = replace(&mut *join, Join::Taken) else {
            panic!("JoinHandle polled after Ready");
        };
        drop(join);
        Poll::Ready(result.unwrap_or_else(|panic| resume_unwind(panic)))
    }
}

/// `block_on`'s wait word: no wake since the last poll began.
const AWAKE: u8 = 0;
/// The thread sleeps in `park`; a wake must `unpark` it.
const ASLEEP: u8 = 1;
/// A wake arrived: poll again.
const WOKEN: u8 = 2;

/// Most `spin_loop` rounds a `Pending` poll watches the wait word for
/// before the thread parks: one cross-CPU park/unpark pair (module docs).
const SPIN_CAP: u32 = 2_048;
/// With the budget at zero, every this-many-th park is preceded by a
/// probe of `SPIN_CAP / PROBE_EVERY` rounds.
const PROBE_EVERY: u32 = 32;

struct Unparker {
    thread: thread::Thread,
    word: AtomicU8,
}

impl Wake for Unparker {
    /// One write to the waiter's line; the kernel only if it sleeps.
    fn wake(self: Arc<Self>) {
        if self.word.swap(WOKEN, AcqRel) == ASLEEP {
            self.thread.unpark();
        }
    }
}

/// Leaves the wait word `WOKEN` when a `block_on` returns or unwinds: a
/// nested one shares the outer one's word and may have consumed its
/// wake, so the outer loop polls once more instead of sleeping on it.
struct Renotify<'a>(&'a AtomicU8);

impl Drop for Renotify<'_> {
    fn drop(&mut self) {
        self.0.store(WOKEN, Release);
    }
}

/// What the calling thread's [`block_on`]s, so also its
/// [`JoinHandle::join`]s, have done so far ([`wait_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Polls of a `block_on` future.
    pub polls: u64,
    /// `Pending` polls answered inside the spin: no system call.
    pub spin_hits: u64,
    /// `Pending` polls that put the thread to sleep in the kernel.
    pub parks: u64,
    /// `spin_loop` rounds spent watching the wait word.
    pub spins: u64,
}

thread_local! {
    /// This thread's `block_on` waker, made once: `join` never allocates.
    static UNPARKER: (Arc<Unparker>, Waker) = {
        let (thread, word) = (thread::current(), AtomicU8::new(AWAKE));
        let unparker = Arc::new(Unparker { thread, word });
        (unparker.clone(), Waker::from(unparker))
    };
    /// Spin rounds this thread's next `Pending` poll may spend.
    static BUDGET: Cell<u32> = const { Cell::new(SPIN_CAP) };
    static STATS: Cell<WaitStats> =
        const { Cell::new(WaitStats { polls: 0, spin_hits: 0, parks: 0, spins: 0 }) };
}

/// The calling thread's [`WaitStats`] so far.
pub fn wait_stats() -> WaitStats {
    STATS.get()
}

/// After a `Pending` poll: watch `word` for this thread's spin budget,
/// then park until a wake. A spin that is answered restores the budget
/// to `SPIN_CAP`; one that runs out halves it.
fn await_wake(word: &AtomicU8) {
    let mut stats = STATS.get();
    let mut budget = BUDGET.get();
    if budget == 0 && stats.parks % u64::from(PROBE_EVERY) == 0 {
        budget = SPIN_CAP / PROBE_EVERY;
    }
    let mut spun = 0;
    while spun < budget && word.load(Acquire) != WOKEN {
        std::hint::spin_loop();
        spun += 1;
    }
    let hit = spun < budget;
    BUDGET.set(if hit { SPIN_CAP } else { BUDGET.get() / 2 });
    let park = !hit && word.compare_exchange(AWAKE, ASLEEP, AcqRel, Acquire) == Ok(AWAKE);
    stats.spins += u64::from(spun);
    stats.spin_hits += u64::from(hit);
    stats.parks += u64::from(park);
    STATS.set(stats);
    // `park` may return early, or on a token some other `unpark` left.
    while park && word.load(Acquire) == ASLEEP {
        thread::park();
    }
}

/// Drive `future` to completion on the calling thread.
///
/// A wake stores to the thread's wait word, which is cleared before
/// each poll; after a `Pending` poll the thread spins on it for a
/// self-tuning budget and only then parks (module docs). A `block_on`
/// nested in a future that is `block_on`-driven on the same thread
/// shares its waker and word, and costs that future one spurious poll.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    UNPARKER.with(|(unparker, waker)| {
        let _renotify = Renotify(&unparker.word);
        loop {
            unparker.word.store(AWAKE, Relaxed);
            let mut stats = STATS.get();
            stats.polls += 1;
            STATS.set(stats);
            if let Poll::Ready(v) = future.as_mut().poll(&mut Context::from_waker(waker)) {
                return v;
            }
            await_wake(&unparker.word);
        }
    })
}

/// A future that yields to the run queue once, then completes — the
/// async analogue of `thread::yield_now`, used by fairness tests and
/// cooperative long-running tasks.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `body` on a thread of its own and fail, instead of stalling
    /// the suite, if it has not returned within ten seconds.
    fn within_deadline<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = mpsc::channel();
        thread::spawn(move || done.send(body()));
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("hung, or panicked")
    }

    #[test]
    fn block_on_ready() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn nested_block_on_keeps_the_outer_wake() {
        within_deadline(|| {
            let exec = Executor::new(1);
            let ready = Arc::new(AtomicBool::new(false));
            // The first poll hands its waker to a thread that fires it
            // after 10 ms, waits 60 ms in a nested `block_on` (which
            // shares the wait word, and so sees that wake) and returns
            // `Pending`: the outer loop must poll again, not sleep.
            block_on(std::future::poll_fn(|cx| {
                if ready.load(Acquire) {
                    return Poll::Ready(());
                }
                let (ready, waker) = (ready.clone(), cx.waker().clone());
                thread::spawn(move || {
                    thread::sleep(Duration::from_millis(10));
                    ready.store(true, Release);
                    waker.wake();
                });
                let slow = exec.spawn(async { thread::sleep(Duration::from_millis(60)) });
                slow.join();
                Poll::Pending
            }));
        });
    }

    #[test]
    fn spawn_and_join() {
        let exec = Executor::new(2);
        let h = exec.spawn(async { 1 + 1 });
        assert_eq!(h.join(), 2);
    }

    #[test]
    fn join_handle_awaitable() {
        let exec = Executor::new(2);
        let a = exec.spawn(async { 20 });
        let b = exec.spawn(async move { a.await + 22 });
        assert_eq!(block_on(b), 42);
    }

    #[test]
    fn many_tasks_complete() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..1_000)
            .map(|_| {
                let c = counter.clone();
                exec.spawn(async move {
                    yield_now().await;
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn cross_thread_wake() {
        // A future parked on a channel-like cell, woken from a plain
        // thread: the executor must deliver the wake and finish.
        struct Cell {
            state: Mutex<(Option<u64>, Option<Waker>)>,
        }
        struct Recv(Arc<Cell>);
        impl Future for Recv {
            type Output = u64;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                let mut st = self.0.state.lock().unwrap();
                if let Some(v) = st.0.take() {
                    Poll::Ready(v)
                } else {
                    st.1 = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let cell = Arc::new(Cell {
            state: Mutex::new((None, None)),
        });
        let exec = Executor::new(1);
        let h = exec.spawn(Recv(cell.clone()));
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut st = cell.state.lock().unwrap();
            st.0 = Some(99);
            if let Some(w) = st.1.take() {
                drop(st);
                w.wake();
            }
        });
        assert_eq!(h.join(), 99);
        sender.join().unwrap();
    }

    #[test]
    fn wake_during_poll_not_lost() {
        // A future that wakes itself N times before completing: every
        // self-wake lands while the task is RUNNING, exercising the
        // NOTIFIED re-enqueue path.
        struct SelfWake {
            remaining: usize,
        }
        impl Future for SelfWake {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.remaining == 0 {
                    Poll::Ready(())
                } else {
                    self.remaining -= 1;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let exec = Executor::new(1);
        exec.spawn(SelfWake { remaining: 100 }).join();
    }

    #[test]
    fn drop_cancels_queued_tasks() {
        // Tasks still queued at drop never run, but their futures are
        // dropped (destructors observe cancellation).
        struct NoteDrop(Arc<AtomicUsize>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let exec = Executor::new(1);
            // Park the single worker on a never-ready future...
            struct Never;
            impl Future for Never {
                type Output = ();
                fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                    Poll::Pending
                }
            }
            let _h = exec.spawn(Never);
            // ...then pile tasks behind it and drop the executor. Some
            // may run (worker timing), but every unrun future must be
            // dropped.
            for _ in 0..16 {
                let d = NoteDrop(dropped.clone());
                drop(exec.spawn(async move {
                    let _keep = d;
                }));
            }
        }
        assert_eq!(dropped.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.spawn(async { 5 }).join(), 5);
    }

    #[test]
    fn task_panic_is_raised_by_join_and_spares_the_worker() {
        within_deadline(|| {
            let exec = Executor::new(1);
            let joined = exec.spawn(async { panic!("boom") });
            let awaited = exec.spawn(async {
                yield_now().await;
                panic!("boom")
            });
            for raised in [
                catch_unwind(AssertUnwindSafe(|| joined.join())),
                catch_unwind(AssertUnwindSafe(|| block_on(awaited))),
            ] {
                let payload = raised.expect_err("the task's panic must reach its handle");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            }
            // The one worker is still there to run this.
            assert_eq!(exec.spawn(async { 5 }).join(), 5);
        });
    }

    #[test]
    fn task_may_drop_the_last_handle_to_its_executor() {
        within_deadline(|| {
            // Alive for as long as a task's future holds a clone.
            let futures = Arc::new(());
            for park_afterwards in [false, true] {
                let exec = Arc::new(Executor::new(1));
                let last = exec.clone();
                let (release, released) = mpsc::channel::<()>();
                let held = futures.clone();
                let task = exec.spawn(async move {
                    let _held = held;
                    released.recv().expect("test thread alive");
                    drop(last);
                    if park_afterwards {
                        std::future::pending::<()>().await;
                    }
                    7
                });
                drop(exec);
                release.send(()).expect("task alive");
                if !park_afterwards {
                    assert_eq!(task.join(), 7);
                }
            }
            // The task that parked after the drop is cancelled by its
            // own (detached) worker when the poll returns.
            while Arc::strong_count(&futures) > 1 {
                thread::yield_now();
            }
        });
    }

    #[test]
    fn burst_behind_a_busy_worker_sends_no_wakeup_and_registers_nothing() {
        within_deadline(|| {
            const BURST: u64 = 2_000;
            let exec = Executor::new(1);
            // Hold the worker in a task that blocks its thread.
            let (running, is_running) = mpsc::channel();
            let (release, released) = mpsc::channel::<()>();
            let holder = exec.spawn(async move {
                running.send(()).expect("test thread alive");
                released.recv().expect("test thread alive");
            });
            is_running.recv().expect("holder runs");
            let before = exec.stats();
            let handles: Vec<_> = (0..BURST).map(|i| exec.spawn(async move { i })).collect();
            let after = exec.stats();
            assert_eq!(after.wakeups_sent, before.wakeups_sent);
            assert_eq!(after.wakeups_elided, before.wakeups_elided + BURST);
            assert_eq!(after.spawned, before.spawned + BURST);
            assert_eq!(after.peak_queue_depth, BURST);
            release.send(()).expect("holder alive");
            holder.join();
            assert_eq!(
                handles.into_iter().map(JoinHandle::join).sum::<u64>(),
                BURST * (BURST - 1) / 2
            );
            let drained = exec.stats();
            assert_eq!(drained.wakeups_sent, before.wakeups_sent);
            assert_eq!(drained.polls, BURST + 1);
            assert_eq!(drained.registered, 0);
        });
    }

    #[test]
    fn parked_tasks_register_once() {
        let exec = Executor::new(1);
        let handles: Vec<_> = (0..10)
            .map(|_| {
                exec.spawn(async {
                    yield_now().await;
                    yield_now().await;
                })
            })
            .collect();
        handles.into_iter().for_each(JoinHandle::join);
        let stats = exec.stats();
        assert_eq!((stats.registered, stats.polls), (10, 30));
    }
}
