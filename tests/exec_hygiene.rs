//! Executor hygiene: the wake-up, registry and allocation mechanisms of
//! `asl_runtime::exec`, under load.
//!
//! The executor signals a worker only if one sleeps, enters its
//! shutdown registry only when a task parks, and makes one allocation
//! per task. Each of those is a place where an optimisation can turn
//! into a lost wake-up, a leaked wait node or a silent regression, so
//! each is driven here across its edge many times — under a watchdog,
//! so that a lost wake-up fails the suite instead of stalling it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use libasl::runtime::exec::yield_now;
use libasl::{block_on, AsyncMutex, Executor, JoinHandle};

/// The system allocator, counting the calling thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local without a destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `body` on a thread of its own and fail if it has not returned
/// within `secs` seconds (the stuck thread is left behind).
fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(body()));
    finished
        .recv_timeout(Duration::from_secs(secs))
        .expect("executor test hung (lost wake-up?) or panicked")
}

/// A task that blocks the worker it runs on until the returned sender
/// is used or dropped, and has started by the time this returns.
fn hold_worker(exec: &Executor) -> (mpsc::Sender<()>, JoinHandle<()>) {
    let (running, is_running) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let holder = exec.spawn(async move {
        running.send(()).expect("test thread alive");
        let _ = released.recv();
    });
    is_running.recv().expect("holder runs");
    (release, holder)
}

#[test]
fn spawn_join_rounds_against_an_idle_worker() {
    // One task at a time: the worker goes back to sleep between rounds,
    // so every spawn must wake it and every join must be woken.
    const ROUNDS: u64 = 20_000;
    let stats = within(120, || {
        let exec = Executor::new(1);
        for i in 0..ROUNDS {
            assert_eq!(exec.spawn(async move { i + 1 }).join(), i + 1);
        }
        exec.stats()
    });
    assert_eq!(stats.spawned, ROUNDS);
    assert_eq!(stats.polls, ROUNDS);
    assert_eq!(stats.wakeups_sent + stats.wakeups_elided, ROUNDS);
    assert_eq!(stats.registered, 0);
}

#[test]
fn producers_and_workers_lose_no_yielding_task() {
    // Spawns race self-wakes (a yield re-enqueues from the worker) on
    // the one queue while workers fall asleep and are woken.
    const PRODUCERS: u64 = 4;
    const TASKS: u64 = 50_000;
    let (ran, stats) = within(300, || {
        let exec = Arc::new(Executor::new(4));
        let ran = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (exec, ran) = (exec.clone(), ran.clone());
                std::thread::spawn(move || {
                    let handles: Vec<_> = (0..TASKS)
                        .map(|_| {
                            let ran = ran.clone();
                            exec.spawn(async move {
                                yield_now().await;
                                ran.fetch_add(1, Ordering::Relaxed);
                            })
                        })
                        .collect();
                    handles.into_iter().for_each(JoinHandle::join);
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer panicked");
        }
        (ran.load(Ordering::Relaxed), exec.stats())
    });
    assert_eq!(ran, PRODUCERS * TASKS);
    assert_eq!(stats.spawned, PRODUCERS * TASKS);
    // Every task is polled twice and parks (registers) once.
    assert_eq!(stats.polls, 2 * PRODUCERS * TASKS);
    assert_eq!(stats.registered, PRODUCERS * TASKS);
}

#[test]
fn drop_unlinks_a_task_parked_on_an_async_mutex() {
    within(60, || {
        let mutex = Arc::new(AsyncMutex::new(0u64));
        let guard = block_on(mutex.lock());
        let exec = Executor::new(2);
        let waiter = {
            let mutex = mutex.clone();
            exec.spawn(async move { *mutex.lock().await += 1 })
        };
        // Parked: its wait node is queued and its poll has returned.
        while mutex.waiters() == 0 || exec.stats().registered == 0 {
            std::thread::yield_now();
        }
        drop(exec);
        assert_eq!(mutex.waiters(), 0, "cancellation must unlink the wait node");
        assert!(!waiter.is_finished());
        drop(guard);
        assert!(!mutex.is_locked(), "no handoff to a cancelled task");
        assert_eq!(*block_on(mutex.lock()), 0);
    });
}

#[test]
fn first_poll_completions_leave_the_registry_empty() {
    const TASKS: u64 = 10_000;
    let (sum, stats) = within(60, || {
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..TASKS).map(|i| exec.spawn(async move { i })).collect();
        let sum: u64 = handles.into_iter().map(JoinHandle::join).sum();
        (sum, exec.stats())
    });
    assert_eq!(sum, TASKS * (TASKS - 1) / 2);
    assert_eq!((stats.spawned, stats.polls), (TASKS, TASKS));
    assert_eq!(stats.registered, 0);
}

#[test]
fn a_spawn_is_one_allocation_and_a_join_none() {
    const BURST: usize = 1_000;
    within(60, || {
        let exec = Executor::new(1);
        // Let the run queue grow to a burst's length and this thread's
        // `block_on` waker come into being, outside the counted part.
        for counted in [false, true] {
            let (release, holder) = hold_worker(&exec);
            let mut handles = Vec::with_capacity(BURST);
            let before = ALLOCATIONS.get();
            handles.extend((0..BURST).map(|i| exec.spawn(async move { i })));
            let spawned = ALLOCATIONS.get() - before;
            drop(release);
            holder.join();
            let before = ALLOCATIONS.get();
            let sum: usize = handles.into_iter().map(JoinHandle::join).sum();
            let joined = ALLOCATIONS.get() - before;
            assert_eq!(sum, BURST * (BURST - 1) / 2);
            if counted {
                assert_eq!(spawned, BURST as u64, "allocations per burst of spawns");
                assert_eq!(joined, 0, "allocations joining a burst");
            }
        }
    });
}
