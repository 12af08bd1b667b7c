//! Executor hygiene: the wake-up, registry and allocation mechanisms of
//! `asl_runtime::exec`, under load.
//!
//! The executor signals a worker only if one sleeps, enters its
//! shutdown registry only when a task parks, makes one allocation per
//! task, and lets a joiner spin for a self-tuning budget before it
//! parks. Each of those is a place where an optimisation can turn
//! into a lost wake-up, a leaked wait node or a silent regression, so
//! each is driven here across its edge many times — under a watchdog,
//! so that a lost wake-up fails the suite instead of stalling it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use libasl::runtime::affinity::{online_cpus, pinned};
use libasl::runtime::exec::yield_now;
use libasl::runtime::work::execute_units;
use libasl::{block_on, wait_stats, AsyncMutex, AsyncPolicy, Executor, JoinHandle};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[global_allocator]
static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// The tests that count spins and parks need the CPUs to themselves:
/// they hold this for writing, every other test for reading.
static HOST: RwLock<()> = RwLock::new(());

fn sharing_the_host() -> RwLockReadGuard<'static, ()> {
    HOST.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone_on_the_host() -> RwLockWriteGuard<'static, ()> {
    HOST.write().unwrap_or_else(PoisonError::into_inner)
}

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
    let _host = sharing_the_host();
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
    let _host = sharing_the_host();
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
    let _host = sharing_the_host();
    within(60, || {
        let mutex = Arc::new(AsyncMutex::new(AsyncPolicy::Slo { slo_ns: 100_000 }, 0u64));
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
    let _host = sharing_the_host();
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
fn a_lock_step_join_across_cpus_does_not_park() {
    let _host = alone_on_the_host();
    // The joiner waits a task's length (~2 us) for nearly every handle:
    // far less than a park/unpark pair, so it must be spent spinning.
    const TASKS: u64 = 20_000;
    if online_cpus() < 2 {
        eprintln!("skipped: needs 2 CPUs");
        return;
    }
    // A neighbour on the shared host can take a CPU from the worker or
    // the joiner for a while, and that can only *add* parks (a spin
    // that nobody answers in time falls through to one). The error is
    // one-sided, so the fewest parks of up to three attempts is the
    // estimate, held to the same 5 % bound as a single quiet run.
    const ATTEMPTS: usize = 3;
    const MAX_PARKS: u64 = TASKS / 20;
    let attempt = || {
        within(120, || {
            let exec = pinned(1, || Executor::new(1));
            pinned(0, || {
                let before = wait_stats();
                let handles: Vec<_> = (0..TASKS)
                    .map(|_| exec.spawn(async { execute_units(1_500) }))
                    .collect();
                handles.into_iter().for_each(JoinHandle::join);
                let after = wait_stats();
                (after.polls - before.polls, after.parks - before.parks)
            })
        })
    };
    let mut fewest = u64::MAX;
    for n in 1..=ATTEMPTS {
        let (polls, parks) = attempt();
        eprintln!("lock-step joins #{n}: {TASKS} joins, {polls} polls, {parks} parks");
        assert!(polls >= TASKS);
        fewest = fewest.min(parks);
        if fewest <= MAX_PARKS {
            return;
        }
    }
    panic!("at least {fewest} parks in {TASKS} lock-step joins, {ATTEMPTS} attempts");
}

#[test]
fn a_joiner_sharing_its_workers_cpu_stops_spinning() {
    let _host = alone_on_the_host();
    // No spin can be answered while the worker waits for the CPU the
    // spin burns, so the budget must decay to its probe: 64 rounds
    // every 32nd park. A budget that did not would spend 2 048 rounds
    // a park; the bound leaves room for the odd probe that a
    // preemption answers, which costs one more decay (4 096 rounds).
    const WARM_UP: u64 = 64;
    const ROUNDS: u64 = 5_000;
    const SPINS_PER_PARK: u64 = 64;
    let (spins, parks) = within(120, || {
        pinned(0, || {
            let exec = Executor::new(1);
            let mut before = wait_stats();
            for i in 0..WARM_UP + ROUNDS {
                if i == WARM_UP {
                    before = wait_stats();
                }
                assert_eq!(exec.spawn(async move { i }).join(), i);
            }
            let after = wait_stats();
            (after.spins - before.spins, after.parks - before.parks)
        })
    });
    eprintln!("one-CPU joins: {ROUNDS} joins, {parks} parks, {spins} spin rounds");
    assert!(
        spins <= SPINS_PER_PARK * parks.max(ROUNDS / 10),
        "{spins} spin rounds for {parks} parks"
    );
}

#[test]
fn joiners_racing_two_workers_lose_no_wakeup() {
    let _host = sharing_the_host();
    // Completions land before the poll, between the poll and the spin,
    // in the spin and after the park, from both workers.
    const JOINERS: u64 = 4;
    const ROUNDS: u64 = 50_000;
    let sum = within(300, || {
        let exec = Arc::new(Executor::new(2));
        let joiners: Vec<_> = (0..JOINERS)
            .map(|j| {
                let exec = exec.clone();
                std::thread::spawn(move || {
                    let mut x = j + 1;
                    (0..ROUNDS)
                        .map(|i| {
                            // xorshift: 0-3 us of work, give or take.
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let units = x % 2_200;
                            exec.spawn(async move {
                                execute_units(units);
                                i
                            })
                            .join()
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        joiners
            .into_iter()
            .map(|j| j.join().expect("joiner panicked"))
            .sum::<u64>()
    });
    assert_eq!(sum, JOINERS * ROUNDS * (ROUNDS - 1) / 2);
}

#[test]
fn a_spawn_is_one_allocation_and_a_join_none() {
    let _host = sharing_the_host();
    const BURST: usize = 1_000;
    within(60, || {
        let exec = Executor::new(1);
        // Let the run queue grow to a burst's length and this thread's
        // `block_on` waker come into being, outside the counted part.
        for counted in [false, true] {
            let (release, holder) = hold_worker(&exec);
            let mut handles = Vec::with_capacity(BURST);
            let before = allocations();
            handles.extend((0..BURST).map(|i| exec.spawn(async move { i })));
            let spawned = allocations() - before;
            drop(release);
            holder.join();
            let before = allocations();
            let sum: usize = handles.into_iter().map(JoinHandle::join).sum();
            let joined = allocations() - before;
            assert_eq!(sum, BURST * (BURST - 1) / 2);
            if counted {
                assert_eq!(spawned, BURST as u64, "allocations per burst of spawns");
                assert_eq!(joined, 0, "allocations joining a burst");
            }
        }
    });
}
