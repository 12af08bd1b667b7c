//! Condition variable over [`AslMutex`](crate::AslMutex).
//!
//! The paper supports pthread condition variables "by using the same
//! technique in litl" (§3.3): the condvar keeps its own waiter queue
//! and re-acquires the wrapped lock on wakeup, so waiting threads
//! re-enter through LibASL's asymmetry-aware acquisition path — a big
//! core woken by `notify` still locks immediately, a little core goes
//! through its reorder window.
//!
//! Wakeups follow the standard condvar contract: `wait` may return
//! spuriously, so callers loop on their predicate (use
//! [`AslCondvar::wait_while`] to get the loop for free). Lost-wakeup
//! freedom comes from the per-waiter flag: a notification flips the
//! flag before unparking, and `wait` re-parks until its flag is set,
//! so a park that returns early can never consume someone else's
//! notification.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::Thread;

use asl_locks::api::MutexGuard;
use asl_locks::RawLock;

use crate::mutex::AslLock;
use crate::wait::WaitPolicy;

struct Waiter {
    notified: Arc<AtomicBool>,
    thread: Thread,
}

/// A condition variable usable with any [`AslMutex`](crate::AslMutex).
#[derive(Default)]
pub struct AslCondvar {
    // The internal queue is touched only for enqueue/notify — never
    // while parked — so a plain std mutex is fine here (this mirrors
    // litl, which delegates condvar bookkeeping to pthread).
    waiters: StdMutex<VecDeque<Waiter>>,
}

impl AslCondvar {
    /// New condition variable with no waiters.
    pub fn new() -> Self {
        AslCondvar {
            waiters: StdMutex::new(VecDeque::new()),
        }
    }

    /// Atomically release `guard`'s mutex and wait for a
    /// notification; re-acquires the mutex (through the LibASL
    /// dispatch path) before returning. May wake spuriously.
    pub fn wait<'a, T, L: RawLock, W: WaitPolicy>(
        &self,
        guard: MutexGuard<'a, T, AslLock<L, W>>,
    ) -> MutexGuard<'a, T, AslLock<L, W>> {
        let notified = Arc::new(AtomicBool::new(false));
        self.waiters
            .lock()
            .expect("condvar queue poisoned")
            .push_back(Waiter {
                notified: notified.clone(),
                thread: std::thread::current(),
            });
        // Registering *before* the release closes the notify race:
        // any notification after this point sees us in the queue.
        // Waking re-locks the guard's lock, i.e. through the LibASL
        // dispatch path.
        guard.unlocked(|| {
            while !notified.load(Ordering::Acquire) {
                // Simulated threads charge a virtual wait instead of an
                // OS park (the notifier's unpark is then a no-op).
                asl_runtime::substrate::park_or(std::thread::park);
            }
        })
    }

    /// [`AslCondvar::wait`] in a predicate loop: returns once
    /// `condition(&*guard)` is false, with the lock held.
    pub fn wait_while<'a, T, L: RawLock, W: WaitPolicy>(
        &self,
        mut guard: MutexGuard<'a, T, AslLock<L, W>>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T, AslLock<L, W>> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake one waiter (FIFO order among waiters).
    pub fn notify_one(&self) {
        let w = self
            .waiters
            .lock()
            .expect("condvar queue poisoned")
            .pop_front();
        if let Some(w) = w {
            w.notified.store(true, Ordering::Release);
            w.thread.unpark();
        }
    }

    /// Wake every current waiter.
    pub fn notify_all(&self) {
        let drained: Vec<Waiter> = {
            let mut q = self.waiters.lock().expect("condvar queue poisoned");
            q.drain(..).collect()
        };
        for w in drained {
            w.notified.store(true, Ordering::Release);
            w.thread.unpark();
        }
    }

    /// Number of threads currently registered as waiting (tests).
    pub fn waiter_count(&self) -> usize {
        self.waiters.lock().expect("condvar queue poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutex::AslMutex;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn notify_one_wakes_single_waiter() {
        let m = Arc::new(AslMutex::new(false));
        let cv = Arc::new(AslCondvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let h = std::thread::spawn(move || {
            let guard = m2.lock();
            let guard = cv2.wait_while(guard, |ready| !*ready);
            assert!(*guard);
        });
        // Let the waiter park, then signal.
        while cv.waiter_count() == 0 {
            std::thread::yield_now();
        }
        *m.lock() = true;
        cv.notify_one();
        h.join().unwrap();
        assert_eq!(cv.waiter_count(), 0);
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let m = Arc::new(AslMutex::new(0u32));
        let cv = Arc::new(AslCondvar::new());
        let mut handles = vec![];
        for _ in 0..6 {
            let (m, cv) = (m.clone(), cv.clone());
            handles.push(std::thread::spawn(move || {
                let guard = m.lock();
                let mut guard = cv.wait_while(guard, |v| *v == 0);
                *guard += 1;
            }));
        }
        while cv.waiter_count() < 6 {
            std::thread::yield_now();
        }
        *m.lock() = 1;
        cv.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 7); // 1 + one increment per waiter
    }

    #[test]
    fn producer_consumer_queue() {
        const ITEMS: usize = 2_000;
        let q = Arc::new(AslMutex::new(VecDeque::<usize>::new()));
        let cv = Arc::new(AslCondvar::new());

        let consumer = {
            let (q, cv) = (q.clone(), cv.clone());
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(ITEMS);
                while got.len() < ITEMS {
                    let guard = q.lock();
                    let mut guard = cv.wait_while(guard, |q| q.is_empty());
                    while let Some(v) = guard.pop_front() {
                        got.push(v);
                    }
                }
                got
            })
        };
        let producer = {
            let (q, cv) = (q.clone(), cv.clone());
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    q.lock().push_back(i);
                    cv.notify_one();
                    if i % 64 == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            })
        };
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), ITEMS);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "items out of order");
    }

    #[test]
    fn no_lost_wakeup_under_stress() {
        // Many rounds of one-waiter/one-notifier handshakes: a lost
        // wakeup would deadlock (the join below would hang).
        let m = Arc::new(AslMutex::new(0u64));
        let cv = Arc::new(AslCondvar::new());
        let rounds = 500;
        let (m2, cv2) = (m.clone(), cv.clone());
        let waiter = std::thread::spawn(move || {
            for i in 1..=rounds {
                let guard = m2.lock();
                let _guard = cv2.wait_while(guard, |v| *v < i);
            }
        });
        for i in 1..=rounds {
            loop {
                {
                    let mut g = m.lock();
                    if *g < i {
                        *g = i;
                    }
                }
                cv.notify_one();
                if cv.waiter_count() == 0 {
                    // The waiter either consumed the notification or
                    // has not parked yet; give it a beat and re-notify
                    // to be safe (spurious notifies are harmless).
                    break;
                }
                std::thread::yield_now();
            }
        }
        // Drain any remaining rounds.
        while cv.waiter_count() > 0 {
            cv.notify_all();
            std::thread::yield_now();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn waiter_count_tracks_queue() {
        let cv = AslCondvar::new();
        assert_eq!(cv.waiter_count(), 0);
        cv.notify_one(); // no waiters: no-op
        cv.notify_all();
        assert_eq!(cv.waiter_count(), 0);
    }
}
