//! SLO-aware async mutex: `lock().await` parks the waiter as a
//! queued [`Waker`], not a blocked OS thread.
//!
//! The thread locks in this crate spin or park a *thread* per waiter;
//! at 10⁵–10⁶ concurrent clients that is the scalability collapse the
//! serving literature warns about. The async layer keeps one small
//! wait node per parked *task* instead, and reuses the paper's
//! SLO-reordering idea for wake ordering.
//!
//! There is one type, [`AsyncMutex<T>`], built with its
//! [`AsyncPolicy`]:
//!
//! * [`AsyncPolicy::Slo`] — deadline-ordered (EDF) wake list. Each
//!   waiter's deadline is its arrival time plus a reorder window
//!   bounded by the policy's `slo_ns` (exactly the bound
//!   `AslLock::lock_reorder` clamps to), so no waiter can be
//!   overtaken by more than `slo_ns` of later arrivals —
//!   starvation-free for the same reason the paper's standby queue
//!   is. [`AsyncMutex::lock_with_deadline`] lets a request carry its
//!   *generation-time* deadline (e.g. scheduled arrival + SLO) so an
//!   open-loop service equalizes response times across requests
//!   rather than lock-arrival times — that is where the p999 win over
//!   FIFO comes from.
//! * [`AsyncPolicy::Fifo`] — strict arrival order (what a fair thread
//!   mutex would do), the baseline; an explicit deadline is ignored.
//!
//! The harness registry resolves a `LockSpec` name to a policy
//! (FIFO-ordered specs to `Fifo`, LibASL specs to `Slo` with their
//! SLO), so one type serves every async cell.
//!
//! Either policy hands the lock over *directly*: release marks the
//! chosen wait node `GRANTED` and wakes it without ever making the lock
//! observably free, so there is no barging and wake order is grant
//! order. Lock futures are cancel-safe — dropping one mid-wait
//! unlinks its node under the queue lock; dropping one after it was
//! granted but before it was polled passes the grant on (or frees the
//! lock) instead of deadlocking. Guards release on drop, including
//! panic unwind.
//!
//! ```
//! use asl_locks::asynclock::{AsyncMutex, AsyncPolicy};
//! use asl_runtime::exec::block_on;
//!
//! let hits = AsyncMutex::new(AsyncPolicy::Slo { slo_ns: 100_000 }, 0u64);
//! block_on(async {
//!     *hits.lock().await += 1;
//!     assert_eq!(*hits.lock().await, 1);
//! });
//! ```

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use asl_runtime::clock;

/// Wake-ordering policy of an [`AsyncMutex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncPolicy {
    /// Strict arrival order (fair FIFO baseline).
    Fifo,
    /// Deadline order with the reorder window bounded by `slo_ns`
    /// (`u64::MAX` ≈ maximum window).
    Slo {
        /// Reorder-window bound in nanoseconds.
        slo_ns: u64,
    },
}

/// Older name of [`AsyncMutex`], kept for the repo benchmark
/// (`benchmark/src/host_kv.rs`).
pub type AsyncDynMutex<T> = AsyncMutex<T>;

/// Waiting in the queue; cancel unlinks, release grants.
const W_QUEUED: u8 = 0;
/// Chosen by a release; owns the lock once polled (or via cancel).
const W_GRANTED: u8 = 1;
/// The future observed the grant and returned `Ready`.
const W_CLAIMED: u8 = 2;

struct WaitNode {
    state: AtomicU8,
}

struct Queue {
    /// Ground truth for "is the lock held". Stays `true` across a
    /// direct handoff.
    locked: bool,
    /// Wait list keyed by `(deadline_ns, seq)`: FIFO futures use
    /// deadline 0 so ordering degenerates to the arrival sequence;
    /// SLO futures use their bounded absolute deadline (EDF).
    waiters: BTreeMap<(u64, u64), (Arc<WaitNode>, Waker)>,
}

/// Async mutex whose wake order is its [`AsyncPolicy`] (see the
/// module docs).
pub struct AsyncMutex<T> {
    inner: Mutex<Queue>,
    /// Arrival sequence for queue keys (ties and FIFO order).
    seq: AtomicU64,
    policy: AsyncPolicy,
    data: UnsafeCell<T>,
}

// SAFETY: standard mutex reasoning — the protected value moves across
// threads with the lock (`T: Send`); `&AsyncMutex<T>` only hands out
// `&T`/`&mut T` under mutual exclusion, and unlike thread locks the
// guard may be dropped on a different worker thread than the one that
// acquired it, which is fine because release is just queue-mutex
// operations.
unsafe impl<T: Send> Send for AsyncMutex<T> {}
unsafe impl<T: Send> Sync for AsyncMutex<T> {}

impl<T> AsyncMutex<T> {
    /// New mutex under the given policy.
    pub fn new(policy: AsyncPolicy, value: T) -> Self {
        AsyncMutex {
            inner: Mutex::new(Queue {
                locked: false,
                waiters: BTreeMap::new(),
            }),
            seq: AtomicU64::new(0),
            policy,
            data: UnsafeCell::new(value),
        }
    }

    /// The wake-ordering policy.
    pub fn policy(&self) -> AsyncPolicy {
        self.policy
    }

    /// Acquire (arrival plus the SLO bound as the deadline under
    /// `Slo`, arrival order under `Fifo`).
    pub fn lock(&self) -> AsyncLockFuture<'_, T> {
        self.lock_inner(None)
    }

    /// Acquire with an explicit absolute deadline (ns, same clock as
    /// `asl_runtime::clock`). Under `Slo` the effective deadline is
    /// still bounded by arrival + `slo_ns`, so a request that is
    /// already past its deadline goes to the head of the queue but
    /// cannot push others out by more than the SLO window. Under
    /// `Fifo` the deadline is ignored (arrival order).
    pub fn lock_with_deadline(&self, deadline_ns: u64) -> AsyncLockFuture<'_, T> {
        self.lock_inner(Some(deadline_ns))
    }

    fn lock_inner(&self, deadline_ns: Option<u64>) -> AsyncLockFuture<'_, T> {
        AsyncLockFuture {
            mutex: self,
            deadline_ns,
            node: None,
        }
    }

    /// Acquire without waiting, if free.
    pub fn try_lock(&self) -> Option<AsyncGuard<'_, T>> {
        let mut q = self.inner.lock().unwrap();
        if q.locked {
            None
        } else {
            q.locked = true;
            Some(AsyncGuard { mutex: self })
        }
    }

    /// Whether the lock is currently held (racy diagnostic).
    pub fn is_locked(&self) -> bool {
        self.inner.lock().unwrap().locked
    }

    /// Number of parked waiters (racy diagnostic).
    pub fn waiters(&self) -> usize {
        self.inner.lock().unwrap().waiters.len()
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Exclusive access without locking (`&mut self` proves no other
    /// handle exists).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Queue key for a waiter arriving now with an optional explicit
    /// deadline. The window is always bounded by the policy's
    /// `slo_ns` — the same starvation-freedom clamp as
    /// `AslLock::lock_reorder`.
    fn key(&self, deadline_ns: Option<u64>) -> (u64, u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        match self.policy {
            AsyncPolicy::Fifo => (0, seq),
            AsyncPolicy::Slo { slo_ns } => {
                let bound = clock::now_ns().saturating_add(slo_ns);
                (deadline_ns.unwrap_or(bound).min(bound), seq)
            }
        }
    }

    /// Release: hand off to the earliest-keyed waiter (the lock stays
    /// `locked` across the handoff — no barging), or mark free.
    fn unlock(&self) {
        let mut q = self.inner.lock().unwrap();
        debug_assert!(q.locked, "unlock of an unheld async lock");
        if let Some((&key, _)) = q.waiters.iter().next() {
            let (node, waker) = q.waiters.remove(&key).expect("first key present");
            node.state.store(W_GRANTED, Ordering::Release);
            drop(q);
            waker.wake();
        } else {
            q.locked = false;
        }
    }
}

/// Future returned by [`AsyncMutex::lock`] /
/// [`AsyncMutex::lock_with_deadline`]. Cancel-safe: see the module
/// docs.
#[must_use = "futures do nothing unless awaited"]
pub struct AsyncLockFuture<'a, T> {
    mutex: &'a AsyncMutex<T>,
    deadline_ns: Option<u64>,
    /// `Some` once enqueued; the key locates the node for waker
    /// refresh and cancellation.
    node: Option<(Arc<WaitNode>, (u64, u64))>,
}

impl<'a, T> Future for AsyncLockFuture<'a, T> {
    type Output = AsyncGuard<'a, T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // All fields are `Unpin` (references and plain data, no
        // self-references), so projection is safe.
        let this = self.get_mut();
        let mutex = this.mutex;
        match &this.node {
            None => {
                let mut q = mutex.inner.lock().unwrap();
                if !q.locked {
                    q.locked = true;
                    return Poll::Ready(AsyncGuard { mutex });
                }
                let key = mutex.key(this.deadline_ns);
                let node = Arc::new(WaitNode {
                    state: AtomicU8::new(W_QUEUED),
                });
                q.waiters.insert(key, (node.clone(), cx.waker().clone()));
                this.node = Some((node, key));
                Poll::Pending
            }
            Some((node, key)) => {
                // The queue lock orders this read against release's
                // GRANTED store + removal.
                let mut q = mutex.inner.lock().unwrap();
                if node.state.load(Ordering::Acquire) == W_GRANTED {
                    node.state.store(W_CLAIMED, Ordering::Release);
                    return Poll::Ready(AsyncGuard { mutex });
                }
                // Spurious poll while still queued: refresh the waker.
                if let Some(entry) = q.waiters.get_mut(key) {
                    entry.1 = cx.waker().clone();
                }
                Poll::Pending
            }
        }
    }
}

impl<T> Drop for AsyncLockFuture<'_, T> {
    fn drop(&mut self) {
        let Some((node, key)) = self.node.take() else {
            return; // never enqueued (or completed on first poll)
        };
        match node.state.load(Ordering::Acquire) {
            // Claimed: ownership moved to a guard; nothing to undo.
            W_CLAIMED => {}
            // Still queued: unlink so the slot is not leaked.
            W_QUEUED => {
                let mut q = self.mutex.inner.lock().unwrap();
                // Re-check under the lock: a concurrent release may
                // have granted us in the meantime (and removed the
                // entry). If removal succeeds we were still queued.
                if q.waiters.remove(&key).is_none()
                    && node.state.load(Ordering::Acquire) == W_GRANTED
                {
                    // Granted after our first check: we own the lock
                    // but will never claim it — pass it on.
                    drop(q);
                    self.mutex.unlock();
                }
            }
            // Granted but never polled again: we own the lock; pass
            // it on (or free it) instead of leaking the acquisition.
            W_GRANTED => self.mutex.unlock(),
            s => unreachable!("wait node state {s}"),
        }
    }
}

/// RAII guard over an [`AsyncMutex`]: derefs to the protected value,
/// releases (with a direct handoff to the next waiter) on drop —
/// including panic unwind.
#[must_use = "the lock releases as soon as the guard drops"]
pub struct AsyncGuard<'a, T> {
    mutex: &'a AsyncMutex<T>,
}

impl<T> Deref for AsyncGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive acquisition.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for AsyncGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, and `&mut self` prevents aliasing.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for AsyncGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

// SAFETY: a guard held across an `.await` migrates between executor
// workers with its task, so it must be `Send` when the data is; the
// release path is thread-agnostic (queue-mutex operations only).
unsafe impl<T: Send> Send for AsyncGuard<'_, T> {}
// SAFETY: `&AsyncGuard` only exposes `&T`.
unsafe impl<T: Send + Sync> Sync for AsyncGuard<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::exec::{block_on, Executor};

    #[test]
    fn uncontended_roundtrip() {
        for policy in [AsyncPolicy::Fifo, AsyncPolicy::Slo { slo_ns: 1_000 }] {
            let m = AsyncMutex::new(policy, 1u64);
            assert_eq!(m.policy(), policy);
            block_on(async {
                *m.lock().await += 40;
                *m.lock_with_deadline(123).await += 1;
            });
            assert_eq!(block_on(async { *m.lock().await }), 42);
            assert!(!m.is_locked());
            assert_eq!(m.waiters(), 0);
            assert_eq!(m.into_inner(), 42);
        }
    }

    #[test]
    fn try_lock_and_introspection() {
        let m = AsyncMutex::new(AsyncPolicy::Fifo, 5u32);
        let g = m.try_lock().expect("free");
        assert!(m.is_locked());
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(!m.is_locked());
        assert_eq!(m.into_inner(), 5);
    }

    #[test]
    fn get_mut_skips_locking() {
        let mut m = AsyncMutex::new(AsyncPolicy::Slo { slo_ns: 100_000 }, 3u8);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 4);
    }

    #[test]
    fn contended_increments_on_executor() {
        let exec = Executor::new(4);
        let m = Arc::new(AsyncMutex::new(AsyncPolicy::Slo { slo_ns: 100_000 }, 0u64));
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let m = m.clone();
                exec.spawn(async move {
                    for _ in 0..100 {
                        *m.lock().await += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*m.try_lock().expect("all released"), 6_400);
    }
}
