//! CLH queue lock (Craig; Landin & Hagersten).
//!
//! An alternative FIFO substrate for the reorderable layer (the
//! `fifo` group of `repro sim-ablate`). Waiters spin on their *predecessor's*
//! node; nodes are recycled through the classic CLH trick — an
//! unlocking thread adopts its predecessor's node for future use (into
//! its per-thread pool, the `pool` module: nodes migrate between
//! threads).
//!
//! The one queue lock whose wait word must be written *before* the
//! tail RMW: the successor spins on the node the `swap` publishes. Its
//! uncontended round is that one store, the pool's two and a single
//! RMW — the release is a plain store.
//!
//! Also the one whose nodes are never freed: `try_lock` and
//! `is_locked` read the wait word of whatever node the tail names, and
//! by the time they look that node may have left the queue for a pool.
//! The read is harmless on type-stable memory — a stale answer fails
//! `try_lock`'s tail CAS, or is re-checked after it — so a thread that
//! exits hands its pooled nodes to `RETIRED`, where the next thread
//! in need finds them: thread churn neither frees nor leaks a node.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Mutex;

use crate::pool::{boxed, NodePool};
use crate::{FifoLock, RawLock};

const HELD: u32 = 1;
const RELEASED: u32 = 0;

/// A CLH queue node; cache-line aligned to avoid false sharing of
/// spin targets.
#[repr(align(64))]
pub struct ClhNode {
    state: AtomicU32,
}

/// Addresses of the nodes exited threads had pooled.
static RETIRED: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// A node from an exited thread if there is one, else a new one.
fn adopt_or_allocate() -> NonNull<ClhNode> {
    let retired = RETIRED.lock().unwrap_or_else(|e| e.into_inner()).pop();
    let state = AtomicU32::new(RELEASED);
    retired
        .and_then(|node| NonNull::new(node as *mut ClhNode))
        .unwrap_or_else(|| boxed(ClhNode { state }))
}

fn retire(node: NonNull<ClhNode>) {
    let mut retired = RETIRED.lock().unwrap_or_else(|e| e.into_inner());
    retired.push(node.as_ptr() as usize);
}

thread_local! {
    static POOL: NodePool<ClhNode> = const { NodePool::new(adopt_or_allocate, retire) };
}

/// A node for this acquisition; `lock` sets its wait word.
#[inline]
fn take_node() -> NonNull<ClhNode> {
    POOL.with(NodePool::take)
}

#[inline]
fn put_node(node: NonNull<ClhNode>) {
    POOL.with(|pool| pool.put(node));
}

/// Token proving acquisition; carries (own node, predecessor node).
pub struct ClhToken {
    node: NonNull<ClhNode>,
    pred: NonNull<ClhNode>,
}

impl crate::plain::TokenWords for ClhToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (self.node.as_ptr() as usize, self.pred.as_ptr() as usize)
    }

    /// # Safety
    /// The words must come from `into_words` on an unreleased token of
    /// the same lock.
    #[inline]
    unsafe fn from_words(node: usize, pred: usize) -> Self {
        ClhToken {
            node: NonNull::new_unchecked(node as *mut ClhNode),
            pred: NonNull::new_unchecked(pred as *mut ClhNode),
        }
    }
}

/// The CLH queue lock.
pub struct ClhLock {
    tail: AtomicPtr<ClhNode>,
}

impl ClhLock {
    /// New unlocked CLH lock. Allocates the initial dummy node.
    pub fn new() -> Self {
        let state = AtomicU32::new(RELEASED);
        ClhLock {
            tail: AtomicPtr::new(boxed(ClhNode { state }).as_ptr()),
        }
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl Send for ClhLock {}
unsafe impl Sync for ClhLock {}

impl ClhLock {
    /// Spin until `pred`, the tail `node` replaced, is released.
    #[inline]
    fn wait_behind(&self, node: NonNull<ClhNode>, pred: *mut ClhNode) -> ClhToken {
        // SAFETY: never null; nobody pools `pred` before *we* do, at unlock.
        let pred = unsafe { NonNull::new_unchecked(pred) };
        let mut spin = asl_runtime::relax::Spin::new();
        while unsafe { pred.as_ref() }.state.load(Ordering::Acquire) == HELD {
            spin.relax();
        }
        ClhToken { node, pred }
    }
}

impl RawLock for ClhLock {
    type Token = ClhToken;

    #[inline]
    fn lock(&self) -> ClhToken {
        let node = take_node();
        unsafe { node.as_ref().state.store(HELD, Ordering::Relaxed) };
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        self.wait_behind(node, pred)
    }

    #[inline]
    fn try_lock(&self) -> Option<ClhToken> {
        let tail = self.tail.load(Ordering::Acquire);
        // SAFETY: never null, and never freed (module docs) — but maybe
        // no longer the tail, or the tail again in a later round.
        if unsafe { (*tail).state.load(Ordering::Acquire) } == HELD {
            return None;
        }
        let node = take_node();
        unsafe { node.as_ref().state.store(HELD, Ordering::Relaxed) };
        let won =
            self.tail
                .compare_exchange(tail, node.as_ptr(), Ordering::AcqRel, Ordering::Relaxed);
        match won {
            // `pred` read released above; had it been pooled and locked
            // again since (ABA) it is held now, and this waits its turn.
            Ok(pred) => Some(self.wait_behind(node, pred)),
            Err(_) => {
                put_node(node);
                None
            }
        }
    }

    #[inline]
    fn unlock(&self, token: ClhToken) {
        unsafe {
            token.node.as_ref().state.store(RELEASED, Ordering::Release);
        }
        // Adopt the predecessor's node: no live reference to it
        // remains (we were the only thread spinning on it).
        put_node(token.pred);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        // SAFETY: as in `try_lock`; a stale node gives a stale answer.
        unsafe { (*tail).state.load(Ordering::Relaxed) == HELD }
    }

    const NAME: &'static str = "clh";
}

impl FifoLock for ClhLock {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = ClhLock::new();
        assert!(!l.is_locked());
        let t = l.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock() {
        let l = ClhLock::new();
        let t = l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(t);
        let t = l.try_lock().expect("free");
        l.unlock(t);
    }

    #[test]
    fn contended_handover() {
        let l = Arc::new(ClhLock::new());
        let mut handles = vec![];
        for _ in 0..6 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let t = l.lock();
                    l.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!l.is_locked());
    }
}
