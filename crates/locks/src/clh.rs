//! CLH queue lock (Craig; Landin & Hagersten).
//!
//! An alternative FIFO substrate for the reorderable layer (the
//! `fifo` group of `repro sim-ablate`). Waiters spin on their *predecessor's*
//! node; nodes are recycled through the classic CLH trick — an
//! unlocking thread adopts its predecessor's node for future use.

use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use crate::{FifoLock, RawLock};

const HELD: u32 = 1;
const RELEASED: u32 = 0;

/// A CLH queue node; cache-line aligned to avoid false sharing of
/// spin targets.
#[repr(align(64))]
pub struct ClhNode {
    state: AtomicU32,
}

impl ClhNode {
    fn new(state: u32) -> Self {
        ClhNode {
            state: AtomicU32::new(state),
        }
    }
}

thread_local! {
    static FREELIST: RefCell<Vec<NonNull<ClhNode>>> = const { RefCell::new(Vec::new()) };
}

fn take_node() -> NonNull<ClhNode> {
    FREELIST
        .with(|f| f.borrow_mut().pop())
        .unwrap_or_else(|| NonNull::from(Box::leak(Box::new(ClhNode::new(RELEASED)))))
}

fn put_node(node: NonNull<ClhNode>) {
    FREELIST.with(|f| f.borrow_mut().push(node));
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
        let dummy = Box::leak(Box::new(ClhNode::new(RELEASED)));
        ClhLock {
            tail: AtomicPtr::new(dummy),
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

impl RawLock for ClhLock {
    type Token = ClhToken;

    #[inline]
    fn lock(&self) -> ClhToken {
        let node = take_node();
        unsafe { node.as_ref().state.store(HELD, Ordering::Relaxed) };
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        // SAFETY: `pred` stays alive until *we* recycle it at unlock.
        let pred = unsafe { NonNull::new_unchecked(pred) };
        let mut spin = asl_runtime::relax::Spin::new();
        unsafe {
            while pred.as_ref().state.load(Ordering::Acquire) == HELD {
                spin.relax();
            }
        }
        ClhToken { node, pred }
    }

    #[inline]
    fn try_lock(&self) -> Option<ClhToken> {
        let tail = self.tail.load(Ordering::Acquire);
        // SAFETY: tail is never null after construction.
        if unsafe { (*tail).state.load(Ordering::Acquire) } == HELD {
            return None;
        }
        let node = take_node();
        unsafe { node.as_ref().state.store(HELD, Ordering::Relaxed) };
        match self
            .tail
            .compare_exchange(tail, node.as_ptr(), Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(pred) => Some(ClhToken {
                node,
                pred: unsafe { NonNull::new_unchecked(pred) },
            }),
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
    fn reacquire_many_times() {
        let l = ClhLock::new();
        for _ in 0..50_000 {
            let t = l.lock();
            l.unlock(t);
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn two_locks_interleaved() {
        let a = ClhLock::new();
        let b = ClhLock::new();
        let ta = a.lock();
        let tb = b.lock();
        a.unlock(ta);
        let ta2 = a.lock();
        b.unlock(tb);
        a.unlock(ta2);
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
