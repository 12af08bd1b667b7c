//! Reader-writer locking with LibASL ordering: reacquisition-based
//! reader batching over an [`AslLock`] writer substrate.
//!
//! The paper's reorderable lock orders *exclusive* waiters to hit
//! latency SLOs on asymmetric cores. [`AslRwLock`] extends that to
//! shared access without touching the reorderable layer itself:
//!
//! * **Writers** take the underlying [`AslLock`] — big cores lock
//!   immediately, little cores stand by for the epoch's reorder
//!   window — then drain the active reader batch while holding it.
//! * **Readers** join an open batch with one counter increment when no
//!   writer is around (reads overlap freely). When a writer holds the
//!   substrate, readers *reacquire* through it: they briefly take the
//!   [`AslLock`] (inheriting its SLO-aware ordering), register in the
//!   reader count, and release it again — so a whole convoy of
//!   readers passes through the writer queue as short registration
//!   sections and then reads concurrently, batched behind the same
//!   acquisition order the paper's lock would have imposed.
//!
//! Writer preference is inherent: once a writer owns the substrate,
//! new readers cannot register until it finishes, and the writer only
//! waits for the batch that registered before it.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use asl_locks::{FifoLock, McsLock, RawLock, RawRwLock};

use crate::mutex::AslLock;
use crate::wait::{SpinWait, WaitPolicy};

/// Reader-writer lock with LibASL writer ordering (see module docs).
pub struct AslRwLock<L: RawLock = McsLock, W: WaitPolicy = SpinWait> {
    /// Readers currently registered (holding or about to hold).
    readers: AtomicU32,
    /// A writer owns the substrate and is draining/blocking readers.
    writer: AtomicBool,
    inner: AslLock<L, W>,
}

impl Default for AslRwLock<McsLock, SpinWait> {
    fn default() -> Self {
        Self::new(McsLock::new())
    }
}

impl<L: RawLock + FifoLock> AslRwLock<L, SpinWait> {
    /// Build over the FIFO substrate `inner` with the default spinning
    /// standby policy (the FIFO marker carries the paper's
    /// bounded-reordering guarantee, exactly as for [`AslLock`]).
    pub fn new(inner: L) -> Self {
        AslRwLock {
            readers: AtomicU32::new(0),
            writer: AtomicBool::new(false),
            inner: AslLock::new(inner),
        }
    }
}

impl<L: RawLock, W: WaitPolicy> AslRwLock<L, W> {
    /// Readers currently registered (heuristic).
    pub fn reader_count(&self) -> u32 {
        self.readers.load(Ordering::Relaxed)
    }

    /// Fast path: join the open reader batch. Succeeds only when no
    /// writer owns the substrate. The `SeqCst` increment/load against
    /// the writer's flag-store/count-load is the classic store-load
    /// handshake: either the writer sees our registration, or we see
    /// its flag and withdraw.
    #[inline]
    fn try_join_batch(&self) -> bool {
        self.readers.fetch_add(1, Ordering::SeqCst);
        if self.writer.load(Ordering::SeqCst) {
            self.readers.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }
}

impl<L: RawLock, W: WaitPolicy> RawLock for AslRwLock<L, W> {
    type Token = L::Token;

    #[inline]
    fn lock(&self) -> Self::Token {
        let token = self.inner.lock();
        self.writer.store(true, Ordering::SeqCst);
        let mut spin = asl_runtime::relax::Spin::new();
        while self.readers.load(Ordering::SeqCst) != 0 {
            spin.relax();
        }
        token
    }

    #[inline]
    fn try_lock(&self) -> Option<Self::Token> {
        let token = self.inner.try_lock()?;
        self.writer.store(true, Ordering::SeqCst);
        if self.readers.load(Ordering::SeqCst) != 0 {
            self.writer.store(false, Ordering::SeqCst);
            self.inner.unlock(token);
            return None;
        }
        Some(token)
    }

    #[inline]
    fn unlock(&self, token: Self::Token) {
        self.writer.store(false, Ordering::SeqCst);
        self.inner.unlock(token);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.readers.load(Ordering::Relaxed) != 0 || self.inner.is_locked()
    }

    const NAME: &'static str = "libasl-rw";
}

impl<L: RawLock, W: WaitPolicy> RawRwLock for AslRwLock<L, W> {
    type ReadToken = ();

    #[inline]
    fn read(&self) -> Self::ReadToken {
        if self.try_join_batch() {
            return;
        }
        // Reacquisition path: register through the SLO-ordered
        // substrate (a writer is or was active).
        let token = self.inner.lock();
        self.readers.fetch_add(1, Ordering::SeqCst);
        self.inner.unlock(token);
    }

    #[inline]
    fn try_read(&self) -> Option<Self::ReadToken> {
        if self.try_join_batch() {
            return Some(());
        }
        let token = self.inner.try_lock()?;
        // Holding the substrate implies no writer is draining (writers
        // clear the flag before releasing), so registration is safe.
        self.readers.fetch_add(1, Ordering::SeqCst);
        self.inner.unlock(token);
        Some(())
    }

    #[inline]
    fn unlock_read(&self, _t: ()) {
        self.readers.fetch_sub(1, Ordering::SeqCst);
    }

    #[inline]
    fn is_write_locked(&self) -> bool {
        self.writer.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
// Unit read tokens are still tokens: passed explicitly to exercise
// the RawRwLock protocol.
#[allow(clippy::let_unit_value)]
mod tests {
    use super::*;
    use asl_locks::api::{Guard, ReadGuard};
    use asl_locks::TicketLock;
    use std::sync::Arc;

    #[test]
    fn readers_batch_writers_exclude() {
        let l = AslRwLock::default();
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(l.reader_count(), 2);
        assert!(l.try_lock().is_none(), "readers block writers");
        l.unlock_read(r1);
        l.unlock_read(r2);
        let w = l.try_lock().expect("drained batch admits writer");
        assert!(l.is_write_locked());
        assert!(l.try_read().is_none(), "writer blocks readers");
        l.unlock(w);
        assert!(!l.is_locked());
    }

    #[test]
    fn alternative_substrates_compose() {
        let l = AslRwLock::new(TicketLock::new());
        let r = l.read();
        l.unlock_read(r);
        let w = l.lock();
        l.unlock(w);
        assert!(!l.is_locked());
    }

    #[test]
    fn guard_api_composes() {
        let l = AslRwLock::default();
        {
            let _r = ReadGuard::new(&l);
            let _r2 = ReadGuard::try_new(&l).expect("reads overlap");
            assert!(Guard::try_new(&l).is_none());
        }
        {
            let _w = Guard::new(&l);
            assert!(ReadGuard::try_new(&l).is_none());
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn concurrent_mixed_workload_is_race_free() {
        struct Shared {
            lock: AslRwLock,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            lock: AslRwLock::default(),
            value: std::cell::UnsafeCell::new(0),
        });
        let mut handles = vec![];
        for i in 0..4u64 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for n in 0..2_000u64 {
                    if (n + i) % 4 == 0 {
                        let t = s.lock.lock();
                        unsafe { *s.value.get() += 1 };
                        s.lock.unlock(t);
                    } else {
                        let t = s.lock.read();
                        let v = unsafe { std::ptr::read_volatile(s.value.get()) };
                        assert!(v <= 2_000);
                        s.lock.unlock_read(t);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *s.value.get() }, 2_000);
        assert!(!s.lock.is_locked());
    }

    #[test]
    fn dyn_facade_covers_asl_rwlock() {
        use asl_locks::api::DynRwLock;
        let l = DynRwLock::new(Arc::new(AslRwLock::default()));
        {
            let _r = l.read();
            let _r2 = l.read();
            assert!(l.try_lock().is_none());
        }
        {
            let _w = l.lock();
            assert!(l.try_read().is_none());
        }
        assert!(!l.is_locked());
        assert_eq!(l.name(), "libasl-rw");
    }
}
