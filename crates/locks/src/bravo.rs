//! BRAVO-style reader bias (Dice & Kogan, "BRAVO — Biased Locking for
//! Reader-Writer Locks", USENIX ATC 2019), adapted to upgrade *any*
//! exclusive lock in the zoo into a reader-writer lock.
//!
//! While the lock is *reader-biased*, readers skip the underlying
//! lock entirely: each publishes itself in a visible-readers table
//! (one CAS into a hashed slot), rechecks the bias, and reads. A
//! writer acquires the underlying exclusive lock, *revokes* the bias,
//! and scans the table until every published reader has left. Because
//! revocation is expensive, the bias stays disabled for a multiple
//! (`INHIBIT_MULTIPLIER`) of the measured revocation time — under
//! write-heavy phases the lock degenerates gracefully to the plain
//! exclusive lock underneath.
//!
//! Readers that lose the table race (collision, or bias disabled)
//! fall back to acquiring the underlying lock itself for the duration
//! of the read — with an exclusive substrate the slow path serializes,
//! which is exactly the degenerate rwlock BRAVO starts from.
//!
//! The wrapper is generic over every [`RawLock`] (`Bravo<McsLock>`,
//! `Bravo<TasLock>`, even `Bravo<AslLock>` so SLO-aware writer
//! reordering composes with reader bias).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::plain::TokenWords;
use crate::{RawLock, RawRwLock};

/// Visible-readers table slots (power of two; collisions fall back to
/// the underlying lock, so a small table only costs throughput).
const TABLE_SLOTS: usize = 64;

/// How long the bias stays disabled after a revocation, as a multiple
/// of the measured revocation cost (the paper's `N`, default 9).
const INHIBIT_MULTIPLIER: u64 = 9;

fn reader_slot() -> usize {
    use std::cell::Cell;
    static NEXT_READER: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static READER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    let id = READER_ID.with(|c| {
        let mut id = c.get();
        if id == usize::MAX {
            id = NEXT_READER.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    });
    // Fibonacci scatter so consecutive thread ids spread over the
    // table instead of clustering in adjacent slots; the shift tracks
    // TABLE_SLOTS so resizing the table cannot go out of bounds.
    const _: () = assert!(TABLE_SLOTS.is_power_of_two());
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15usize) >> (usize::BITS - TABLE_SLOTS.trailing_zeros())
}

/// Proof of a shared [`Bravo`] acquisition: either a published table
/// slot (fast path) or an acquisition of the underlying lock (slow
/// path).
pub enum BravoReadToken<T> {
    /// Fast path: the reader occupies `readers[slot]`.
    Fast(usize),
    /// Slow path: the reader holds the underlying exclusive lock.
    Slow(T),
}

/// Fast-path read tokens encode as `(slot, 0, 0)`; slow-path tokens
/// carry the underlying lock's two words plus a discriminant.
impl<T: TokenWords> crate::plain::RwTokenWords for BravoReadToken<T> {
    #[inline]
    fn into_words(self) -> (usize, usize, usize) {
        match self {
            BravoReadToken::Fast(slot) => (slot, 0, 0),
            BravoReadToken::Slow(t) => {
                let (a, b) = t.into_words();
                (a, b, 1)
            }
        }
    }
    #[inline]
    unsafe fn from_words(a: usize, b: usize, c: usize) -> Self {
        if c == 0 {
            BravoReadToken::Fast(a)
        } else {
            BravoReadToken::Slow(T::from_words(a, b))
        }
    }
}

/// One visible-readers slot, padded to a cache line so concurrent
/// readers publishing in neighbouring slots do not false-share.
#[repr(align(64))]
struct Slot(AtomicUsize);

/// BRAVO reader-bias wrapper: `Bravo<L>` is a reader-writer lock for
/// any exclusive `L`.
pub struct Bravo<L: RawLock> {
    rbias: AtomicBool,
    /// Clock (ns) before which the bias must not be re-enabled.
    inhibit_until_ns: AtomicU64,
    readers: Box<[Slot]>,
    inner: L,
}

impl<L: RawLock> Bravo<L> {
    /// Wrap `inner`, starting reader-biased.
    pub fn new(inner: L) -> Self {
        Bravo {
            rbias: AtomicBool::new(true),
            inhibit_until_ns: AtomicU64::new(0),
            readers: (0..TABLE_SLOTS)
                .map(|_| Slot(AtomicUsize::new(0)))
                .collect(),
            inner,
        }
    }

    /// The wrapped exclusive lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Whether the lock is currently reader-biased (heuristic).
    pub fn reader_biased(&self) -> bool {
        self.rbias.load(Ordering::Relaxed)
    }

    /// Try the fast path: publish in the table, then recheck the
    /// bias (the store-load ordering against the writer's revocation
    /// is the classic Dekker handshake, hence `SeqCst`).
    #[inline]
    fn try_fast_read(&self) -> Option<usize> {
        if !self.rbias.load(Ordering::Relaxed) {
            return None;
        }
        let slot = reader_slot();
        if self.readers[slot]
            .0
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None; // collision: another reader occupies the slot
        }
        if self.rbias.load(Ordering::SeqCst) {
            return Some(slot);
        }
        // Revoked while we published: withdraw and fall back.
        self.readers[slot].0.store(0, Ordering::Release);
        None
    }

    /// Slow-path bias re-enable: once the inhibit window has passed,
    /// the next reader that had to take the underlying lock turns the
    /// bias back on.
    #[inline]
    fn maybe_reenable_bias(&self) {
        if !self.rbias.load(Ordering::Relaxed)
            && asl_runtime::clock::now_ns() >= self.inhibit_until_ns.load(Ordering::Relaxed)
        {
            // Release, so a fast-path reader that observes the bias
            // inherits our happens-before edge to the last writer's
            // mutations (we hold the underlying lock here, acquired
            // after that writer released it). A relaxed store would
            // let a fast reader skip the lock with no synchronization
            // to those writes at all.
            self.rbias.store(true, Ordering::Release);
        }
    }

    /// Writer-side revocation: disable the bias and wait for every
    /// published reader to leave. Called with the underlying lock
    /// held, so no new fast reader can outlive the scan (they recheck
    /// the bias after publishing).
    fn revoke(&self) {
        let started = asl_runtime::clock::now_ns();
        self.rbias.store(false, Ordering::SeqCst);
        let mut spin = asl_runtime::relax::Spin::new();
        for slot in self.readers.iter() {
            while slot.0.load(Ordering::SeqCst) != 0 {
                spin.relax();
            }
            spin.reset();
        }
        let took = asl_runtime::clock::now_ns().saturating_sub(started);
        // Saturating: deadline arithmetic must clamp, never wrap into
        // the past (same audit as clock::busy_wait_ns).
        self.inhibit_until_ns.store(
            started.saturating_add(took.saturating_mul(INHIBIT_MULTIPLIER)),
            Ordering::Relaxed,
        );
    }
}

impl<L: RawLock> RawLock for Bravo<L> {
    type Token = L::Token;

    #[inline]
    fn lock(&self) -> Self::Token {
        let t = self.inner.lock();
        if self.rbias.load(Ordering::Relaxed) {
            self.revoke();
        }
        t
    }

    #[inline]
    fn try_lock(&self) -> Option<Self::Token> {
        let t = self.inner.try_lock()?;
        if self.rbias.load(Ordering::Relaxed) {
            // Non-blocking revocation: disable the bias, scan once.
            self.rbias.store(false, Ordering::SeqCst);
            if self.readers.iter().any(|s| s.0.load(Ordering::SeqCst) != 0) {
                // Active fast readers: restore the bias and give up.
                self.rbias.store(true, Ordering::SeqCst);
                self.inner.unlock(t);
                return None;
            }
        }
        Some(t)
    }

    #[inline]
    fn unlock(&self, token: Self::Token) {
        self.inner.unlock(token);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        // The table is scanned only under the bias: whoever turned it
        // off holds `inner` until every published reader has left (or,
        // in `try_lock`, until it is back on), so with the bias off
        // and `inner` free no fast reader holds — and a probe of a
        // write-mostly lock (an armed `Instrumented`'s, once per
        // acquisition) stays two loads instead of 64 lines.
        self.inner.is_locked()
            || (self.rbias.load(Ordering::Relaxed)
                && self
                    .readers
                    .iter()
                    .any(|s| s.0.load(Ordering::Relaxed) != 0))
    }

    const NAME: &'static str = "bravo";
}

impl<L: RawLock> RawRwLock for Bravo<L> {
    type ReadToken = BravoReadToken<L::Token>;

    #[inline]
    fn read(&self) -> Self::ReadToken {
        if let Some(slot) = self.try_fast_read() {
            return BravoReadToken::Fast(slot);
        }
        let t = self.inner.lock();
        self.maybe_reenable_bias();
        BravoReadToken::Slow(t)
    }

    #[inline]
    fn try_read(&self) -> Option<Self::ReadToken> {
        if let Some(slot) = self.try_fast_read() {
            return Some(BravoReadToken::Fast(slot));
        }
        let t = self.inner.try_lock()?;
        self.maybe_reenable_bias();
        Some(BravoReadToken::Slow(t))
    }

    #[inline]
    fn unlock_read(&self, token: Self::ReadToken) {
        match token {
            BravoReadToken::Fast(slot) => self.readers[slot].0.store(0, Ordering::Release),
            BravoReadToken::Slow(t) => self.inner.unlock(t),
        }
    }

    #[inline]
    fn is_write_locked(&self) -> bool {
        // Heuristic: the underlying lock is only held across reads on
        // the (serialized) slow path, so "held" approximates "writer
        // or degenerate reader present".
        self.inner.is_locked()
    }
}

#[cfg(test)]
// Unit tokens are still tokens: the tests pass them explicitly to
// exercise the RawRwLock protocol.
#[allow(clippy::let_unit_value)]
mod tests {
    use super::*;
    use crate::{McsLock, TasLock, TicketLock};
    use std::sync::Arc;

    #[test]
    fn fast_readers_share_while_biased() {
        let l = Bravo::new(McsLock::new());
        assert!(l.reader_biased());
        let r1 = l.read();
        assert!(
            matches!(r1, BravoReadToken::Fast(_)),
            "first read takes the fast path"
        );
        // A second reader from this thread hashes to the same slot:
        // it must still get in (slow path), not deadlock.
        let r2 = l.read();
        assert!(
            matches!(r2, BravoReadToken::Slow(_)),
            "slot collision falls back"
        );
        l.unlock_read(r2);
        l.unlock_read(r1);
        assert!(!l.is_locked());
    }

    #[test]
    fn writer_revokes_bias_and_excludes_readers() {
        let l = Bravo::new(TicketLock::new());
        let w = l.lock();
        assert!(!l.reader_biased(), "write revokes the bias");
        assert!(l.try_read().is_none(), "revoked + inner held: no reads");
        assert!(l.try_lock().is_none());
        l.unlock(w);
        // Bias stays inhibited right after revocation; reads fall back
        // to the underlying lock but still succeed.
        let r = l.try_read().expect("slow-path read after revocation");
        l.unlock_read(r);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_write_backs_off_fast_readers() {
        let l = Bravo::new(McsLock::new());
        let r = l.read();
        assert!(matches!(r, BravoReadToken::Fast(_)));
        assert!(l.is_locked(), "a fast reader holds: the probe scans");
        assert!(!l.is_write_locked());
        assert!(l.try_lock().is_none(), "fast reader blocks try_lock");
        assert!(l.reader_biased(), "failed try_lock restores the bias");
        l.unlock_read(r);
        let w = l.try_lock().expect("drained readers admit writer");
        l.unlock(w);
    }

    #[test]
    fn concurrent_readers_and_writers_exclude() {
        struct Shared {
            lock: Bravo<TasLock>,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            lock: Bravo::new(TasLock::new()),
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
                        // Reads must always observe a torn-free value.
                        let v = unsafe { std::ptr::read_volatile(s.value.get()) };
                        assert!(v <= 8_000);
                        s.lock.unlock_read(t);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *s.value.get() }, 4 * 2_000 / 4);
        assert!(!s.lock.is_locked());
    }
}
