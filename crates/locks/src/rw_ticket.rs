//! Phase-fair ticket reader-writer lock, after Brandenburg &
//! Anderson's PF-T ("Spin-based reader-writer synchronization for
//! multiprocessor real-time systems", 2010).
//!
//! Readers and writers alternate in *phases*: a reader arriving while
//! a writer is present blocks only for that one writer phase (and the
//! writer only for the reader batch that entered before it), so
//! neither side can starve the other — the reader-writer analogue of
//! the FIFO guarantees the exclusive ticket lock gives. Counters:
//!
//! * `rin`/`rout` — readers entered/exited, counted in units of
//!   `RINC`; the low bit of `rin` doubles as the writer-presence flag
//!   (`PRES`).
//! * `win`/`wout` — writer tickets issued/retired (writers serialize
//!   FIFO among themselves exactly like the exclusive ticket lock).
//! * `drain_target` — the reader-entry count snapshotted by the
//!   present writer at its announcement; exactly the readers *below*
//!   the target are the ones the writer waits for.
//!
//! We deviate from the textbook PF-T in how a blocked reader decides
//! it has been granted. PF-T readers watch a 1-bit phase id, which is
//! only sound while every announced writer phase drains all earlier
//! readers — an invariant a non-blocking `try_lock` back-out cannot
//! keep (a reader sleeping through the aborted phase could wake to a
//! later writer with an identical phase bit and deadlock against it).
//! Instead a blocked reader compares its own entry ticket against
//! `drain_target`: targets grow monotonically with reader entries, so
//! any *later* writer's target provably includes the blocked reader,
//! and the grant check (`target > mine` → the present writer waits
//! for me, go) cannot be fooled by phase-counter wrap-around.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::{RawLock, RawRwLock};

/// Reader count increment: readers are counted above the writer flag
/// (the rest of the low byte stays reserved).
const RINC: u32 = 0x100;
/// Mask of the writer bits in `rin`.
const WBITS: u32 = RINC - 1;
/// A writer is present (set while a writer holds or drains readers).
const PRES: u32 = 0x1;

/// Phase-fair ticket reader-writer lock.
pub struct RwTicketLock {
    /// Reader entry ticket (high bits) + writer presence (low bits).
    rin: AtomicU32,
    /// Reader exit count (same units as the high bits of `rin`).
    rout: AtomicU32,
    /// Writer entry ticket.
    win: AtomicU32,
    /// Writers retired.
    wout: AtomicU32,
    /// Reader-entry count snapshotted by the present writer: readers
    /// below the target are drained, readers at or above it wait.
    drain_target: AtomicU32,
}

impl RwTicketLock {
    /// New unlocked rwlock.
    pub fn new() -> Self {
        RwTicketLock {
            rin: AtomicU32::new(0),
            rout: AtomicU32::new(0),
            win: AtomicU32::new(0),
            wout: AtomicU32::new(0),
            drain_target: AtomicU32::new(0),
        }
    }

    /// Number of readers currently holding or draining (heuristic).
    pub fn reader_count(&self) -> u32 {
        let entered = self.rin.load(Ordering::Relaxed) & !WBITS;
        let exited = self.rout.load(Ordering::Relaxed);
        entered.wrapping_sub(exited) / RINC
    }

    /// Number of writers holding or waiting (heuristic).
    pub fn writer_queue_depth(&self) -> u32 {
        self.win
            .load(Ordering::Relaxed)
            .wrapping_sub(self.wout.load(Ordering::Relaxed))
    }
}

impl Default for RwTicketLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for RwTicketLock {
    type Token = ();

    #[inline]
    fn lock(&self) {
        // Serialize FIFO among writers.
        let ticket = self.win.fetch_add(1, Ordering::Relaxed);
        let mut spin = asl_runtime::relax::Spin::new();
        while self.wout.load(Ordering::Acquire) != ticket {
            spin.relax();
        }
        // Announce presence (blocking new readers), publish the drain
        // target (releasing readers below it), wait for exactly those
        // readers to leave.
        let entered = self.rin.fetch_add(PRES, Ordering::Acquire) & !WBITS;
        self.drain_target.store(entered, Ordering::Release);
        spin.reset();
        while self.rout.load(Ordering::Acquire) != entered {
            spin.relax();
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        let ticket = self.wout.load(Ordering::Acquire);
        // Only take a writer ticket if it would be served immediately.
        if self
            .win
            .compare_exchange(
                ticket,
                ticket.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return None;
        }
        let entered = self.rin.fetch_add(PRES, Ordering::Acquire) & !WBITS;
        self.drain_target.store(entered, Ordering::Release);
        if self.rout.load(Ordering::Acquire) == entered {
            return Some(());
        }
        // Readers still active: back out without waiting. This is
        // safe precisely because reader grants key off the monotone
        // drain target, not a phase bit: a reader that slept through
        // this aborted announcement is below every later writer's
        // target and can never be confused into waiting for one.
        self.rin.fetch_and(!WBITS, Ordering::Release);
        self.wout.fetch_add(1, Ordering::Release);
        None
    }

    #[inline]
    fn unlock(&self, _t: ()) {
        // Release readers first (clear the presence bits), then retire
        // the ticket so the next writer may start its own phase.
        self.rin.fetch_and(!WBITS, Ordering::Release);
        self.wout.fetch_add(1, Ordering::Release);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.reader_count() > 0 || self.writer_queue_depth() > 0
    }

    const NAME: &'static str = "rw-ticket";
}

impl RawRwLock for RwTicketLock {
    type ReadToken = ();

    #[inline]
    fn read(&self) -> Self::ReadToken {
        let prev = self.rin.fetch_add(RINC, Ordering::Acquire);
        if prev & WBITS != 0 {
            // A writer was present at our entry, so we are not in its
            // drain snapshot: wait until it leaves (bits clear) or a
            // *later* writer announces — its target counts us, so it
            // waits for us and we may read under its drain.
            let mine = prev & !WBITS;
            let mut spin = asl_runtime::relax::Spin::new();
            loop {
                if self.rin.load(Ordering::Acquire) & WBITS == 0 {
                    break;
                }
                let target = self.drain_target.load(Ordering::Acquire);
                if target.wrapping_sub(mine) as i32 > 0 {
                    break;
                }
                spin.relax();
            }
        }
    }

    #[inline]
    fn try_read(&self) -> Option<Self::ReadToken> {
        let mut cur = self.rin.load(Ordering::Relaxed);
        loop {
            if cur & WBITS != 0 {
                return None;
            }
            // CAS failures here only mean other *readers* raced us;
            // retry until the word shows a writer (lock-free: each
            // retry implies someone else made progress).
            match self.rin.compare_exchange_weak(
                cur,
                cur.wrapping_add(RINC),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(()),
                Err(now) => cur = now,
            }
        }
    }

    #[inline]
    fn unlock_read(&self, _t: ()) {
        self.rout.fetch_add(RINC, Ordering::Release);
    }

    #[inline]
    fn is_write_locked(&self) -> bool {
        self.writer_queue_depth() > 0
    }
}

#[cfg(test)]
// Unit tokens are still tokens: the tests pass them explicitly to
// exercise the RawRwLock protocol.
#[allow(clippy::let_unit_value)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_basic() {
        let l = RwTicketLock::new();
        assert!(!l.is_locked());
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(l.reader_count(), 2);
        assert!(l.try_lock().is_none(), "readers block writers");
        l.unlock_read(r1);
        l.unlock_read(r2);
        let w = l.try_lock().expect("drained readers admit a writer");
        assert!(l.is_write_locked());
        assert!(l.try_read().is_none(), "writer blocks readers");
        assert!(l.try_lock().is_none(), "writer blocks writers");
        l.unlock(w);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_read_succeeds_alongside_readers() {
        let l = RwTicketLock::new();
        let r = l.read();
        let r2 = l.try_read().expect("read does not exclude read");
        l.unlock_read(r);
        l.unlock_read(r2);
        assert!(!l.is_locked());
    }

    #[test]
    fn writers_exclude_each_other() {
        // A non-atomic counter in an UnsafeCell: only writer mutual
        // exclusion makes the final count race-free.
        struct Shared {
            lock: RwTicketLock,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            lock: RwTicketLock::new(),
            value: std::cell::UnsafeCell::new(0),
        });
        let mut handles = vec![];
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let t = s.lock.lock();
                    unsafe { *s.value.get() += 1 };
                    s.lock.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *s.value.get() }, 8_000);
        assert!(!s.lock.is_locked());
    }

    #[test]
    fn try_write_backout_does_not_strand_blocked_readers() {
        // Regression: with the phase-bit grant, a failed try_lock
        // consumed a writer ticket without draining readers, so a
        // reader preempted across the aborted phase could wake to a
        // later writer with an identical phase bit and deadlock
        // against it (the writer waiting for the reader, the reader
        // for the writer). The monotone drain-target grant makes that
        // impossible; hammer the exact interleaving to guard it.
        let l = Arc::new(RwTicketLock::new());
        let stop = Arc::new(AtomicU32::new(0));
        let mut workers = vec![];
        for _ in 0..2 {
            let l = l.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    let t = l.read();
                    l.unlock_read(t);
                }
            }));
        }
        // Interleave blocking writes with try_lock back-outs: every
        // failed try consumes a ticket, which used to flip the phase
        // parity underneath blocked readers.
        for _ in 0..2_000 {
            if let Some(t) = l.try_lock() {
                l.unlock(t);
            }
            let t = l.lock();
            l.unlock(t);
        }
        stop.store(1, Ordering::Release);
        for h in workers {
            h.join().unwrap();
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn phase_fairness_writer_not_starved_by_reader_stream() {
        // A continuous stream of readers must not starve a writer:
        // once the writer announces presence, new readers block until
        // its phase completes.
        let l = Arc::new(RwTicketLock::new());
        let stop = Arc::new(AtomicU32::new(0));
        let mut readers = vec![];
        for _ in 0..3 {
            let l = l.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    let t = l.read();
                    l.unlock_read(t);
                }
            }));
        }
        // The writer must get through even while readers hammer.
        for _ in 0..50 {
            let t = l.lock();
            l.unlock(t);
        }
        stop.store(1, Ordering::Release);
        for h in readers {
            h.join().unwrap();
        }
        assert!(!l.is_locked());
    }
}
