//! Contention-adaptive lock: TAS that morphs into a queue lock.
//!
//! Fissile-style substrate morphing (Dice & Kogan, *Fissile Locks*):
//! under light load a test-and-set lock is unbeatable — one swap, no
//! queue-node traffic — but under contention its collapsed fairness
//! and coherence storms lose to a FIFO queue. [`Adaptive`] runs the
//! two substrates behind one interface and *morphs* between them based
//! on the telemetry it records:
//!
//! * **TAS mode** (initial): acquire by swapping the flag; waiters
//!   spin locally with [`asl_runtime::relax::Spin`].
//! * **Queue mode**: waiters first pass through an internal FIFO
//!   ticket queue, then take the flag (uncontended except against
//!   stragglers still spinning from TAS mode — the flag stays the
//!   single ground truth of ownership in both modes, which is what
//!   makes the morph race-free: changing mode never changes who holds
//!   the lock).
//!
//! Morphing is driven by streak counters over the shared
//! [`TelemetryCell`] signal: `promote_after` consecutive contended
//! acquisitions switch TAS → queue; `demote_after` consecutive
//! arrivals that found the lock completely idle switch back. Both
//! thresholds are deterministic counter comparisons — tests observe
//! morphs through [`Adaptive::mode`] and telemetry snapshots, never
//! through timing.
//!
//! # Restriction is `gcr-adaptive`
//!
//! Like `ticket` and `mcs`, this is a bare spinlock: with more
//! runnable waiters than cores it collapses. What stops that is the
//! workspace's one admission mechanism, [`crate::gcr::Gcr`], which
//! composes with this lock as with any other (`Gcr<Adaptive>`, the
//! registry's `gcr-adaptive`) and engages only once waiters queue. A
//! third morph stage that gates the funnel from inside this lock is a
//! second copy of that mechanism, and measured worse than the
//! composition on every cell (modeled machines, virtual time, seed 1):
//!
//! * 2 big + 2 little cores at ratio 3, 16 threads (the repo
//!   benchmark's `amp-oversub` machine): three stages 447 400 ops/s,
//!   the two-stage lock under `Gcr` 628 400 (`gcr-mcs` 627 500; the
//!   bare two-stage lock 78 000, `ticket` 78 050).
//! * M1-like, 8 threads on 8 cores (`amp-lock`): nothing is
//!   oversubscribed, a built-in stage engages anyway and buys +0.3 %
//!   throughput (229 550 vs 228 750) for a 4.3× little-core p99
//!   (121.4 vs 28.0 µs).
//! * A gate sized when the lock is built asks about the *host* thread
//!   that builds it, so one simulated cell read 252 045 ops/s on a
//!   2-CPU host, 248 939 with a 4-CPU host's limit and 237 424 on
//!   ≥ 8 CPUs — the last being what two stages read on every host.
//!   `Gcr` sizes itself on the thread that first engages it.
//!
//! ```
//! use asl_locks::api::Guard;
//! use asl_locks::{Adaptive, AdaptiveMode};
//!
//! let lock = Adaptive::new();
//! assert_eq!(lock.mode(), AdaptiveMode::Tas);
//! {
//!     let _held = Guard::new(&lock);
//! }
//! // Uncontended use never morphs.
//! assert_eq!(lock.mode(), AdaptiveMode::Tas);
//! assert_eq!(lock.telemetry().snapshot().contended, 0);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

use crate::plain::TokenWords;
use crate::telemetry::TelemetryCell;
use crate::{RawLock, TicketLock};

const MODE_TAS: u8 = 0;
const MODE_QUEUE: u8 = 1;

const VIA_TAS: u8 = 0;
const VIA_QUEUE: u8 = 1;

/// Which substrate [`Adaptive`] currently grants through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// Unfair test-and-set fast path (light load).
    Tas,
    /// FIFO ticket funnel in front of the flag (contended).
    Queue,
}

/// Proof of an [`Adaptive`] acquisition; records which path was taken
/// so the release can unwind it.
#[derive(Debug)]
pub struct AdaptiveToken {
    /// `VIA_TAS` or `VIA_QUEUE`: the path this acquisition actually
    /// took (which may lag a concurrent morph — the release must
    /// unwind what *was* entered, not current mode).
    via: u8,
}

impl TokenWords for AdaptiveToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (self.via as usize, 0)
    }
    #[inline]
    unsafe fn from_words(a: usize, _b: usize) -> Self {
        AdaptiveToken { via: a as u8 }
    }
}

/// Contention-adaptive lock (see module docs).
pub struct Adaptive {
    /// Ground truth of ownership in both modes.
    flag: AtomicBool,
    /// FIFO funnel used in queue mode.
    queue: TicketLock,
    /// Current substrate (monotonic per observation, not per run).
    mode: AtomicU8,
    /// Consecutive contended acquisitions (promotion signal).
    hot_streak: AtomicU32,
    /// Consecutive idle arrivals (demotion signal).
    calm_streak: AtomicU32,
    promote_after: u32,
    demote_after: u32,
    to_queue: AtomicU64,
    to_tas: AtomicU64,
    telemetry: TelemetryCell,
}

/// Default contended-streak length before morphing TAS → queue.
/// Promotion is deliberately aggressive (Fissile promotes on little
/// evidence and relies on demotion being cheap); it also keeps the
/// morph observable on over-subscribed hosts, where a holder
/// preempted mid-critical-section yields at most `threads - 1`
/// consecutive contended observations.
pub const DEFAULT_PROMOTE_AFTER: u32 = 4;
/// Default idle-streak length before morphing queue → TAS.
pub const DEFAULT_DEMOTE_AFTER: u32 = 512;

impl Adaptive {
    /// Adaptive lock with the default morph thresholds.
    pub fn new() -> Self {
        Self::with_thresholds(DEFAULT_PROMOTE_AFTER, DEFAULT_DEMOTE_AFTER)
    }

    /// Adaptive lock with explicit thresholds: `promote_after`
    /// consecutive contended acquisitions switch TAS → queue,
    /// `demote_after` consecutive idle arrivals switch back. Both must
    /// be non-zero.
    pub fn with_thresholds(promote_after: u32, demote_after: u32) -> Self {
        assert!(promote_after > 0 && demote_after > 0);
        Adaptive {
            flag: AtomicBool::new(false),
            queue: TicketLock::new(),
            mode: AtomicU8::new(MODE_TAS),
            hot_streak: AtomicU32::new(0),
            calm_streak: AtomicU32::new(0),
            promote_after,
            demote_after,
            to_queue: AtomicU64::new(0),
            to_tas: AtomicU64::new(0),
            telemetry: TelemetryCell::new(),
        }
    }

    /// The substrate currently granting acquisitions.
    #[inline]
    pub fn mode(&self) -> AdaptiveMode {
        match self.mode.load(Ordering::Relaxed) {
            MODE_QUEUE => AdaptiveMode::Queue,
            _ => AdaptiveMode::Tas,
        }
    }

    /// Times the lock morphed TAS → queue.
    pub fn morphs_to_queue(&self) -> u64 {
        self.to_queue.load(Ordering::Relaxed)
    }

    /// Times the lock morphed queue → TAS.
    pub fn morphs_to_tas(&self) -> u64 {
        self.to_tas.load(Ordering::Relaxed)
    }

    /// The shared telemetry this lock records into (and morphs from).
    pub fn telemetry(&self) -> &TelemetryCell {
        &self.telemetry
    }

    /// A contended acquisition happened: advance the promotion
    /// streak, possibly morphing TAS → queue.
    #[inline]
    fn note_contended(&self) {
        self.calm_streak.store(0, Ordering::Relaxed);
        let streak = self.hot_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.promote_after
            && self
                .mode
                .compare_exchange(MODE_TAS, MODE_QUEUE, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.to_queue.fetch_add(1, Ordering::Relaxed);
            self.hot_streak.store(0, Ordering::Relaxed);
        }
    }

    /// An arrival found the lock completely idle: advance the
    /// demotion streak, possibly morphing queue → TAS.
    #[inline]
    fn note_idle(&self) {
        self.hot_streak.store(0, Ordering::Relaxed);
        let streak = self.calm_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.demote_after
            && self
                .mode
                .compare_exchange(MODE_QUEUE, MODE_TAS, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.to_tas.fetch_add(1, Ordering::Relaxed);
            self.calm_streak.store(0, Ordering::Relaxed);
        }
    }

    /// Queue-mode slow path: FIFO funnel (the ticket token is the
    /// unit type, re-supplied at release), then take the flag.
    fn lock_via_queue(&self) -> AdaptiveToken {
        self.queue.lock();
        // Mostly uncontended: the previous holder released the flag
        // before (or right after) releasing the funnel. Stragglers
        // still spinning from TAS mode can race us, so loop.
        let mut spin = asl_runtime::relax::Spin::new();
        let mut iters = 0u64;
        while self.flag.swap(true, Ordering::Acquire) {
            spin.relax();
            iters += 1;
        }
        self.telemetry.add_spins(iters);
        AdaptiveToken { via: VIA_QUEUE }
    }

    /// TAS-mode slow path: spin on the flag, migrating to the funnel
    /// if the lock morphs while we spin. The token records which path
    /// was actually entered so the release unwinds exactly that.
    fn lock_via_tas(&self) -> AdaptiveToken {
        let mut spin = asl_runtime::relax::Spin::new();
        let mut iters = 0u64;
        let token = loop {
            while self.flag.load(Ordering::Relaxed) {
                spin.relax();
                iters += 1;
                if self.mode.load(Ordering::Relaxed) != MODE_TAS {
                    break;
                }
            }
            if self.mode.load(Ordering::Relaxed) != MODE_TAS {
                break self.lock_via_queue();
            }
            spin.reset();
            if !self.flag.swap(true, Ordering::Acquire) {
                break AdaptiveToken { via: VIA_TAS };
            }
        };
        self.telemetry.add_spins(iters);
        token
    }
}

impl Default for Adaptive {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for Adaptive {
    type Token = AdaptiveToken;

    #[inline]
    fn lock(&self) -> AdaptiveToken {
        let queued = self.mode.load(Ordering::Relaxed) != MODE_TAS;

        // TAS mode fast path: one swap, one counter RMW. The full
        // `note_idle` bookkeeping is skipped — `calm_streak` is only
        // consulted in queue mode (and the promoting acquisition
        // resets it), and `hot_streak` ("consecutive contended") only
        // needs a write when a streak is actually live, so the
        // usually-zero counter costs a relaxed load, not a store.
        if !queued && !self.flag.swap(true, Ordering::Acquire) {
            if self.hot_streak.load(Ordering::Relaxed) != 0 {
                self.hot_streak.store(0, Ordering::Relaxed);
            }
            self.telemetry.record_acquired();
            self.telemetry.sample_hold_start();
            return AdaptiveToken { via: VIA_TAS };
        }

        // A TAS-mode arrival that lost the swap is contended; a
        // queue-mode arrival is unless it finds the lock wholly idle.
        let contended = !queued || self.queue.is_locked() || self.flag.load(Ordering::Relaxed);

        // The observation is recorded *before* blocking (waiters are
        // visible to snapshots while they still wait) and may itself
        // trigger the morph, in which case a TAS-mode arrival joins
        // the queue instead of spinning unfairly next to it.
        if contended {
            self.note_contended();
            self.telemetry.record_contended();
        } else {
            self.note_idle();
        }
        let t0 = if contended && self.telemetry.sampling() {
            asl_runtime::clock::now_ns()
        } else {
            0
        };
        let token = if queued || self.mode.load(Ordering::Relaxed) != MODE_TAS {
            self.lock_via_queue()
        } else {
            self.lock_via_tas()
        };
        if t0 != 0 {
            self.telemetry
                .add_wait_ns(asl_runtime::clock::now_ns().saturating_sub(t0));
        }
        self.telemetry.record_acquired();
        self.telemetry.sample_hold_start();
        token
    }

    #[inline]
    fn try_lock(&self) -> Option<AdaptiveToken> {
        // Opportunistic in both modes: the flag is the ground truth,
        // so a successful swap is a valid acquisition even while
        // queued waiters funnel (they keep spinning on the flag).
        if !self.flag.swap(true, Ordering::Acquire) {
            self.telemetry.record_acquisition(false);
            self.telemetry.sample_hold_start();
            Some(AdaptiveToken { via: VIA_TAS })
        } else {
            None
        }
    }

    #[inline]
    fn unlock(&self, token: AdaptiveToken) {
        self.telemetry.note_hold_end();
        self.flag.store(false, Ordering::Release);
        if token.via != VIA_TAS {
            self.queue.unlock(());
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.queue.is_locked()
    }

    const NAME: &'static str = "adaptive";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Force `waiters` guaranteed-contended acquisitions: hold the
    /// lock here, let that many helper threads block on `lock()`, and
    /// release only once telemetry proves every one of them observed
    /// contention (observations are recorded *before* blocking).
    fn contended_round(lock: &Arc<Adaptive>, waiters: u64) {
        let before = lock.telemetry().snapshot().contended;
        let t = lock.lock();
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let l2 = lock.clone();
                std::thread::spawn(move || {
                    let t = l2.lock();
                    l2.unlock(t);
                })
            })
            .collect();
        let mut spin = asl_runtime::relax::Spin::new();
        while lock.telemetry().snapshot().contended < before + waiters {
            spin.relax();
        }
        lock.unlock(t);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn starts_in_tas_and_stays_there_uncontended() {
        let l = Adaptive::new();
        for _ in 0..1_000 {
            let t = l.lock();
            l.unlock(t);
        }
        assert_eq!(l.mode(), AdaptiveMode::Tas);
        assert_eq!(l.morphs_to_queue(), 0);
        let s = l.telemetry().snapshot();
        assert_eq!(s.acquisitions, 1_000);
        assert_eq!(s.contended, 0);
    }

    #[test]
    fn deterministic_promotion_and_demotion() {
        let lock = Arc::new(Adaptive::with_thresholds(3, 5));

        // Three concurrently observed contended acquisitions: the
        // promotion streak reaches the threshold and the lock morphs
        // to the queue substrate.
        contended_round(&lock, 3);
        assert_eq!(lock.mode(), AdaptiveMode::Queue);
        assert_eq!(lock.morphs_to_queue(), 1);
        let s = lock.telemetry().snapshot();
        assert!(s.contended >= 3, "telemetry oracle: {s:?}");

        // Five idle arrivals: morph back to TAS.
        for _ in 0..5 {
            let t = lock.lock();
            lock.unlock(t);
        }
        assert_eq!(lock.mode(), AdaptiveMode::Tas);
        assert_eq!(lock.morphs_to_tas(), 1);
    }

    #[test]
    fn queue_mode_grants_and_releases() {
        let lock = Arc::new(Adaptive::with_thresholds(1, u32::MAX));
        contended_round(&lock, 1);
        assert_eq!(lock.mode(), AdaptiveMode::Queue);
        // Acquisitions in queue mode still work single-threaded.
        for _ in 0..100 {
            let t = lock.lock();
            assert!(lock.is_locked());
            lock.unlock(t);
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_both_modes() {
        let lock = Arc::new(Adaptive::with_thresholds(1, u32::MAX));
        let t = lock.try_lock().expect("free");
        assert!(lock.try_lock().is_none());
        lock.unlock(t);

        contended_round(&lock, 1);
        assert_eq!(lock.mode(), AdaptiveMode::Queue);
        let t = lock.try_lock().expect("free in queue mode");
        assert!(lock.try_lock().is_none());
        lock.unlock(t);
        assert!(!lock.is_locked());
    }

    #[test]
    fn mutual_exclusion_across_the_morph() {
        // Low promote threshold: the run morphs mid-way; the counter
        // must stay exact regardless.
        struct Shared {
            lock: Adaptive,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            lock: Adaptive::with_thresholds(4, 64),
            value: std::cell::UnsafeCell::new(0),
        });
        let mut handles = vec![];
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let t = s.lock.lock();
                    unsafe { *s.value.get() += 1 };
                    s.lock.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *s.value.get() }, 40_000);
        assert_eq!(s.lock.telemetry().snapshot().acquisitions, 40_000);
    }

    #[test]
    fn token_words_roundtrip() {
        for via in [VIA_TAS, VIA_QUEUE] {
            let t = AdaptiveToken { via };
            let (a, b) = t.into_words();
            let back = unsafe { AdaptiveToken::from_words(a, b) };
            assert_eq!(back.via, via);
        }
    }
}
