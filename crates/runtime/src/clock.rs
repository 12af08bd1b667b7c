//! Nanosecond clock utilities.
//!
//! The paper uses `clock_gettime` (~45 cycles) for epoch timestamps
//! and reorder-window deadlines. We expose the same thing: a
//! monotonic nanosecond counter anchored at process start, plus
//! busy-wait and nanosleep helpers used by the lock implementations.
//!
//! ## Where the host reading comes from
//!
//! One rule, applied once per process, with no way to set it from
//! outside: on x86-64 Linux, when the kernel itself runs its clock
//! off the TSC (`current_clocksource` is `tsc` — it has checked that
//! the counter is invariant and synchronised across CPUs), [`now_ns`]
//! is one `rdtsc`, a multiply and a shift (~15 ns on the reference
//! host). Everywhere else — another architecture or OS, a kernel that
//! distrusts the counter, a calibration that came out implausible —
//! it is the single fallback: `Instant::elapsed`, i.e. one vDSO
//! `clock_gettime` plus 128-bit nanosecond arithmetic (~30 ns).
//! [`source`] says which one is serving.
//!
//! The counter's rate is measured against the fallback, without
//! spinning: the first read takes an anchor pair (counter, fallback
//! ns), reads keep being served by the fallback, and the first read
//! at least [`CALIBRATION_SPAN_NS`] later takes a second pair, derives
//! a fixed-point ns-per-tick multiplier from the two and switches the
//! process over *at that anchor*, so the timeline continues where the
//! fallback left it. A process younger than the span therefore still
//! reads the fallback ([`settle`] waits that out, for measurements
//! that would otherwise mix the two prices).
//!
//! Contract (both sources): nanoseconds since the first read of the
//! process; **per-thread monotonic**; `coarse_now_ns() <= now_ns()`.
//! Across threads a timestamp handed over through a Release/Acquire
//! pair can read later than the receiver's next reading by at most
//! [`CROSS_THREAD_SLACK_NS`] (`rdtsc` is not a serialising instruction
//! and may execute ahead of the acquiring load; around the one-time
//! switch a thread may also serve one last fallback reading, which
//! trails the counter's timeline by the width of the anchor read), so
//! every cross-thread consumer subtracts with `saturating_sub`.
//!
//! ## Precise vs. amortized reads
//!
//! [`now_ns`] is the precise clock — one counter read per call. That
//! is cheap enough for once-per-acquisition timestamps but not for
//! per-spin-iteration deadline checks: a standby competitor polling a
//! reorder window would spend as many cycles reading the clock as
//! probing the lock. [`coarse_now_ns`] amortizes the cost with a
//! per-thread cache refreshed every [`COARSE_REFRESH_EVERY`] reads —
//! no background ticker thread (the reference host has one CPU), just
//! a counter and a cached value in TLS. Wait loops read the coarse
//! clock; anything that anchors a measurement or a deadline reads the
//! precise one, once.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Least distance between the two anchor pairs the counter's rate is
/// derived from. An anchor read is good to a few tens of nanoseconds,
/// so 1 ms puts the rate within ~0.01 % — and the switch happens on
/// whichever read first finds the span elapsed, never by waiting.
pub const CALIBRATION_SPAN_NS: u64 = 1_000_000;

/// Most by which a timestamp received from another thread (through a
/// Release/Acquire pair) can exceed the receiver's own next reading;
/// see the module docs for where the slack comes from.
pub const CROSS_THREAD_SLACK_NS: u64 = 1_000;

/// The hardware cycle counter, where this build can read one.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod counter {
    /// Whether the kernel keeps its own time with this counter — the
    /// only evidence taken that it is invariant and synchronised.
    pub fn trusted() -> bool {
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .is_ok_and(|s| s.trim() == "tsc")
    }

    #[inline(always)]
    pub fn read() -> u64 {
        // SAFETY: `rdtsc` has no memory operands and no preconditions
        // beyond being permitted in user mode, which a kernel serving
        // `clock_gettime` from the vDSO off the TSC relies on too
        // (`trusted` gates every call).
        unsafe { core::arch::x86_64::_rdtsc() }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod counter {
    pub fn trusted() -> bool {
        false
    }

    pub fn read() -> u64 {
        0
    }
}

/// `HOST.source`: the fallback is serving and the counter may yet take over.
const PENDING: u8 = 0;
/// `HOST.source`: the counter is serving (the calibration fields are set).
const COUNTER: u8 = 1;
/// `HOST.source`: the fallback is serving for good.
const FALLBACK: u8 = 2;

/// Which clock serves, and the counter's calibration. One static, so
/// position-independent code reaches all of it through one address.
struct HostClock {
    source: AtomicU8,
    /// The anchor the counter's timeline starts from, and its rate as
    /// a 32.32 fixed-point count of nanoseconds per tick. Written
    /// once, before the Release store of `COUNTER` into `source`;
    /// readers load `source` with Acquire first.
    base_ticks: AtomicU64,
    base_ns: AtomicU64,
    ns_per_tick_q32: AtomicU64,
}

static HOST: HostClock = HostClock {
    source: AtomicU8::new(PENDING),
    base_ticks: AtomicU64::new(0),
    base_ns: AtomicU64::new(0),
    ns_per_tick_q32: AtomicU64::new(0),
};
/// Claimed by the one thread that takes the second anchor.
static SWITCHING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The last fallback reading this thread returned while the source
    /// was still pending. Counter readings are clamped to it, which is
    /// what makes the switch monotonic on every thread whatever a
    /// preemption between two instructions does to the timing.
    static FALLBACK_FLOOR: Cell<u64> = const { Cell::new(0) };
}

/// An anchor pair: a counter reading and the fallback's nanoseconds at
/// (just after) it.
type Anchor = (u64, u64);

/// Process origin of the timeline, plus the first calibration anchor
/// when the counter is a candidate.
struct Origin {
    instant: Instant,
    first: Option<Anchor>,
}

impl Origin {
    #[inline]
    fn elapsed_ns(&self) -> u64 {
        self.instant.elapsed().as_nanos() as u64
    }

    /// Read the counter, then the fallback, keeping the tightest of a
    /// few attempts; `None` if something (an interrupt, a preemption)
    /// got between the two reads every time. Taking the counter
    /// *first* biases the counter's timeline ahead of the fallback's,
    /// never behind.
    fn anchor(&self) -> Option<Anchor> {
        /// ~0.1–0.25 µs: several undisturbed read pairs wide.
        const MAX_BRACKET_TICKS: u64 = 500;
        (0..4)
            .map(|_| {
                let before = counter::read();
                let ns = self.elapsed_ns();
                (counter::read().wrapping_sub(before), (before, ns))
            })
            .filter(|(width, _)| *width <= MAX_BRACKET_TICKS)
            .min_by_key(|(width, _)| *width)
            .map(|(_, anchor)| anchor)
    }
}

fn origin() -> &'static Origin {
    static ORIGIN: OnceLock<Origin> = OnceLock::new();
    ORIGIN.get_or_init(|| {
        let trusted = counter::trusted();
        let mut origin = Origin {
            instant: Instant::now(),
            first: None,
        };
        if trusted {
            origin.first = origin.anchor();
        }
        if origin.first.is_none() {
            HOST.source.store(FALLBACK, Ordering::Relaxed);
        }
        origin
    })
}

#[inline]
fn ticks_to_ns(ticks: u64, ns_per_tick_q32: u64) -> u64 {
    ((u128::from(ticks) * u128::from(ns_per_tick_q32)) >> 32) as u64
}

/// The host clock behind [`now_ns`] and [`os_now_ns`].
#[inline]
fn host_now_ns() -> u64 {
    if HOST.source.load(Ordering::Acquire) == COUNTER {
        // Saturating: another CPU's counter may trail the anchoring
        // CPU's by a few ticks right after the switch.
        let ticks = counter::read().saturating_sub(HOST.base_ticks.load(Ordering::Relaxed));
        let ns = HOST.base_ns.load(Ordering::Relaxed)
            + ticks_to_ns(ticks, HOST.ns_per_tick_q32.load(Ordering::Relaxed));
        return ns.max(FALLBACK_FLOOR.with(Cell::get));
    }
    fallback_or_switch()
}

/// Serve one reading from the fallback; while the source is pending,
/// also see whether this read is the one that can switch it.
#[cold]
#[inline(never)]
fn fallback_or_switch() -> u64 {
    let origin = origin();
    let ns = origin.elapsed_ns();
    if HOST.source.load(Ordering::Relaxed) == PENDING {
        if let Some(first) = origin.first {
            if ns.saturating_sub(first.1) >= CALIBRATION_SPAN_NS {
                switch_to_counter(origin, first);
            }
        }
        FALLBACK_FLOOR.with(|f| f.set(ns));
    }
    ns
}

/// Take the second anchor and move the process onto the counter — or,
/// if the rate it implies is not a clock's, onto the fallback for
/// good. A disturbed anchor read leaves the source pending for the
/// next read to retry.
fn switch_to_counter(origin: &Origin, (ticks0, ns0): Anchor) {
    if SWITCHING.swap(true, Ordering::Acquire) {
        return;
    }
    let Some((ticks1, ns1)) = origin.anchor() else {
        SWITCHING.store(false, Ordering::Release);
        return;
    };
    let ticks = ticks1.wrapping_sub(ticks0);
    let q32 = (u128::from(ns1 - ns0) << 32) / u128::from(ticks.max(1));
    // 50 MHz to 20 GHz.
    if ((1u128 << 32) / 20..=(20u128 << 32)).contains(&q32) {
        HOST.base_ticks.store(ticks1, Ordering::Relaxed);
        HOST.base_ns.store(ns1, Ordering::Relaxed);
        HOST.ns_per_tick_q32.store(q32 as u64, Ordering::Relaxed);
        HOST.source.store(COUNTER, Ordering::Release);
    } else {
        HOST.source.store(FALLBACK, Ordering::Relaxed);
    }
}

/// Which host clock is serving [`now_ns`] right now: `"tsc"` (the
/// cycle counter) or `"os"` (the fallback). A process reads `"os"`
/// until its calibration span has elapsed, and for good where the
/// counter is not trusted; it never goes back from `"tsc"`.
pub fn source() -> &'static str {
    if HOST.source.load(Ordering::Relaxed) == COUNTER {
        "tsc"
    } else {
        "os"
    }
}

/// The calibrated counter rate in ticks per nanosecond (GHz), once
/// [`source`] is `"tsc"`.
pub fn ticks_per_ns() -> Option<f64> {
    (HOST.source.load(Ordering::Acquire) == COUNTER)
        .then(|| (1u64 << 32) as f64 / HOST.ns_per_tick_q32.load(Ordering::Relaxed) as f64)
}

/// Read the clock until this process's source is decided — at once
/// where the counter is not a candidate, within a few
/// [`CALIBRATION_SPAN_NS`] where it is. For measurements whose cells
/// contain clock reads (the `overhead` figure, the clock's own tests):
/// they should not straddle the switch and mix two prices. Nothing on
/// a lock path calls this.
pub fn settle() {
    let t0 = Instant::now();
    while HOST.source.load(Ordering::Relaxed) == PENDING
        && t0.elapsed().as_nanos() < 20 * u128::from(CALIBRATION_SPAN_NS)
    {
        host_now_ns();
    }
}

/// The fallback reading itself (`Instant` since the process origin),
/// whichever source is serving — the reference the counter's timeline
/// is checked against, and the clock of every host [`source`] calls
/// `"os"`.
pub fn fallback_now_ns() -> u64 {
    origin().elapsed_ns()
}

/// Monotonic nanoseconds since process start. Cheap enough to call in
/// lock hot paths (see the module docs for what one read costs), but
/// see [`coarse_now_ns`] for the amortized variant wait loops should
/// use.
///
/// On a thread with an installed [`crate::substrate`] backend this is
/// the *virtual* clock instead — see the substrate module's clock
/// contract.
#[inline]
pub fn now_ns() -> u64 {
    match crate::substrate::with_current(|s| s.now_ns()) {
        Some(t) => t,
        None => host_now_ns(),
    }
}

/// Monotonic OS nanoseconds since process start, bypassing any
/// installed substrate.
///
/// [`now_ns`] dispatches to the thread's substrate when one is
/// installed, which makes it unusable *from inside* a substrate
/// implementation that needs a real-time reading for its own OS
/// fallback (calling back into `now_ns` would recurse through the
/// substrate dispatch). Substrate decorators such as
/// [`crate::fault::FaultInjector`] use this instead; everything else
/// should call [`now_ns`].
#[inline]
pub fn os_now_ns() -> u64 {
    host_now_ns()
}

/// How many [`coarse_now_ns`] reads share one precise clock read on a
/// machine where spinning is cheap.
///
/// Chosen so a spin loop checking its deadline through the coarse
/// clock pays 1/32 of a precise read per check on top of the cache's
/// own TLS bookkeeping (~2 ns a check on the reference host) while
/// the staleness bound below stays tight enough for reorder-window
/// slack (the paper's windows are tens of microseconds; 31 cached
/// reads of a sub-microsecond loop are noise against that). The
/// constant was picked when every precise read was a ~30 ns
/// `clock_gettime`; with the cycle counter serving, a precise read is
/// ~15 ns, so the cache now saves a polling loop roughly half of what
/// it used to per check. It is kept: the staleness side of the trade
/// has not moved, and hosts on the fallback still pay the old price.
///
/// On hosts where every wait-loop poll is a scheduler yield
/// ([`crate::relax::yields_every_poll`], e.g. 1-CPU CI containers)
/// the cache refreshes on *every* read instead: there a poll costs a
/// scheduling quantum, so K stale reads would stretch a window by K
/// quanta while saving nothing worth having.
pub const COARSE_REFRESH_EVERY: u32 = 32;

/// Resolved per process: [`COARSE_REFRESH_EVERY`], or 1 when waiting
/// yields on every poll.
///
/// Host threads only: under an installed substrate [`coarse_now_ns`]
/// returns the substrate's clock before it gets here, so this
/// process-global, host-dependent answer never reaches virtual time.
fn refresh_every() -> u32 {
    static EVERY: OnceLock<u32> = OnceLock::new();
    *EVERY.get_or_init(|| {
        if crate::relax::yields_every_poll() {
            1
        } else {
            COARSE_REFRESH_EVERY
        }
    })
}

thread_local! {
    /// (reads remaining before refresh, cached precise timestamp).
    static COARSE: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// Amortized monotonic nanoseconds since process start.
///
/// Returns a cached [`now_ns`] value, re-reading the precise clock
/// once every [`COARSE_REFRESH_EVERY`] calls on the calling thread
/// (every call on hosts where wait loops yield per poll — see
/// [`COARSE_REFRESH_EVERY`]).
///
/// # Staleness contract
///
/// * **Never ahead:** the returned value is a past precise reading,
///   so `coarse_now_ns() <= now_ns()` always holds. Deadline checks
///   of the form `coarse_now_ns() >= deadline` therefore never fire
///   *early* — a window can only be honoured slightly long, never
///   cut short.
/// * **Bounded behind:** the value was read from the precise clock at
///   most [`COARSE_REFRESH_EVERY`] − 1 coarse reads ago *on this
///   thread*; the wall-clock staleness is bounded by however long
///   those reads took (for a spin loop checking every N iterations,
///   at most ~K·N loop iterations' worth of drift). A thread that
///   stops calling stops refreshing — the cache has no timer — so do
///   not use the coarse clock across blocking sleeps; take a fresh
///   [`now_ns`] instead.
/// * **Per-thread monotonic:** refreshes come from the monotonic
///   precise clock, so consecutive coarse reads on one thread never
///   go backwards.
#[inline]
pub fn coarse_now_ns() -> u64 {
    // Virtual time has no cheaper clock to amortize: the coarse clock
    // collapses onto the precise (virtual) one, staleness 0.
    if let Some(t) = crate::substrate::with_current(|s| s.now_ns()) {
        return t;
    }
    COARSE.with(|c| {
        let (left, cached) = c.get();
        if left == 0 {
            let fresh = now_ns();
            c.set((refresh_every() - 1, fresh));
            fresh
        } else {
            c.set((left - 1, cached));
            cached
        }
    })
}

/// Drop this thread's coarse-clock cache so the next
/// [`coarse_now_ns`] re-reads the precise clock (call after blocking
/// sleeps, where the staleness bound above does not hold).
#[inline]
pub fn coarse_resync() {
    COARSE.with(|c| c.set((0, c.get().1)));
}

/// Busy-wait for approximately `ns` nanoseconds (spinning, with
/// scheduler yields once oversubscribed — see [`crate::relax`]).
#[inline]
pub fn busy_wait_ns(ns: u64) {
    if crate::substrate::with_current(|s| s.busy_wait_ns(ns)).is_some() {
        return;
    }
    // Saturating: a huge `ns` must clamp the deadline at the end of
    // time, not wrap it into the past and return immediately.
    let end = now_ns().saturating_add(ns);
    let mut spin = crate::relax::Spin::new();
    while now_ns() < end {
        spin.relax();
    }
}

/// Sleep for `ns` nanoseconds using `nanosleep(2)`, the same primitive
/// the paper's blocking standby competitors use. Platforms without
/// `nanosleep` fall back to `std::thread::sleep`.
pub fn nanosleep_ns(ns: u64) {
    if crate::substrate::with_current(|s| s.sleep_ns(ns)).is_some() {
        return;
    }
    #[cfg(unix)]
    {
        let ts = libc::timespec {
            tv_sec: (ns / 1_000_000_000) as libc::time_t,
            tv_nsec: (ns % 1_000_000_000) as libc::c_long,
        };
        // Ignore EINTR: for back-off sleeps an early wake-up is
        // harmless.
        unsafe {
            libc::nanosleep(&ts, std::ptr::null_mut());
        }
    }
    #[cfg(not(unix))]
    std::thread::sleep(std::time::Duration::from_nanos(ns));
}

/// Convenience: microseconds to nanoseconds.
#[inline]
pub const fn us(n: u64) -> u64 {
    n * 1_000
}

/// Convenience: milliseconds to nanoseconds.
#[inline]
pub const fn ms(n: u64) -> u64 {
    n * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn ticks_scale_by_the_q32_rate() {
        // 2.1 GHz: 1/2.1 ns per tick.
        let q32 = ((1u128 << 32) * 10 / 21) as u64;
        assert_eq!(ticks_to_ns(0, q32), 0);
        assert_eq!(ticks_to_ns(2_100, q32), 999);
        // A year of ticks neither overflows nor drifts by a tenth of a
        // second (the rate is good to 2^-32 ns per tick).
        let year_ticks = 2_100_000_000u64 * 86_400 * 365;
        let year_ns = 1_000_000_000u64 * 86_400 * 365;
        assert!(ticks_to_ns(year_ticks, q32).abs_diff(year_ns) < 100_000_000);
    }

    #[test]
    fn the_source_is_decided_within_a_few_spans() {
        // Where the counter is trusted it takes over, elsewhere the
        // fallback stays.
        settle();
        assert_eq!(source() == "tsc", counter::trusted());
        assert_eq!(ticks_per_ns().is_some(), counter::trusted());
        if let Some(rate) = ticks_per_ns() {
            assert!((0.05..=20.0).contains(&rate), "implausible rate {rate}");
        }
        // Whichever serves, the two timelines share an origin.
        let (c, f) = (now_ns(), fallback_now_ns());
        assert!(c.abs_diff(f) <= f / 1_000 + CROSS_THREAD_SLACK_NS);
    }

    #[test]
    fn busy_wait_waits() {
        let t0 = now_ns();
        busy_wait_ns(200_000); // 200us
        let dt = now_ns() - t0;
        assert!(dt >= 200_000, "waited only {dt}ns");
    }

    #[test]
    fn nanosleep_sleeps() {
        let t0 = now_ns();
        nanosleep_ns(1_000_000); // 1ms
        assert!(now_ns() - t0 >= 900_000);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(3), 3_000);
        assert_eq!(ms(2), 2_000_000);
    }

    #[test]
    fn coarse_never_ahead_of_precise() {
        coarse_resync();
        for _ in 0..10 * COARSE_REFRESH_EVERY {
            let c = coarse_now_ns();
            let p = now_ns();
            assert!(c <= p, "coarse {c} ran ahead of precise {p}");
        }
    }

    #[test]
    fn coarse_monotonic_per_thread() {
        coarse_resync();
        let mut last = 0u64;
        for _ in 0..10 * COARSE_REFRESH_EVERY {
            let c = coarse_now_ns();
            assert!(c >= last, "coarse went backwards: {last} -> {c}");
            last = c;
        }
    }

    #[test]
    fn coarse_refreshes_within_interval() {
        // After a refresh, the next K-1 reads may repeat the cached
        // value; the K-th read must be a fresh precise reading, so a
        // full interval of reads straddling a known delay must observe
        // the delay.
        coarse_resync();
        let before = coarse_now_ns(); // fresh read (cache was dropped)
        busy_wait_ns(100_000); // 100us: far above clock granularity
        let mut after = 0u64;
        for _ in 0..COARSE_REFRESH_EVERY {
            after = coarse_now_ns();
        }
        assert!(
            after >= before + 100_000,
            "a full read interval never refreshed: {before} -> {after}"
        );
    }

    #[test]
    fn coarse_staleness_bounded_by_interval() {
        // The cached value is at most K-1 coarse reads old: bracket
        // every coarse read with precise reads K calls apart and check
        // the returned value never predates the bracket start.
        coarse_resync();
        for _ in 0..50 {
            let bracket_start = now_ns();
            let mut c = 0u64;
            for _ in 0..COARSE_REFRESH_EVERY {
                c = coarse_now_ns();
            }
            // K coarse reads contain >= 1 refresh, and refreshes are
            // precise readings taken after `bracket_start`.
            assert!(
                c >= bracket_start,
                "staleness exceeded one refresh interval: {c} < {bracket_start}"
            );
        }
    }

    #[test]
    fn coarse_resync_forces_fresh_read() {
        coarse_resync();
        let a = coarse_now_ns();
        busy_wait_ns(50_000);
        coarse_resync();
        let b = coarse_now_ns();
        assert!(b >= a + 50_000, "resync did not re-read: {a} -> {b}");
    }
}
