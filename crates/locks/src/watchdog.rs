//! Telemetry-fed stall watchdog.
//!
//! A stalled lock is the worst observability case: the counters stop
//! moving and the process just hangs. [`StallWatchdog`] runs a small
//! background sampler over probe closures (one per watched lock) and,
//! past a configurable hold or no-progress bound, dumps a diagnostic
//! snapshot — lock label, how long the hold has been open, waiter
//! count, admitted set — to stderr and to an in-process report list,
//! instead of hanging silently.
//!
//! Two conditions fire, each once per stall episode (they re-arm when
//! the condition clears):
//!
//! * **hold exceeded** — the in-flight hold
//!   ([`crate::telemetry::TelemetryCell::hold_started_ns`], surfaced
//!   through [`WatchSample::hold_started_ns`]) has been open longer
//!   than [`WatchdogConfig::hold_bound_ns`]. This is the
//!   holder-preempted / holder-looping case. It sees the holds the
//!   watched cell times: every one where the holder stamps through
//!   `note_hold_start()` (the torture harness's own stamp, `Gcr`'s
//!   counted path, the tests below), about one in
//!   [`crate::telemetry::HOLD_SAMPLE_STRIDE`] under an `Instrumented`
//!   lock, whose other holds read as "none open".
//! * **no progress** — waiters exist but the acquisition counter has
//!   not advanced for [`WatchdogConfig::wait_bound_ns`]. This is the
//!   lost-wakeup / stranded-queue case, which an in-flight hold alone
//!   cannot see — and the condition that covers a stalled holder whose
//!   hold was not one of the timed.
//!
//! The sampler reads wall-clock time and runs on a plain OS thread —
//! it observes, it never participates in the locking protocol, so it
//! keeps working even when every workload thread is wedged (which is
//! the point).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use asl_runtime::clock::{ms, now_ns};

/// One probe reading: everything the watchdog needs to judge a lock,
/// gathered by the watch's closure so any lock family (telemetry
/// cell, GCR gate, delegation slots) can be watched without a common
/// trait.
#[derive(Clone, Debug, Default)]
pub struct WatchSample {
    /// Total acquisitions so far (the progress counter).
    pub acquisitions: u64,
    /// When the in-flight hold began ([`now_ns`] timeline), 0 if none
    /// is open or the open one is not timed — see
    /// [`crate::telemetry::TelemetryCell::hold_started_ns`].
    pub hold_started_ns: u64,
    /// Threads currently waiting (queue depth, passive length, …).
    pub waiters: u64,
    /// Human-readable admitted-set / holder description for the dump
    /// (e.g. `"active=3/4 passive=9"`).
    pub admitted: String,
}

/// Bounds and cadence for a [`StallWatchdog`].
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Fire when an in-flight hold exceeds this (ns).
    pub hold_bound_ns: u64,
    /// Fire when waiters exist but acquisitions have not advanced for
    /// this long (ns).
    pub wait_bound_ns: u64,
    /// Sampler period.
    pub poll: Duration,
}

impl Default for WatchdogConfig {
    /// A hold of 500ms or a second of waiter starvation is far past
    /// anything the harness workloads do on purpose.
    fn default() -> Self {
        WatchdogConfig {
            hold_bound_ns: ms(500),
            wait_bound_ns: ms(1_000),
            poll: Duration::from_millis(20),
        }
    }
}

/// What tripped a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// In-flight hold exceeded [`WatchdogConfig::hold_bound_ns`].
    HoldExceeded,
    /// Waiters present, no acquisition for
    /// [`WatchdogConfig::wait_bound_ns`].
    NoProgress,
}

/// One diagnostic snapshot dumped by the watchdog.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Label the watch was registered under.
    pub label: String,
    /// Which bound tripped.
    pub kind: StallKind,
    /// How long the offending condition had lasted when sampled (ns).
    pub stalled_ns: u64,
    /// Waiter count at sampling time.
    pub waiters: u64,
    /// Admitted-set / holder description at sampling time.
    pub admitted: String,
}

impl StallReport {
    /// The one-line diagnostic the sampler prints to stderr.
    pub fn render(&self) -> String {
        format!(
            "[watchdog] {}: {:?} for {}ms (waiters={}, admitted: {})",
            self.label,
            self.kind,
            self.stalled_ns / 1_000_000,
            self.waiters,
            if self.admitted.is_empty() {
                "?"
            } else {
                &self.admitted
            },
        )
    }
}

type Probe = Box<dyn Fn() -> WatchSample + Send + Sync>;

struct Watch {
    label: String,
    probe: Probe,
    state: WatchState,
}

/// What the watchdog remembers of one watch between polls.
struct WatchState {
    last_acquisitions: u64,
    last_progress_ns: u64,
    hold_fired: bool,
    progress_fired: bool,
}

impl WatchState {
    fn new(now: u64) -> Self {
        WatchState {
            last_acquisitions: 0,
            last_progress_ns: now,
            hold_fired: false,
            progress_fired: false,
        }
    }

    /// One poll's judgement of sample `s` read at `now`: how long each
    /// condition that fires on this poll has lasted, `(hold exceeded,
    /// no progress)`. Each fires once per episode and re-arms when it
    /// clears. Reads no clock and reports nothing itself, so the rules
    /// are tested on synthetic time.
    fn judge(
        &mut self,
        cfg: &WatchdogConfig,
        s: &WatchSample,
        now: u64,
    ) -> (Option<u64>, Option<u64>) {
        // Hold bound: an open hold older than the bound.
        let hold_open_ns = match s.hold_started_ns {
            0 => 0,
            t => now.saturating_sub(t),
        };
        let held = hold_open_ns > cfg.hold_bound_ns;
        let hold = (held && !self.hold_fired).then_some(hold_open_ns);
        self.hold_fired = held;
        // Progress bound: waiters but no acquisitions.
        let mut stranded = None;
        if s.acquisitions != self.last_acquisitions {
            self.last_acquisitions = s.acquisitions;
            self.last_progress_ns = now;
            self.progress_fired = false;
        } else if s.waiters > 0 {
            let stuck = now.saturating_sub(self.last_progress_ns);
            if stuck > cfg.wait_bound_ns && !self.progress_fired {
                self.progress_fired = true;
                stranded = Some(stuck);
            }
        } else {
            // Nobody waiting: an idle lock is not a stalled one.
            self.last_progress_ns = now;
            self.progress_fired = false;
        }
        (hold, stranded)
    }
}

struct Shared {
    cfg: WatchdogConfig,
    watches: Mutex<Vec<Watch>>,
    reports: Mutex<Vec<StallReport>>,
    stalls: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn sample_all(&self) {
        let now = now_ns();
        let mut watches = self.watches.lock().unwrap();
        for w in watches.iter_mut() {
            let s = (w.probe)();
            let (hold, stranded) = w.state.judge(&self.cfg, &s, now);
            let fired = [
                (StallKind::HoldExceeded, hold),
                (StallKind::NoProgress, stranded),
            ];
            for (kind, stalled_ns) in fired {
                if let Some(stalled_ns) = stalled_ns {
                    self.report(StallReport {
                        label: w.label.clone(),
                        kind,
                        stalled_ns,
                        waiters: s.waiters,
                        admitted: s.admitted.clone(),
                    });
                }
            }
        }
    }

    fn report(&self, r: StallReport) {
        eprintln!("{}", r.render());
        self.stalls.fetch_add(1, Ordering::Relaxed);
        self.reports.lock().unwrap().push(r);
    }
}

/// The watchdog: register watches, read reports, stops (and joins its
/// sampler thread) on drop.
pub struct StallWatchdog {
    shared: Arc<Shared>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl StallWatchdog {
    /// Start a sampler with `cfg`.
    pub fn new(cfg: WatchdogConfig) -> Self {
        let shared = Arc::new(Shared {
            cfg,
            watches: Mutex::new(Vec::new()),
            reports: Mutex::new(Vec::new()),
            stalls: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let s = shared.clone();
        let sampler = std::thread::Builder::new()
            .name("stall-watchdog".into())
            .spawn(move || {
                while !s.stop.load(Ordering::Relaxed) {
                    s.sample_all();
                    std::thread::sleep(s.cfg.poll);
                }
            })
            .expect("spawn watchdog sampler");
        StallWatchdog {
            shared,
            sampler: Some(sampler),
        }
    }

    /// Watch a lock: `probe` is called once per sampling period and
    /// must be cheap and non-blocking (read counters, never take the
    /// watched lock).
    pub fn watch(
        &self,
        label: impl Into<String>,
        probe: impl Fn() -> WatchSample + Send + Sync + 'static,
    ) {
        self.shared.watches.lock().unwrap().push(Watch {
            label: label.into(),
            probe: Box::new(probe),
            state: WatchState::new(now_ns()),
        });
    }

    /// Stall episodes reported so far.
    pub fn stalls(&self) -> u64 {
        self.shared.stalls.load(Ordering::Relaxed)
    }

    /// Drain the accumulated reports.
    pub fn take_reports(&self) -> Vec<StallReport> {
        std::mem::take(&mut *self.shared.reports.lock().unwrap())
    }
}

impl Default for StallWatchdog {
    fn default() -> Self {
        Self::new(WatchdogConfig::default())
    }
}

impl Drop for StallWatchdog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryCell;
    use crate::{RawLock, TasLock};

    fn fast_cfg() -> WatchdogConfig {
        WatchdogConfig {
            hold_bound_ns: ms(20),
            wait_bound_ns: ms(30),
            poll: Duration::from_millis(5),
        }
    }

    #[test]
    fn quiet_lock_never_fires() {
        let dog = StallWatchdog::new(fast_cfg());
        let cell = Arc::new(TelemetryCell::sampled());
        let c = cell.clone();
        dog.watch("idle", move || WatchSample {
            acquisitions: c.snapshot().acquisitions,
            hold_started_ns: c.hold_started_ns(),
            waiters: 0,
            admitted: String::new(),
        });
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(dog.stalls(), 0);
    }

    #[test]
    fn long_hold_fires_once_and_rearms() {
        let dog = StallWatchdog::new(fast_cfg());
        let cell = Arc::new(TelemetryCell::sampled());
        let c = cell.clone();
        dog.watch("held", move || WatchSample {
            acquisitions: c.snapshot().acquisitions,
            hold_started_ns: c.hold_started_ns(),
            waiters: 0,
            admitted: "holder=test".into(),
        });
        cell.record_acquisition(false);
        cell.note_hold_start();
        std::thread::sleep(Duration::from_millis(120));
        cell.note_hold_end();
        let reports = dog.take_reports();
        assert_eq!(reports.len(), 1, "one episode, one report");
        assert_eq!(reports[0].kind, StallKind::HoldExceeded);
        assert_eq!(reports[0].label, "held");
        assert!(reports[0].stalled_ns > ms(20));
        assert_eq!(reports[0].admitted, "holder=test");
        // A second episode fires again.
        cell.record_acquisition(false);
        cell.note_hold_start();
        std::thread::sleep(Duration::from_millis(120));
        cell.note_hold_end();
        assert_eq!(dog.take_reports().len(), 1);
        assert_eq!(dog.stalls(), 2);
    }

    #[test]
    fn stranded_waiters_fire_no_progress() {
        let dog = StallWatchdog::new(fast_cfg());
        let lock = Arc::new(TasLock::new());
        let l = lock.clone();
        // Probe a genuinely wedged lock: held elsewhere, one waiter,
        // no telemetry hold visible (the holder bypassed
        // instrumentation) — only the no-progress condition can see
        // this.
        dog.watch("wedged", move || WatchSample {
            acquisitions: 0,
            hold_started_ns: 0,
            waiters: l.is_locked() as u64,
            admitted: format!("is_locked={}", l.is_locked()),
        });
        lock.lock();
        std::thread::sleep(Duration::from_millis(150));
        lock.unlock(());
        let reports = dog.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, StallKind::NoProgress);
        assert!(reports[0].waiters > 0);
    }

    /// Poll `state` with `s` every 5 ms of synthetic time over
    /// `from..to` (ms); the verdicts that fired.
    fn polls(
        state: &mut WatchState,
        s: &WatchSample,
        from: u64,
        to: u64,
    ) -> Vec<(Option<u64>, Option<u64>)> {
        (from..to)
            .step_by(5)
            .map(|t| state.judge(&fast_cfg(), s, ms(t)))
            .filter(|v| *v != (None, None))
            .collect()
    }

    #[test]
    fn progress_suppresses_no_progress_reports() {
        // Five waiters throughout and a counter that moves every 8 ms
        // against a 30 ms wait bound: never stranded. On synthetic
        // time — a host that stalls the test cannot stretch a gap.
        let mut state = WatchState::new(0);
        let mut busy = WatchSample {
            waiters: 5,
            ..WatchSample::default()
        };
        for t in (0..1_000).step_by(5) {
            busy.acquisitions = t / 8;
            assert_eq!(state.judge(&fast_cfg(), &busy, ms(t)), (None, None));
        }
        // The counter stops: one report, 35 ms after the last advance
        // (the first poll past the bound), and no second one.
        assert_eq!(
            polls(&mut state, &busy, 1_000, 2_000),
            [(None, Some(ms(35)))]
        );
        // An advance re-arms it; so does the queue draining.
        busy.acquisitions += 1;
        assert_eq!(polls(&mut state, &busy, 2_000, 2_100).len(), 1);
        let idle = WatchSample {
            waiters: 0,
            ..busy.clone()
        };
        assert!(polls(&mut state, &idle, 2_100, 2_200).is_empty());
        assert_eq!(polls(&mut state, &busy, 2_200, 2_300).len(), 1);
    }

    #[test]
    fn a_long_hold_fires_once_per_episode_on_synthetic_time() {
        let mut state = WatchState::new(0);
        let held_since = |t| WatchSample {
            acquisitions: 1,
            hold_started_ns: ms(t),
            ..WatchSample::default()
        };
        // Open since 10 ms, bound 20 ms: fires at the first poll past
        // 30 ms, once, however long it stays open.
        let fired = polls(&mut state, &held_since(10), 10, 500);
        assert_eq!(fired, [(Some(ms(25)), None)]);
        // A new hold under the bound re-arms (the sampler need not
        // catch the slot empty in between) and fires for itself.
        assert!(polls(&mut state, &held_since(500), 500, 520).is_empty());
        assert_eq!(polls(&mut state, &held_since(500), 520, 900).len(), 1);
        // An empty slot (no hold, or an untimed one) never fires.
        assert!(polls(&mut state, &WatchSample::default(), 900, 2_000).is_empty());
    }
}
