//! Lock-torture: adversarial fault schedules swept across the lock
//! registry, with invariant oracles.
//!
//! Modeled on the kernel's `locktorture`, adapted to two backends:
//!
//! * **Sim bouts** run on the deterministic virtual machine
//!   ([`asl_sim::exec::run_threads`]) with a
//!   [`FaultInjector`] wrapped
//!   around every virtual thread's substrate handle. The whole bout —
//!   grant order, wait times, fault counters — is a pure function of
//!   the seed, so the report is byte-identical across runs and a
//!   failing schedule replays exactly from `--seed`.
//! * **OS bouts** run on real threads with the injector installed
//!   over the OS substrate, plus a
//!   [`StallWatchdog`] as a
//!   liveness oracle. Timings are wall-clock and the report is *not*
//!   expected to be byte-stable; the oracles still are.
//!
//! Oracles checked per bout:
//!
//! * **mutual-exclusion** — an `UnsafeCell<u64>` counter incremented
//!   in every critical section must end at `threads × ops`, and an
//!   atomic in-CS gauge must never observe two holders.
//! * **completion / no-lost-wakeup** — every thread finishes its op
//!   quota (OS bouts bound this with a wall-clock timeout; a sim bout
//!   that loses a wakeup hangs the baton scheduler and fails loudly).
//! * **fifo** (sim, FIFO locks only) — grant order must equal arrival
//!   order. Arrival indices are taken with no substrate call between
//!   the `fetch_add` and the enqueue, so on the serialized virtual
//!   machine arrival order *is* queue order and the check is exact.
//! * **bounded-starvation** (sim) — max wait may not exceed the mean
//!   wait by more than a per-schedule factor.
//! * **watchdog-silent** (OS) — the stall watchdog must not fire:
//!   injected stalls are microseconds, far under its bounds.
//!
//! Three named schedules reproduce the hand-analyzed adversarial
//! cases as exact tests (see `tests/torture_schedules.rs`):
//! [`schedule_holder_preemption`], [`schedule_gcr_spurious`],
//! [`schedule_panic_delegated`].

use std::cell::UnsafeCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use asl_locks::ccsynch::CcSynch;
use asl_locks::gcr::{Gcr, GcrConfig};
use asl_locks::watchdog::{StallWatchdog, WatchSample, WatchdogConfig};
use asl_locks::{DynLock, PlainLock};
use asl_runtime::clock::{self, ms};
use asl_runtime::fault::{FaultInjector, FaultPlan, FaultState};
use asl_runtime::topology::Topology;
use asl_sim::exec::{run_threads, ZooConfig};

use crate::locks::{Caps, LockSpec};

/// One checked invariant: name, verdict, and the evidence line.
#[derive(Clone, Debug)]
pub struct Oracle {
    /// Invariant name (`mutual-exclusion`, `fifo`, …).
    pub name: &'static str,
    /// Did it hold?
    pub pass: bool,
    /// Deterministic evidence string (counts, bounds).
    pub detail: String,
}

impl Oracle {
    fn new(name: &'static str, pass: bool, detail: String) -> Self {
        Oracle { name, pass, detail }
    }
}

/// Everything one bout produced: the schedule, the fault counters,
/// and the oracle verdicts.
#[derive(Clone, Debug)]
pub struct BoutReport {
    /// Bout title, e.g. `sim/mcs` or a named schedule.
    pub title: String,
    /// Lock label.
    pub lock: String,
    /// `"sim"` or `"os"`.
    pub mode: &'static str,
    /// [`FaultPlan::describe`] of the schedule driven.
    pub plan: String,
    /// Injected-fault counter summary.
    pub faults: String,
    /// Virtual time (sim) — 0 for OS bouts (wall time is not
    /// report-stable).
    pub vtime_ns: u64,
    /// FNV digest over the grant trace (sim) — the replay fingerprint.
    pub digest: u64,
    /// Oracle verdicts.
    pub oracles: Vec<Oracle>,
}

impl BoutReport {
    /// All oracles held.
    pub fn passed(&self) -> bool {
        self.oracles.iter().all(|o| o.pass)
    }

    /// Deterministic multi-line rendering (for sim bouts; OS bouts
    /// omit wall times so the *shape* is stable even if counts vary).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## bout {}", self.title);
        let _ = writeln!(s, "lock: {}", self.lock);
        let _ = writeln!(s, "mode: {}", self.mode);
        let _ = writeln!(s, "plan: {}", self.plan);
        if self.mode == "sim" {
            let _ = writeln!(s, "virtual_time_ns: {}", self.vtime_ns);
            let _ = writeln!(s, "digest: {:#018x}", self.digest);
            let _ = writeln!(s, "faults: {}", self.faults);
        }
        for o in &self.oracles {
            let _ = writeln!(
                s,
                "oracle {}: {} ({})",
                o.name,
                if o.pass { "PASS" } else { "FAIL" },
                o.detail
            );
        }
        s
    }
}

fn fault_summary(state: &FaultState) -> String {
    let st = state.stats();
    format!(
        "polls={} parks={} clock_reads={} ops={} \
         poll_stalls={} wake_stalls={} spurious={} clock_jumps={} panics={}",
        st.polls,
        st.parks,
        st.clock_reads,
        st.ops,
        st.poll_stalls,
        st.wake_stalls,
        st.spurious_wakes,
        st.clock_jumps,
        st.panics,
    )
}

/// One grant observed inside the critical section.
#[derive(Clone, Copy, Debug)]
struct Grant {
    tid: u32,
    arrival: u64,
    wait_ns: u64,
}

fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn grant_digest(grants: &[Grant]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for g in grants {
        h = fnv_fold(h, g.tid as u64);
        h = fnv_fold(h, g.arrival);
        h = fnv_fold(h, g.wait_ns);
    }
    h
}

/// Shared per-bout instrumentation: the ME counter/gauge, the arrival
/// ticket, and the grant trace.
struct BoutShared {
    counter: UnsafeCell<u64>,
    in_cs: AtomicU64,
    me_violations: AtomicU64,
    arrivals: AtomicU64,
    grants: Mutex<Vec<Grant>>,
}

// SAFETY: `counter` is only written while holding the lock under
// torture — that exclusion is exactly what the bout verifies, and the
// atomic gauge independently detects any overlap.
unsafe impl Sync for BoutShared {}

impl BoutShared {
    fn new() -> Self {
        BoutShared {
            counter: UnsafeCell::new(0),
            in_cs: AtomicU64::new(0),
            me_violations: AtomicU64::new(0),
            arrivals: AtomicU64::new(0),
            grants: Mutex::new(Vec::new()),
        }
    }

    /// One tortured operation: arrive, acquire, mutate, release.
    fn op(&self, lock: &dyn PlainLock, tid: usize) {
        let t0 = clock::now_ns();
        let arrival = self.arrivals.fetch_add(1, Ordering::SeqCst);
        let token = lock.acquire();
        let wait_ns = clock::now_ns().saturating_sub(t0);
        if self.in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
            self.me_violations.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: inside the critical section (see Sync impl).
        unsafe { *self.counter.get() += 1 };
        self.grants.lock().unwrap().push(Grant {
            tid: tid as u32,
            arrival,
            wait_ns,
        });
        self.in_cs.fetch_sub(1, Ordering::SeqCst);
        lock.release(token);
    }

    fn me_oracle(&self, expected: u64) -> Oracle {
        let count = unsafe { *self.counter.get() };
        let viol = self.me_violations.load(Ordering::SeqCst);
        Oracle::new(
            "mutual-exclusion",
            count == expected && viol == 0,
            format!("counter={count} expected={expected} overlaps={viol}"),
        )
    }
}

/// Parameters for one sim bout.
#[derive(Clone, Debug)]
pub struct SimBout {
    /// Virtual threads.
    pub threads: usize,
    /// Acquisitions per thread.
    pub ops: u64,
    /// Schedule seed (thread staggering + fault decisions).
    pub seed: u64,
    /// Fault schedule.
    pub plan: FaultPlan,
    /// Check exact arrival-order FIFO (only for FIFO locks).
    pub fifo: bool,
    /// `Some(k)`: max wait ≤ k × mean wait.
    pub starvation_factor: Option<u64>,
}

/// Run one deterministic bout on the modeled machine.
pub fn sim_bout(
    title: &str,
    lock_label: &str,
    lock: Arc<dyn PlainLock>,
    cfg: &SimBout,
) -> BoutReport {
    let state = FaultState::new(cfg.plan.clone());
    let mut zc = ZooConfig::quick(Topology::apple_m1(), cfg.threads, cfg.seed);
    zc.fault = Some(state.clone());
    let shared = BoutShared::new();

    let vtime_ns = run_threads(&zc, |tid| {
        for _ in 0..cfg.ops {
            shared.op(lock.as_ref(), tid);
        }
    });

    let grants = shared.grants.lock().unwrap().clone();
    let expected = cfg.threads as u64 * cfg.ops;
    let mut oracles = vec![
        shared.me_oracle(expected),
        Oracle::new(
            "completion",
            grants.len() as u64 == expected,
            format!(
                "grants={} expected={expected} vtime_ns={vtime_ns}",
                grants.len()
            ),
        ),
    ];
    if cfg.fifo {
        let out_of_order = grants
            .windows(2)
            .filter(|w| w[1].arrival < w[0].arrival)
            .count();
        oracles.push(Oracle::new(
            "fifo",
            out_of_order == 0,
            format!("out_of_order_grants={out_of_order}"),
        ));
    }
    if let Some(factor) = cfg.starvation_factor {
        let max = grants.iter().map(|g| g.wait_ns).max().unwrap_or(0);
        let mean = if grants.is_empty() {
            0
        } else {
            grants.iter().map(|g| g.wait_ns).sum::<u64>() / grants.len() as u64
        };
        let bound = mean.saturating_mul(factor).max(1);
        oracles.push(Oracle::new(
            "bounded-starvation",
            max <= bound,
            format!("max_wait_ns={max} mean_wait_ns={mean} bound_ns={bound} (factor {factor})"),
        ));
    }

    BoutReport {
        title: title.to_string(),
        lock: lock_label.to_string(),
        mode: "sim",
        plan: cfg.plan.describe(),
        faults: fault_summary(&state),
        vtime_ns,
        digest: grant_digest(&grants),
        oracles,
    }
}

/// Parameters for one OS bout.
#[derive(Clone, Debug)]
pub struct OsBout {
    /// Real threads.
    pub threads: usize,
    /// Acquisitions per thread.
    pub ops: u64,
    /// Fault schedule.
    pub plan: FaultPlan,
    /// No-lost-wakeup bound: the whole bout must finish within this.
    pub timeout: Duration,
}

/// Run one bout on real threads with the injector over the OS
/// substrate and a stall watchdog as the liveness oracle.
pub fn os_bout(
    title: &str,
    lock_label: &str,
    lock: Arc<dyn PlainLock>,
    cfg: &OsBout,
) -> BoutReport {
    let state = FaultState::new(cfg.plan.clone());
    let shared = Arc::new(BoutShared::new());
    let acquisitions = Arc::new(AtomicU64::new(0));
    let hold_started = Arc::new(AtomicU64::new(0));
    let waiting = Arc::new(AtomicU64::new(0));

    let dog = StallWatchdog::new(WatchdogConfig {
        hold_bound_ns: ms(500),
        wait_bound_ns: ms(2000),
        poll: Duration::from_millis(20),
    });
    {
        let (a, h, w) = (acquisitions.clone(), hold_started.clone(), waiting.clone());
        dog.watch(format!("torture/{lock_label}"), move || WatchSample {
            acquisitions: a.load(Ordering::Relaxed),
            hold_started_ns: h.load(Ordering::Relaxed),
            waiters: w.load(Ordering::Relaxed),
            admitted: String::new(),
        });
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
    let mut handles = Vec::new();
    for tid in 0..cfg.threads {
        let lock = lock.clone();
        let state = state.clone();
        let shared = shared.clone();
        let (acq, hold, waitg) = (acquisitions.clone(), hold_started.clone(), waiting.clone());
        let done = done_tx.clone();
        let ops = cfg.ops;
        handles.push(std::thread::spawn(move || {
            let _guard = FaultInjector::install_over_os(&state);
            for _ in 0..ops {
                waitg.fetch_add(1, Ordering::Relaxed);
                let t0 = clock::now_ns();
                let arrival = shared.arrivals.fetch_add(1, Ordering::SeqCst);
                let token = lock.acquire();
                waitg.fetch_sub(1, Ordering::Relaxed);
                hold.store(clock::now_ns().max(1), Ordering::Relaxed);
                if shared.in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                    shared.me_violations.fetch_add(1, Ordering::SeqCst);
                }
                // SAFETY: inside the critical section.
                unsafe { *shared.counter.get() += 1 };
                shared.grants.lock().unwrap().push(Grant {
                    tid: tid as u32,
                    arrival,
                    wait_ns: clock::now_ns().saturating_sub(t0),
                });
                shared.in_cs.fetch_sub(1, Ordering::SeqCst);
                hold.store(0, Ordering::Relaxed);
                acq.fetch_add(1, Ordering::Relaxed);
                lock.release(token);
            }
            let _ = done.send(tid);
        }));
    }
    drop(done_tx);

    let deadline = std::time::Instant::now() + cfg.timeout;
    let mut finished = 0usize;
    while finished < cfg.threads {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        match done_rx.recv_timeout(left) {
            Ok(_) => finished += 1,
            Err(_) => break,
        }
    }
    let completed = finished == cfg.threads;
    if completed {
        for h in handles {
            let _ = h.join();
        }
    } else {
        // A wedged bout: leak the stuck workers rather than hang the
        // runner — the failed oracle is the deliverable.
        for h in handles {
            drop(h);
        }
    }

    let expected = cfg.threads as u64 * cfg.ops;
    let stalls = dog.stalls();
    let reports = dog.take_reports();
    let oracles = vec![
        shared.me_oracle(if completed { expected } else { 0 }),
        Oracle::new(
            "no-lost-wakeup",
            completed,
            format!(
                "finished_threads={finished}/{} within {:?}",
                cfg.threads, cfg.timeout
            ),
        ),
        Oracle::new(
            "watchdog-silent",
            stalls == 0,
            format!(
                "stall_reports={stalls}{}",
                if reports.is_empty() {
                    String::new()
                } else {
                    format!(" first=[{}]", reports[0].render())
                }
            ),
        ),
    ];

    BoutReport {
        title: title.to_string(),
        lock: lock_label.to_string(),
        mode: "os",
        plan: cfg.plan.describe(),
        faults: fault_summary(&state),
        vtime_ns: 0,
        digest: 0,
        oracles,
    }
}

/// The default mixed schedule for registry sweeps: periodic
/// holder/waker stalls, spurious park returns, and coarse clock
/// jumps — no planned panics (token-based paths would leak tokens).
pub fn sweep_plan(seed: u64) -> FaultPlan {
    FaultPlan::stalls(seed, 64, 20_000)
        .with_spurious(8)
        .with_clock_jumps(128, 10_000)
}

/// Locks swept in sim mode; whether a bout holds one to exact FIFO is
/// its registry row's [`Caps::FIFO`] column. The head policies ride
/// along, so stalls, spurious wakes and clock jumps reach their
/// reordering, their stashes, and `adaptive`'s barging fast path.
pub const SIM_SWEEP_LOCKS: [&str; 9] = [
    "tas",
    "ticket",
    "mcs",
    "mcs-stp",
    "gcr-mcs",
    "cna",
    "malthusian",
    "shfl-local16",
    "adaptive",
];

/// Locks swept in OS mode.
pub const OS_SWEEP_LOCKS: [&str; 9] = [
    "pthread",
    "tas",
    "ticket",
    "mcs",
    "mcs-stp",
    "adaptive",
    "gcr-mcs",
    "gcr-adaptive",
    "ccsynch",
];

fn spec_for(name: &str) -> LockSpec {
    name.parse().unwrap_or_else(|e| panic!("lock {name}: {e}"))
}

fn lock_for(name: &str) -> Arc<dyn PlainLock> {
    spec_for(name).make_lock_raw()
}

/// Named schedule 1: the lock holder is preempted (stalled) in the
/// middle of the MCS handover — stalls fire at both poll and wake
/// boundaries, so the grant can land while the successor is stalled
/// coming back from `park`/relax. FIFO must survive exactly.
pub fn schedule_holder_preemption(seed: u64) -> BoutReport {
    let cfg = SimBout {
        threads: 6,
        ops: 60,
        seed,
        plan: FaultPlan::stalls(seed, 24, 40_000).with_spurious(8),
        fifo: true,
        starvation_factor: Some(64),
    };
    sim_bout("schedule/holder-preemption", "mcs", lock_for("mcs"), &cfg)
}

/// Named schedule 2: spurious wake-ups hammer GCR's passive queue
/// while a tiny reintroduction period keeps pulling passive waiters
/// back — the admission bound must hold (modulo the force-admits)
/// and nobody may be lost.
pub fn schedule_gcr_spurious(seed: u64) -> BoutReport {
    let gcr = Arc::new(Gcr::with_config(
        DynLock::new(lock_for("mcs")),
        GcrConfig {
            reintroduce_period: 2,
            ..GcrConfig::fixed(2)
        },
    ));
    let cfg = SimBout {
        threads: 8,
        ops: 40,
        seed,
        plan: FaultPlan::stalls(seed, 96, 15_000).with_spurious(2),
        fifo: false,
        starvation_factor: None,
    };
    let mut report = sim_bout(
        "schedule/gcr-spurious-reintroduction",
        "gcr(mcs)",
        gcr.clone(),
        &cfg,
    );
    let peak = gcr.peak_active();
    let reintroduced = gcr.reintroduced();
    // Force-admits deliberately overshoot the bound by one at a time.
    report.oracles.push(Oracle::new(
        "admission-bound",
        peak <= gcr.limit() + 2,
        format!("peak_active={peak} limit={}", gcr.limit()),
    ));
    report.oracles.push(Oracle::new(
        "reintroduction-live",
        reintroduced >= 1,
        format!("reintroduced={reintroduced}"),
    ));
    report
}

/// Named schedule 3: a planned panic fires *inside* a delegated
/// operation while a combiner is executing it. The combiner must
/// survive (the panic is re-raised on the submitting thread), every
/// other op must land, and the structure must keep serving.
pub fn schedule_panic_delegated(seed: u64) -> BoutReport {
    const THREADS: usize = 4;
    const OPS: u64 = 40;
    const PANIC_AT: u64 = 17;

    let plan = FaultPlan::quiet(seed).with_panic_at(PANIC_AT);
    let state = FaultState::new(plan.clone());
    let mut zc = ZooConfig::quick(Topology::apple_m1(), THREADS, seed);
    zc.fault = Some(state.clone());

    let op_state = state.clone();
    let cc = CcSynch::new(0u64, move |v: &mut u64, add: u64| {
        // Count this delegated op against the fault plan — the
        // planned index panics here, on the combiner's stack.
        op_state.on_critical_op();
        *v += add;
        *v
    });
    let caught = AtomicU64::new(0);
    let applied = AtomicU64::new(0);

    let vtime_ns = run_threads(&zc, |_tid| {
        let h = cc.register();
        for _ in 0..OPS {
            // The submitter whose op hit the planned panic sees it
            // re-raised; the bout (and the combiner) carries on.
            match catch_unwind(AssertUnwindSafe(|| h.apply(1))) {
                Ok(_) => {
                    applied.fetch_add(1, Ordering::SeqCst);
                }
                Err(_) => {
                    caught.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    });

    let total = THREADS as u64 * OPS;
    let applied = applied.load(Ordering::SeqCst);
    let caught = caught.load(Ordering::SeqCst);
    let stats = state.stats();
    let value = cc.into_inner();

    let oracles = vec![
        Oracle::new(
            "panic-delivered",
            caught == 1 && stats.panics == 1,
            format!("caught={caught} injected={}", stats.panics),
        ),
        Oracle::new(
            "combiner-survives",
            applied == total - 1,
            format!("applied={applied} expected={}", total - 1),
        ),
        Oracle::new(
            "state-consistent",
            value == total - 1,
            format!("value={value} expected={}", total - 1),
        ),
    ];
    BoutReport {
        title: "schedule/panic-in-delegated-op".to_string(),
        lock: "ccsynch(raw)".to_string(),
        mode: "sim",
        plan: plan.describe(),
        faults: fault_summary(&state),
        vtime_ns,
        digest: fnv_fold(fnv_fold(0xCBF2_9CE4_8422_2325, applied), value),
        oracles,
    }
}

/// Options parsed from `repro torture` flags.
#[derive(Clone, Debug)]
pub struct TortureOpts {
    /// Replay seed.
    pub seed: u64,
    /// Smaller sweep for CI smoke.
    pub quick: bool,
    /// Run the deterministic sim sweep + named schedules.
    pub sim: bool,
    /// Run the OS-thread sweep.
    pub os: bool,
    /// Sweep this one lock instead (a registry name).
    pub lock: Option<String>,
    /// Output directory.
    pub out: std::path::PathBuf,
}

impl Default for TortureOpts {
    fn default() -> Self {
        TortureOpts {
            seed: 42,
            quick: false,
            sim: true,
            os: true,
            lock: None,
            out: std::path::PathBuf::from("torture-out"),
        }
    }
}

fn render_run(header: &str, seed: u64, bouts: &[BoutReport]) -> String {
    let mut s = format!("# lock-torture report ({header})\nseed: {seed}\n\n");
    for b in bouts {
        s.push_str(&b.render());
        s.push('\n');
    }
    let failed: Vec<&str> = bouts
        .iter()
        .filter(|b| !b.passed())
        .map(|b| b.title.as_str())
        .collect();
    if failed.is_empty() {
        let _ = writeln!(s, "verdict: PASS ({} bouts)", bouts.len());
    } else {
        let _ = writeln!(s, "verdict: FAIL ({})", failed.join(", "));
    }
    s
}

/// The locks of one sweep: `sweep`, or the one `--lock` names alone —
/// any registry name, swept by default or not.
fn swept<'a>(opts: &'a TortureOpts, sweep: &[&'a str]) -> Vec<&'a str> {
    match &opts.lock {
        Some(lock) => vec![lock],
        None => sweep.to_vec(),
    }
}

/// Run the sim side of a torture sweep: registry bouts plus the three
/// named schedules. Fully deterministic for a fixed seed.
pub fn run_sim_sweep(opts: &TortureOpts) -> Vec<BoutReport> {
    let (threads, ops) = if opts.quick { (4, 40) } else { (6, 200) };
    let mut bouts = Vec::new();
    for name in swept(opts, &SIM_SWEEP_LOCKS) {
        let spec = spec_for(name);
        let fifo = spec.caps().has(Caps::FIFO);
        let cfg = SimBout {
            threads,
            ops,
            seed: opts.seed,
            plan: sweep_plan(opts.seed),
            fifo,
            starvation_factor: if fifo { Some(64) } else { None },
        };
        let lock = spec.make_lock_raw();
        bouts.push(sim_bout(&format!("sim/{name}"), name, lock, &cfg));
    }
    if opts.lock.is_none() {
        bouts.push(schedule_holder_preemption(opts.seed));
        bouts.push(schedule_gcr_spurious(opts.seed));
        bouts.push(schedule_panic_delegated(opts.seed));
    }
    bouts
}

/// Run the OS side of a torture sweep.
pub fn run_os_sweep(opts: &TortureOpts) -> Vec<BoutReport> {
    let (threads, ops) = if opts.quick { (4, 300) } else { (8, 2_000) };
    let mut bouts = Vec::new();
    for name in swept(opts, &OS_SWEEP_LOCKS) {
        let cfg = OsBout {
            threads,
            ops,
            plan: sweep_plan(opts.seed),
            timeout: Duration::from_secs(120),
        };
        bouts.push(os_bout(&format!("os/{name}"), name, lock_for(name), &cfg));
    }
    bouts
}

/// CLI entry: parse `repro torture` flags, run the requested sweeps,
/// write `TORTURE_sim.txt` / `TORTURE_os.txt`, and return the exit
/// code (0 = every oracle held).
pub fn run_torture(args: &[String]) -> i32 {
    let mut opts = TortureOpts::default();
    let mut explicit_mode = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--sim" => {
                if !explicit_mode {
                    opts.os = false;
                }
                explicit_mode = true;
                opts.sim = true;
            }
            "--os" => {
                if !explicit_mode {
                    opts.sim = false;
                }
                explicit_mode = true;
                opts.os = true;
            }
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => {
                    eprintln!("torture: --seed needs an integer");
                    return 2;
                }
            },
            "--lock" => match it.next() {
                Some(v) if v.parse::<LockSpec>().is_ok() => opts.lock = Some(v.clone()),
                _ => {
                    eprintln!("torture: --lock needs a registry name (`repro locks`)");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(v) => opts.out = std::path::PathBuf::from(v),
                None => {
                    eprintln!("torture: --out needs a directory");
                    return 2;
                }
            },
            other => {
                eprintln!("torture: unknown flag {other}");
                return 2;
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("torture: cannot create {}: {e}", opts.out.display());
        return 2;
    }

    let mut all_pass = true;
    if opts.sim {
        let bouts = run_sim_sweep(&opts);
        let text = render_run("sim", opts.seed, &bouts);
        let path = opts.out.join("TORTURE_sim.txt");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("torture: cannot write {}: {e}", path.display());
            return 2;
        }
        print!("{text}");
        println!("wrote {}", path.display());
        all_pass &= bouts.iter().all(BoutReport::passed);
    }
    if opts.os {
        let bouts = run_os_sweep(&opts);
        let text = render_run("os", opts.seed, &bouts);
        let path = opts.out.join("TORTURE_os.txt");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("torture: cannot write {}: {e}", path.display());
            return 2;
        }
        print!("{text}");
        println!("wrote {}", path.display());
        all_pass &= bouts.iter().all(BoutReport::passed);
    }
    if all_pass {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_bout_is_deterministic_and_green() {
        let cfg = SimBout {
            threads: 4,
            ops: 20,
            seed: 7,
            plan: sweep_plan(7),
            fifo: true,
            starvation_factor: Some(64),
        };
        let a = sim_bout("sim/ticket", "ticket", lock_for("ticket"), &cfg);
        let b = sim_bout("sim/ticket", "ticket", lock_for("ticket"), &cfg);
        assert!(a.passed(), "oracles failed:\n{}", a.render());
        assert_eq!(a.render(), b.render(), "sim bout not replayable");
    }

    #[test]
    fn os_bout_smoke_on_tas() {
        let cfg = OsBout {
            threads: 3,
            ops: 200,
            plan: sweep_plan(5),
            timeout: Duration::from_secs(60),
        };
        let r = os_bout("os/tas", "tas", lock_for("tas"), &cfg);
        assert!(r.passed(), "oracles failed:\n{}", r.render());
    }

    #[test]
    fn torture_flag_parsing_rejects_unknown() {
        assert_eq!(run_torture(&["--bogus".to_string()]), 2);
    }
}
