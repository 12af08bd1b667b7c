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
//! * **OS bouts** run the same tortured op on real threads with the
//!   injector installed over the OS substrate. Timings are wall-clock
//!   and the report is *not* expected to be byte-stable; the oracles
//!   still are.
//!
//! Oracles checked per bout:
//!
//! * **mutual-exclusion** — a holder-owned counter (a relaxed load and
//!   store, so overlapping holders lose an update) bumped in every
//!   critical section must equal the number of grants recorded, and an
//!   atomic in-CS gauge must never observe two holders.
//! * **completion / no-lost-wakeup** — every thread finishes its op
//!   quota. Parks are bounded on both backends (the simulator charges
//!   `park_ns` and returns; under the injector an OS park is a 1 ms
//!   `park_timeout`), so a lost wakeup shows up as lateness, not a
//!   hang. A sim deadlock spins in virtual time without bound; an OS
//!   deadlock fails `no-lost-wakeup` at the bout's wall-clock timeout.
//! * **fifo** (sim, FIFO locks only) — grant order must equal arrival
//!   order. Arrival indices are taken with no substrate call between
//!   the `fetch_add` and the enqueue, so on the serialized virtual
//!   machine arrival order *is* queue order and the check is exact.
//! * **bounded-starvation** (sim) — max wait may not exceed the mean
//!   wait by more than a per-schedule factor.
//! * **bounded-stall** (OS) — judged after the bout from the grant
//!   record: no hold over 500 ms, and no gap over 2 s between
//!   consecutive grants, counting the bout's start to its first grant
//!   and its last grant to its end, so a wedged bout fails it too.
//!   Injected stalls are microseconds, far under both bounds.
//!
//! Three named schedules reproduce the hand-analyzed adversarial
//! cases as exact tests (see `tests/torture_schedules.rs`):
//! [`schedule_holder_preemption`], [`schedule_gcr_spurious`],
//! [`schedule_panic_delegated`].

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asl_locks::ccsynch::CcSynch;
use asl_locks::gcr::{Gcr, GcrConfig};
use asl_locks::telemetry::holder_add;
use asl_locks::{DynLock, PlainLock};
use asl_runtime::clock;
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
    /// Host-clock stamps of the grant and of the hold's end, for the
    /// `bounded-stall` oracle. `Instant`, not the substrate clock: a
    /// substrate read here would move every sim bout's virtual time.
    granted: Instant,
    released: Instant,
}

/// `bounded-stall`'s hold bound.
const HOLD_BOUND: Duration = Duration::from_millis(500);
/// `bounded-stall`'s bound on the gap between consecutive grants.
const GAP_BOUND: Duration = Duration::from_secs(2);

/// The `bounded-stall` oracle over a bout's grant record: no hold
/// longer than [`HOLD_BOUND`], and no gap longer than [`GAP_BOUND`]
/// between consecutive grants, the bout's `start` and `end` counting as
/// grants — so a bout that wedges after its last grant fails too.
fn stall_oracle(grants: &[Grant], start: Instant, end: Instant) -> Oracle {
    let max_hold = grants
        .iter()
        .map(|g| g.released.saturating_duration_since(g.granted))
        .max()
        .unwrap_or_default();
    let stamps: Vec<Instant> = std::iter::once(start)
        .chain(grants.iter().map(|g| g.granted))
        .chain(std::iter::once(end))
        .collect();
    let max_gap = stamps
        .windows(2)
        .map(|w| w[1].saturating_duration_since(w[0]))
        .max()
        .unwrap_or_default();
    Oracle::new(
        "bounded-stall",
        max_hold <= HOLD_BOUND && max_gap <= GAP_BOUND,
        format!(
            "max_hold_us={} (bound {}) max_grant_gap_us={} (bound {})",
            max_hold.as_micros(),
            HOLD_BOUND.as_micros(),
            max_gap.as_micros(),
            GAP_BOUND.as_micros()
        ),
    )
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
    /// Holder-owned ([`holder_add`]): two holders that overlap lose an
    /// update, which the mutual-exclusion oracle sees.
    counter: AtomicU64,
    in_cs: AtomicU64,
    me_violations: AtomicU64,
    arrivals: AtomicU64,
    grants: Mutex<Vec<Grant>>,
}

impl BoutShared {
    fn new() -> Self {
        BoutShared {
            counter: AtomicU64::new(0),
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
        let granted = Instant::now();
        let wait_ns = clock::now_ns().saturating_sub(t0);
        if self.in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
            self.me_violations.fetch_add(1, Ordering::SeqCst);
        }
        holder_add(&self.counter, 1);
        self.grants.lock().unwrap().push(Grant {
            tid: tid as u32,
            arrival,
            wait_ns,
            granted,
            released: Instant::now(),
        });
        self.in_cs.fetch_sub(1, Ordering::SeqCst);
        lock.release(token);
    }

    /// Mutual exclusion against the grants recorded, not a quota, so a
    /// wedged bout fails liveness alone (a leaked worker that is still
    /// running can move the counter between the two reads).
    fn me_oracle(&self, grants: &[Grant]) -> Oracle {
        let expected = grants.len() as u64;
        let count = self.counter.load(Ordering::Relaxed);
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
        shared.me_oracle(&grants),
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
/// substrate, judged for stalls from its grant record.
pub fn os_bout(
    title: &str,
    lock_label: &str,
    lock: Arc<dyn PlainLock>,
    cfg: &OsBout,
) -> BoutReport {
    let state = FaultState::new(cfg.plan.clone());
    let shared = Arc::new(BoutShared::new());

    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let start = Instant::now();
    let handles: Vec<_> = (0..cfg.threads)
        .map(|tid| {
            let (lock, state, shared) = (lock.clone(), state.clone(), shared.clone());
            let (done, ops) = (done_tx.clone(), cfg.ops);
            std::thread::spawn(move || {
                let _guard = FaultInjector::install_over_os(&state);
                for _ in 0..ops {
                    shared.op(lock.as_ref(), tid);
                }
                let _ = done.send(());
            })
        })
        .collect();
    drop(done_tx);

    let deadline = start + cfg.timeout;
    let mut finished = 0usize;
    while finished < cfg.threads
        && done_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .is_ok()
    {
        finished += 1;
    }
    let end = Instant::now();
    let completed = finished == cfg.threads;
    if completed {
        for h in handles {
            let _ = h.join();
        }
    }
    // A wedged bout drops its handles unjoined: the stuck workers leak
    // rather than hang the runner — the failed oracle is the deliverable.

    let grants = shared.grants.lock().unwrap().clone();
    let oracles = vec![
        shared.me_oracle(&grants),
        Oracle::new(
            "no-lost-wakeup",
            completed,
            format!(
                "finished_threads={finished}/{} within {:?}",
                cfg.threads, cfg.timeout
            ),
        ),
        stall_oracle(&grants, start, end),
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
/// holder/waker stalls, spurious park returns, and forward clock
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
    // A forced reintroduction may overshoot the bound by exactly one.
    report.oracles.push(Oracle::new(
        "admission-bound",
        peak <= gcr.limit() + 1,
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
    let sweeps = [
        (opts.sim, "sim", run_sim_sweep as fn(&_) -> _),
        (opts.os, "os", run_os_sweep),
    ];
    for (on, side, sweep) in sweeps {
        if !on {
            continue;
        }
        let bouts = sweep(&opts);
        let text = render_run(side, opts.seed, &bouts);
        let path = opts.out.join(format!("TORTURE_{side}.txt"));
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
        let names: Vec<&str> = r.oracles.iter().map(|o| o.name).collect();
        assert_eq!(
            names,
            ["mutual-exclusion", "no-lost-wakeup", "bounded-stall"]
        );
    }

    /// A lock that grants `quota` acquisitions, then holds every later
    /// arrival until `open` — a lost wakeup the test can undo.
    struct Wedging {
        inner: Arc<dyn PlainLock>,
        quota: Mutex<u64>,
        open: std::sync::Condvar,
    }

    impl PlainLock for Wedging {
        fn acquire(&self) -> asl_locks::PlainToken {
            let mut quota = self.quota.lock().unwrap();
            if *quota > 0 {
                *quota -= 1;
            } else {
                drop(self.open.wait_while(quota, |q| *q == 0).unwrap());
            }
            self.inner.acquire()
        }
        fn try_acquire(&self) -> Option<asl_locks::PlainToken> {
            None
        }
        fn release(&self, token: asl_locks::PlainToken) {
            self.inner.release(token)
        }
        fn held(&self) -> bool {
            self.inner.held()
        }
        fn lock_name(&self) -> &'static str {
            "wedging"
        }
    }

    #[test]
    fn a_wedged_os_bout_fails_liveness_not_mutual_exclusion() {
        let lock = Arc::new(Wedging {
            inner: lock_for("tas"),
            quota: Mutex::new(20),
            open: std::sync::Condvar::new(),
        });
        let cfg = OsBout {
            threads: 3,
            ops: 50,
            plan: FaultPlan::quiet(1),
            timeout: Duration::from_millis(300),
        };
        let r = os_bout("os/wedging", "wedging", lock.clone(), &cfg);
        let verdict = |name: &str| r.oracles.iter().find(|o| o.name == name).unwrap().pass;
        assert!(verdict("mutual-exclusion"), "{}", r.render());
        assert!(!verdict("no-lost-wakeup"), "{}", r.render());
        // Let the leaked workers finish.
        *lock.quota.lock().unwrap() = u64::MAX;
        lock.open.notify_all();
    }

    /// A synthetic grant record, one grant per `(granted_ms, held_ms)`
    /// after `base`.
    fn record(base: Instant, grants: &[(u64, u64)]) -> Vec<Grant> {
        grants
            .iter()
            .map(|&(at, held)| {
                let granted = base + Duration::from_millis(at);
                Grant {
                    tid: 0,
                    arrival: 0,
                    wait_ns: 0,
                    granted,
                    released: granted + Duration::from_millis(held),
                }
            })
            .collect()
    }

    #[test]
    fn bounded_stall_passes_a_clean_record() {
        let t0 = Instant::now();
        let grants = record(t0, &[(10, 450), (1_900, 1), (3_800, 480)]);
        let o = stall_oracle(&grants, t0, t0 + Duration::from_millis(5_700));
        assert!(o.pass, "{}", o.detail);
        assert_eq!(
            o.detail,
            "max_hold_us=480000 (bound 500000) max_grant_gap_us=1900000 (bound 2000000)"
        );
    }

    #[test]
    fn bounded_stall_fails_a_long_hold_a_long_gap_and_a_wedged_tail() {
        let t0 = Instant::now();
        // (case, grants, bout end in ms)
        for (case, grants, end_ms) in [
            ("a 600 ms hold", &[(0, 1), (100, 600), (800, 1)][..], 900),
            (
                "a 2.5 s gap between grants",
                &[(0, 1), (2_500, 1)][..],
                2_600,
            ),
            ("a wedged tail", &[(0, 1), (10, 1)][..], 2_500),
        ] {
            let o = stall_oracle(&record(t0, grants), t0, t0 + Duration::from_millis(end_ms));
            assert!(!o.pass, "{case} passed: {}", o.detail);
        }
    }

    #[test]
    fn torture_flag_parsing_rejects_unknown() {
        assert_eq!(run_torture(&["--bogus".to_string()]), 2);
    }
}
