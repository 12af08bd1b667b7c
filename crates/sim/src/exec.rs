//! Cooperative virtual-time execution of the **real** lock zoo.
//!
//! This module *models* no lock policy: it executes the unmodified
//! lock implementations —
//! anything [`PlainLock`] or [`PlainRwLock`], i.e. the whole
//! `asl-locks`/`asl-core` zoo including `AslLock`'s SLO feedback —
//! against a modeled machine:
//!
//! * Each simulated thread is an OS thread with an installed
//!   [`asl_runtime::substrate`] backend. The engine steps **exactly
//!   one** thread at a time (baton passing over per-thread condvars),
//!   so every shared-memory operation of the real lock code is
//!   serialized and the whole run is a pure function of the config —
//!   same seed, byte-identical trace.
//! * Every substrate hook (clock read, failed spin probe, emulated
//!   work, park, sleep) *charges* the calling virtual thread on its
//!   virtual clock using a [`CostModel`] derived from the
//!   [`Topology`]: little cores stretch work by `perf_ratio`,
//!   cross-socket lock handoffs pay a remote cache-line transfer,
//!   parking pays a syscall-shaped penalty.
//! * Cores are resources: two virtual threads bound to the same core
//!   (oversubscription — [`Topology::assignment_for_thread`] wraps)
//!   serialize on the core's clock and pay [`CostModel::switch_ns`]
//!   per context switch, while parked/sleeping threads leave the core
//!   free — which is exactly why spin-then-park beats pure spinning
//!   once oversubscribed.
//!
//! The scheduler always runs the runnable thread with the smallest
//! virtual key (ties broken by thread id), with a small slack band
//! ([`CostModel::resched_slack_ns`]) to batch consecutive probes of
//! one waiter. Causality skew between threads is therefore bounded by
//! the slack plus one charge — small against every modeled effect.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use asl_core::epoch::WindowSample;
use asl_locks::plain::{PlainLock, PlainRwLock};
use asl_runtime::stats::percentile;
use asl_runtime::topology::{CoreId, CoreKind, Topology};
use asl_runtime::{registry, substrate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Epoch id the simulated workload uses when an SLO is configured.
pub const SIM_EPOCH_ID: usize = 9;

/// Per-operation virtual-time charges (all in virtual nanoseconds).
///
/// The defaults model a commodity NUMA part: a remote-socket
/// cache-line transfer costs ~10× a local one, a park/unpark round
/// trip and a context switch cost microseconds, a failed spin probe
/// costs tens of nanoseconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// One failed lock probe ([`asl_runtime::relax::Spin::relax`]).
    pub poll_ns: u64,
    /// One clock read ([`asl_runtime::clock::now_ns`]).
    pub clock_read_ns: u64,
    /// One unit of emulated work
    /// ([`asl_runtime::work::execute_raw_units`]) on a big core.
    pub work_unit_ns: u64,
    /// Lock handoff between cores of the same socket (local
    /// cache-line transfer).
    pub handoff_local_ns: u64,
    /// Lock handoff across sockets (remote cache-line transfer).
    pub handoff_remote_ns: u64,
    /// One park → wake round trip (futex / `thread::park`).
    pub park_ns: u64,
    /// Context switch when a core changes its running thread.
    pub switch_ns: u64,
    /// Scheduling quantum: how long one thread may monopolize a core
    /// that co-resident threads are waiting for.
    pub quantum_ns: u64,
    /// Reschedule hysteresis: the running thread keeps the baton while
    /// it is within this band of the minimum virtual key. Purely a
    /// simulation-speed knob; bounds inter-thread causality skew.
    pub resched_slack_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            poll_ns: 25,
            clock_read_ns: 8,
            work_unit_ns: 1,
            handoff_local_ns: 40,
            handoff_remote_ns: 400,
            park_ns: 1_500,
            switch_ns: 2_000,
            quantum_ns: 50_000,
            resched_slack_ns: 400,
        }
    }
}

impl CostModel {
    /// Cache-line-transfer cost of a lock handoff from `from` to `to`
    /// on `topo`: local within a socket, remote across sockets.
    pub fn handoff_ns(&self, topo: &Topology, from: CoreId, to: CoreId) -> u64 {
        if topo.socket_of(from) == topo.socket_of(to) {
            self.handoff_local_ns
        } else {
            self.handoff_remote_ns
        }
    }

    /// One failed lock probe by a thread on a `kind` core: the base
    /// poll stretched by the core's work multiplier.
    pub fn poll_cost_ns(&self, topo: &Topology, kind: CoreKind) -> u64 {
        (self.poll_ns as f64 * topo.work_multiplier(kind)) as u64
    }

    /// Virtual duration of `units` of emulated work on a `kind` core.
    pub fn work_ns(&self, topo: &Topology, kind: CoreKind, units: u64) -> u64 {
        ((units * self.work_unit_ns) as f64 * topo.work_multiplier(kind)) as u64
    }
}

/// One simulated zoo experiment: N threads cycling *non-critical
/// section → acquire → critical section → release* on one lock.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// The modeled machine — same [`Topology`] real-thread runs use.
    pub topology: Topology,
    /// Virtual threads; bound via
    /// [`Topology::assignment_for_thread`], so more threads than
    /// cores oversubscribes the machine.
    pub threads: usize,
    /// Critical-section length in work units (stretched by
    /// `perf_ratio` on little cores).
    pub cs_units: u64,
    /// Non-critical-section length in work units.
    pub ncs_units: u64,
    /// Virtual run length (ns).
    pub duration_ns: u64,
    /// Schedule seed (staggers thread start times).
    pub seed: u64,
    /// Wrap each operation in an epoch with this SLO — drives
    /// `AslLock`'s SLO window feedback (`asl_core::epoch`).
    pub slo_ns: Option<u64>,
    /// Per-operation charges.
    pub cost: CostModel,
    /// Optional fault schedule: when set, every virtual thread's
    /// substrate handle is wrapped in a
    /// [`asl_runtime::fault::FaultInjector`] sharing this state, so
    /// the modeled machine runs the *faulted* schedule — still fully
    /// deterministic, because the baton-passing scheduler serializes
    /// the shared fault counters (see `asl_runtime::fault`).
    pub fault: Option<Arc<asl_runtime::fault::FaultState>>,
}

impl ZooConfig {
    /// A short experiment (300 virtual µs) sized for unit tests and
    /// doctests.
    pub fn quick(topology: Topology, threads: usize, seed: u64) -> Self {
        ZooConfig {
            topology,
            threads,
            cs_units: 1_000,
            ncs_units: 1_000,
            duration_ns: 300_000,
            seed,
            slo_ns: None,
            cost: CostModel::default(),
            fault: None,
        }
    }
}

/// Outcome of [`run_lock`]. Every field is a deterministic function
/// of the [`ZooConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZooResult {
    /// Completed acquisitions.
    pub total_ops: u64,
    /// Acquisitions by big-core threads.
    pub big_ops: u64,
    /// Acquisitions by little-core threads.
    pub little_ops: u64,
    /// Acquisitions per thread (exact long-term fairness counts).
    pub per_thread_ops: Vec<u64>,
    /// Whether each thread ran on a big core.
    pub thread_is_big: Vec<bool>,
    /// Ops per *virtual* second.
    pub throughput: f64,
    /// Exact acquire-latency percentiles (virtual ns) by class.
    pub p50_big: u64,
    /// P99, big-core threads.
    pub p99_big: u64,
    /// P50, little-core threads.
    pub p50_little: u64,
    /// P99, little-core threads.
    pub p99_little: u64,
    /// P99 across all threads.
    pub p99_overall: u64,
    /// Worst acquire latency seen by a big-core thread.
    pub max_wait_big: u64,
    /// Worst acquire latency seen by a little-core thread.
    pub max_wait_little: u64,
    /// Lock handoffs that stayed within a socket.
    pub handoffs_local: u64,
    /// Lock handoffs that crossed sockets.
    pub handoffs_remote: u64,
    /// Holder thread id per acquisition, in grant order (exact
    /// short-term fairness trace).
    pub grants: Vec<u32>,
    /// Longest run of consecutive grants within one core class.
    pub max_class_batch: u64,
    /// Final virtual time (max over threads).
    pub virtual_ns: u64,
    /// Each thread's reorder-window trajectory
    /// ([`asl_core::epoch::take_window_trace`]): one sample per
    /// little-core epoch that ended while
    /// `asl_locks::telemetry::recording` was on, else empty.
    pub window_traces: Vec<Vec<WindowSample>>,
}

impl ZooResult {
    /// Fraction of handoffs that crossed sockets.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.handoffs_local + self.handoffs_remote;
        if total == 0 {
            0.0
        } else {
            self.handoffs_remote as f64 / total as f64
        }
    }
}

/// Outcome of [`run_rw`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZooRwResult {
    /// Completed read-side acquisitions.
    pub total_reads: u64,
    /// Completed write-side acquisitions.
    pub total_writes: u64,
    /// Operations per thread.
    pub per_thread_ops: Vec<u64>,
    /// Exact maximum number of read guards held concurrently (in
    /// virtual time) at any point.
    pub max_concurrent_readers: u64,
    /// Ops per virtual second.
    pub throughput: f64,
    /// Final virtual time.
    pub virtual_ns: u64,
}

const NO_THREAD: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VState {
    Ready,
    Running,
    Done,
}

struct Vthread {
    vtime: u64,
    state: VState,
    core: usize,
    big: bool,
    /// Virtual time of the last on-core execution: the scheduler's
    /// tie-break. Threads parked behind the same quantum-expiry key
    /// rotate least-recently-run first, so every co-resident of a core
    /// gets its quantum (a fixed tid tie-break lets two threads
    /// ping-pong and starve the rest — a preempted lock *holder* among
    /// the starved then livelocks the whole machine).
    last_ran: u64,
    ops: u64,
}

struct Shared {
    th: Vec<Vthread>,
    core_time: Vec<u64>,
    core_last: Vec<usize>,
    core_since: Vec<u64>,
    last_holder: usize,
    handoffs_local: u64,
    handoffs_remote: u64,
    grants: Vec<u32>,
    lat_big: Vec<u64>,
    lat_little: Vec<u64>,
    max_wait_big: u64,
    max_wait_little: u64,
    readers_now: u64,
    readers_max: u64,
    reads: u64,
    writes: u64,
    window_traces: Vec<Vec<WindowSample>>,
}

/// The cooperative scheduler shared by all virtual threads of one
/// experiment.
struct SimMachine {
    cost: CostModel,
    /// The modeled machine; its core count is what
    /// [`substrate::core_count`] answers.
    topology: Topology,
    shared: Mutex<Shared>,
    cvs: Vec<Condvar>,
}

impl SimMachine {
    fn new(cfg: &ZooConfig) -> Arc<SimMachine> {
        assert!(cfg.threads >= 1, "need at least one thread");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let stagger = (cfg.ncs_units * cfg.cost.work_unit_ns).max(64);
        let th = (0..cfg.threads)
            .map(|tid| {
                let vc = cfg.topology.assignment_for_thread(tid);
                Vthread {
                    // Seeded start offsets break the lockstep of
                    // identical loops; the only randomness in a run.
                    vtime: rng.gen_range(0..stagger),
                    state: VState::Ready,
                    core: vc.id.0,
                    big: vc.kind == CoreKind::Big,
                    last_ran: 0,
                    ops: 0,
                }
            })
            .collect();
        Arc::new(SimMachine {
            cost: cfg.cost.clone(),
            topology: cfg.topology.clone(),
            shared: Mutex::new(Shared {
                th,
                core_time: vec![0; cfg.topology.len()],
                core_last: vec![NO_THREAD; cfg.topology.len()],
                core_since: vec![0; cfg.topology.len()],
                last_holder: NO_THREAD,
                handoffs_local: 0,
                handoffs_remote: 0,
                grants: Vec::new(),
                lat_big: Vec::new(),
                lat_little: Vec::new(),
                max_wait_big: 0,
                max_wait_little: 0,
                readers_now: 0,
                readers_max: 0,
                reads: 0,
                writes: 0,
                window_traces: vec![Vec::new(); cfg.threads],
            }),
            cvs: (0..cfg.threads).map(|_| Condvar::new()).collect(),
        })
    }

    /// Scheduling key of thread `t`: when it could next execute,
    /// accounting for core occupancy and the incumbent's quantum.
    fn key(&self, sh: &Shared, t: usize) -> u64 {
        let th = &sh.th[t];
        let last = sh.core_last[th.core];
        if last == t || last == NO_THREAD {
            th.vtime.max(sh.core_time[th.core])
        } else {
            // A co-resident thread occupies the core: we become
            // eligible to *preempt* it once its quantum expires —
            // deliberately ignoring the core clock, which the
            // incumbent drags forward as it spins (otherwise a
            // spinning incumbent could never be preempted and the
            // machine would livelock). The preemptee's own `advance`
            // still starts at the core clock, so time never overlaps.
            th.vtime
                .max(sh.core_since[th.core].saturating_add(self.cost.quantum_ns))
        }
    }

    /// Charge `me` for `ns` of execution. On-core charges serialize on
    /// the core's clock and pay the switch cost when the core changes
    /// hands; off-core charges (park, sleep) advance only the thread's
    /// clock and free the core.
    fn advance(&self, sh: &mut Shared, me: usize, ns: u64, on_core: bool) {
        let ns = ns.max(1);
        let core = sh.th[me].core;
        if on_core {
            let mut start = sh.th[me].vtime.max(sh.core_time[core]);
            if sh.core_last[core] != me {
                start = start.saturating_add(self.cost.switch_ns);
                sh.core_last[core] = me;
                sh.core_since[core] = start;
            }
            let end = start + ns;
            sh.th[me].vtime = end;
            sh.th[me].last_ran = end;
            sh.core_time[core] = end;
        } else {
            if sh.core_last[core] == me {
                sh.core_last[core] = NO_THREAD;
            }
            sh.th[me].vtime += ns;
        }
    }

    /// Hand the baton to the runnable thread with the smallest key if
    /// it undercuts ours by more than the slack band; block until the
    /// baton comes back.
    fn reschedule(&self, mut sh: MutexGuard<'_, Shared>, me: usize) {
        let mut best: Option<(u64, u64, usize)> = None;
        for t in 0..sh.th.len() {
            if t != me && sh.th[t].state == VState::Ready {
                let k = (self.key(&sh, t), sh.th[t].last_ran, t);
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                }
            }
        }
        if let Some((bk, _, bt)) = best {
            if bk.saturating_add(self.cost.resched_slack_ns) < self.key(&sh, me) {
                sh.th[me].state = VState::Ready;
                sh.th[bt].state = VState::Running;
                self.cvs[bt].notify_one();
                while sh.th[me].state != VState::Running {
                    sh = self.cvs[me].wait(sh).expect("sim scheduler poisoned");
                }
            }
        }
    }

    /// One yield point: charge, maybe switch, return the new vtime.
    fn step(&self, me: usize, ns: u64, on_core: bool) -> u64 {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        self.advance(&mut sh, me, ns, on_core);
        let v = sh.th[me].vtime;
        self.reschedule(sh, me);
        v
    }

    fn clock(&self, me: usize) -> u64 {
        self.step(me, self.cost.clock_read_ns, true)
    }

    fn charge_work_units(&self, me: usize, units: u64) {
        // Units arrive pre-scaled by the registry multiplier
        // (execute_units), so convert straight to virtual ns.
        self.step(me, units.saturating_mul(self.cost.work_unit_ns), true);
    }

    /// Record a critical-section entry: the cache-line handoff from
    /// the previous holder (local vs remote by socket), the grant
    /// trace, and the acquire latency.
    fn note_acquire(&self, me: usize, wait_ns: u64) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        let mut cost = 0;
        let prev = sh.last_holder;
        if prev != NO_THREAD && prev != me {
            let (from, to) = (CoreId(sh.th[prev].core), CoreId(sh.th[me].core));
            if self.topology.socket_of(from) == self.topology.socket_of(to) {
                sh.handoffs_local += 1;
            } else {
                sh.handoffs_remote += 1;
            }
            cost = self.cost.handoff_ns(&self.topology, from, to);
        }
        sh.last_holder = me;
        sh.grants.push(me as u32);
        sh.th[me].ops += 1;
        if sh.th[me].big {
            sh.lat_big.push(wait_ns);
            sh.max_wait_big = sh.max_wait_big.max(wait_ns);
        } else {
            sh.lat_little.push(wait_ns);
            sh.max_wait_little = sh.max_wait_little.max(wait_ns);
        }
        if cost > 0 {
            self.advance(&mut sh, me, cost, true);
        }
        self.reschedule(sh, me);
    }

    fn note_read_enter(&self, me: usize) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        sh.th[me].ops += 1;
        sh.reads += 1;
        sh.readers_now += 1;
        sh.readers_max = sh.readers_max.max(sh.readers_now);
        self.reschedule(sh, me);
    }

    fn note_read_exit(&self, me: usize) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        sh.readers_now -= 1;
        self.reschedule(sh, me);
    }

    fn note_write(&self, me: usize) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        sh.th[me].ops += 1;
        sh.writes += 1;
        self.reschedule(sh, me);
    }

    /// Block until the scheduler grants this thread the baton.
    fn wait_start(&self, me: usize) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        while sh.th[me].state != VState::Running {
            sh = self.cvs[me].wait(sh).expect("sim scheduler poisoned");
        }
    }

    /// Release the baton for good.
    fn finish(&self, me: usize) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        sh.th[me].state = VState::Done;
        let core = sh.th[me].core;
        if sh.core_last[core] == me {
            sh.core_last[core] = NO_THREAD;
        }
        let next = (0..sh.th.len())
            .filter(|&t| sh.th[t].state == VState::Ready)
            .min_by_key(|&t| (self.key(&sh, t), sh.th[t].last_ran, t));
        if let Some(n) = next {
            sh.th[n].state = VState::Running;
            self.cvs[n].notify_one();
        }
    }

    /// Hand the baton to the globally earliest thread (run start).
    fn begin(&self) {
        let mut sh = self.shared.lock().expect("sim scheduler poisoned");
        let first = (0..sh.th.len())
            .min_by_key(|&t| (self.key(&sh, t), sh.th[t].last_ran, t))
            .expect("at least one thread");
        sh.th[first].state = VState::Running;
        self.cvs[first].notify_one();
    }
}

/// The per-thread [`substrate::Substrate`] handle tying an OS worker
/// thread to its virtual thread.
struct VthreadHandle {
    machine: Arc<SimMachine>,
    tid: usize,
    /// Per-poll charge, resolved once (poll stretched by core class):
    /// a failed probe takes the engine lock once, in `step`.
    poll_charge: u64,
}

impl substrate::Substrate for VthreadHandle {
    fn now_ns(&self) -> u64 {
        self.machine.clock(self.tid)
    }
    fn relax(&self) {
        self.machine.step(self.tid, self.poll_charge, true);
    }
    fn busy_wait_ns(&self, ns: u64) {
        self.machine.step(self.tid, ns, true);
    }
    fn sleep_ns(&self, ns: u64) {
        self.machine.step(self.tid, ns, false);
    }
    fn park(&self) {
        let park = self.machine.cost.park_ns;
        self.machine.step(self.tid, park, false);
    }
    fn charge_work_units(&self, units: u64) {
        self.machine.charge_work_units(self.tid, units);
    }
    fn core_count(&self) -> Option<usize> {
        Some(self.machine.topology.len())
    }
}

/// Deterministic per-(thread, iteration) coin for read/write mixes.
fn splitmix(tid: u64, iter: u64) -> u64 {
    let mut z = tid
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(iter)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn with_vthread(
    machine: &Arc<SimMachine>,
    cfg: &ZooConfig,
    tid: usize,
    body: impl FnOnce(&Arc<SimMachine>),
) {
    let vc = cfg.topology.assignment_for_thread(tid);
    registry::register_on_core(&cfg.topology, vc.id);
    let handle: Arc<dyn substrate::Substrate> = Arc::new(VthreadHandle {
        machine: machine.clone(),
        tid,
        poll_charge: cfg.cost.poll_cost_ns(&cfg.topology, vc.kind).max(1),
    });
    // Fault schedules decorate the vthread handle, never stack on it:
    // the injector *is* the installed substrate (install refuses
    // stacking), delegating every charge to the machine.
    let handle: Arc<dyn substrate::Substrate> = match &cfg.fault {
        Some(state) => Arc::new(asl_runtime::fault::FaultInjector::wrapping(
            state.clone(),
            handle,
        )),
        None => handle,
    };
    let _sub = substrate::install(handle);
    machine.wait_start(tid);
    asl_core::epoch::reset_thread_epochs();
    body(machine);
    machine.finish(tid);
    registry::unregister();
}

/// Run an arbitrary per-thread body on the modeled machine: the
/// custom-workload escape hatch behind the torture harness.
///
/// Each closure call runs as virtual thread `tid` with the substrate
/// installed (and the fault injector, when [`ZooConfig::fault`] is
/// set), so everything inside — lock calls, clock reads, emulated
/// work — executes in deterministic virtual time. Unlike
/// [`run_lock`], the body decides its own loop/termination (the
/// duration field is ignored); it must not panic (a vthread that
/// unwinds strands the baton — catch panics inside the body).
///
/// Returns the machine's final virtual time (max over threads).
pub fn run_threads<F>(cfg: &ZooConfig, body: F) -> u64
where
    F: Fn(usize) + Send + Sync,
{
    let machine = SimMachine::new(cfg);
    std::thread::scope(|s| {
        let body = &body;
        for tid in 0..cfg.threads {
            let machine = machine.clone();
            s.spawn(move || {
                with_vthread(&machine, cfg, tid, |_m| body(tid));
            });
        }
        machine.begin();
    });
    let sh = machine.shared.lock().expect("sim scheduler poisoned");
    sh.th.iter().map(|t| t.vtime).max().unwrap_or(0)
}

/// Run the standard contended-counter workload on `lock`: `threads`
/// virtual threads cycling NCS → acquire → CS → release until
/// `duration_ns` of virtual time has passed.
///
/// Fully deterministic: the same config and lock type produce the
/// same [`ZooResult`], grant trace included.
///
/// ```
/// use std::sync::Arc;
/// use asl_runtime::Topology;
/// use asl_sim::exec::{run_lock, ZooConfig};
///
/// let cfg = ZooConfig::quick(Topology::apple_m1(), 4, 11);
/// let a = run_lock(&cfg, Arc::new(asl_locks::McsLock::new()));
/// let b = run_lock(&cfg, Arc::new(asl_locks::McsLock::new()));
/// assert!(a.total_ops > 0);
/// assert_eq!(a.grants, b.grants); // same seed ⇒ identical schedule
/// ```
pub fn run_lock(cfg: &ZooConfig, lock: Arc<dyn PlainLock>) -> ZooResult {
    let machine = SimMachine::new(cfg);
    std::thread::scope(|s| {
        for tid in 0..cfg.threads {
            let machine = machine.clone();
            let lock = lock.clone();
            s.spawn(move || {
                with_vthread(&machine, cfg, tid, |m| {
                    loop {
                        if m.clock(tid) >= cfg.duration_ns {
                            break;
                        }
                        if cfg.slo_ns.is_some() {
                            asl_core::epoch::epoch_start(SIM_EPOCH_ID);
                        }
                        let t0 = m.clock(tid);
                        let token = lock.acquire();
                        let t1 = m.clock(tid);
                        m.note_acquire(tid, t1.saturating_sub(t0));
                        asl_runtime::work::execute_units(cfg.cs_units);
                        lock.release(token);
                        if let Some(slo) = cfg.slo_ns {
                            asl_core::epoch::epoch_end(SIM_EPOCH_ID, slo);
                        }
                        asl_runtime::work::execute_units(cfg.ncs_units);
                    }
                    m.shared
                        .lock()
                        .expect("sim scheduler poisoned")
                        .window_traces[tid] = asl_core::epoch::take_window_trace();
                });
            });
        }
        machine.begin();
    });
    zoo_result(cfg, &machine)
}

/// Like [`run_lock`] for reader-writer locks: each operation is a
/// write with probability `write_pct`% (deterministic per thread and
/// iteration), otherwise a read. Reader overlap is tracked exactly in
/// virtual time.
pub fn run_rw(cfg: &ZooConfig, lock: Arc<dyn PlainRwLock>, write_pct: u32) -> ZooRwResult {
    let machine = SimMachine::new(cfg);
    std::thread::scope(|s| {
        for tid in 0..cfg.threads {
            let machine = machine.clone();
            let lock = lock.clone();
            s.spawn(move || {
                with_vthread(&machine, cfg, tid, |m| {
                    let mut iter = 0u64;
                    loop {
                        if m.clock(tid) >= cfg.duration_ns {
                            break;
                        }
                        if splitmix(tid as u64, iter) % 100 < u64::from(write_pct) {
                            let token = lock.acquire();
                            m.note_write(tid);
                            asl_runtime::work::execute_units(cfg.cs_units);
                            lock.release(token);
                        } else {
                            let token = lock.acquire_read();
                            m.note_read_enter(tid);
                            asl_runtime::work::execute_units(cfg.cs_units);
                            m.note_read_exit(tid);
                            lock.release_read(token);
                        }
                        asl_runtime::work::execute_units(cfg.ncs_units);
                        iter += 1;
                    }
                });
            });
        }
        machine.begin();
    });
    let sh = machine.shared.lock().expect("sim scheduler poisoned");
    let per_thread_ops: Vec<u64> = sh.th.iter().map(|t| t.ops).collect();
    let total = sh.reads + sh.writes;
    ZooRwResult {
        total_reads: sh.reads,
        total_writes: sh.writes,
        per_thread_ops,
        max_concurrent_readers: sh.readers_max,
        throughput: total as f64 / (cfg.duration_ns as f64 / 1e9),
        virtual_ns: sh.th.iter().map(|t| t.vtime).max().unwrap_or(0),
    }
}

fn zoo_result(cfg: &ZooConfig, machine: &SimMachine) -> ZooResult {
    let mut sh = machine.shared.lock().expect("sim scheduler poisoned");
    let per_thread_ops: Vec<u64> = sh.th.iter().map(|t| t.ops).collect();
    let thread_is_big: Vec<bool> = sh.th.iter().map(|t| t.big).collect();
    let big_ops: u64 = per_thread_ops
        .iter()
        .zip(&thread_is_big)
        .filter(|(_, &b)| b)
        .map(|(o, _)| o)
        .sum();
    let total_ops: u64 = per_thread_ops.iter().sum();

    // Longest run of consecutive grants within one class.
    let mut max_batch = 0u64;
    let mut run = 0u64;
    let mut run_class: Option<bool> = None;
    for &g in &sh.grants {
        let class = thread_is_big[g as usize];
        if run_class == Some(class) {
            run += 1;
        } else {
            run_class = Some(class);
            run = 1;
        }
        max_batch = max_batch.max(run);
    }

    let virtual_ns = sh.th.iter().map(|t| t.vtime).max().unwrap_or(0);
    let mut overall: Vec<u64> = sh
        .lat_big
        .iter()
        .chain(sh.lat_little.iter())
        .copied()
        .collect();
    let p99_overall = percentile(&mut overall, 99.0);
    let grants = std::mem::take(&mut sh.grants);
    let window_traces = std::mem::take(&mut sh.window_traces);
    ZooResult {
        total_ops,
        big_ops,
        little_ops: total_ops - big_ops,
        per_thread_ops,
        thread_is_big,
        throughput: total_ops as f64 / (cfg.duration_ns as f64 / 1e9),
        p50_big: percentile(&mut sh.lat_big, 50.0),
        p99_big: percentile(&mut sh.lat_big, 99.0),
        p50_little: percentile(&mut sh.lat_little, 50.0),
        p99_little: percentile(&mut sh.lat_little, 99.0),
        p99_overall,
        max_wait_big: sh.max_wait_big,
        max_wait_little: sh.max_wait_little,
        handoffs_local: sh.handoffs_local,
        handoffs_remote: sh.handoffs_remote,
        grants,
        max_class_batch: max_batch,
        virtual_ns,
        window_traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_cost_is_socket_aware() {
        let cost = CostModel::default();
        let numa = Topology::numa(4, 16);
        // Same socket: local; different socket: remote, ~10x.
        assert_eq!(
            cost.handoff_ns(&numa, CoreId(0), CoreId(15)),
            cost.handoff_local_ns
        );
        assert_eq!(
            cost.handoff_ns(&numa, CoreId(0), CoreId(16)),
            cost.handoff_remote_ns
        );
        assert!(cost.handoff_remote_ns > cost.handoff_local_ns);
    }

    #[test]
    fn little_core_work_stretches_by_perf_ratio() {
        let cost = CostModel::default();
        let amp = Topology::custom(4, 4, 3.0);
        let big = cost.work_ns(&amp, CoreKind::Big, 1_000);
        let little = cost.work_ns(&amp, CoreKind::Little, 1_000);
        assert_eq!(big, 1_000 * cost.work_unit_ns);
        assert_eq!(little, 3 * big);
    }

    #[test]
    fn little_core_polls_stretch_by_perf_ratio() {
        let cost = CostModel::default();
        let amp = Topology::custom(4, 4, 2.0);
        let big = cost.poll_cost_ns(&amp, CoreKind::Big);
        assert_eq!(big, cost.poll_ns);
        assert_eq!(cost.poll_cost_ns(&amp, CoreKind::Little), 2 * big);
    }

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix(3, 17), splitmix(3, 17));
        assert_ne!(splitmix(3, 17), splitmix(3, 18));
    }
}
