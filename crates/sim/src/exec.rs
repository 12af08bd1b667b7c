//! The modeled machine: cooperative virtual-time execution of the
//! **real** lock zoo.
//!
//! This module *models* no lock policy and runs no workload: it is a
//! machine, [`run_threads`], that executes whatever per-thread body it
//! is given — the unmodified lock implementations included, anything
//! [`PlainLock`] or [`PlainRwLock`], i.e. the whole
//! `asl-locks`/`asl-core` zoo with `AslLock`'s SLO feedback:
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
//!   [`Topology`]: little cores stretch work by `perf_ratio`, parking
//!   pays a syscall-shaped penalty. The engine charges nothing a hook
//!   does not report, and a body reaches the machine only through the
//!   substrate: the cache-line hand-off of a lock is a `busy_wait_ns`
//!   of the zoo driver ([`crate::zoo::run_lock`]), not an engine charge.
//! * Cores are resources: two virtual threads bound to the same core
//!   (oversubscription — [`Topology::assignment_for_thread`] wraps)
//!   serialize on the core's clock and pay [`CostModel::switch_ns`]
//!   per context switch, while parked/sleeping threads leave the core
//!   free — which is exactly why spin-then-park beats pure spinning
//!   once oversubscribed.
//!
//! The scheduler always runs the runnable thread with the smallest
//! virtual key (ties broken by thread id), with a slack band
//! ([`CostModel::resched_slack_ns`]) to batch consecutive probes of
//! one waiter. Causality skew between threads is therefore bounded by
//! the slack plus one charge. That bound is not small against every
//! modeled effect: the db engines' critical sections run a few hundred
//! virtual ns, about the default 400 ns band, and measured at slack 0
//! the `fig10-leveldb` and `fig9-kyoto` verdicts change (ROADMAP's
//! slack finding). A test-and-set releaser whose think time is shorter
//! than the band re-takes its own lock before any waiter runs, so a
//! short-think TAS cell reads as one thread's monopoly.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

#[cfg(doc)]
use asl_locks::plain::{PlainLock, PlainRwLock};
use asl_runtime::topology::{CoreId, CoreKind, Topology};
use asl_runtime::{affinity, registry, substrate};
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
    /// Lock handoff between cores of the same socket (local cache-line
    /// transfer): a [`crate::zoo::run_lock`] charge, not an engine one.
    pub handoff_local_ns: u64,
    /// Lock handoff across sockets (remote cache-line transfer), ditto.
    pub handoff_remote_ns: u64,
    /// One park → wake round trip (futex / `thread::park`).
    pub park_ns: u64,
    /// Context switch when a core changes its running thread.
    pub switch_ns: u64,
    /// Scheduling quantum: how long one thread may monopolize a core
    /// that co-resident threads are waiting for.
    pub quantum_ns: u64,
    /// Reschedule hysteresis: the running thread keeps the baton while
    /// it is within this band of the minimum virtual key. It buys
    /// simulation speed (fewer kernel hand-offs between host threads)
    /// at the price of inter-thread causality skew up to the band, and
    /// that skew moves results: it decides the `fig10-leveldb` and
    /// `fig9-kyoto` verdicts and lets a short-think TAS releaser
    /// re-take its own lock (see the module doc).
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
}

/// One simulated experiment. The machine reads `topology`, `threads`,
/// `seed`, `cost` and `fault` (and `ncs_units`, which sizes the seeded
/// start stagger); `duration_ns` ends the loop of
/// [`crate::zoo::run_timed`], and `cs_units`, `ncs_units` and `slo_ns`
/// are the workload of [`crate::zoo::run_lock`]: N threads cycling
/// *non-critical section → acquire → critical section → release* on
/// one lock.
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
    /// The end of [`crate::zoo::run_timed`]'s loop (virtual ns): no
    /// operation starts at or after it. Warm-up included.
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
    /// Virtual time of the last on-core execution: the scheduler's
    /// tie-break. Threads parked behind the same quantum-expiry key
    /// rotate least-recently-run first, so every co-resident of a core
    /// gets its quantum (a fixed tid tie-break lets two threads
    /// ping-pong and starve the rest — a preempted lock *holder* among
    /// the starved then livelocks the whole machine).
    last_ran: u64,
}

struct Shared {
    th: Vec<Vthread>,
    core_time: Vec<u64>,
    core_last: Vec<usize>,
    core_since: Vec<u64>,
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
                    last_ran: 0,
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

    /// The ready thread with the smallest key (then least recently
    /// run, then lowest id), and its key. Every step runs this scan:
    /// an iterator `min()` over the key tuples cost `repro sim` ~25 %
    /// more user time than the loop.
    fn earliest_ready(&self, sh: &Shared) -> Option<(u64, usize)> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (t, th) in sh.th.iter().enumerate() {
            if th.state == VState::Ready {
                let k = (self.key(sh, t), th.last_ran, t);
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                }
            }
        }
        best.map(|(k, _, t)| (k, t))
    }

    /// Give the baton to the earliest ready thread, if there is one.
    fn pass_baton(&self, sh: &mut Shared) {
        if let Some((_, next)) = self.earliest_ready(sh) {
            sh.th[next].state = VState::Running;
            self.cvs[next].notify_one();
        }
    }

    /// Hand the baton to the runnable thread with the smallest key if
    /// it undercuts ours (`me` runs) by more than the slack band; block
    /// until the baton comes back.
    fn reschedule(&self, mut sh: MutexGuard<'_, Shared>, me: usize) {
        if let Some((bk, _)) = self.earliest_ready(&sh) {
            if bk.saturating_add(self.cost.resched_slack_ns) < self.key(&sh, me) {
                sh.th[me].state = VState::Ready;
                self.pass_baton(&mut sh);
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
        self.pass_baton(&mut sh);
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
        self.machine
            .step(self.tid, self.machine.cost.clock_read_ns, true)
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
        // Units arrive pre-scaled by the registry multiplier
        // (execute_units), so convert straight to virtual ns.
        let ns = units.saturating_mul(self.machine.cost.work_unit_ns);
        self.machine.step(self.tid, ns, true);
    }
    fn core_count(&self) -> Option<usize> {
        Some(self.machine.topology.len())
    }
}

/// Run `body(tid)` as virtual thread `tid`, and hand the baton on for
/// good when it returns or unwinds (the payload comes back as the
/// `Err`).
fn with_vthread(
    machine: &Arc<SimMachine>,
    cfg: &ZooConfig,
    tid: usize,
    body: &(impl Fn(usize) + Sync),
) -> std::thread::Result<()> {
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
    let out = catch_unwind(AssertUnwindSafe(|| body(tid)));
    machine.finish(tid);
    registry::unregister();
    out
}

/// Run `body(tid)` as each virtual thread `tid` of the modeled
/// machine: the one entry point into the engine. Everything inside —
/// lock calls, clock reads, emulated work — runs in deterministic
/// virtual time under the thread's substrate (and the fault injector,
/// when [`ZooConfig::fault`] is set); the body decides its own loop.
/// A body that panics hands the baton on: the others run to their end
/// and the lowest-numbered thread's payload is rethrown here (one that
/// panics holding a lock still leaves its waiters spinning).
///
/// The machine runs pinned to one host CPU ([`affinity::pinned`]). It
/// steps one virtual thread at a time, so a second CPU adds nothing
/// but a cross-CPU wake-up to every baton pass: the same cell takes
/// 0.9 s pinned and 0.9–5 s unpinned on a 2-CPU host. Returns the final
/// virtual time (max over threads).
pub fn run_threads<F>(cfg: &ZooConfig, body: F) -> u64
where
    F: Fn(usize) + Send + Sync,
{
    affinity::pinned(0, || {
        let machine = SimMachine::new(cfg);
        std::thread::scope(|s| {
            let body = &body;
            let threads: Vec<_> = (0..cfg.threads)
                .map(|tid| {
                    let machine = machine.clone();
                    s.spawn(move || with_vthread(&machine, cfg, tid, body))
                })
                .collect();
            // Every thread starts Ready: the run starts at the earliest.
            machine.pass_baton(&mut machine.shared.lock().expect("sim scheduler poisoned"));
            threads
                .into_iter()
                .try_for_each(|t| t.join().and_then(|out| out))
        })
        .unwrap_or_else(|panic| resume_unwind(panic));
        let sh = machine.shared.lock().expect("sim scheduler poisoned");
        sh.th.iter().map(|t| t.vtime).max().unwrap_or(0)
    })
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
    fn little_core_polls_stretch_by_perf_ratio() {
        let cost = CostModel::default();
        let amp = Topology::custom(4, 4, 2.0);
        let big = cost.poll_cost_ns(&amp, CoreKind::Big);
        assert_eq!(big, cost.poll_ns);
        assert_eq!(cost.poll_cost_ns(&amp, CoreKind::Little), 2 * big);
    }
}
