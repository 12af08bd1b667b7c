//! `amp-db`: the five `asl-dbsim` engines on the modeled M1, in
//! virtual time (paper Figs. 9–10).
//!
//! Here the engine's own work dominates and the lock is a small share
//! of every request, so a lock gain has to survive dilution — and the
//! per-epoch overhead LibASL adds to *every* request shows: at the
//! seed state LibASL is below `mcs` on the low-contention engines.
//!
//! Each engine runs twice, under `mcs` (FIFO baseline) and under
//! `libasl-<slo>` with one SLO per engine pinned at 3× the seed `mcs`
//! little-core p99 ([`ENGINE_RUNS`]).

use std::cell::RefCell;
use std::sync::Arc;

use asl_dbsim::kyoto::Kyoto;
use asl_dbsim::leveldb::LevelDb;
use asl_dbsim::lmdb::Lmdb;
use asl_dbsim::sqlite::Sqlite;
use asl_dbsim::upscale::UpscaleDb;
use asl_dbsim::{value_for, Engine, LockFactory, KEYSPACE};
use asl_harness::locks::LockSpec;
use asl_locks::plain::{ExclusiveRw, PlainLock, PlainRwLock, PlainToken};
use asl_runtime::clock::now_ns;
use asl_runtime::topology::Topology;

use crate::metrics::{Clock, EndToEndValues, Metric};
use crate::sim::{jittered_think, request_rng, run_cell, speed_metrics, CellConfig, CellResult};
use crate::stats::geomean;
use crate::trace;
use crate::workload::{overhead_share, timed_setup, Layers, Outcome, SetupTime};

/// One engine of the line-up.
pub struct EngineRun {
    /// Engine name as used in metric names.
    pub name: &'static str,
    /// Pinned SLO: 3× the seed `mcs` little-core epoch p99.
    pub slo_ns: u64,
    /// The seed `mcs` little-core p99 the SLO was derived from.
    pub anchor_ns: u64,
    build: fn(&dyn LockFactory) -> Box<dyn CheckedEngine>,
}

/// The engines with their pinned SLOs (anchors measured on the seed
/// commit at 15 s, seed 1; see the README's SLO table).
pub const ENGINE_RUNS: [EngineRun; 5] = [
    EngineRun {
        name: "kyoto",
        slo_ns: 9_000,
        anchor_ns: 3_000,
        build: |f| Box::new(Kyoto::with_default_size(f)),
    },
    EngineRun {
        name: "upscale",
        slo_ns: 22_500,
        anchor_ns: 7_500,
        build: |f| Box::new(UpscaleDb::new(f)),
    },
    EngineRun {
        name: "lmdb",
        slo_ns: 33_750,
        anchor_ns: 11_250,
        build: |f| Box::new(Lmdb::new(f)),
    },
    EngineRun {
        name: "leveldb",
        slo_ns: 8_700,
        anchor_ns: 2_900,
        build: |f| Box::new(LevelDb::with_default_size(f)),
    },
    EngineRun {
        name: "sqlite",
        slo_ns: 300_000,
        anchor_ns: 100_000,
        build: |f| Box::new(Sqlite::with_default_size(f)),
    },
];

/// Virtual ns simulated per cell for each host second of budget.
const VNS_PER_SECOND: f64 = 1_000_000.0;
const THREADS: usize = 8;
/// Mean think time between a thread's requests, in work units
/// (jittered: see `sim::jittered_think`).
const THINK_UNITS: u64 = 100;
/// Engine builds are milliseconds (LevelDB preloads 65 536 keys).
const SETUP_REPS: usize = 15;

/// An engine plus the state check run after its cell: the round-trips
/// that feed `failed`. Returns `(checked, failed)`.
trait CheckedEngine: Engine {
    fn check(&self) -> (u64, u64);
}

/// Keys probed by the post-run checks.
const PROBES: u64 = 256;

/// Every value an engine returns for `key` must be the one the
/// workload writes for it, and a fresh put must read back.
fn check_kv(put: impl Fn(u64), get: impl Fn(u64) -> Option<asl_dbsim::Value>) -> (u64, u64) {
    let mut failed = 0;
    for i in 0..PROBES {
        let key = i * (KEYSPACE / PROBES);
        failed += u64::from(get(key).is_some_and(|v| v != value_for(key)));
        put(key);
        failed += u64::from(get(key) != Some(value_for(key)));
    }
    (2 * PROBES, failed)
}

impl CheckedEngine for Kyoto {
    fn check(&self) -> (u64, u64) {
        check_kv(|k| self.put(k, value_for(k)), |k| self.get(k))
    }
}

impl CheckedEngine for UpscaleDb {
    fn check(&self) -> (u64, u64) {
        check_kv(|k| self.put(k, value_for(k)), |k| self.get(k))
    }
}

impl CheckedEngine for Lmdb {
    fn check(&self) -> (u64, u64) {
        check_kv(|k| self.put(k, value_for(k)), |k| self.get(k))
    }
}

impl CheckedEngine for LevelDb {
    fn check(&self) -> (u64, u64) {
        // Read-only engine: every preloaded key must still hit.
        let failed = (0..PROBES)
            .map(|i| i * (KEYSPACE / PROBES))
            .filter(|&k| self.get(k) != Some(value_for(k)))
            .count() as u64;
        (PROBES, failed)
    }
}

impl CheckedEngine for Sqlite {
    fn check(&self) -> (u64, u64) {
        // Quiescent file-lock state: valid and fully released.
        let s = self.lock_state();
        let idle = s.valid() && s.shared == 0 && !s.reserved && !s.pending && !s.exclusive;
        let id = self.insert(u64::MAX - 1, 7);
        let found = self.select_point(u64::MAX - 1).is_some_and(|r| r.id == id);
        (2, u64::from(!idle) + u64::from(!found))
    }
}

/// Every lock an engine asks for is a fresh instance of one spec (the
/// paper relinks the whole binary against one lock library). When
/// `traced`, each lock is wrapped so that its waits and holds become
/// spans under the calling request.
struct SpecFactory {
    spec: LockSpec,
    traced: bool,
}

impl LockFactory for SpecFactory {
    fn make(&self) -> Arc<dyn PlainLock> {
        self.make_labeled("")
    }

    fn make_labeled(&self, label: &'static str) -> Arc<dyn PlainLock> {
        let inner = self.spec.make_lock_raw();
        if self.traced {
            Arc::new(TracedLock { inner, label })
        } else {
            inner
        }
    }

    fn make_rw_labeled(&self, label: &'static str) -> Arc<dyn PlainRwLock> {
        // Both specs are exclusive: shared mode degenerates to an
        // exclusive acquisition of the (labeled, maybe traced) lock.
        Arc::new(ExclusiveRw::new(self.make_labeled(label)))
    }
}

/// Records a `wait` span around `acquire` and a `hold` span from the
/// grant to the end of `release`.
struct TracedLock {
    inner: Arc<dyn PlainLock>,
    label: &'static str,
}

thread_local! {
    /// Open hold spans of this thread: (lock address, span id).
    static HOLDS: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
}

impl TracedLock {
    fn key(&self) -> usize {
        self as *const TracedLock as usize
    }

    fn granted(&self, req: u64, now: u64) {
        let hold = trace::begin_on("hold", self.label, req, now);
        HOLDS.with(|h| h.borrow_mut().push((self.key(), hold)));
    }
}

impl PlainLock for TracedLock {
    fn acquire(&self) -> PlainToken {
        let req = trace::current_req();
        let wait = trace::begin_on("wait", self.label, req, now_ns());
        let token = self.inner.acquire();
        let now = now_ns();
        trace::end(wait, now);
        self.granted(req, now);
        token
    }

    fn try_acquire(&self) -> Option<PlainToken> {
        let token = self.inner.try_acquire()?;
        self.granted(trace::current_req(), now_ns());
        Some(token)
    }

    fn release(&self, token: PlainToken) {
        self.inner.release(token);
        let hold = HOLDS.with(|h| {
            let mut h = h.borrow_mut();
            let pos = h.iter().rposition(|&(k, _)| k == self.key());
            pos.map(|p| h.remove(p).1)
        });
        if let Some(hold) = hold {
            trace::end(hold, now_ns());
        }
    }

    fn held(&self) -> bool {
        self.inner.held()
    }

    fn lock_name(&self) -> &'static str {
        self.inner.lock_name()
    }
}

/// The two cells of one engine.
struct EnginePass {
    mcs: CellResult,
    asl: CellResult,
}

struct Pass {
    window_ns: u64,
    engines: Vec<EnginePass>,
    attempted: u64,
    failed: u64,
    setup: SetupTime,
}

fn pass(seconds: f64, seed: u64) -> Pass {
    let window_ns = ((seconds * VNS_PER_SECOND) as u64).max(100_000);
    let traced = trace::on();
    // Set-up: build all ten engines, `[mcs, libasl]` per engine.
    let (engines, setup) = timed_setup(SETUP_REPS, 1, || {
        ENGINE_RUNS
            .iter()
            .flat_map(|run| {
                [LockSpec::Mcs, LockSpec::asl(Some(run.slo_ns))].map(|spec| {
                    let slo = spec.epoch_slo();
                    ((run.build)(&SpecFactory { spec, traced }), slo)
                })
            })
            .collect::<Vec<_>>()
    });
    let mut out = Pass {
        window_ns,
        engines: Vec::new(),
        attempted: 0,
        failed: 0,
        setup,
    };
    for (run, pair) in ENGINE_RUNS.iter().zip(engines.chunks_exact(2)) {
        let [mcs, asl] = [&pair[0], &pair[1]].map(|(engine, slo_ns)| {
            let lock = if slo_ns.is_some() { "libasl" } else { "mcs" };
            let cfg = CellConfig {
                label: format!("amp-db/{}/{lock}", run.name),
                topology: Topology::apple_m1(),
                threads: THREADS,
                think_units: THINK_UNITS,
                window_ns,
                seed,
                slo_ns: *slo_ns,
            };
            let cell = run_cell(&cfg, run.slo_ns, |_, req| {
                let mut rng = request_rng(seed, req);
                engine.run_request(&mut rng);
                jittered_think(&mut rng, THINK_UNITS)
            });
            let (checked, bad) = engine.check();
            out.attempted += cell.epochs + checked;
            out.failed += bad;
            cell
        });
        out.engines.push(EnginePass { mcs, asl });
    }
    out
}

struct Summary {
    vops: f64,
    speedup: f64,
    /// Worst engine's little-core p99 ÷ its SLO.
    over: f64,
    worst: &'static str,
}

fn summarise(p: &Pass) -> Summary {
    let asl: Vec<f64> = p
        .engines
        .iter()
        .map(|e| e.asl.vops_s(p.window_ns))
        .collect();
    let mcs: Vec<f64> = p
        .engines
        .iter()
        .map(|e| e.mcs.vops_s(p.window_ns))
        .collect();
    let (over, worst) = p
        .engines
        .iter()
        .zip(&ENGINE_RUNS)
        .map(|(e, run)| {
            (
                e.asl.little_p99().value as f64 / run.slo_ns as f64,
                run.name,
            )
        })
        .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
    Summary {
        vops: geomean(&asl),
        speedup: geomean(&asl) / geomean(&mcs),
        over,
        worst,
    }
}

/// The untraced run.
pub fn run(seconds: f64, seed: u64) -> Outcome {
    let p = pass(seconds, seed);
    let s = summarise(&p);
    let v = Clock::Virtual;
    let misses: u64 = p.engines.iter().map(|e| e.asl.little_misses).sum();
    let little: usize = p.engines.iter().map(|e| e.asl.latency.little.len()).sum();
    let big: Vec<f64> = p
        .engines
        .iter()
        .map(|e| e.asl.big_p99().value as f64 / 1e3)
        .collect();
    let mut detail = vec![
        Metric::new("vthroughput_ops_s", s.vops, "1/s", v).with_note(format!(
            "geomean of 5 libasl cells over {} vns",
            p.window_ns
        )),
        Metric::new("speedup_vs_fifo", s.speedup, "x", v).with_note("geomean libasl / geomean mcs"),
        Metric::new("little_p99_over_slo", s.over, "x", v)
            .with_note(format!("worst engine: {}", s.worst)),
        Metric::new(
            "slo_miss_share",
            misses as f64 / little.max(1) as f64,
            "share",
            v,
        )
        .with_note(format!("{misses} of {little} little epochs, all engines")),
        Metric::new("big_p99_vus", geomean(&big), "vus", v)
            .with_note("geomean of the 5 libasl cells' big-core epoch p99"),
    ];
    detail.push(p.setup.detail());
    for (e, run) in p.engines.iter().zip(&ENGINE_RUNS) {
        let little = e.asl.little_p99();
        detail.push(
            Metric::new(
                format!("engine.{}.speedup_vs_fifo", run.name),
                e.asl.vops_s(p.window_ns) / e.mcs.vops_s(p.window_ns),
                "x",
                v,
            )
            .with_note(format!(
                "libasl {:.0} / mcs {:.0} vops/s; little p{:.1} {} vns (mcs {} vns), SLO {} vns = 3 x anchor {}; {:.2}+{:.2} host s",
                e.asl.vops_s(p.window_ns),
                e.mcs.vops_s(p.window_ns),
                little.percentile,
                little.value,
                e.mcs.little_p99().value,
                run.slo_ns,
                run.anchor_ns,
                e.mcs.host_ns as f64 / 1e9,
                e.asl.host_ns as f64 / 1e9,
            )),
        );
    }
    Outcome {
        e2e: EndToEndValues {
            throughput_ops_s: s.vops,
            speedup_vs_baseline: s.speedup,
            latency_over_slo: s.over,
            setup_s: p.setup.total_s(),
        },
        clock: v,
        detail,
        attempted: p.attempted,
        failed: p.failed,
    }
}

/// The traced run: an untraced reference pass, then a pass whose
/// engines are built over [`TracedLock`]s.
pub fn layers(seconds: f64, seed: u64) -> Layers {
    let plain = pass(seconds / 2.0, seed);
    trace::set_enabled(true);
    let mut traced = pass(seconds / 2.0, seed);
    trace::set_enabled(false);

    let v = Clock::Virtual;
    let mut out = Layers {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        ..Layers::default()
    };
    for (e, run) in traced.engines.iter().zip(&ENGINE_RUNS) {
        let mut request_ns = 0u64;
        let mut request_self = 0u64;
        let mut requests = 0u64;
        let mut wait_ns = 0u64;
        for log in &e.asl.logs {
            let selfs = trace::self_times(&log.spans);
            for (s, own) in log.spans.iter().zip(selfs) {
                match s.name {
                    "request" => {
                        requests += 1;
                        request_ns += s.duration();
                        request_self += own;
                    }
                    "wait" => wait_ns += s.duration(),
                    _ => {}
                }
            }
        }
        let (roots, bad) = trace::check_logs(&e.asl.logs);
        out.attempted += roots;
        out.failed += bad;
        let little = e.asl.little_p99();
        let m = |stat: &str, value: f64, unit| {
            Metric::new(format!("dbsim.{}.{stat}", run.name), value, unit, v)
        };
        out.metrics.extend([
            m("mcs_vops_s", e.mcs.vops_s(traced.window_ns), "1/s"),
            m("asl_vops_s", e.asl.vops_s(traced.window_ns), "1/s"),
            m("little_p99_vns", little.value as f64, "vns").with_note(format!(
                "p{:.1} of {} little epochs",
                little.percentile, little.samples
            )),
            m("slo_miss_share", e.asl.miss_share(), "share"),
            m(
                "request_self_vns",
                request_self as f64 / requests.max(1) as f64,
                "vns",
            )
            .with_note(format!("mean over {requests} libasl requests")),
            m(
                "lock_wait_share",
                wait_ns as f64 / request_ns.max(1) as f64,
                "share",
            ),
        ]);
    }
    out.metrics.extend(speed_metrics(
        "amp-db",
        plain.engines.iter().flat_map(|e| [&e.mcs, &e.asl]),
    ));
    out.metrics.push(
        Metric::new(
            "trace.amp-db.overhead_share",
            overhead_share(summarise(&traced).vops, summarise(&plain).vops),
            "share",
            v,
        )
        .with_note("traced / untraced geomean libasl vops_s - 1"),
    );
    for e in &mut traced.engines {
        out.logs.append(&mut e.mcs.logs);
        out.logs.append(&mut e.asl.logs);
    }
    out
}
