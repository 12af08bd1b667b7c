//! `kv` — the sharded KV service under open-loop traffic.
//!
//! The serving-side extension of the paper's SLO story: instead of
//! threads on cores re-acquiring a lock in a loop, a population of
//! 10⁵–10⁶ *simulated clients* (one async task each) fires requests at
//! a sharded KV store on an open-loop schedule. Each shard is guarded
//! by an async mutex whose wait-queue policy comes from the lock
//! registry via [`LockSpec::async_policy`]:
//!
//! * `mcs` → FIFO handoff (the async analogue of an MCS queue),
//! * `libasl-<slo>` → deadline order, window bounded by the SLO,
//! * `libasl-max` → pure earliest-deadline-first (unbounded window).
//!
//! Every request's deadline anchors at its *scheduled* arrival
//! (scheduled + SLO), and latency is measured from that same instant —
//! so deadline order is exactly the order that minimizes maximum
//! lateness (EDF optimality), while FIFO wakes in *poll* order, which
//! executor queueing scrambles under load. The gap between the two is
//! the p99.9 this figure reports, swept over
//! {lock family} × {arrival rate} × {shard count}, plus a bursty-
//! arrival table where queue depth (and therefore reordering freedom)
//! is largest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asl_dbsim::arrival::ArrivalProcess;
use asl_dbsim::kv::{draw_request, KvConfig, ShardedKv};
use asl_dbsim::openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
use asl_dbsim::workload::{KeyDist, Mix, Zipfian, YCSB_THETA};
use asl_runtime::affinity::{online_cpus, pinned};
use asl_runtime::clock::now_ns;
use asl_runtime::{wait_stats, Executor, JoinHandle};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::Profile;
use crate::hist::Hist;
use crate::locks::LockSpec;
use crate::report::{fmt_ops, fmt_us, Table};

/// Executor workers serving the store (the paper machine's big-core
/// count: four service cores).
const WORKERS: usize = 4;

/// Per-request SLO anchoring every deadline (and the `libasl-<slo>`
/// competitor's reorder-window bound).
const SLO_NS: u64 = 100_000;

/// Big-core critical-section cost of one request (index probe +
/// record copy), in wall nanoseconds.
const CS_NS: u64 = 1_500;

/// Offered-load sweep (requests/second).
const RATES: [f64; 3] = [200_000.0, 500_000.0, 1_000_000.0];

/// Middle of [`RATES`], used for the shard sweep and burst table.
const MID_RATE: f64 = 500_000.0;

/// Shard counts beyond the default, swept at [`MID_RATE`]. The
/// [`BASE_SHARDS`] midpoint already appears in the rate sweep, so the
/// shard table adds only the extremes (labels stay unique).
const SHARDS: [usize; 2] = [1, 16];

/// Default shard count for the rate sweep.
const BASE_SHARDS: usize = 4;

/// The lock lineup: FIFO baseline and two SLO-aware points.
fn lineup() -> [LockSpec; 3] {
    [
        LockSpec::Mcs,
        LockSpec::asl(Some(SLO_NS)),
        LockSpec::asl(None),
    ]
}

/// Simulated clients per configured wall-clock millisecond of profile
/// duration (quick: 120 ms → 120k clients; full: 600 ms → 600k).
const CLIENTS_PER_MS: usize = 1_000;

fn clients(profile: &Profile) -> usize {
    (profile.duration_ms as usize)
        .saturating_mul(CLIENTS_PER_MS)
        .max(10_000)
}

fn base_cfg(profile: &Profile, seed_salt: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        clients: clients(profile),
        rate_per_sec: MID_RATE,
        process: ArrivalProcess::Poisson,
        theta: Some(asl_dbsim::workload::YCSB_THETA),
        read_fraction: 0.5,
        slo_ns: Some(SLO_NS),
        workers: WORKERS,
        seed: 0x0A51_0000 ^ seed_salt,
    }
}

/// One measured cell: build the store for `spec`, drive it open-loop,
/// reduce latencies to a histogram.
fn run_cell(spec: &LockSpec, shards: usize, cfg: &OpenLoopConfig) -> (OpenLoopReport, Hist) {
    let kv = Arc::new(ShardedKv::new(KvConfig {
        shards,
        policy: spec.async_policy(),
        cs_units: asl_runtime::work::units_for_ns(CS_NS),
        ..KvConfig::default()
    }));
    // Fill every key so the 50% read half of the mix hits.
    kv.prefill(1);
    let report = run_open_loop(kv, cfg);
    let mut hist = Hist::new();
    for &l in &report.latencies_ns {
        hist.record(l);
    }
    (report, hist)
}

const COLS: [&str; 8] = [
    "lock", "shards", "rate", "clients", "thpt", "p50_us", "p99_us", "p999_us",
];

/// Counters of the executor behind each cell (`--profile`).
const EXEC_COLS: [&str; 7] = [
    "cell",
    "spawned",
    "polls",
    "wakeups",
    "elided",
    "parked",
    "peak_queue",
];

/// Requests spawned, then joined in spawn order, per closed burst.
const JOIN_BURST: u64 = 2_000;

/// One `kv-join` row: closed bursts from a generator on the first CPU
/// against one worker on the `worker_cpu`-th, and how the joins waited.
fn push_join_row(t: &mut Table, profile: &Profile, placement: &str, worker_cpu: usize) {
    let kv = Arc::new(ShardedKv::new(KvConfig {
        shards: BASE_SHARDS,
        policy: LockSpec::asl(Some(SLO_NS)).async_policy(),
        cs_units: asl_runtime::work::units_for_ns(CS_NS),
        ..KvConfig::default()
    }));
    kv.prefill(1);
    let exec = pinned(worker_cpu, || Executor::new(1));
    // The counters are the joining thread's own: read them on it.
    let (mut burst_ns, parks, spin_hits) = pinned(0, || {
        let mut rng = SmallRng::seed_from_u64(0x0A51_0300);
        let dist = KeyDist::Zipfian(Zipfian::new(kv.keyspace(), YCSB_THETA));
        let mix = Mix::ycsb_a();
        let mut burst_ns = Vec::new();
        let before = wait_stats();
        let started = Instant::now();
        let window = Duration::from_millis(profile.duration_ms);
        while burst_ns.len() < 3 || started.elapsed() < window {
            let t0 = now_ns();
            let handles: Vec<_> = (0..JOIN_BURST)
                .map(|_| {
                    let (req, kv) = (draw_request(&dist, &mix, &mut rng), kv.clone());
                    exec.spawn(async move { kv.request(req.op, req.key, None).await })
                })
                .collect();
            let hits = handles.into_iter().map(JoinHandle::join).filter(|&hit| hit);
            assert_eq!(hits.count() as u64, JOIN_BURST, "every key is prefilled");
            burst_ns.push(now_ns() - t0);
        }
        let after = wait_stats();
        let parks = after.parks - before.parks;
        (burst_ns, parks, after.spin_hits - before.spin_hits)
    });
    burst_ns.sort_unstable();
    let joins = burst_ns.len() as u64 * JOIN_BURST;
    let per_join = |count: u64| format!("{:.4}", count as f64 / joins as f64);
    t.push_row(vec![
        placement.into(),
        burst_ns.len().to_string(),
        (burst_ns[burst_ns.len() / 2] / JOIN_BURST).to_string(),
        per_join(parks),
        per_join(spin_hits),
    ]);
}

/// `kv-join` (`--profile`): the one path of the service that blocks a
/// thread on a future — a client joining its requests in order.
fn join_table(profile: &Profile) -> Table {
    let mut t = Table::new(
        "kv-join",
        &format!("closed bursts of {JOIN_BURST} requests joined in spawn order (1 worker, {BASE_SHARDS} shards)"),
        &["placement", "bursts", "ns_per_req", "parks_per_join", "spin_hits_per_join"],
    );
    push_join_row(&mut t, profile, "one-cpu", 0);
    if online_cpus() >= 2 {
        push_join_row(&mut t, profile, "two-cpus", 1);
    }
    t.note("ns_per_req: median burst, first spawn to last join; the generator is in lock-step with the worker");
    t.note("parks: joins that slept in the kernel (a futex wake on the worker); spin_hits: joins answered while block_on still spun");
    t.note("on one CPU no spin can be answered, so the spin budget decays to a probe; across CPUs nearly every join is a spin hit");
    t
}

fn push_cell(
    t: &mut Table,
    exec: &mut Table,
    spec: &LockSpec,
    shards: usize,
    rate: f64,
    cfg: &OpenLoopConfig,
) {
    let (report, hist) = run_cell(spec, shards, cfg);
    let arrival_tag = match cfg.process {
        ArrivalProcess::Poisson => String::new(),
        p => format!(",arrival={}", p.label()),
    };
    let label = format!(
        "{}@rate={}k,shards={}{}",
        spec.label(),
        (rate / 1e3) as u64,
        shards,
        arrival_tag
    );
    t.push_latency_sample(
        &label,
        cfg.workers,
        report.throughput,
        hist.p99(),
        hist.p999(),
    );
    t.push_row(vec![
        spec.label(),
        shards.to_string(),
        fmt_ops(rate),
        report.completed.to_string(),
        fmt_ops(report.throughput),
        fmt_us(hist.percentile(50.0)),
        fmt_us(hist.p99()),
        fmt_us(hist.p999()),
    ]);
    let e = report.exec;
    let counts = [
        e.spawned,
        e.polls,
        e.wakeups_sent,
        e.wakeups_elided,
        e.registered,
        e.peak_queue_depth,
    ];
    let mut row = vec![label];
    row.extend(counts.map(|count| count.to_string()));
    exec.push_row(row);
}

/// `kv` — throughput and tail latency of the sharded KV service under
/// open-loop Poisson (and bursty) traffic, per shard-lock policy.
pub fn kv(profile: &Profile) -> Vec<Table> {
    let n = clients(profile);
    let mut exec = Table::new(
        "kv-exec",
        "executor counters per cell: what the tasks cost in wake-ups and registry entries",
        &EXEC_COLS,
    );
    let mut rates = Table::new(
        "kv-rates",
        &format!(
            "sharded KV service, open-loop Poisson arrivals ({n} clients, {BASE_SHARDS} shards, {WORKERS} workers)"
        ),
        &COLS,
    );
    for (i, spec) in lineup().iter().enumerate() {
        for (j, &rate) in RATES.iter().enumerate() {
            let cfg = OpenLoopConfig {
                rate_per_sec: rate,
                ..base_cfg(profile, (i * RATES.len() + j) as u64)
            };
            push_cell(&mut rates, &mut exec, spec, BASE_SHARDS, rate, &cfg);
        }
    }
    note_common(&mut rates);

    let mut shards = Table::new(
        "kv-shards",
        &format!(
            "shard-count sweep at {} req/s ({n} clients)",
            fmt_ops(MID_RATE)
        ),
        &COLS,
    );
    for (i, spec) in lineup().iter().enumerate() {
        for (j, &s) in SHARDS.iter().enumerate() {
            let cfg = base_cfg(profile, 0x100 + (i * SHARDS.len() + j) as u64);
            push_cell(&mut shards, &mut exec, spec, s, MID_RATE, &cfg);
        }
    }
    shards.note("fewer shards = hotter shard locks; the policy gap widens as shards shrink");
    shards.note(format!(
        "the shards={BASE_SHARDS} midpoint is the rate={} row of kv-rates",
        fmt_ops(MID_RATE)
    ));

    let mut burst = Table::new(
        "kv-burst",
        &format!(
            "bursty arrivals (64-deep bursts) at {} req/s ({n} clients, {BASE_SHARDS} shards)",
            fmt_ops(MID_RATE)
        ),
        &COLS,
    );
    for (i, spec) in lineup().iter().enumerate() {
        let cfg = OpenLoopConfig {
            process: ArrivalProcess::Burst { burst: 64 },
            ..base_cfg(profile, 0x200 + i as u64)
        };
        push_cell(&mut burst, &mut exec, spec, BASE_SHARDS, MID_RATE, &cfg);
    }
    burst.note("bursts fill the wait queues at one instant, so wake policy (not arrival order) sets the tail");

    exec.note("wakeups: enqueues that signalled a sleeping worker (one futex call each); elided: every worker was awake");
    exec.note("parked: tasks that returned Pending (every client parks on its start gate) and entered the shutdown registry");
    let mut tables = vec![rates, shards, burst];
    if asl_locks::telemetry::profiling() {
        tables.push(exec);
        tables.push(join_table(profile));
    }
    tables
}

fn note_common(t: &mut Table) {
    t.note(format!(
        "one async task per simulated client; deadline = scheduled arrival + {}us SLO",
        SLO_NS / 1_000
    ));
    t.note("latency measured from the scheduled (not actual) start: coordinated-omission-free");
    t.note("zipfian keys (theta=0.99), YCSB-A mix, 50% reads over a prefilled store");
    t.note(format!(
        "critical section {CS_NS} ns = {} work units at the calibrated {:.0} units/us: the best of twelve ~8 us blocks, most of which escape a preemption, so each cell holds its shard about as long as it asks (five 2.7 ms blocks read 0.54-1.0 of the host's rate and shortened every section by as much)",
        asl_runtime::work::units_for_ns(CS_NS),
        asl_runtime::work::units_per_us()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny profile so the test drives the full figure path (three
    /// tables, latency samples attached) in well under a second.
    fn tiny() -> Profile {
        Profile {
            duration_ms: 1, // floor kicks in: 10k clients
            warmup_ms: 0,
        }
    }

    #[test]
    fn kv_figure_produces_latency_samples_for_every_cell() {
        let tables = kv(&tiny());
        assert_eq!(tables.len(), 3);
        let cells: usize = tables.iter().map(|t| t.samples.len()).sum();
        assert_eq!(
            cells,
            lineup().len() * (RATES.len() + SHARDS.len() + 1),
            "every (lock, rate/shard/burst) cell must emit one sample"
        );
        for t in &tables {
            assert_eq!(t.rows.len(), t.samples.len());
            for s in &t.samples {
                assert!(s.ops_per_sec > 0.0, "{}: zero throughput", s.lock);
                let p99 = s.p99_ns.expect("kv samples carry p99");
                let p999 = s.p999_ns.expect("kv samples carry p999");
                assert!(p999 >= p99, "{}: p999 {} < p99 {}", s.lock, p999, p99);
            }
        }
        // Sample labels are unique (the BENCH json key contract).
        let mut labels: Vec<_> = tables
            .iter()
            .flat_map(|t| t.samples.iter().map(|s| s.lock.clone()))
            .collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "duplicate sample labels");
    }

    #[test]
    fn join_table_counts_how_the_joins_waited() {
        let t = join_table(&tiny());
        assert_eq!(t.rows.len(), online_cpus().min(2));
        for row in &t.rows {
            assert!(
                row[2].parse::<u64>().unwrap() > 0,
                "{row:?}: no time per request"
            );
        }
    }

    #[test]
    fn lineup_spans_fifo_and_slo_policies() {
        use asl_locks::AsyncPolicy;
        let policies: Vec<_> = lineup().iter().map(LockSpec::async_policy).collect();
        assert!(policies.contains(&AsyncPolicy::Fifo));
        assert!(policies.contains(&AsyncPolicy::Slo { slo_ns: SLO_NS }));
        assert!(policies.contains(&AsyncPolicy::Slo { slo_ns: u64::MAX }));
    }
}
