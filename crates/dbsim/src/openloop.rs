//! Open-loop driver: a simulated client population firing requests at
//! the KV service on an arrival schedule.
//!
//! One simulated client = one async task = one request. All client
//! tasks are spawned up front (10⁵–10⁶ concurrent tasks is the point:
//! a task parked on a gate or a shard-lock wait queue costs a few
//! hundred bytes, where a blocked thread would cost a stack), and a
//! pacer releases them at their scheduled arrival instants drawn from
//! an [`ArrivalProcess`]. Because the
//! schedule never waits for the system, queueing delay shows up in the
//! measurements instead of silently throttling the offered load.
//!
//! Latency is measured from the *scheduled* arrival to completion —
//! if the pacer itself falls behind (overload), that lag is charged to
//! the requests, not dropped. This is the standard defence against
//! coordinated omission.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use asl_runtime::clock::{nanosleep_ns, now_ns};
use asl_runtime::{ExecStats, Executor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::kv::{draw_request, ShardedKv};
use crate::workload::{KeyDist, Mix, Zipfian};

/// Configuration of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Simulated clients; each issues exactly one request.
    pub clients: usize,
    /// Offered load in requests per second.
    pub rate_per_sec: f64,
    /// Interarrival process.
    pub process: ArrivalProcess,
    /// Zipfian exponent for key skew; `None` means uniform keys.
    pub theta: Option<f64>,
    /// Read fraction of the operation mix.
    pub read_fraction: f64,
    /// Per-request SLO; each request's deadline is its scheduled
    /// arrival + this. `None` sends requests without deadlines.
    pub slo_ns: Option<u64>,
    /// Executor worker threads serving the requests.
    pub workers: usize,
    /// RNG seed (schedule and request script are derived from it).
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            clients: 100_000,
            rate_per_sec: 500_000.0,
            process: ArrivalProcess::Poisson,
            theta: Some(crate::workload::YCSB_THETA),
            read_fraction: 0.5,
            slo_ns: Some(100_000),
            workers: 4,
            seed: 0x0A51_D00D,
        }
    }
}

/// What one open-loop run measured.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Requests completed (always equals `clients`).
    pub completed: u64,
    /// Wall time from the first scheduled arrival to the last
    /// completion.
    pub elapsed_ns: u64,
    /// Completed requests per second of wall time.
    pub throughput: f64,
    /// Per-request latency: completion − scheduled arrival.
    pub latencies_ns: Vec<u64>,
    /// What the run cost the executor in wake-ups and registrations.
    pub exec: ExecStats,
}

/// A one-shot start gate: the client task parks on it until the pacer
/// releases it at the scheduled arrival instant.
struct Gate {
    open: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: AtomicBool::new(false),
            waker: Mutex::new(None),
        })
    }

    fn release(&self) {
        self.open.store(true, Ordering::Release);
        let woken = self.waker.lock().unwrap().take();
        if let Some(w) = woken {
            w.wake();
        }
    }
}

struct GateWait(Arc<Gate>);

impl Future for GateWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0.open.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        let mut slot = self.0.waker.lock().unwrap();
        // Re-check under the lock: `release` stores the flag before
        // taking the lock, so either we see it here or `release` sees
        // the waker we are about to park.
        if self.0.open.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        *slot = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Sleep-then-spin until the wall clock reaches `target_ns`.
fn pace_until(target_ns: u64) {
    loop {
        let now = now_ns();
        if now >= target_ns {
            return;
        }
        let left = target_ns - now;
        if left > 200_000 {
            // Leave a margin for sleep overshoot; the final approach
            // is a bounded busy-wait.
            nanosleep_ns(left - 100_000);
        } else {
            asl_runtime::clock::busy_wait_ns(left.min(5_000));
        }
    }
}

/// Run one open-loop experiment against `kv`.
///
/// Spawns `cfg.clients` tasks on a fresh [`Executor`], paces their
/// start gates on this thread, then waits for every request to finish.
pub fn run_open_loop(kv: Arc<ShardedKv>, cfg: &OpenLoopConfig) -> OpenLoopReport {
    assert!(cfg.clients > 0, "need at least one client");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Pre-draw the whole experiment: arrival offsets (relative to the
    // run base), keys and ops. Nothing on the hot path samples.
    let mut arrivals = ArrivalGen::new(cfg.process, cfg.rate_per_sec);
    let mut offsets = Vec::with_capacity(cfg.clients);
    let mut t = 0u64;
    for _ in 0..cfg.clients {
        t = t.saturating_add(arrivals.next_gap_ns(&mut rng));
        offsets.push(t);
    }
    let dist = match cfg.theta {
        Some(theta) => KeyDist::Zipfian(Zipfian::new(kv.keyspace(), theta)),
        None => KeyDist::Uniform { n: kv.keyspace() },
    };
    let mix = Mix::new(cfg.read_fraction);
    let script: Vec<_> = (0..cfg.clients)
        .map(|_| draw_request(&dist, &mix, &mut rng))
        .collect();

    let exec = Executor::new(cfg.workers);
    let latencies: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.clients).map(|_| AtomicU64::new(u64::MAX)).collect());
    let done = Arc::new(AtomicU64::new(0));
    let gates: Vec<Arc<Gate>> = (0..cfg.clients).map(|_| Gate::new()).collect();

    // Base instant far enough out that spawning finishes first; pacer
    // lag beyond it is charged to the requests, never hidden.
    let base = now_ns().saturating_add(spawn_headroom_ns(cfg.clients));
    for (i, req) in script.into_iter().enumerate() {
        let scheduled = base.saturating_add(offsets[i]);
        let deadline = cfg.slo_ns.map(|slo| scheduled.saturating_add(slo));
        let gate = GateWait(gates[i].clone());
        let kv = kv.clone();
        let latencies = latencies.clone();
        let done = done.clone();
        // Detached (handle dropped): completion is tracked by the
        // counter, and the executor owns (and on drop would cancel)
        // the task.
        drop(exec.spawn(async move {
            gate.await;
            kv.request(req.op, req.key, deadline).await;
            latencies[i].store(now_ns().saturating_sub(scheduled), Ordering::Relaxed);
            done.fetch_add(1, Ordering::Release);
        }));
    }

    // Pace the gates on this thread. Offsets are sorted by
    // construction, so this is a single in-order walk.
    for (i, &off) in offsets.iter().enumerate() {
        pace_until(base.saturating_add(off));
        gates[i].release();
    }

    let clients = cfg.clients as u64;
    while done.load(Ordering::Acquire) < clients {
        nanosleep_ns(200_000);
    }
    let elapsed_ns = now_ns().saturating_sub(base);
    let stats = exec.stats();
    drop(exec);

    let latencies_ns: Vec<u64> = latencies
        .iter()
        .map(|l| l.load(Ordering::Relaxed))
        .collect();
    debug_assert!(latencies_ns.iter().all(|&l| l != u64::MAX));
    OpenLoopReport {
        completed: clients,
        elapsed_ns,
        throughput: clients as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        latencies_ns,
        exec: stats,
    }
}

/// How far in the future to place the first arrival: enough to spawn
/// the client population before its gates come due.
fn spawn_headroom_ns(clients: usize) -> u64 {
    // ~1µs per spawned task, floor 10ms.
    (clients as u64).saturating_mul(1_000).max(10_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvConfig;
    use asl_locks::AsyncPolicy;

    fn small_cfg() -> OpenLoopConfig {
        OpenLoopConfig {
            clients: 2_000,
            rate_per_sec: 2_000_000.0,
            workers: 2,
            ..OpenLoopConfig::default()
        }
    }

    fn run(policy: AsyncPolicy, cfg: &OpenLoopConfig) -> OpenLoopReport {
        let kv = Arc::new(ShardedKv::new(KvConfig {
            shards: 4,
            policy,
            cs_units: 1,
            ..KvConfig::default()
        }));
        kv.prefill(2);
        run_open_loop(kv, cfg)
    }

    #[test]
    fn every_client_completes_and_is_measured() {
        let cfg = small_cfg();
        let r = run(AsyncPolicy::Slo { slo_ns: 100_000 }, &cfg);
        assert_eq!(r.completed, 2_000);
        assert_eq!(r.latencies_ns.len(), 2_000);
        assert!(r.latencies_ns.iter().all(|&l| l != u64::MAX));
        assert!(r.throughput > 0.0);
        assert!(r.elapsed_ns > 0);
    }

    #[test]
    fn fifo_policy_also_drains() {
        let cfg = OpenLoopConfig {
            process: ArrivalProcess::Burst { burst: 32 },
            slo_ns: None,
            ..small_cfg()
        };
        let r = run(AsyncPolicy::Fifo, &cfg);
        assert_eq!(r.completed, 2_000);
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let cfg = small_cfg();
        let mut rng_a = SmallRng::seed_from_u64(cfg.seed);
        let mut rng_b = SmallRng::seed_from_u64(cfg.seed);
        let mut gen_a = ArrivalGen::new(cfg.process, cfg.rate_per_sec);
        let mut gen_b = ArrivalGen::new(cfg.process, cfg.rate_per_sec);
        for _ in 0..1_000 {
            assert_eq!(gen_a.next_gap_ns(&mut rng_a), gen_b.next_gap_ns(&mut rng_b));
        }
    }
}
