//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablate_backoff` — probing on every standby poll (`SpinWait`)
//!   vs the paper's binary-exponential back-off (Algorithm 1), kept
//!   here as a bench-local policy so the departure stays measurable.
//! * `ablate_fifo` — which FIFO lock sits under the reorderable
//!   layer (MCS vs CLH vs ticket).
//! * `ablate_dispatch` — big cores locking immediately (Algorithm 3)
//!   vs big cores also going through the standby path.
//! * `ablate_policy` — ordering policies inside the ShflLock-style
//!   shuffle framework (FIFO vs class-local vs prefer-big vs
//!   proportional) under one queue mechanism.

use std::sync::Arc;
use std::time::Duration;

use asl_core::wait::WaitOutcome;
use asl_core::{ReorderableLock, SpinWait, WaitPolicy};
use asl_harness::locks::LockSpec;
use asl_harness::runner::run_until_ops;
use asl_harness::scenario::{worker_rng, MicroScenario};
use asl_locks::plain::{PlainLock, PlainToken};
use asl_locks::{ClhLock, McsLock, RawLock, TicketLock};
use asl_runtime::clock::{coarse_now_ns, coarse_resync};
use asl_runtime::registry::is_big_core;
use asl_runtime::{CacheLineArena, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// LibASL-MAX-style lock over an arbitrary reorderable configuration.
struct MaxWindowLock<L: RawLock, W: WaitPolicy> {
    inner: ReorderableLock<L, W>,
    window_ns: u64,
    /// When true, big cores also go through the standby path
    /// (dispatch ablation).
    all_standby: bool,
}

impl<L: RawLock, W: WaitPolicy> MaxWindowLock<L, W> {
    fn new(lock: L, waiter: W, window_ns: u64, all_standby: bool) -> Self {
        MaxWindowLock {
            inner: ReorderableLock::with_waiter(lock, waiter),
            window_ns,
            all_standby,
        }
    }
}

impl<L: RawLock<Token = ()>, W: WaitPolicy> PlainLock for MaxWindowLock<L, W> {
    fn acquire(&self) -> PlainToken {
        if !self.all_standby && is_big_core() {
            self.inner.lock_immediately();
        } else {
            self.inner.lock_reorder(self.window_ns);
        }
        PlainToken::unit(self)
    }
    fn try_acquire(&self) -> Option<PlainToken> {
        self.inner.try_lock().map(|_| PlainToken::unit(self))
    }
    fn release(&self, t: PlainToken) {
        t.redeem(self);
        self.inner.unlock(());
    }
    fn held(&self) -> bool {
        self.inner.is_locked()
    }
    fn lock_name(&self) -> &'static str {
        "ablation"
    }
}

/// MCS variant with unit token (wraps the token in TLS-free fashion
/// is not possible, so use ticket for unit-token ablations and a
/// dedicated impl for MCS/CLH below).
struct MaxWindowQueueLock<L: RawLock, W: WaitPolicy> {
    inner: ReorderableLock<L, W>,
    window_ns: u64,
    all_standby: bool,
}

macro_rules! impl_queue_max {
    ($lock:ty, $to:expr, $from:expr) => {
        impl<W: WaitPolicy> PlainLock for MaxWindowQueueLock<$lock, W> {
            fn acquire(&self) -> PlainToken {
                let tok = if !self.all_standby && is_big_core() {
                    self.inner.lock_immediately()
                } else {
                    self.inner.lock_reorder(self.window_ns)
                };
                #[allow(clippy::redundant_closure_call)]
                PlainToken::issue(self, ($to)(tok), 0)
            }
            fn try_acquire(&self) -> Option<PlainToken> {
                #[allow(clippy::redundant_closure_call)]
                self.inner
                    .try_lock()
                    .map(|t| PlainToken::issue(self, ($to)(t), 0))
            }
            fn release(&self, t: PlainToken) {
                let (raw, _) = t.redeem(self);
                #[allow(clippy::redundant_closure_call)]
                self.inner.unlock(($from)(raw));
            }
            fn held(&self) -> bool {
                self.inner.is_locked()
            }
            fn lock_name(&self) -> &'static str {
                "ablation-queue"
            }
        }
    };
}

impl_queue_max!(
    McsLock,
    |t: asl_locks::mcs::McsToken| t.into_raw(),
    |raw: usize| unsafe { asl_locks::mcs::McsToken::from_raw(raw) }
);

fn scenario_with(lock: Arc<dyn PlainLock>) -> MicroScenario {
    MicroScenario {
        locks: vec![asl_locks::api::DynLock::new(lock)],
        arena: Arc::new(CacheLineArena::new(16)),
        sections: vec![asl_harness::scenario::CsSpec {
            lock_idx: 0,
            lines: 16,
        }],
        cs_units_per_line: asl_harness::scenario::CS_UNITS_PER_LINE,
        ncs_units: 800,
        length: asl_harness::scenario::LengthModel::Fixed,
        epoch_slo: None,
    }
}

fn run_point(c: &mut Criterion, group: &str, label: &str, make: impl Fn() -> Arc<dyn PlainLock>) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
        .throughput(Throughput::Elements(1));
    let topo = Topology::apple_m1();
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter_custom(|iters| {
            let scenario = scenario_with(make());
            run_until_ops(
                &topo,
                8,
                iters.max(8),
                |ctx| worker_rng(ctx.index),
                |_, rng| scenario.run_op(rng),
            )
        });
    });
    g.finish();
}

const WINDOW: u64 = 100_000_000;

/// Paper Algorithm 1's standby loop: probe at polls 1, 2, 4, 8, …,
/// so the time a free lock goes unnoticed doubles with the time
/// already waited. `asl_core::SpinWait` probes on every poll instead
/// (see `asl_core::wait`).
struct ExponentialProbeWait;

impl WaitPolicy for ExponentialProbeWait {
    fn standby_wait(&self, deadline_ns: u64, is_free: &dyn Fn() -> bool) -> WaitOutcome {
        let mut next_probe = 1u64;
        let mut spin = asl_runtime::relax::Spin::new();
        for poll in 1u64.. {
            // `SpinWait`'s multi-CPU host cadence: every 16th poll.
            if poll % 16 == 1 && coarse_now_ns() >= deadline_ns {
                break;
            }
            if poll == next_probe {
                if is_free() {
                    return WaitOutcome::ObservedFree;
                }
                next_probe <<= 1;
            }
            if spin.relax() {
                coarse_resync();
            }
        }
        WaitOutcome::WindowExpired
    }
}

fn ablate_backoff(c: &mut Criterion) {
    fn max_window<W: WaitPolicy>(waiter: W) -> Arc<dyn PlainLock> {
        Arc::new(MaxWindowQueueLock {
            inner: ReorderableLock::with_waiter(McsLock::new(), waiter),
            window_ns: WINDOW,
            all_standby: false,
        })
    }
    run_point(c, "ablate_backoff", "every-poll", || max_window(SpinWait));
    run_point(c, "ablate_backoff", "exponential (paper)", || {
        max_window(ExponentialProbeWait)
    });
}

fn ablate_fifo(c: &mut Criterion) {
    run_point(c, "ablate_fifo", "mcs", || {
        Arc::new(MaxWindowQueueLock {
            inner: ReorderableLock::with_waiter(McsLock::new(), SpinWait),
            window_ns: WINDOW,
            all_standby: false,
        })
    });
    run_point(c, "ablate_fifo", "ticket", || {
        Arc::new(MaxWindowLock::new(
            TicketLock::new(),
            SpinWait,
            WINDOW,
            false,
        ))
    });
    run_point(c, "ablate_fifo", "clh", || {
        // CLH tokens are two words; reuse the generic StaticWindowLock
        // path via a thin adapter.
        struct ClhMax(ReorderableLock<ClhLock, SpinWait>);
        impl PlainLock for ClhMax {
            fn acquire(&self) -> PlainToken {
                let tok = if is_big_core() {
                    self.0.lock_immediately()
                } else {
                    self.0.lock_reorder(WINDOW)
                };
                let (a, b) = tok.into_raw();
                PlainToken::issue(self, a, b)
            }
            fn try_acquire(&self) -> Option<PlainToken> {
                self.0.try_lock().map(|t| {
                    let (a, b) = t.into_raw();
                    PlainToken::issue(self, a, b)
                })
            }
            fn release(&self, t: PlainToken) {
                let (a, b) = t.redeem(self);
                self.0
                    .unlock(unsafe { asl_locks::clh::ClhToken::from_raw(a, b) });
            }
            fn held(&self) -> bool {
                self.0.is_locked()
            }
            fn lock_name(&self) -> &'static str {
                "clh-max"
            }
        }
        Arc::new(ClhMax(ReorderableLock::with_waiter(
            ClhLock::new(),
            SpinWait,
        )))
    });
}

fn ablate_dispatch(c: &mut Criterion) {
    run_point(c, "ablate_dispatch", "big-immediate (paper)", || {
        Arc::new(MaxWindowQueueLock {
            inner: ReorderableLock::with_waiter(McsLock::new(), SpinWait),
            window_ns: WINDOW,
            all_standby: false,
        })
    });
    run_point(c, "ablate_dispatch", "all-standby", || {
        Arc::new(MaxWindowQueueLock {
            inner: ReorderableLock::with_waiter(McsLock::new(), SpinWait),
            window_ns: WINDOW,
            all_standby: true,
        })
    });
    // FIFO reference.
    run_point(c, "ablate_dispatch", "plain-mcs", || {
        LockSpec::Mcs.make_lock()
    });
}

fn ablate_policy(c: &mut Criterion) {
    use asl_locks::shuffle::{
        ClassLocalPolicy, FifoPolicy, PreferBigPolicy, ProportionalPolicy, ShuffleLock,
    };
    run_point(c, "ablate_policy", "fifo", || {
        Arc::new(ShuffleLock::new(FifoPolicy))
    });
    run_point(c, "ablate_policy", "class-local", || {
        Arc::new(ShuffleLock::new(ClassLocalPolicy::new(16)))
    });
    run_point(c, "ablate_policy", "prefer-big", || {
        Arc::new(ShuffleLock::new(PreferBigPolicy::new(16)))
    });
    run_point(c, "ablate_policy", "proportional-10", || {
        Arc::new(ShuffleLock::new(ProportionalPolicy::new(10)))
    });
}

criterion_group!(
    benches,
    ablate_backoff,
    ablate_fifo,
    ablate_dispatch,
    ablate_policy
);
criterion_main!(benches);
