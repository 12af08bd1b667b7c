//! `overhead` — uncontended acquire+release latency across access
//! layers.
//!
//! Uncontended / light-contention latency is where lock designs win
//! or lose (Fissile Locks; the scalability-collapse literature), yet
//! the repo's bench trajectory had throughput figures only. This
//! figure anchors the *latency* trajectory: for every lock in the
//! registry it measures single-threaded acquire+release ns/op through
//! each access layer the workspace offers —
//!
//! * **static** — the concrete lock type behind an RAII
//!   [`Guard`] (monomorphized, no vtable; an rwlock's exclusive side);
//! * **dyn** — the same lock behind [`LockSpec::make_dyn`]'s
//!   `Arc<dyn PlainLock>` facade (one virtual call + token
//!   encode/decode per op), which is what the harness and the
//!   database engines use;
//! * **instr-off** — the `instrumented-<name>` spec with profiling
//!   *off*: the telemetry wrapper must fast-exit before any counter
//!   RMW, so this column is expected to sit within noise (single-digit
//!   ns) of `dyn`;
//! * **instr-on** — the same spec with profiling *on* (counts +
//!   hold/wait sampling), which pays the documented clock-read cost.
//!
//! `repro overhead --out DIR` additionally emits
//! `DIR/BENCH_overhead.json` with one `lock@layer=<layer>` record per
//! cell, giving CI a machine-readable per-PR latency baseline.

use asl_locks::api::Guard;
use asl_locks::plain::{PlainLock, RwTokenWords, TokenWords};
use asl_locks::telemetry::{self, Instrumented};
use asl_locks::{RawLock, RawRwLock};
use asl_runtime::clock::{self, now_ns};

use super::Profile;
use crate::locks::{registry, LockSink, LockSpec};
use crate::report::{host_clock_note, Table};

/// The access layers measured, in column order (also the `@layer=`
/// suffixes in `BENCH_overhead.json`).
pub const LAYERS: [&str; 4] = ["static", "dyn", "instr-off", "instr-on"];

/// One prepared measurement leg: warmed up at build time, each call
/// runs one timed batch and returns its mean ns/op.
type Leg = Box<dyn FnMut() -> f64>;

/// Single-threaded latency meter: batches of `iters` operations,
/// best-of-`reps` (minimum filters scheduler preemption noise, which
/// dominates p50 on an oversubscribed 1-CPU host).
///
/// The four layers of one row are measured as *interleaved* batches
/// (rep 0 of every layer, then rep 1, ...), not as four back-to-back
/// `reps`-batch blocks. Periodic host activity — daemon wakeups,
/// timer beats — lasts longer than one layer's block of adjacent
/// batches, so with block measurement it poisons every rep of
/// whichever layer it lands on, and because the sweep's timing is
/// deterministic it lands on the *same* cell run after run,
/// masquerading as a per-lock regression. Interleaving spreads one
/// layer's reps across the whole row's wall time; a burst now costs
/// at most one rep per layer and the minimum stays clean.
pub(crate) struct Meter {
    iters: u64,
    reps: u32,
}

impl Meter {
    pub(crate) fn from_profile(profile: &Profile) -> Self {
        Meter {
            // ~250 ops per configured millisecond keeps quick mode
            // under a second per layer sweep and full mode steady.
            iters: (profile.duration_ms * 250).clamp(2_000, 200_000),
            reps: if profile.duration_ms < 300 { 3 } else { 5 },
        }
    }

    /// Prepare a leg around `op`: warm up now (fault in nodes,
    /// trainers, branch caches), time one batch per call.
    fn leg(&self, mut op: impl FnMut() + 'static) -> Leg {
        for _ in 0..self.iters / 4 {
            op();
        }
        let iters = self.iters;
        Box::new(move || {
            let t0 = now_ns();
            for _ in 0..iters {
                op();
            }
            let dt = now_ns().saturating_sub(t0).max(1);
            dt as f64 / iters as f64
        })
    }

    /// Statically dispatched guard round-trip on a concrete
    /// [`RawLock`], optionally under a static [`Instrumented`] wrap.
    fn raw<L: RawLock + 'static>(&self, lock: L, instr: bool) -> Leg {
        if instr {
            let lock = Instrumented::new(lock);
            self.leg(move || {
                let _g = Guard::new(&lock);
            })
        } else {
            self.leg(move || {
                let _g = Guard::new(&lock);
            })
        }
    }

    /// Concrete [`PlainLock`] round-trip (for the one lock type that
    /// exists only behind the plain facade, the delegation bridge).
    fn plain<P: PlainLock + 'static>(&self, lock: P) -> Leg {
        self.leg(move || {
            let t = lock.acquire();
            lock.release(t);
        })
    }

    /// Dynamically dispatched guard round-trip through a built spec.
    ///
    /// One lock object is built per rep, all alive together, and each
    /// batch measures a different one. Where the allocator happens to
    /// place one lock/cell/wrapper graph deep into a sweep can alias
    /// its hot lines (a steady several-ns/op penalty), and freed
    /// blocks are reused most-recent-first, so rebuilding at the same
    /// point reproduces the same unlucky placement — only objects
    /// *concurrently* alive are forced onto distinct addresses. The
    /// best-of-reps minimum then discards pathological placements
    /// along with timing noise.
    fn dyn_spec(&self, spec: &LockSpec) -> Leg {
        let locks: Vec<_> = (0..self.reps).map(|_| spec.make_dyn()).collect();
        for lock in &locks {
            for _ in 0..self.iters / 8 {
                let _g = lock.lock();
            }
        }
        let iters = self.iters;
        let mut idx = 0usize;
        Box::new(move || {
            let lock = &locks[idx % locks.len()];
            idx += 1;
            let t0 = now_ns();
            for _ in 0..iters {
                let _g = lock.lock();
            }
            let dt = now_ns().saturating_sub(t0).max(1);
            dt as f64 / iters as f64
        })
    }
}

/// The statically dispatched leg as a sink of the registry's
/// constructor walk ([`LockSpec::build`]): whatever concrete lock a
/// spec builds is measured monomorphized, with no vtable, an rwlock
/// on its exclusive side. `instr` wraps it in a static
/// [`Instrumented`] (how `instrumented-<name>` registry entries are
/// measured at this layer; nesting beyond one wrap measures as one).
/// The delegation bridge, which exists only behind the plain facade,
/// is measured through its concrete, non-virtual `PlainLock` impl and
/// has no static-instrumented combination; a `gcr-<name>` entry's
/// static layer is the concrete `Gcr` over the erased inner lock (the
/// gate cost is what it adds; the inner dispatch is what `dyn_ns`
/// measures).
struct StaticLeg<'a> {
    m: &'a Meter,
    instr: bool,
}

impl LockSink for StaticLeg<'_> {
    type Out = Leg;

    fn raw<L>(self, lock: L) -> Leg
    where
        L: RawLock + 'static,
        L::Token: TokenWords,
    {
        self.m.raw(lock, self.instr)
    }

    /// An rwlock is measured on its exclusive side, what exclusive
    /// call sites pay.
    fn rw<L>(self, lock: L) -> Leg
    where
        L: RawRwLock + 'static,
        L::Token: TokenWords,
        L::ReadToken: RwTokenWords,
    {
        self.m.raw(lock, self.instr)
    }

    fn plain<P: PlainLock + 'static>(self, lock: P) -> Leg {
        self.m.plain(lock)
    }

    fn instrumented(self, _label: &str, inner: &LockSpec) -> Leg {
        inner.build(StaticLeg {
            instr: true,
            ..self
        })
    }
}

/// Prepare `spec`'s statically dispatched leg.
fn static_leg(spec: &LockSpec, m: &Meter) -> Leg {
    spec.build(StaticLeg { m, instr: false })
}

/// Build the overhead table for an explicit spec list (unit tests use
/// a short list; the figure driver passes the whole registry).
pub(crate) fn overhead_table(m: &Meter, specs: &[LockSpec]) -> Table {
    // The instr-on, `gcr-` and `libasl-` cells contain clock reads, and
    // a young process serves them from the fallback clock at twice the
    // price: every row is measured on the clock the header names.
    clock::settle();
    let mut t = Table::new(
        "overhead",
        &format!(
            "uncontended acquire+release latency (ns/op, 1 thread) per access layer; {}",
            host_clock_note()
        ),
        &[
            "lock",
            "static_ns",
            "dyn_ns",
            "instr_off_ns",
            "instr_on_ns",
            "instr_off_delta_ns",
        ],
    );
    // The instrumentation layers are the *column* axis: each layer is
    // measured with the global telemetry gates forced to its own
    // state, then the caller's state is restored.
    let was_profiling = telemetry::profiling();
    let was_recording = telemetry::recording();
    let registry_mark = telemetry::registered_len();
    for spec in specs {
        telemetry::set_profiling(false);
        let mut stat_leg = static_leg(spec, m);
        let mut dyn_leg = m.dyn_spec(spec);
        // Already-instrumented registry entries are measured as
        // themselves, not re-wrapped — a nested
        // Instrumented(Instrumented(..)) would pay two cells and make
        // that row incomparable to the rest of the baseline.
        let ispec = if matches!(spec, LockSpec::Instrumented(_)) {
            spec.clone()
        } else {
            LockSpec::Instrumented(Box::new(spec.clone()))
        };
        let mut off_leg = m.dyn_spec(&ispec);
        // The instr-on leg builds (and warms up) under profiling so
        // its trained state matches its measured state.
        telemetry::set_profiling(true);
        let mut on_leg = m.dyn_spec(&ispec);
        telemetry::set_profiling(false);
        // Interleave the layers' batches (see [`Meter`]): each rep
        // cycle measures one batch of every layer.
        let mut best = [f64::INFINITY; 4];
        for _ in 0..m.reps {
            best[0] = best[0].min(stat_leg());
            best[1] = best[1].min(dyn_leg());
            best[2] = best[2].min(off_leg());
            telemetry::set_profiling(true);
            best[3] = best[3].min(on_leg());
            telemetry::set_profiling(false);
        }
        let [stat, dy, off, on] = best;

        let label = spec.label();
        for (layer, ns) in LAYERS.iter().zip([stat, dy, off, on]) {
            // ops/s keeps BENCH_overhead.json schema-compatible with
            // the throughput figures; ns/op = 1e9 / ops_per_sec.
            t.push_sample(&format!("{label}@layer={layer}"), 1, 1e9 / ns.max(1e-9));
        }
        t.push_row(vec![
            label,
            format!("{stat:.1}"),
            format!("{dy:.1}"),
            format!("{off:.1}"),
            format!("{on:.1}"),
            format!("{:+.1}", off - dy),
        ]);
    }
    // The instrumented legs registered cells in the process-wide
    // telemetry registry, and what those cells hold is this figure's
    // own measurement-loop counts — not workload telemetry. Drop
    // exactly those (scoped truncate, not a wholesale clear — foreign
    // cells registered before this figure stay reported) so the
    // per-figure profile epilogue doesn't print a spurious stats
    // table; the latency table above is the deliverable.
    telemetry::truncate_registered(registry_mark);
    telemetry::set_profiling(was_profiling);
    telemetry::set_recording(was_recording);
    t.note("single-threaded, best-of-reps batch means; instr_off_delta = instr-off minus dyn (target: within noise)");
    t.note("layers: static guard / dyn facade / instrumented-<name> with profiling off / with profiling on");
    t
}

/// Figure driver: the full registry sweep.
pub fn overhead(profile: &Profile) -> Vec<Table> {
    let m = Meter::from_profile(profile);
    let specs: Vec<LockSpec> = registry().iter().map(|e| e.spec.clone()).collect();
    vec![overhead_table(&m, &specs)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Meter {
        Meter {
            iters: 500,
            reps: 2,
        }
    }

    #[test]
    fn covers_every_layer_for_each_spec() {
        let _gate = crate::telemetry_test_lock();
        let specs = vec![LockSpec::Mcs, LockSpec::Adaptive];
        let t = overhead_table(&tiny(), &specs);
        assert_eq!(t.rows.len(), specs.len());
        assert_eq!(t.samples.len(), specs.len() * LAYERS.len());
        for spec in &specs {
            for layer in LAYERS {
                let key = format!("{spec}@layer={layer}");
                assert!(
                    t.samples.iter().any(|s| s.lock == key && s.threads == 1),
                    "missing sample {key}"
                );
            }
        }
        // All measurements are positive, finite latencies.
        for s in &t.samples {
            assert!(s.ops_per_sec.is_finite() && s.ops_per_sec > 0.0);
        }
    }

    #[test]
    fn restores_telemetry_gates() {
        // Under the shared gate lock: other tests in this binary arm
        // the same process-wide flags.
        let _gate = crate::telemetry_test_lock();
        telemetry::set_profiling(false);
        let _ = overhead_table(&tiny(), &[LockSpec::Ticket]);
        assert!(!telemetry::profiling(), "figure must restore profiling");
        assert!(!telemetry::recording(), "figure must restore recording");
        assert!(
            !telemetry::snapshots()
                .iter()
                .any(|(l, _)| l.contains("instrumented-ticket")),
            "figure must drop its measurement cells from the registry"
        );
    }

    #[test]
    fn static_layer_handles_every_registry_family() {
        // The static sink must measure every catalogued spec (a gap
        // here silently drops a lock from the baseline).
        let m = tiny();
        for entry in registry() {
            let ns = static_leg(&entry.spec, &m)();
            assert!(
                ns.is_finite() && ns > 0.0,
                "{}: bad static ns {ns}",
                entry.spec
            );
        }
    }
}
