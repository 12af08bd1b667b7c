//! Runtime lock selection for experiments: the string-addressable
//! lock registry.
//!
//! A [`LockSpec`] names one competitor from the paper's evaluation —
//! a baseline (`pthread`, TAS, ticket, MCS, SHFL-PB10) or a LibASL
//! configuration (`LibASL-X` = SLO X, `LibASL-MAX` = maximum window,
//! `LibASL-OPT` = static window, blocking variants, alternative FIFO
//! substrates) — or one of the reader-writer substrates (`rw-ticket`,
//! `bravo-<inner>`, `libasl-rw-<slo>`): [`LockSpec::make_rw_lock`]
//! materializes *any* spec at rw call sites (exclusive specs
//! degenerate shared mode to an exclusive acquisition) and
//! [`LockSpec::make_lock`] materializes rw specs at exclusive call
//! sites (every acquisition takes the write side). Every spec
//! round-trips through its printed name:
//! [`LockSpec`] implements both `Display` and `FromStr`, and
//! `spec.to_string().parse()` is the identity. [`registry`] enumerates
//! every catalogued spec with a one-line description (the `repro locks`
//! CLI listing), and [`LockSpec::make_dyn`] materializes a spec into a
//! guard-based [`DynLock`].
//!
//! ```
//! use asl_harness::locks::LockSpec;
//!
//! let spec: LockSpec = "libasl-70us".parse().unwrap();
//! assert_eq!(spec.to_string(), "libasl-70us");
//!
//! let lock = spec.make_dyn();
//! {
//!     let _held = lock.lock();     // RAII guard, released on drop
//!     assert!(lock.is_locked());
//! }
//! assert!(!lock.is_locked());
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use asl_core::{AslBlockingLock, AslLock, AslRwLock, AslSpinLock, ReorderableLock, SpinWait};
use asl_locks::api::{DynLock, DynRwLock};
use asl_locks::mcs::McsToken;
use asl_locks::plain::{ExclusiveRw, PlainLock, PlainRwLock, RwTokenWords, TokenWords, WriteHalf};
use asl_locks::shuffle::{ClassLocalPolicy, FifoPolicy, ShuffleLock};
use asl_locks::telemetry;
use asl_locks::{
    bridge_apply, Adaptive, AsyncPolicy, Bravo, CcSynch, ClhLock, CnaLock, CohortLock,
    DelegatedMutex, FcBan, FlatCombiner, Gcr, MalthusianLock, McsLock, McsStpLock,
    ProportionalLock, PthreadMutex, RawLock, RawRwLock, RclLock, RwTicketLock, TasLock, TicketLock,
};
use asl_runtime::registry::is_big_core;
use asl_runtime::AtomicAffinity;

/// FIFO substrate under the LibASL dispatch layer (one type parameter
/// at the `AslLock` level, one name fragment here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AslSubstrate {
    /// MCS queue lock — the paper's default.
    Mcs,
    /// CLH queue lock.
    Clh,
    /// Ticket lock.
    Ticket,
    /// Shuffle framework in pass-through (FIFO) mode.
    ShflFifo,
}

impl AslSubstrate {
    /// Name fragment between `libasl-` and the SLO (`""` for the
    /// default MCS substrate).
    fn tag(&self) -> &'static str {
        match self {
            AslSubstrate::Mcs => "",
            AslSubstrate::Clh => "clh-",
            AslSubstrate::Ticket => "ticket-",
            AslSubstrate::ShflFifo => "shfl-",
        }
    }
}

/// Exclusive substrate under the BRAVO reader-bias wrapper (the
/// `Bravo<L>` type upgrades *any* [`asl_locks::RawLock`]; the registry
/// catalogues these members, mirroring [`AslSubstrate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BravoInner {
    /// Test-and-set spinlock (the BRAVO paper's own base case).
    Tas,
    /// FIFO ticket lock.
    Ticket,
    /// FIFO MCS queue lock.
    Mcs,
    /// CLH queue lock.
    Clh,
    /// LibASL (max window): SLO-aware writer reordering under reader
    /// bias.
    Asl,
}

impl BravoInner {
    /// Name fragment after `bravo-`.
    fn tag(&self) -> &'static str {
        match self {
            BravoInner::Tas => "tas",
            BravoInner::Ticket => "ticket",
            BravoInner::Mcs => "mcs",
            BravoInner::Clh => "clh",
            BravoInner::Asl => "libasl",
        }
    }
}

/// Which lock to run an experiment under.
#[derive(Debug, Clone, PartialEq)]
pub enum LockSpec {
    /// glibc-style blocking mutex.
    Pthread,
    /// Test-and-set spinlock with an affinity model.
    Tas(AtomicAffinity),
    /// FIFO ticket lock.
    Ticket,
    /// FIFO MCS lock.
    Mcs,
    /// Spin-then-park MCS (blocking FIFO).
    McsStp,
    /// Proportional two-queue lock, `N` big grants per little grant.
    ShflPb(u32),
    /// Compact NUMA-aware lock on core classes (§2.2 comparator).
    Cna,
    /// Cohort lock (C-BO-MCS) on core classes (§2.2 comparator).
    Cohort,
    /// Malthusian MCS (culling + reintroduction, §2.2 comparator);
    /// `Some(n)` reintroduces a culled waiter every `n` handovers,
    /// `None` keeps the lock's default period.
    Malthusian(Option<u32>),
    /// ShflLock framework with the NUMA-local-analog class policy.
    ShuffleClassLocal {
        /// Consecutive out-of-order grants before forcing FIFO.
        max_skips: u32,
    },
    /// LibASL with an SLO-annotated epoch (`None` = no epoch =
    /// LibASL-MAX, maximum reordering) over a chosen FIFO substrate.
    Asl {
        /// FIFO lock under the reorderable layer (MCS by default).
        substrate: AslSubstrate,
        /// Epoch SLO in ns; `None` disables epochs (max window).
        slo_ns: Option<u64>,
    },
    /// LibASL-OPT: static reorder window, no feedback.
    AslOpt {
        /// The fixed window (ns).
        window_ns: u64,
    },
    /// Blocking LibASL (pthread mutex + nanosleep standby).
    AslBlocking {
        /// Epoch SLO in ns; `None` = max window.
        slo_ns: Option<u64>,
    },
    /// Phase-fair ticket reader-writer lock.
    RwTicket,
    /// BRAVO reader-bias wrapper over an exclusive substrate.
    BravoRw(BravoInner),
    /// Reader-writer LibASL: reacquisition-based reader batching over
    /// the reorderable MCS writer substrate.
    AslRw {
        /// Epoch SLO in ns; `None` disables epochs (max window).
        slo_ns: Option<u64>,
    },
    /// Contention-adaptive lock: TAS that morphs to a FIFO queue
    /// under sustained contention (Fissile-style). A bare lock, as
    /// `ticket` and `mcs` are; restricted, it is `gcr-adaptive`.
    Adaptive,
    /// Flat-combining delegation behind the generic bridge (§5).
    Flatcomb,
    /// CC-Synch combining queue behind the generic bridge (§5).
    CcSynch,
    /// RCL-style server lock behind the generic bridge; constructing
    /// the spec spawns (and owns) the server thread.
    Rcl,
    /// Usage-fair banning combiner behind the generic bridge.
    FcBan,
    /// Telemetry-recording wrapper over any other spec
    /// (`instrumented-<name>`): acquisitions land in the process-wide
    /// telemetry registry under the spec's label.
    Instrumented(Box<LockSpec>),
    /// Concurrency-restriction wrapper over any other spec
    /// (`gcr-<name>`): admission control bounds how many threads
    /// compete inside the inner lock; the rest park passively.
    Gcr(Box<LockSpec>),
}

impl LockSpec {
    /// LibASL over the default MCS substrate (`None` = max window).
    pub fn asl(slo_ns: Option<u64>) -> Self {
        Self::asl_on(AslSubstrate::Mcs, slo_ns)
    }

    /// LibASL over an explicit FIFO substrate.
    pub fn asl_on(substrate: AslSubstrate, slo_ns: Option<u64>) -> Self {
        LockSpec::Asl { substrate, slo_ns }
    }

    /// Registry-style label ("mcs", "libasl-50us", ...) — same as the
    /// `Display` form.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Whether the workload should wrap requests in an epoch, and the
    /// SLO to use.
    pub fn epoch_slo(&self) -> Option<u64> {
        match self {
            LockSpec::Asl { slo_ns, .. }
            | LockSpec::AslBlocking { slo_ns }
            | LockSpec::AslRw { slo_ns } => *slo_ns,
            LockSpec::Instrumented(inner) | LockSpec::Gcr(inner) => inner.epoch_slo(),
            _ => None,
        }
    }

    /// The async wait-queue policy this spec maps to when it guards a
    /// KV-service shard: the LibASL family becomes the SLO-aware
    /// deadline-ordered queue (a missing SLO — `libasl-max` — means an
    /// unbounded reorder window, i.e. pure earliest-deadline-first),
    /// every thread-oriented spec degenerates to FIFO handoff, the
    /// async analogue of an MCS queue.
    pub fn async_policy(&self) -> AsyncPolicy {
        match self {
            LockSpec::Asl { slo_ns, .. }
            | LockSpec::AslBlocking { slo_ns }
            | LockSpec::AslRw { slo_ns } => AsyncPolicy::Slo {
                slo_ns: slo_ns.unwrap_or(u64::MAX),
            },
            LockSpec::Instrumented(inner) | LockSpec::Gcr(inner) => inner.async_policy(),
            _ => AsyncPolicy::Fifo,
        }
    }

    /// Whether this spec names a genuine reader-writer lock (shared
    /// acquisitions overlap). Exclusive specs still work at rw call
    /// sites through the [`ExclusiveRw`] degeneration.
    pub fn is_rw(&self) -> bool {
        match self {
            LockSpec::RwTicket | LockSpec::BravoRw(_) | LockSpec::AslRw { .. } => true,
            LockSpec::Instrumented(inner) => inner.is_rw(),
            // A gcr-wrapped rw spec degenerates to exclusive: the
            // admission gate serializes entries, so shared overlap
            // behind it would be misleading — and the write-half
            // degeneration is exactly the collapse case GCR targets.
            _ => false,
        }
    }

    /// Build `n` independent guard-based lock handles for this spec.
    pub fn make_locks(&self, n: usize) -> Vec<DynLock> {
        (0..n).map(|_| self.make_dyn()).collect()
    }

    /// Build one guard-based lock handle.
    pub fn make_dyn(&self) -> DynLock {
        DynLock::new(self.make_lock())
    }

    /// Build one shared lock object (the token-level factory used by
    /// the engines' [`asl_dbsim::LockFactory`] plumbing; prefer
    /// [`LockSpec::make_dyn`] at call sites that lock directly).
    ///
    /// `instrumented-<name>` specs carry a telemetry wrapper that
    /// records while `asl_locks::telemetry::recording` (or profiling)
    /// is armed and fast-exits to a near-zero passthrough otherwise;
    /// every other spec is transparently instrumented (and filed in
    /// the process-wide registry under its label) while
    /// `asl_locks::telemetry::profiling` is on — the `repro
    /// --profile` mode.
    pub fn make_lock(&self) -> Arc<dyn PlainLock> {
        let raw = self.make_lock_raw();
        if matches!(self, LockSpec::Instrumented(_)) {
            raw // already recording
        } else {
            telemetry::maybe_instrument(&self.label(), raw)
        }
    }

    /// [`LockSpec::make_lock`] without any telemetry wrapping.
    pub fn make_lock_raw(&self) -> Arc<dyn PlainLock> {
        self.build(Erase { rw_site: false }).into_lock()
    }

    /// The one constructor walk: build this spec's concrete lock and
    /// hand it, still statically typed, to `sink`. Everything that
    /// materializes a spec derives from this match — the erased
    /// factories below and the overhead figure's monomorphised static
    /// leg — so a new registry row is one arm here.
    pub(crate) fn build<S: LockSink>(&self, sink: S) -> S::Out {
        match self {
            LockSpec::Pthread => sink.raw(PthreadMutex::new()),
            LockSpec::Tas(aff) => sink.raw(TasLock::with_affinity(*aff)),
            LockSpec::Ticket => sink.raw(TicketLock::new()),
            LockSpec::Mcs => sink.raw(McsLock::new()),
            LockSpec::McsStp => sink.raw(McsStpLock::new()),
            LockSpec::ShflPb(n) => sink.raw(ProportionalLock::new(*n)),
            LockSpec::Cna => sink.raw(CnaLock::new()),
            LockSpec::Cohort => sink.raw(CohortLock::new()),
            LockSpec::Malthusian(None) => sink.raw(MalthusianLock::new()),
            LockSpec::Malthusian(Some(p)) => sink.raw(MalthusianLock::with_period(*p)),
            LockSpec::ShuffleClassLocal { max_skips } => {
                sink.raw(ShuffleLock::new(ClassLocalPolicy::new(*max_skips)))
            }
            LockSpec::Asl { substrate, .. } => match substrate {
                AslSubstrate::Mcs => sink.raw(AslSpinLock::default()),
                AslSubstrate::Clh => sink.raw(AslLock::new(ClhLock::new())),
                AslSubstrate::Ticket => sink.raw(AslLock::new(TicketLock::new())),
                AslSubstrate::ShflFifo => sink.raw(AslLock::new(ShuffleLock::new(FifoPolicy))),
            },
            LockSpec::AslOpt { window_ns } => sink.raw(StaticWindowLock::new(*window_ns)),
            LockSpec::AslBlocking { .. } => sink.raw(AslBlockingLock::new_blocking()),
            LockSpec::Adaptive => sink.raw(Adaptive::new()),
            // Delegation locks behind the generic baton bridge: the
            // protected state is the baton word, ops are Lock/Unlock
            // transfers, and the bridge is itself the concrete
            // PlainLock impl. `bridge` owns the held-ness mirror and,
            // under --profile, passes the label the native
            // constructors register their `<label>.combine` (and
            // `.ban`) wait cells under.
            LockSpec::Flatcomb => sink.plain(DelegatedMutex::bridge("flatcomb", |held, label| {
                FlatCombiner::labelled(0u64, bridge_apply(held), label)
            })),
            LockSpec::CcSynch => sink.plain(DelegatedMutex::bridge("ccsynch", |held, label| {
                CcSynch::labelled(0u64, bridge_apply(held), label)
            })),
            LockSpec::Rcl => sink.plain(
                DelegatedMutex::bridge("rcl", |held, label| {
                    RclLock::labelled(0u64, bridge_apply(held), label)
                })
                .keep_alive(RclLock::start),
            ),
            LockSpec::FcBan => sink.plain(DelegatedMutex::bridge("fc-ban", |held, label| {
                FcBan::labelled(0u64, bridge_apply(held), label)
            })),
            LockSpec::Instrumented(inner) => sink.instrumented(&self.label(), inner),
            // The inner spec keeps its own telemetry/profiling
            // wrapping (under its own label); the gate goes outside
            // so passive parking is invisible to the inner lock.
            LockSpec::Gcr(inner) => sink.raw(Gcr::new(inner.make_dyn())),
            LockSpec::RwTicket => sink.rw(RwTicketLock::new()),
            LockSpec::BravoRw(inner) => match inner {
                BravoInner::Tas => sink.rw(Bravo::new(TasLock::new())),
                BravoInner::Ticket => sink.rw(Bravo::new(TicketLock::new())),
                BravoInner::Mcs => sink.rw(Bravo::new(McsLock::new())),
                BravoInner::Clh => sink.rw(Bravo::new(ClhLock::new())),
                BravoInner::Asl => sink.rw(Bravo::new(AslSpinLock::default())),
            },
            LockSpec::AslRw { .. } => sink.rw(AslRwLock::default()),
        }
    }

    /// Build one guard-based reader-writer lock handle.
    pub fn make_dyn_rw(&self) -> DynRwLock {
        DynRwLock::new(self.make_rw_lock())
    }

    /// Build one shared reader-writer lock object. Rw specs
    /// materialize their native rwlock; exclusive specs degenerate
    /// through [`ExclusiveRw`] (shared mode = exclusive acquisition),
    /// so every registry name works at rw call sites. Telemetry
    /// wrapping follows [`LockSpec::make_lock`].
    pub fn make_rw_lock(&self) -> Arc<dyn PlainRwLock> {
        let raw = self.make_rw_lock_raw();
        if matches!(self, LockSpec::Instrumented(_)) {
            raw // already recording
        } else {
            telemetry::maybe_instrument_rw(&self.label(), raw)
        }
    }

    /// [`LockSpec::make_rw_lock`] without any telemetry wrapping.
    pub fn make_rw_lock_raw(&self) -> Arc<dyn PlainRwLock> {
        self.build(Erase { rw_site: true }).into_rw()
    }
}

/// What [`LockSpec::build`] hands each concrete lock to, by the
/// interface the lock has.
pub(crate) trait LockSink: Sized {
    /// What the sink makes of a lock.
    type Out;

    /// An exclusive lock with the token interface.
    fn raw<L>(self, lock: L) -> Self::Out
    where
        L: RawLock + 'static,
        L::Token: TokenWords;

    /// A reader-writer lock.
    fn rw<L>(self, lock: L) -> Self::Out
    where
        L: RawRwLock + 'static,
        L::ReadToken: RwTokenWords,
        L::WriteToken: TokenWords;

    /// An exclusive lock that exists only behind the object-safe
    /// facade: the delegation bridge, whose acquire and release are
    /// delegated ops rather than a token protocol.
    fn plain<P: PlainLock + 'static>(self, lock: P) -> Self::Out;

    /// The `instrumented-<inner>` wrapper labelled `label`: the sink
    /// decides at which layer the recording goes, then walks `inner`.
    fn instrumented(self, label: &str, inner: &LockSpec) -> Self::Out;
}

/// The erasing sink behind [`LockSpec::make_lock_raw`] and
/// [`LockSpec::make_rw_lock_raw`]: every lock goes behind the facade
/// its own interface maps to, and the factory converts to the one its
/// call site wants. `rw_site` is that call site, which only an
/// `instrumented-` wrapper needs to know: it records both sides of a
/// reader-writer lock at an rw call site, and one exclusive cell
/// everywhere else.
#[derive(Clone, Copy)]
struct Erase {
    rw_site: bool,
}

enum Erased {
    Lock(Arc<dyn PlainLock>),
    Rw(Arc<dyn PlainRwLock>),
}

impl Erased {
    /// At an exclusive call site an rwlock hands out its write side.
    fn into_lock(self) -> Arc<dyn PlainLock> {
        match self {
            Erased::Lock(lock) => lock,
            Erased::Rw(lock) => Arc::new(WriteHalf::new(lock)),
        }
    }

    /// At an rw call site an exclusive lock degenerates shared mode
    /// to an exclusive acquisition.
    fn into_rw(self) -> Arc<dyn PlainRwLock> {
        match self {
            Erased::Lock(lock) => Arc::new(ExclusiveRw::new(lock)),
            Erased::Rw(lock) => lock,
        }
    }
}

impl LockSink for Erase {
    type Out = Erased;

    fn raw<L>(self, lock: L) -> Erased
    where
        L: RawLock + 'static,
        L::Token: TokenWords,
    {
        Erased::Lock(Arc::new(lock))
    }

    fn rw<L>(self, lock: L) -> Erased
    where
        L: RawRwLock + 'static,
        L::ReadToken: RwTokenWords,
        L::WriteToken: TokenWords,
    {
        Erased::Rw(Arc::new(lock))
    }

    fn plain<P: PlainLock + 'static>(self, lock: P) -> Erased {
        Erased::Lock(Arc::new(lock))
    }

    fn instrumented(self, label: &str, inner: &LockSpec) -> Erased {
        match inner.build(self) {
            Erased::Rw(lock) if self.rw_site => Erased::Rw(telemetry::instrument_rw(label, lock)),
            built => Erased::Lock(telemetry::instrument(label, built.into_lock())),
        }
    }
}

impl fmt::Display for LockSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockSpec::Pthread => f.write_str("pthread"),
            LockSpec::Tas(aff) => f.write_str(&fmt_tas(aff)),
            LockSpec::Ticket => f.write_str("ticket"),
            LockSpec::Mcs => f.write_str("mcs"),
            LockSpec::McsStp => f.write_str("mcs-stp"),
            LockSpec::ShflPb(n) => write!(f, "shfl-pb{n}"),
            LockSpec::Cna => f.write_str("cna"),
            LockSpec::Cohort => f.write_str("cohort"),
            LockSpec::Malthusian(None) => f.write_str("malthusian"),
            LockSpec::Malthusian(Some(p)) => write!(f, "malthusian-{p}"),
            LockSpec::ShuffleClassLocal { max_skips } => write!(f, "shfl-local{max_skips}"),
            LockSpec::Asl {
                substrate,
                slo_ns: None,
            } => {
                write!(f, "libasl-{}max", substrate.tag())
            }
            LockSpec::Asl {
                substrate,
                slo_ns: Some(s),
            } => {
                write!(f, "libasl-{}{}", substrate.tag(), fmt_slo(*s))
            }
            LockSpec::AslOpt { window_ns } => write!(f, "libasl-opt-{}", fmt_slo(*window_ns)),
            LockSpec::AslBlocking { slo_ns: None } => f.write_str("libasl-blk-max"),
            LockSpec::AslBlocking { slo_ns: Some(s) } => write!(f, "libasl-blk-{}", fmt_slo(*s)),
            LockSpec::RwTicket => f.write_str("rw-ticket"),
            LockSpec::BravoRw(inner) => write!(f, "bravo-{}", inner.tag()),
            LockSpec::AslRw { slo_ns: None } => f.write_str("libasl-rw-max"),
            LockSpec::AslRw { slo_ns: Some(s) } => write!(f, "libasl-rw-{}", fmt_slo(*s)),
            LockSpec::Adaptive => f.write_str("adaptive"),
            LockSpec::Flatcomb => f.write_str("flatcomb"),
            LockSpec::CcSynch => f.write_str("ccsynch"),
            LockSpec::Rcl => f.write_str("rcl"),
            LockSpec::FcBan => f.write_str("fc-ban"),
            LockSpec::Instrumented(inner) => write!(f, "instrumented-{inner}"),
            LockSpec::Gcr(inner) => write!(f, "gcr-{inner}"),
        }
    }
}

fn fmt_tas(aff: &AtomicAffinity) -> String {
    const DP: u64 = AtomicAffinity::DEFAULT_PENALTY;
    match aff {
        AtomicAffinity::Neutral => "tas".into(),
        AtomicAffinity::BigWins { penalty_units: DP } => "tas-big".into(),
        AtomicAffinity::BigWins { penalty_units } => format!("tas-big-p{penalty_units}"),
        AtomicAffinity::LittleWins { penalty_units: DP } => "tas-little".into(),
        AtomicAffinity::LittleWins { penalty_units } => format!("tas-little-p{penalty_units}"),
    }
}

/// Failure to parse a [`LockSpec`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLockSpecError {
    name: String,
}

impl fmt::Display for ParseLockSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown lock spec {:?} (try `repro locks` for the registry)",
            self.name
        )
    }
}

impl std::error::Error for ParseLockSpecError {}

impl FromStr for LockSpec {
    type Err = ParseLockSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseLockSpecError {
            name: s.to_string(),
        };
        let spec = match s {
            "pthread" => LockSpec::Pthread,
            "tas" => LockSpec::Tas(AtomicAffinity::Neutral),
            "tas-big" => LockSpec::Tas(AtomicAffinity::big_wins()),
            "tas-little" => LockSpec::Tas(AtomicAffinity::little_wins()),
            "ticket" => LockSpec::Ticket,
            "mcs" => LockSpec::Mcs,
            "mcs-stp" => LockSpec::McsStp,
            "adaptive" => LockSpec::Adaptive,
            "flatcomb" => LockSpec::Flatcomb,
            "ccsynch" => LockSpec::CcSynch,
            "rcl" => LockSpec::Rcl,
            "fc-ban" => LockSpec::FcBan,
            "cna" => LockSpec::Cna,
            "cohort" => LockSpec::Cohort,
            "malthusian" => LockSpec::Malthusian(None),
            "rw-ticket" => LockSpec::RwTicket,
            "bravo-tas" => LockSpec::BravoRw(BravoInner::Tas),
            "bravo-ticket" => LockSpec::BravoRw(BravoInner::Ticket),
            "bravo-mcs" => LockSpec::BravoRw(BravoInner::Mcs),
            "bravo-clh" => LockSpec::BravoRw(BravoInner::Clh),
            "bravo-libasl" => LockSpec::BravoRw(BravoInner::Asl),
            _ => {
                if let Some(inner) = s.strip_prefix("instrumented-") {
                    LockSpec::Instrumented(Box::new(inner.parse().map_err(|_| err())?))
                } else if let Some(inner) = s.strip_prefix("gcr-") {
                    LockSpec::Gcr(Box::new(inner.parse().map_err(|_| err())?))
                } else if let Some(p) = s.strip_prefix("malthusian-") {
                    let period: u32 = p.parse().map_err(|_| err())?;
                    if period == 0 {
                        return Err(err());
                    }
                    LockSpec::Malthusian(Some(period))
                } else if let Some(p) = s.strip_prefix("tas-big-p") {
                    LockSpec::Tas(AtomicAffinity::BigWins {
                        penalty_units: p.parse().map_err(|_| err())?,
                    })
                } else if let Some(p) = s.strip_prefix("tas-little-p") {
                    LockSpec::Tas(AtomicAffinity::LittleWins {
                        penalty_units: p.parse().map_err(|_| err())?,
                    })
                } else if let Some(n) = s.strip_prefix("shfl-pb") {
                    LockSpec::ShflPb(n.parse().map_err(|_| err())?)
                } else if let Some(n) = s.strip_prefix("shfl-local") {
                    LockSpec::ShuffleClassLocal {
                        max_skips: n.parse().map_err(|_| err())?,
                    }
                } else if let Some(w) = s.strip_prefix("libasl-opt-") {
                    LockSpec::AslOpt {
                        window_ns: parse_slo(w).ok_or_else(err)?,
                    }
                } else if let Some(rest) = s.strip_prefix("libasl-rw-") {
                    LockSpec::AslRw {
                        slo_ns: parse_max_or_slo(rest).ok_or_else(err)?,
                    }
                } else if let Some(rest) = s.strip_prefix("libasl-blk-") {
                    LockSpec::AslBlocking {
                        slo_ns: parse_max_or_slo(rest).ok_or_else(err)?,
                    }
                } else if let Some(rest) = s.strip_prefix("libasl-") {
                    let (substrate, rest) = if let Some(r) = rest.strip_prefix("clh-") {
                        (AslSubstrate::Clh, r)
                    } else if let Some(r) = rest.strip_prefix("ticket-") {
                        (AslSubstrate::Ticket, r)
                    } else if let Some(r) = rest.strip_prefix("shfl-") {
                        (AslSubstrate::ShflFifo, r)
                    } else {
                        (AslSubstrate::Mcs, rest)
                    };
                    LockSpec::Asl {
                        substrate,
                        slo_ns: parse_max_or_slo(rest).ok_or_else(err)?,
                    }
                } else {
                    return Err(err());
                }
            }
        };
        Ok(spec)
    }
}

/// `"max"` → no epoch; otherwise an SLO duration.
fn parse_max_or_slo(s: &str) -> Option<Option<u64>> {
    if s == "max" {
        Some(None)
    } else {
        parse_slo(s).map(Some)
    }
}

/// Parse a duration in the registry's `Display` form: `"70us"`,
/// `"4ms"`, `"250ns"`, or a bare nanosecond count.
fn parse_slo(s: &str) -> Option<u64> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else {
        (s, 1)
    };
    digits.parse::<u64>().ok().and_then(|n| n.checked_mul(mult))
}

fn fmt_slo(ns: u64) -> String {
    // Only collapse to a coarser unit when exact, so the printed name
    // parses back to the same spec (`from_str ∘ to_string` identity).
    if ns >= 1_000_000 && ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns >= 1_000 && ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// One registry entry: a nameable lock spec plus a one-line
/// description for the `repro locks` listing.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The spec; its name is `spec.to_string()`.
    pub spec: LockSpec,
    /// One-line human description.
    pub description: &'static str,
}

/// Every catalogued lock spec. Each entry's printed name parses back
/// to the same spec; SLO-parameterized families are represented by
/// canonical members (any other SLO is reachable by name, e.g.
/// `"libasl-25us"`).
pub fn registry() -> Vec<RegistryEntry> {
    let e = |spec, description| RegistryEntry { spec, description };
    vec![
        e(
            LockSpec::Pthread,
            "glibc-style spin-then-futex blocking mutex",
        ),
        e(
            LockSpec::Tas(AtomicAffinity::Neutral),
            "test-and-set spinlock, neutral atomics",
        ),
        e(
            LockSpec::Tas(AtomicAffinity::big_wins()),
            "test-and-set spinlock, big cores win contended atomics",
        ),
        e(
            LockSpec::Tas(AtomicAffinity::little_wins()),
            "test-and-set spinlock, little cores win contended atomics",
        ),
        e(LockSpec::Ticket, "FIFO ticket lock"),
        e(LockSpec::Mcs, "FIFO MCS queue lock (paper baseline)"),
        e(
            LockSpec::McsStp,
            "spin-then-park MCS, the blocking FIFO strawman",
        ),
        e(
            LockSpec::ShflPb(10),
            "proportional lock, 10 big grants per little grant",
        ),
        e(
            LockSpec::ShuffleClassLocal { max_skips: 16 },
            "ShflLock framework, class-local policy (16-skip bound)",
        ),
        e(LockSpec::Cna, "compact NUMA-aware lock on core classes"),
        e(
            LockSpec::Cohort,
            "lock cohorting (C-BO-MCS) on core classes",
        ),
        e(
            LockSpec::Malthusian(None),
            "Malthusian MCS: culling + reintroduction (any period: malthusian-<n>)",
        ),
        e(
            LockSpec::asl(Some(70_000)),
            "LibASL, 70us SLO epochs (any SLO: libasl-<dur>)",
        ),
        e(
            LockSpec::asl(None),
            "LibASL, maximum reorder window (no epochs)",
        ),
        e(
            LockSpec::asl_on(AslSubstrate::Clh, Some(70_000)),
            "LibASL over the CLH substrate, 70us SLO",
        ),
        e(
            LockSpec::asl_on(AslSubstrate::Clh, None),
            "LibASL over the CLH substrate, max window",
        ),
        e(
            LockSpec::asl_on(AslSubstrate::Ticket, None),
            "LibASL over the ticket substrate, max window",
        ),
        e(
            LockSpec::asl_on(AslSubstrate::ShflFifo, None),
            "LibASL over the shuffle(FIFO) substrate, max window",
        ),
        e(
            LockSpec::AslOpt { window_ns: 50_000 },
            "LibASL-OPT: static 50us reorder window, no feedback",
        ),
        e(
            LockSpec::AslBlocking {
                slo_ns: Some(70_000),
            },
            "blocking LibASL (futex + nanosleep standby), 70us SLO",
        ),
        e(
            LockSpec::AslBlocking { slo_ns: None },
            "blocking LibASL, maximum window",
        ),
        e(
            LockSpec::RwTicket,
            "phase-fair ticket rwlock: readers overlap, phases alternate",
        ),
        e(
            LockSpec::BravoRw(BravoInner::Mcs),
            "BRAVO reader bias over MCS (bravo-{tas,ticket,mcs,clh,libasl})",
        ),
        e(
            LockSpec::BravoRw(BravoInner::Tas),
            "BRAVO reader bias over the TAS spinlock",
        ),
        e(
            LockSpec::BravoRw(BravoInner::Asl),
            "BRAVO reader bias over LibASL-max: SLO reordering + shared reads",
        ),
        e(
            LockSpec::AslRw {
                slo_ns: Some(70_000),
            },
            "reader-writer LibASL, 70us SLO epochs (any SLO: libasl-rw-<dur>)",
        ),
        e(
            LockSpec::AslRw { slo_ns: None },
            "reader-writer LibASL, maximum reorder window",
        ),
        e(
            LockSpec::Adaptive,
            "contention-adaptive: TAS that morphs to a FIFO queue under load (bare; restricted: gcr-adaptive)",
        ),
        e(
            LockSpec::Flatcomb,
            "flat-combining delegation (publication array) via the op bridge",
        ),
        e(
            LockSpec::CcSynch,
            "CC-Synch combining queue: cache-local combiner handoff",
        ),
        e(
            LockSpec::Rcl,
            "RCL-style server lock: dedicated server thread polls client slots",
        ),
        e(
            LockSpec::FcBan,
            "usage-fair banning combiner: overdrawn threads wait out overage",
        ),
        e(
            LockSpec::Instrumented(Box::new(LockSpec::Mcs)),
            "telemetry-recording MCS (any name: instrumented-<name>)",
        ),
        e(
            LockSpec::Gcr(Box::new(LockSpec::Mcs)),
            "concurrency-restricted MCS (any name: gcr-<name>)",
        ),
    ]
}

/// LibASL-OPT: the paper's "optimal policy" comparator that "directly
/// chooses a static window (no window adjustment)". Big cores lock
/// immediately, little cores always stand by for the fixed window.
pub struct StaticWindowLock {
    inner: ReorderableLock<McsLock, SpinWait>,
    window_ns: u64,
}

impl StaticWindowLock {
    /// Create with the given fixed reorder window.
    pub fn new(window_ns: u64) -> Self {
        StaticWindowLock {
            inner: ReorderableLock::new(McsLock::new()),
            window_ns,
        }
    }

    /// The fixed window (ns).
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }
}

impl RawLock for StaticWindowLock {
    type Token = McsToken;
    const NAME: &'static str = "libasl-opt";

    #[inline]
    fn lock(&self) -> McsToken {
        if is_big_core() {
            self.inner.lock_immediately()
        } else {
            self.inner.lock_reorder(self.window_ns)
        }
    }
    #[inline]
    fn try_lock(&self) -> Option<McsToken> {
        self.inner.try_lock()
    }
    #[inline]
    fn unlock(&self, token: McsToken) {
        self.inner.unlock(token);
    }
    fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }
}

/// The paper's standard competitor set for bar-chart figures
/// (Fig. 8a, 9a/d/g, 10a/d): baselines plus LibASL at the given SLOs
/// and LibASL-MAX. `affinity` configures the TAS lock's bias for the
/// scenario being reproduced.
pub fn standard_lineup(affinity: AtomicAffinity, slos_ns: &[u64]) -> Vec<LockSpec> {
    let mut v = vec![
        LockSpec::Pthread,
        LockSpec::Tas(affinity),
        LockSpec::Ticket,
        LockSpec::ShflPb(10),
        LockSpec::Mcs,
        LockSpec::asl(Some(0)),
    ];
    for &slo in slos_ns {
        v.push(LockSpec::asl(Some(slo)));
    }
    v.push(LockSpec::asl(None));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(LockSpec::Mcs.label(), "mcs");
        assert_eq!(LockSpec::ShflPb(10).label(), "shfl-pb10");
        assert_eq!(LockSpec::asl(Some(50_000)).label(), "libasl-50us");
        assert_eq!(LockSpec::asl(Some(4_000_000)).label(), "libasl-4ms");
        assert_eq!(LockSpec::asl(None).label(), "libasl-max");
        assert_eq!(
            LockSpec::AslOpt { window_ns: 1_000 }.label(),
            "libasl-opt-1us"
        );
        assert_eq!(
            LockSpec::asl_on(AslSubstrate::Clh, Some(25_000)).label(),
            "libasl-clh-25us"
        );
        // Non-round SLOs keep an exact printed form.
        assert_eq!(LockSpec::asl(Some(1_500)).label(), "libasl-1500ns");
        assert_eq!(LockSpec::CcSynch.label(), "ccsynch");
        assert_eq!(LockSpec::Rcl.label(), "rcl");
        assert_eq!(LockSpec::FcBan.label(), "fc-ban");
        assert_eq!(LockSpec::Flatcomb.label(), "flatcomb");
    }

    #[test]
    fn parse_known_names() {
        for (name, spec) in [
            ("pthread", LockSpec::Pthread),
            ("tas", LockSpec::Tas(AtomicAffinity::Neutral)),
            ("tas-big", LockSpec::Tas(AtomicAffinity::big_wins())),
            (
                "tas-little-p42",
                LockSpec::Tas(AtomicAffinity::LittleWins { penalty_units: 42 }),
            ),
            ("mcs", LockSpec::Mcs),
            ("mcs-stp", LockSpec::McsStp),
            ("shfl-pb10", LockSpec::ShflPb(10)),
            ("shfl-local8", LockSpec::ShuffleClassLocal { max_skips: 8 }),
            ("libasl-70us", LockSpec::asl(Some(70_000))),
            ("libasl-max", LockSpec::asl(None)),
            ("libasl-0ns", LockSpec::asl(Some(0))),
            ("libasl-clh-max", LockSpec::asl_on(AslSubstrate::Clh, None)),
            (
                "libasl-ticket-4ms",
                LockSpec::asl_on(AslSubstrate::Ticket, Some(4_000_000)),
            ),
            (
                "libasl-shfl-max",
                LockSpec::asl_on(AslSubstrate::ShflFifo, None),
            ),
            ("libasl-opt-50us", LockSpec::AslOpt { window_ns: 50_000 }),
            (
                "libasl-blk-70us",
                LockSpec::AslBlocking {
                    slo_ns: Some(70_000),
                },
            ),
            ("libasl-blk-max", LockSpec::AslBlocking { slo_ns: None }),
            ("rw-ticket", LockSpec::RwTicket),
            ("bravo-tas", LockSpec::BravoRw(BravoInner::Tas)),
            ("bravo-ticket", LockSpec::BravoRw(BravoInner::Ticket)),
            ("bravo-mcs", LockSpec::BravoRw(BravoInner::Mcs)),
            ("bravo-clh", LockSpec::BravoRw(BravoInner::Clh)),
            ("bravo-libasl", LockSpec::BravoRw(BravoInner::Asl)),
            (
                "libasl-rw-70us",
                LockSpec::AslRw {
                    slo_ns: Some(70_000),
                },
            ),
            ("libasl-rw-max", LockSpec::AslRw { slo_ns: None }),
            (
                "libasl-rw-1500ns",
                LockSpec::AslRw {
                    slo_ns: Some(1_500),
                },
            ),
            ("adaptive", LockSpec::Adaptive),
            ("flatcomb", LockSpec::Flatcomb),
            ("ccsynch", LockSpec::CcSynch),
            ("rcl", LockSpec::Rcl),
            ("fc-ban", LockSpec::FcBan),
            (
                "instrumented-mcs",
                LockSpec::Instrumented(Box::new(LockSpec::Mcs)),
            ),
            (
                "instrumented-libasl-70us",
                LockSpec::Instrumented(Box::new(LockSpec::asl(Some(70_000)))),
            ),
            (
                "instrumented-rw-ticket",
                LockSpec::Instrumented(Box::new(LockSpec::RwTicket)),
            ),
        ] {
            assert_eq!(name.parse::<LockSpec>().unwrap(), spec, "{name}");
        }
    }

    #[test]
    fn rw_specs_materialize_shared_locks() {
        for name in ["rw-ticket", "bravo-mcs", "bravo-libasl", "libasl-rw-max"] {
            let spec: LockSpec = name.parse().unwrap();
            assert!(spec.is_rw(), "{name} must be an rw spec");
            let lock = spec.make_dyn_rw();
            {
                let _r1 = lock.read();
                let _r2 = lock
                    .try_read()
                    .unwrap_or_else(|| panic!("{name}: reads must overlap"));
                assert!(
                    lock.try_write().is_none(),
                    "{name}: readers exclude writers"
                );
            }
            {
                let _w = lock.write();
                assert!(lock.try_read().is_none(), "{name}: writer excludes readers");
            }
            assert!(!lock.is_locked(), "{name}: all guards released");
        }
    }

    #[test]
    fn exclusive_specs_degenerate_at_rw_call_sites() {
        let spec = LockSpec::Mcs;
        assert!(!spec.is_rw());
        let lock = spec.make_dyn_rw();
        let r = lock.read();
        assert!(lock.try_read().is_none(), "exclusive substrate: no overlap");
        drop(r);
        assert!(!lock.is_locked());
    }

    #[test]
    fn rw_specs_work_at_exclusive_call_sites() {
        // make_dyn on an rw spec hands out the write side.
        for name in ["rw-ticket", "bravo-ticket", "libasl-rw-70us"] {
            let spec: LockSpec = name.parse().unwrap();
            let lock = spec.make_dyn();
            {
                let _held = lock.lock();
                assert!(lock.is_locked(), "{name}");
                assert!(lock.try_lock().is_none(), "{name}: write side is exclusive");
            }
            assert!(!lock.is_locked(), "{name}");
        }
    }

    #[test]
    fn rw_epoch_slo_follows_asl_family() {
        assert_eq!(LockSpec::AslRw { slo_ns: Some(9) }.epoch_slo(), Some(9));
        assert_eq!(LockSpec::AslRw { slo_ns: None }.epoch_slo(), None);
        assert_eq!(LockSpec::RwTicket.epoch_slo(), None);
    }

    #[test]
    fn instrumented_specs_record_for_every_registry_name() {
        // `instrumented-<name>` works for every catalogued name, and
        // acquisitions land in the process-wide telemetry registry
        // under the full label. Counter recording is gated on the
        // process-wide recording flag (zero-cost-when-off), so arm it
        // for the duration of this test — under the shared gate lock,
        // because the overhead-figure tests toggle and assert the
        // same global state.
        let _gate = crate::telemetry_test_lock();
        // Drop guard: the gate must disarm even when an assertion
        // below panics, or the armed global state cascades into
        // spurious failures of later gated tests.
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                telemetry::clear_registered();
                telemetry::set_recording(false);
            }
        }
        let _disarm = Disarm;
        telemetry::set_recording(true);
        for entry in registry() {
            let spec = LockSpec::Instrumented(Box::new(entry.spec.clone()));
            let label = spec.label();
            let lock = spec.make_dyn();
            {
                let _held = lock.lock();
                assert!(lock.is_locked(), "{label}");
            }
            assert!(!lock.is_locked(), "{label}");
            let snaps = telemetry::snapshots();
            let total: u64 = snaps
                .iter()
                .filter(|(l, _)| l.starts_with(&label))
                .map(|(_, s)| s.acquisitions)
                .sum();
            assert!(total >= 1, "{label}: no telemetry recorded ({snaps:?})");
        }
    }

    #[test]
    fn instrumented_rw_spec_shares_reads() {
        let spec: LockSpec = "instrumented-rw-ticket".parse().unwrap();
        assert!(spec.is_rw());
        let lock = spec.make_dyn_rw();
        {
            let _r1 = lock.read();
            let _r2 = lock.try_read().expect("instrumented reads overlap");
            assert!(lock.try_write().is_none());
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn adaptive_spec_morphs_under_guard_contention() {
        use asl_runtime::relax::Spin;
        use std::sync::Arc as StdArc;

        // Registry-addressable adaptive lock, driven through the
        // typed interface for the mode oracle.
        let spec: LockSpec = "adaptive".parse().unwrap();
        assert_eq!(spec.label(), "adaptive");

        let lock = StdArc::new(Adaptive::with_thresholds(2, u32::MAX));
        assert_eq!(lock.mode(), asl_locks::AdaptiveMode::Tas);
        let t = asl_locks::RawLock::lock(&*lock);
        let before = lock.telemetry().snapshot().contended;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let l = lock.clone();
                std::thread::spawn(move || {
                    let t = asl_locks::RawLock::lock(&*l);
                    asl_locks::RawLock::unlock(&*l, t);
                })
            })
            .collect();
        let mut spin = Spin::new();
        while lock.telemetry().snapshot().contended < before + 2 {
            spin.relax();
        }
        asl_locks::RawLock::unlock(&*lock, t);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.mode(), asl_locks::AdaptiveMode::Queue);
        assert!(lock.morphs_to_queue() >= 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "mc",
            "libasl-",
            "libasl-opt-",
            "shfl-pb",
            "tas-big-p",
            "libasl-xyz",
            "bravo-",
            "bravo-xyz",
            "libasl-rw-",
            "rw-",
            "libasl-rw-xyz",
            "instrumented-",
            "instrumented-nope",
        ] {
            assert!(bad.parse::<LockSpec>().is_err(), "{bad:?} should not parse");
        }
        // Durations that would overflow u64 nanoseconds are rejected,
        // not wrapped.
        for overflow in [
            "libasl-20000000000000000000ms",
            "libasl-opt-99999999999999999999us",
        ] {
            assert!(
                overflow.parse::<LockSpec>().is_err(),
                "{overflow:?} must not wrap"
            );
        }
        let err = "nope".parse::<LockSpec>().unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn registry_round_trips_and_is_unique() {
        let reg = registry();
        let mut names = Vec::new();
        for entry in &reg {
            let name = entry.spec.to_string();
            let parsed: LockSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parsed, entry.spec, "{name} must round-trip");
            assert!(!entry.description.is_empty());
            names.push(name);
        }
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "registry names must be unique");
    }

    #[test]
    fn registry_locks_all_acquire_via_guards() {
        for entry in registry() {
            let lock = entry.spec.make_dyn();
            {
                let _held = lock.lock();
                assert!(lock.is_locked(), "{}", entry.spec);
            }
            assert!(!lock.is_locked(), "{}", entry.spec);
            let held = lock.try_lock().expect("free lock must try_lock");
            held.unlock();
        }
    }

    #[test]
    fn epoch_slo_only_for_asl() {
        assert_eq!(LockSpec::Mcs.epoch_slo(), None);
        assert_eq!(LockSpec::asl(Some(5)).epoch_slo(), Some(5));
        assert_eq!(
            LockSpec::AslBlocking { slo_ns: Some(7) }.epoch_slo(),
            Some(7)
        );
    }

    #[test]
    fn async_policy_bridges_the_registry() {
        assert_eq!(LockSpec::Mcs.async_policy(), AsyncPolicy::Fifo);
        assert_eq!(LockSpec::Ticket.async_policy(), AsyncPolicy::Fifo);
        assert_eq!(
            LockSpec::asl(Some(50_000)).async_policy(),
            AsyncPolicy::Slo { slo_ns: 50_000 }
        );
        assert_eq!(
            LockSpec::asl(None).async_policy(),
            AsyncPolicy::Slo { slo_ns: u64::MAX },
            "libasl-max = unbounded reorder window = pure EDF"
        );
        assert_eq!(
            LockSpec::Instrumented(Box::new(LockSpec::asl(Some(9)))).async_policy(),
            AsyncPolicy::Slo { slo_ns: 9 }
        );
    }

    #[test]
    fn make_locks_distinct_instances() {
        let locks = LockSpec::Mcs.make_locks(2);
        let held = locks[0].lock();
        assert!(!locks[1].is_locked(), "instances must be independent");
        held.unlock();
    }

    #[test]
    fn lineup_contains_expected_competitors() {
        let l = standard_lineup(AtomicAffinity::Neutral, &[25_000, 50_000]);
        let labels: Vec<_> = l.iter().map(|s| s.label()).collect();
        assert!(labels.contains(&"pthread".to_string()));
        assert!(labels.contains(&"mcs".to_string()));
        assert!(labels.contains(&"shfl-pb10".to_string()));
        assert!(labels.contains(&"libasl-25us".to_string()));
        assert!(labels.contains(&"libasl-max".to_string()));
    }

    #[test]
    fn static_window_lock_behaves() {
        let l = StaticWindowLock::new(1_000);
        assert_eq!(l.window_ns(), 1_000);
        let l = DynLock::of(l);
        let held = l.lock();
        assert!(l.is_locked());
        held.unlock();
        assert!(!l.is_locked());
    }
}
