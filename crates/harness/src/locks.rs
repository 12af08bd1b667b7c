//! Runtime lock selection for experiments: the string-addressable
//! lock registry, kept as **one table with one row per lock family**
//! ([`families`]).
//!
//! A [`LockSpec`] names one competitor from the paper's evaluation —
//! a baseline (`pthread`, TAS, ticket, MCS, SHFL-PB10), a LibASL
//! configuration (`LibASL-X` = SLO X, `LibASL-MAX`, `LibASL-OPT`,
//! blocking and reader-writer variants, alternative FIFO substrates)
//! or a wrapper over any other spec — and everything said *about* a
//! spec is a column of its [`Family`] row:
//!
//! * **The name grammar.** A name is a row's `stem` followed by what
//!   the row's grammar reads: nothing (`mcs`), a decimal count
//!   (`shfl-pb<n>`, `tas-big-p<n>`), a duration (`libasl-opt-<dur>`),
//!   `max` or a duration (`libasl-[clh-|ticket-|shfl-|blk-|rw-]<max|dur>`;
//!   `max` = no epoch, the maximum reorder window), or the name of
//!   another spec (`gcr-<name>`, `instrumented-<name>`, nesting
//!   freely). A duration is `70us`, `4ms`, `250ns` or a bare
//!   nanosecond count, printed in the coarsest unit that is exact.
//!   `FromStr` reads a name with the row whose stem is the longest the
//!   name starts with (`libasl-opt-50us` is a static window, not
//!   LibASL with the SLO `opt-50us`); `Display` prints the first row
//!   that owns the value (`tas-big-p600` is `tas-big`), and
//!   `spec.to_string().parse()` is the identity.
//! * **The capabilities** ([`Caps`]): what the family promises, read
//!   by [`LockSpec::epoch_slo`], [`LockSpec::async_policy`],
//!   [`LockSpec::is_rw`] and the torture sweep's FIFO oracle. A
//!   capability a family lacks is a stated "no", and a wrapper row
//!   states which capabilities of its inner spec it keeps.
//! * **The canonical members** `repro locks` lists ([`registry`],
//!   [`listing`]), each with its one-line description.
//!
//! The one thing a row cannot hold is the constructor — the concrete
//! lock types differ — so `LockSpec::build` is the only per-family
//! `match`: a new family is one row, one `build` arm and its file.
//! [`LockSpec::make_rw_lock`] materializes *any* spec at rw call sites
//! (exclusive specs degenerate shared mode to an exclusive
//! acquisition) and [`LockSpec::make_lock`] rw specs at exclusive call
//! sites (every acquisition takes the write side).
//!
//! ```
//! use asl_harness::locks::{Caps, LockSpec};
//!
//! let spec: LockSpec = "libasl-70us".parse().unwrap();
//! assert_eq!(spec.to_string(), "libasl-70us");
//! assert!(spec.caps().has(Caps::EPOCH) && !spec.caps().has(Caps::FIFO));
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
use std::sync::{Arc, OnceLock};

use asl_core::{AslBlockingLock, AslLock, AslRwLock, AslSpinLock};
use asl_dbsim::LockFactory;
use asl_locks::api::{DynLock, DynRwLock};
use asl_locks::plain::{ExclusiveRw, PlainLock, PlainRwLock, RwTokenWords, TokenWords};
use asl_locks::shuffle::{ClassLocalPolicy, FifoPolicy};
use asl_locks::telemetry;
use asl_locks::{
    bridge_apply, AsyncPolicy, Bravo, CcSynch, ClhLock, CnaLock, CohortLock, DelegatedMutex, FcBan,
    FissileLock, FlatCombiner, Gcr, MalthusianLock, McsLock, McsStpLock, ProportionalLock,
    PthreadMutex, RawLock, RawRwLock, RclLock, RwTicketLock, ShuffleLock, TasLock, TicketLock,
};
use asl_runtime::AtomicAffinity;

mod caps;
mod static_window;
pub use caps::Caps;
pub use static_window::StaticWindowLock;

/// FIFO substrate under the LibASL dispatch layer (one type parameter
/// at the `AslLock` level, one `libasl-…` row each).
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

/// Exclusive substrate under the BRAVO reader-bias wrapper (the
/// `Bravo<L>` type upgrades *any* [`asl_locks::RawLock`]; the registry
/// catalogues these members, one `bravo-…` row each).
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
    /// Contention-adaptive lock: arrivals barge past the MCS queue
    /// until its head runs out of patience (Fissile-style). A bare
    /// lock, as `ticket` and `mcs` are; restricted, it is
    /// `gcr-adaptive`.
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

/// How a row reads the part of a name after its stem, with the
/// variant's constructor and its inverse (see `grammar!`).
enum Grammar {
    /// The stem is the whole name.
    Literal(LockSpec),
    /// `<stem><n>`: a decimal count the constructor may refuse.
    Count(fn(u64) -> Option<LockSpec>, fn(&LockSpec) -> Option<u64>),
    /// `<stem><dur>`.
    Duration(fn(u64) -> LockSpec, fn(&LockSpec) -> Option<u64>),
    /// `<stem><max|dur>`: `max` is `None`.
    MaxOrDuration(
        fn(Option<u64>) -> LockSpec,
        fn(&LockSpec) -> Option<Option<u64>>,
    ),
    /// `<stem><name>`: a wrapper over any other spec, which keeps the
    /// inner spec's capabilities in the given set.
    Inner(
        Caps,
        fn(Box<LockSpec>) -> LockSpec,
        fn(&LockSpec) -> Option<&LockSpec>,
    ),
}

/// What a row's grammar read from one name.
enum Arg<'a> {
    Literal,
    Count(u64),
    Duration(u64),
    MaxOrDuration(Option<u64>),
    Inner(Caps, &'a LockSpec),
}

/// The grammar of a parameterised row from the one spelling of its
/// variant that is both an expression (the constructor) and a pattern
/// (its inverse), so a family names its variant once. A count converts
/// to the field's width and may carry a validity condition.
macro_rules! grammar {
    (Count, $n:ident $(if $valid:expr)? => $($spec:tt)+) => {
        Grammar::Count(
            |raw| {
                let $n = raw.try_into().ok()?;
                $(if !$valid { return None; })?
                Some($($spec)+)
            },
            |spec| match spec {
                $($spec)+ => Some((*$n).into()),
                _ => None,
            },
        )
    };
    (Inner keeping $keeps:expr, $inner:ident => $($spec:tt)+) => {
        Grammar::Inner($keeps, |$inner| $($spec)+, |spec| match spec {
            $($spec)+ => Some(&**$inner),
            _ => None,
        })
    };
    ($kind:ident, $dur:ident => $($spec:tt)+) => {
        Grammar::$kind(|$dur| $($spec)+, |spec| match spec {
            $($spec)+ => Some(*$dur),
            _ => None,
        })
    };
}

/// One lock family: a row of the registry table.
pub struct Family {
    /// The literal name, or the prefix the family's parameter follows.
    pub stem: &'static str,
    grammar: Grammar,
    /// What the family promises; for a wrapper row, what the wrapper
    /// adds to the capabilities it keeps of its inner spec.
    pub caps: Caps,
    /// The canonical members `repro locks` lists: the parameter's
    /// spelling (`""` for a literal row) and a one-line description.
    pub members: Members,
}

type Members = &'static [(&'static str, &'static str)];

const fn row(stem: &'static str, grammar: Grammar, caps: Caps, members: Members) -> Family {
    Family {
        stem,
        grammar,
        caps,
        members,
    }
}

/// The table, in `repro locks` order. Parsing ignores the order;
/// printing takes the first owner, so a literal row precedes its family.
#[rustfmt::skip] // one row per family: stem, grammar, capabilities, canonical members
static FAMILIES: &[Family] = &[
    row("pthread", Grammar::Literal(LockSpec::Pthread), Caps::BLOCKING, &[
        ("", "glibc-style spin-then-futex blocking mutex")]),
    row("tas", Grammar::Literal(LockSpec::Tas(AtomicAffinity::Neutral)), Caps::TIMED_STATIC, &[
        ("", "test-and-set spinlock, neutral atomics")]),
    row("tas-big", Grammar::Literal(LockSpec::Tas(AtomicAffinity::big_wins())), Caps::TIMED_STATIC, &[
        ("", "test-and-set spinlock, big cores win contended atomics")]),
    row("tas-little", Grammar::Literal(LockSpec::Tas(AtomicAffinity::little_wins())), Caps::TIMED_STATIC, &[
        ("", "test-and-set spinlock, little cores win contended atomics")]),
    row("tas-big-p", grammar!(Count, n => LockSpec::Tas(AtomicAffinity::BigWins { penalty_units: n })), Caps::TIMED_STATIC, &[]),
    row("tas-little-p", grammar!(Count, n => LockSpec::Tas(AtomicAffinity::LittleWins { penalty_units: n })), Caps::TIMED_STATIC, &[]),
    row("ticket", Grammar::Literal(LockSpec::Ticket), Caps::FIFO.and(Caps::TIMED_STATIC), &[
        ("", "FIFO ticket lock")]),
    row("mcs", Grammar::Literal(LockSpec::Mcs), Caps::FIFO.and(Caps::TIMED_STATIC), &[
        ("", "MCS queue behind a lock word; FIFO among queued (paper baseline)")]),
    row("mcs-stp", Grammar::Literal(LockSpec::McsStp), Caps::FIFO.and(Caps::BLOCKING), &[
        ("", "spin-then-park MCS, the blocking FIFO strawman")]),
    row("shfl-pb", grammar!(Count, n => LockSpec::ShflPb(n)), Caps::NONE, &[
        ("10", "proportional lock, 10 big grants per little grant")]),
    row("shfl-local", grammar!(Count, n => LockSpec::ShuffleClassLocal { max_skips: n }), Caps::TIMED_STATIC, &[
        ("16", "ShflLock framework, class-local policy (16-skip bound)")]),
    row("cna", Grammar::Literal(LockSpec::Cna), Caps::TIMED_STATIC, &[
        ("", "compact NUMA-aware lock on core classes")]),
    row("cohort", Grammar::Literal(LockSpec::Cohort), Caps::NONE, &[
        ("", "lock cohorting (C-BO-MCS) on core classes")]),
    row("malthusian", Grammar::Literal(LockSpec::Malthusian(None)), Caps::TIMED_STATIC, &[
        ("", "Malthusian MCS: culling + reintroduction (any period: malthusian-<n>)")]),
    // A culling period of zero would never reintroduce anyone.
    row("malthusian-", grammar!(Count, n if n != 0 => LockSpec::Malthusian(Some(n))), Caps::TIMED_STATIC, &[]),
    row("libasl-", grammar!(MaxOrDuration, slo => LockSpec::Asl { substrate: AslSubstrate::Mcs, slo_ns: slo }), Caps::EPOCH, &[
        ("70us", "LibASL, 70us SLO epochs (any SLO: libasl-<dur>)"),
        ("max", "LibASL, maximum reorder window (no epochs)")]),
    row("libasl-clh-", grammar!(MaxOrDuration, slo => LockSpec::Asl { substrate: AslSubstrate::Clh, slo_ns: slo }), Caps::EPOCH, &[
        ("70us", "LibASL over the CLH substrate, 70us SLO"),
        ("max", "LibASL over the CLH substrate, max window")]),
    row("libasl-ticket-", grammar!(MaxOrDuration, slo => LockSpec::Asl { substrate: AslSubstrate::Ticket, slo_ns: slo }), Caps::EPOCH, &[
        ("max", "LibASL over the ticket substrate, max window")]),
    row("libasl-shfl-", grammar!(MaxOrDuration, slo => LockSpec::Asl { substrate: AslSubstrate::ShflFifo, slo_ns: slo }), Caps::EPOCH, &[
        ("max", "LibASL over the shuffle(FIFO) substrate, max window")]),
    // No `E`: the duration is a fixed window, not an SLO — the lock
    // reads no epoch, so workloads open none for it and a KV shard it
    // names stays FIFO.
    row("libasl-opt-", grammar!(Duration, window => LockSpec::AslOpt { window_ns: window }), Caps::NONE, &[
        ("50us", "LibASL-OPT: static 50us reorder window, no feedback")]),
    row("libasl-blk-", grammar!(MaxOrDuration, slo => LockSpec::AslBlocking { slo_ns: slo }), Caps::EPOCH.and(Caps::BLOCKING), &[
        ("70us", "blocking LibASL (futex + nanosleep standby), 70us SLO"),
        ("max", "blocking LibASL, maximum window")]),
    // No `F`: phase-fair, not FIFO — reader and writer phases
    // alternate, so a read may be granted ahead of an earlier write.
    row("rw-ticket", Grammar::Literal(LockSpec::RwTicket), Caps::RW, &[
        ("", "phase-fair ticket rwlock: readers overlap, phases alternate")]),
    // BRAVO rows: no `F` or `t` whatever the substrate offers — readers
    // bypass it while the bias is on, and `Bravo<L>` is no `RawTimedLock`.
    row("bravo-mcs", Grammar::Literal(LockSpec::BravoRw(BravoInner::Mcs)), Caps::RW, &[
        ("", "BRAVO reader bias over MCS (bravo-{tas,ticket,mcs,clh,libasl})")]),
    row("bravo-tas", Grammar::Literal(LockSpec::BravoRw(BravoInner::Tas)), Caps::RW, &[
        ("", "BRAVO reader bias over the TAS spinlock")]),
    // No `E`: the substrate is LibASL-max and the name has no SLO to
    // carry, so no epoch is opened for it; and it has always guarded a
    // KV shard as a FIFO queue (where `libasl-max` itself maps to pure
    // EDF) — kept, so that no async cell moves.
    row("bravo-libasl", Grammar::Literal(LockSpec::BravoRw(BravoInner::Asl)), Caps::RW, &[
        ("", "BRAVO reader bias over LibASL-max: SLO reordering + shared reads")]),
    row("bravo-ticket", Grammar::Literal(LockSpec::BravoRw(BravoInner::Ticket)), Caps::RW, &[]),
    row("bravo-clh", Grammar::Literal(LockSpec::BravoRw(BravoInner::Clh)), Caps::RW, &[]),
    row("libasl-rw-", grammar!(MaxOrDuration, slo => LockSpec::AslRw { slo_ns: slo }), Caps::RW.and(Caps::EPOCH), &[
        ("70us", "reader-writer LibASL, 70us SLO epochs (any SLO: libasl-rw-<dur>)"),
        ("max", "reader-writer LibASL, maximum reorder window")]),
    // No `F`: arrivals barge past the queue until its head is impatient.
    row("adaptive", Grammar::Literal(LockSpec::Adaptive), Caps::TIMED_STATIC, &[
        ("", "contention-adaptive: barging until the MCS queue's head is impatient (bare; restricted: gcr-adaptive)")]),
    row("flatcomb", Grammar::Literal(LockSpec::Flatcomb), Caps::DELEGATION, &[
        ("", "flat-combining delegation (publication array) via the op bridge")]),
    row("ccsynch", Grammar::Literal(LockSpec::CcSynch), Caps::DELEGATION, &[
        ("", "CC-Synch combining queue: cache-local combiner handoff")]),
    row("rcl", Grammar::Literal(LockSpec::Rcl), Caps::DELEGATION, &[
        ("", "RCL-style server lock: dedicated server thread polls client slots")]),
    row("fc-ban", Grammar::Literal(LockSpec::FcBan), Caps::DELEGATION, &[
        ("", "usage-fair banning combiner: overdrawn threads wait out overage")]),
    // Keeps everything but `t`: `Instrumented<L>` is no `RawTimedLock`.
    row("instrumented-", grammar!(Inner keeping Caps::FIFO.and(Caps::RW).and(Caps::EPOCH).and(Caps::BLOCKING).and(Caps::DELEGATION),
        inner => LockSpec::Instrumented(inner)), Caps::NONE, &[
        ("mcs", "telemetry-recording MCS (any name: instrumented-<name>)")]),
    // Drops `F` (the passive set is reintroduced out of order) and `R`
    // (the admission gate serializes entries, so shared overlap behind
    // it would be misleading — and the write-half degeneration is
    // exactly the collapse case GCR targets). Keeps `t` as what it is,
    // static type only: `Gcr<McsLock>` backs out, the registry's
    // `Gcr<DynLock>` cannot. Adds `B`: excess waiters park.
    row("gcr-", grammar!(Inner keeping Caps::TIMED_STATIC.and(Caps::EPOCH).and(Caps::BLOCKING).and(Caps::DELEGATION),
        inner => LockSpec::Gcr(inner)), Caps::BLOCKING, &[
        ("mcs", "concurrency-restricted MCS (any name: gcr-<name>)")]),
];

/// Every lock family, one row each.
pub fn families() -> &'static [Family] {
    FAMILIES
}

impl Family {
    /// Read `name` as a member of this family (`None`: not one).
    pub fn parse(&self, name: &str) -> Option<LockSpec> {
        let rest = name.strip_prefix(self.stem)?;
        match &self.grammar {
            Grammar::Literal(spec) => rest.is_empty().then(|| spec.clone()),
            Grammar::Count(make, _) => make(rest.parse().ok()?),
            Grammar::Duration(make, _) => parse_duration(rest).map(make),
            Grammar::MaxOrDuration(make, _) => match rest {
                "max" => Some(make(None)),
                dur => parse_duration(dur).map(|ns| make(Some(ns))),
            },
            Grammar::Inner(_, make, _) => rest.parse().ok().map(|inner| make(Box::new(inner))),
        }
    }

    /// Whether `name` starts like a member: FromStr's candidate test.
    fn claims(&self, name: &str) -> bool {
        let whole = matches!(self.grammar, Grammar::Literal(_));
        name.starts_with(self.stem) && (!whole || name.len() == self.stem.len())
    }

    /// What this row's grammar would print for `spec`, if it owns it.
    fn arg_of<'a>(&self, spec: &'a LockSpec) -> Option<Arg<'a>> {
        match &self.grammar {
            Grammar::Literal(own) => (own == spec).then_some(Arg::Literal),
            Grammar::Count(_, get) => get(spec).map(Arg::Count),
            Grammar::Duration(_, get) => get(spec).map(Arg::Duration),
            Grammar::MaxOrDuration(_, get) => get(spec).map(Arg::MaxOrDuration),
            Grammar::Inner(keeps, _, get) => get(spec).map(|inner| Arg::Inner(*keeps, inner)),
        }
    }
}

impl LockSpec {
    /// LibASL over the default MCS substrate (`None` = max window).
    pub fn asl(slo_ns: Option<u64>) -> Self {
        LockSpec::Asl {
            substrate: AslSubstrate::Mcs,
            slo_ns,
        }
    }

    /// Registry-style label ("mcs", "libasl-50us", ...) — same as the
    /// `Display` form.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// The row that owns this value, and what its grammar prints.
    fn owner(&self) -> (&'static Family, Arg<'_>) {
        FAMILIES
            .iter()
            .find_map(|family| Some((family, family.arg_of(self)?)))
            .expect("every LockSpec variant has a row in FAMILIES")
    }

    /// What this spec promises: its row's capabilities, and for a
    /// wrapper those it keeps of its inner spec plus those it adds.
    pub fn caps(&self) -> Caps {
        match self.owner() {
            (wrapper, Arg::Inner(keeps, inner)) => inner.caps().only(keeps).and(wrapper.caps),
            (family, _) => family.caps,
        }
    }

    /// Whether the workload should wrap requests in an epoch, and the
    /// SLO to use: the duration of an [`Caps::EPOCH`] family (`max`
    /// opens none), seen through any wrapper that keeps the capability.
    pub fn epoch_slo(&self) -> Option<u64> {
        let (family, arg) = self.owner();
        match arg {
            Arg::MaxOrDuration(slo) if family.caps.has(Caps::EPOCH) => slo,
            Arg::Inner(keeps, inner) if keeps.has(Caps::EPOCH) => inner.epoch_slo(),
            // No `E` in the row, or none kept: no epoch to open.
            Arg::MaxOrDuration(_)
            | Arg::Inner(..)
            | Arg::Literal
            | Arg::Count(_)
            | Arg::Duration(_) => None,
        }
    }

    /// The async wait-queue policy this spec maps to when it guards a
    /// KV-service shard: an [`Caps::EPOCH`] family becomes the
    /// SLO-aware deadline-ordered queue (a missing SLO — `libasl-max`
    /// — means an unbounded reorder window, i.e. pure
    /// earliest-deadline-first), every other spec degenerates to FIFO
    /// handoff, the async analogue of an MCS queue.
    pub fn async_policy(&self) -> AsyncPolicy {
        if self.caps().has(Caps::EPOCH) {
            let slo_ns = self.epoch_slo().unwrap_or(u64::MAX);
            AsyncPolicy::Slo { slo_ns }
        } else {
            AsyncPolicy::Fifo
        }
    }

    /// Whether this spec names a genuine reader-writer lock (shared
    /// acquisitions overlap). Exclusive specs still work at rw call
    /// sites through the [`ExclusiveRw`] degeneration.
    pub fn is_rw(&self) -> bool {
        self.caps().has(Caps::RW)
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
        if self.records_itself() {
            raw
        } else {
            telemetry::maybe_instrument(&self.label(), raw)
        }
    }

    /// [`LockSpec::make_lock`] without any telemetry wrapping.
    pub fn make_lock_raw(&self) -> Arc<dyn PlainLock> {
        self.build(Erase { rw_site: false }).into_lock()
    }

    /// Whether [`LockSpec::build`]'s outermost layer is already the
    /// recording one (the arm that calls [`LockSink::instrumented`]).
    fn records_itself(&self) -> bool {
        matches!(self, LockSpec::Instrumented(_))
    }

    /// The one constructor walk: build this spec's concrete lock and
    /// hand it, still statically typed, to `sink`. Everything that
    /// materializes a spec derives from this match — the erased
    /// factories below and the overhead figure's monomorphised static
    /// leg — so a new family is one arm here beside its row.
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
            LockSpec::Adaptive => sink.raw(FissileLock::new()),
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
        if self.records_itself() {
            raw
        } else {
            telemetry::maybe_instrument_rw(&self.label(), raw)
        }
    }

    /// [`LockSpec::make_rw_lock`] without any telemetry wrapping.
    pub fn make_rw_lock_raw(&self) -> Arc<dyn PlainRwLock> {
        self.build(Erase { rw_site: true }).into_rw()
    }
}

/// A spec is an engine's lock factory: every lock the engine asks for
/// is a fresh instance of the same spec (the paper relinks the whole
/// binary against one lock library at a time). Reader-writer specs
/// hand the engines genuine rwlocks; exclusive specs degenerate shared
/// guards to exclusive acquisitions. The labeled variants fold the
/// spec into the engine's lock name (`kyoto.slot[mcs]`), so `repro
/// --profile` stats tables attribute contention to both the engine
/// lock and the substrate under it.
impl LockFactory for LockSpec {
    fn make(&self) -> Arc<dyn PlainLock> {
        self.make_lock()
    }

    fn make_rw(&self) -> Arc<dyn PlainRwLock> {
        self.make_rw_lock()
    }

    fn make_labeled(&self, label: &'static str) -> Arc<dyn PlainLock> {
        let name = format!("{label}[{}]", self.label());
        telemetry::maybe_instrument(&name, self.make_lock_raw())
    }

    fn make_rw_labeled(&self, label: &'static str) -> Arc<dyn PlainRwLock> {
        let name = format!("{label}[{}]", self.label());
        telemetry::maybe_instrument_rw(&name, self.make_rw_lock_raw())
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
        L::Token: TokenWords,
        L::ReadToken: RwTokenWords;

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
    /// At an exclusive call site an rwlock is the lock it is: its
    /// exclusive side.
    fn into_lock(self) -> Arc<dyn PlainLock> {
        match self {
            Erased::Lock(lock) => lock,
            Erased::Rw(lock) => lock,
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
        L::Token: TokenWords,
        L::ReadToken: RwTokenWords,
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
        let (family, arg) = self.owner();
        f.write_str(family.stem)?;
        match arg {
            Arg::Literal => Ok(()),
            Arg::Count(n) => write!(f, "{n}"),
            Arg::MaxOrDuration(None) => f.write_str("max"),
            Arg::Duration(ns) | Arg::MaxOrDuration(Some(ns)) => fmt_duration(f, ns),
            Arg::Inner(_, inner) => inner.fmt(f),
        }
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
        FAMILIES
            .iter()
            .filter(|family| family.claims(s))
            .max_by_key(|family| family.stem.len())
            .and_then(|family| family.parse(s))
            .ok_or_else(|| ParseLockSpecError {
                name: s.to_string(),
            })
    }
}

/// Parse a duration in the registry's `Display` form: `"70us"`,
/// `"4ms"`, `"250ns"`, or a bare nanosecond count.
fn parse_duration(s: &str) -> Option<u64> {
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

fn fmt_duration(f: &mut fmt::Formatter<'_>, ns: u64) -> fmt::Result {
    // Only collapse to a coarser unit when exact, so the printed name
    // parses back to the same spec (`from_str ∘ to_string` identity).
    if ns >= 1_000_000 && ns % 1_000_000 == 0 {
        write!(f, "{}ms", ns / 1_000_000)
    } else if ns >= 1_000 && ns % 1_000 == 0 {
        write!(f, "{}us", ns / 1_000)
    } else {
        write!(f, "{ns}ns")
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

/// Every catalogued lock spec: the canonical members of every family,
/// in table order. Each entry's printed name parses back to the same
/// spec; any other parameter of a family is reachable by name
/// (`"libasl-25us"`).
pub fn registry() -> &'static [RegistryEntry] {
    static REGISTRY: OnceLock<Vec<RegistryEntry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let members = FAMILIES.iter().flat_map(|family| {
            family.members.iter().map(move |&(param, description)| {
                let spec = family.parse(&format!("{}{param}", family.stem));
                RegistryEntry {
                    spec: spec.expect("a canonical member is a name of its row"),
                    description,
                }
            })
        });
        members.collect()
    })
}

/// The rows of the `repro locks` listing: name, capability letters
/// ([`Caps`]), description — one line per [`registry`] entry.
pub fn listing() -> String {
    let names: Vec<String> = registry().iter().map(|e| e.spec.to_string()).collect();
    let width = names.iter().map(String::len).max().unwrap_or(0);
    let line = |(entry, name): (&RegistryEntry, &String)| {
        let caps = entry.spec.caps();
        format!("{name:<width$}  {caps}  {}\n", entry.description)
    };
    registry().iter().zip(&names).map(line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_well_formed() {
        for (i, family) in FAMILIES.iter().enumerate() {
            let twin = FAMILIES[..i].iter().find(|f| f.stem == family.stem);
            assert!(twin.is_none(), "{}: two rows share the stem", family.stem);
            // `epoch_slo` reads the SLO out of a max-or-duration
            // parameter; an `E` on any other grammar would be silent.
            let carries_slo = matches!(family.grammar, Grammar::MaxOrDuration(..));
            assert!(
                !family.caps.has(Caps::EPOCH) || carries_slo,
                "{}",
                family.stem
            );
        }
        assert_eq!(
            registry().len(),
            FAMILIES.iter().map(|r| r.members.len()).sum()
        );
        assert_eq!(Caps::NONE.to_string(), "------");
        assert_eq!(Caps::FIFO.and(Caps::TIMED_STATIC).to_string(), "F-t---");
    }
}
