//! Pluggable execution substrate: OS threads by default, simulated
//! virtual time on demand.
//!
//! Every lock-visible platform interaction in this workspace —
//! reading the clock ([`crate::clock::now_ns`], and through it every
//! [`crate::clock::Deadline`] check), spin-yielding
//! ([`crate::relax::Spin`]), busy-waiting and sleeping, executing
//! emulated work ([`crate::work`]), and parking/waking blocked
//! threads — funnels through this module. Two backends implement it:
//!
//! * **OS threads** (the default): no substrate is installed and every
//!   hook falls through to the real implementation. The only cost on
//!   this path is a single relaxed load of a process-wide counter
//!   ([`any_installed`]), so the lock hot paths stay within their
//!   instrumentation-off overhead budget.
//! * **Simulation** (`asl-sim`): each worker OS thread installs a
//!   per-thread [`Substrate`] handle tying it to a cooperatively
//!   scheduled *virtual thread*. The engine steps exactly one virtual
//!   thread at a time in virtual time, so the unmodified lock
//!   implementations execute against a modeled machine with a seeded,
//!   deterministic schedule.
//!
//! # The virtual-time clock contract
//!
//! When a substrate is installed on the calling thread,
//! [`crate::clock::now_ns`] returns the substrate's notion of
//! *virtual* nanoseconds. Virtual time is per-thread monotonic, starts
//! near zero, and advances only when the thread is *charged* for an
//! operation (a clock read, a failed lock probe, emulated work, a
//! park). A [`crate::clock::Deadline`] paces its reads of it by the
//! virtual time its checks take: a read is charged, so how often a
//! wait loop reads is part of what virtual time means, and it must not
//! follow a host-dependent cadence.
//!
//! # Example
//!
//! A minimal substrate that gives the current thread a fixed-rate
//! virtual clock:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use asl_runtime::substrate::{self, Substrate};
//!
//! struct Fixed(AtomicU64);
//! impl Substrate for Fixed {
//!     fn now_ns(&self) -> u64 { self.0.fetch_add(10, Ordering::Relaxed) }
//!     fn relax(&self) { self.0.fetch_add(10, Ordering::Relaxed); }
//!     fn busy_wait_ns(&self, ns: u64) { self.0.fetch_add(ns, Ordering::Relaxed); }
//!     fn sleep_ns(&self, ns: u64) { self.0.fetch_add(ns, Ordering::Relaxed); }
//!     fn park(&self) { self.0.fetch_add(1_000, Ordering::Relaxed); }
//!     fn charge_work_units(&self, units: u64) { self.0.fetch_add(units, Ordering::Relaxed); }
//! }
//!
//! let guard = substrate::install(Arc::new(Fixed(AtomicU64::new(0))));
//! let a = asl_runtime::clock::now_ns();
//! let b = asl_runtime::clock::now_ns();
//! assert!(b > a && b - a <= 20, "virtual clock ticks 10 ns per read");
//! drop(guard); // back to the OS clock
//! ```

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One virtual thread's view of the execution substrate.
///
/// Methods are invoked by the runtime hooks on the thread the handle
/// was [`install`]ed on; each one *charges* the virtual thread for the
/// operation and may cooperatively switch to another virtual thread
/// before returning.
pub trait Substrate: Send + Sync {
    /// Current virtual time (ns). Charges one clock read.
    fn now_ns(&self) -> u64;

    /// One failed spin probe ([`crate::relax::Spin::relax`]); always a
    /// yield point.
    fn relax(&self);

    /// Spin for `ns` virtual nanoseconds while occupying the core.
    fn busy_wait_ns(&self, ns: u64);

    /// Sleep for `ns` virtual nanoseconds *off* the core (the core is
    /// free for co-scheduled virtual threads meanwhile).
    fn sleep_ns(&self, ns: u64);

    /// Block until a wakeup *may* have happened. Like
    /// [`std::thread::park`], spurious returns are allowed — every
    /// caller in the workspace re-checks its predicate in a loop — so
    /// a simulation may simply charge a bounded wait and return.
    fn park(&self);

    /// Execute `units` of pre-scaled emulated work
    /// ([`crate::work::execute_raw_units`]) in virtual time.
    fn charge_work_units(&self, units: u64);

    /// Cores of the machine this substrate models, for code that sizes
    /// itself to the machine ([`core_count`]). `None` — the default —
    /// means "no model": ask the host.
    fn core_count(&self) -> Option<usize> {
        None
    }
}

/// Count of threads process-wide with an installed substrate. The
/// fast-path gate: zero means every hook is a single relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Arc<dyn Substrate>>> = const { RefCell::new(None) };
}

/// True when *any* thread in the process has a substrate installed.
/// Cheap (one relaxed load); used to gate the thread-local lookup.
#[inline(always)]
pub fn any_installed() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// True when the *calling* thread has a substrate installed.
#[inline]
pub fn installed_here() -> bool {
    any_installed() && CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` against the calling thread's substrate, if one is
/// installed. Returns `None` (without calling `f`) on the OS path.
#[inline]
pub fn with_current<R>(f: impl FnOnce(&dyn Substrate) -> R) -> Option<R> {
    if !any_installed() {
        return None;
    }
    with_current_slow(f)
}

/// The thread-local lookup, kept out of line so the hot-path callers
/// (clock reads, spin relaxes, emulated work) only inline the relaxed
/// gate load and a branch — not the TLS access machinery.
#[cold]
#[inline(never)]
fn with_current_slow<R>(f: impl FnOnce(&dyn Substrate) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

/// Park the calling thread: through the substrate when one is
/// installed, otherwise via `os_park` (typically
/// [`std::thread::park`]). Spurious returns are allowed either way.
#[inline]
pub fn park_or(os_park: impl FnOnce()) {
    if with_current(|s| s.park()).is_none() {
        os_park();
    }
}

/// Cores of the machine the calling thread runs on: the modeled
/// machine's under an installed substrate that has one
/// ([`Substrate::core_count`]), the CPUs the host lends this process
/// otherwise ([`crate::affinity::process_cpus`]: a worker pinned to
/// one CPU is not on a one-CPU machine). Anything sized "to the
/// machine" on a path a simulated thread can reach must ask here, or a
/// virtual-time result depends on the host it was computed on.
pub fn core_count() -> usize {
    with_current(|s| s.core_count())
        .flatten()
        .unwrap_or_else(crate::affinity::process_cpus)
}

/// Uninstalls the thread's substrate on drop. Not `Send`: the
/// substrate binding is strictly per-thread.
pub struct SubstrateGuard {
    _not_send: PhantomData<*const ()>,
}

/// Install `handle` as the calling thread's substrate until the
/// returned guard is dropped.
///
/// # Panics
/// Panics if the thread already has a substrate installed.
pub fn install(handle: Arc<dyn Substrate>) -> SubstrateGuard {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        assert!(cur.is_none(), "substrate already installed on this thread");
        *cur = Some(handle);
    });
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    SubstrateGuard {
        _not_send: PhantomData,
    }
}

impl Drop for SubstrateGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Counting {
        t: AtomicU64,
        polls: AtomicU64,
    }

    impl Substrate for Counting {
        fn now_ns(&self) -> u64 {
            self.t.fetch_add(1, Ordering::Relaxed) + 1
        }
        fn relax(&self) {
            self.polls.fetch_add(1, Ordering::Relaxed);
        }
        fn busy_wait_ns(&self, ns: u64) {
            self.t.fetch_add(ns, Ordering::Relaxed);
        }
        fn sleep_ns(&self, ns: u64) {
            self.t.fetch_add(ns, Ordering::Relaxed);
        }
        fn park(&self) {
            self.polls.fetch_add(1, Ordering::Relaxed);
        }
        fn charge_work_units(&self, units: u64) {
            self.t.fetch_add(units, Ordering::Relaxed);
        }
    }

    #[test]
    fn os_path_has_no_substrate() {
        assert!(with_current(|_| ()).is_none());
        assert!(!installed_here());
        let mut parked_via_os = false;
        park_or(|| parked_via_os = true);
        assert!(parked_via_os);
    }

    #[test]
    fn install_routes_hooks_and_uninstalls_on_drop() {
        let sub = Arc::new(Counting {
            t: AtomicU64::new(0),
            polls: AtomicU64::new(0),
        });
        {
            let _g = install(sub.clone());
            assert!(installed_here());
            assert_eq!(with_current(|s| s.now_ns()), Some(1));
            park_or(|| panic!("must not OS-park with a substrate installed"));
            assert_eq!(sub.polls.load(Ordering::Relaxed), 1);
        }
        assert!(!installed_here());
    }

    #[test]
    fn core_count_prefers_the_modeled_machine() {
        struct Modeled;
        impl Substrate for Modeled {
            fn now_ns(&self) -> u64 {
                0
            }
            fn relax(&self) {}
            fn busy_wait_ns(&self, _: u64) {}
            fn sleep_ns(&self, _: u64) {}
            fn park(&self) {}
            fn charge_work_units(&self, _: u64) {}
            fn core_count(&self) -> Option<usize> {
                Some(4_321)
            }
        }
        let host = crate::affinity::process_cpus();
        assert_eq!(core_count(), host);
        {
            // A substrate with no machine model defers to the host.
            let _g = install(Arc::new(Counting {
                t: AtomicU64::new(0),
                polls: AtomicU64::new(0),
            }));
            assert_eq!(core_count(), host);
        }
        let _g = install(Arc::new(Modeled));
        assert_eq!(core_count(), 4_321);
    }

    #[test]
    fn virtual_clock_reaches_public_clock_api() {
        let sub = Arc::new(Counting {
            t: AtomicU64::new(41),
            polls: AtomicU64::new(0),
        });
        let _g = install(sub);
        assert_eq!(crate::clock::now_ns(), 42);
        // A deadline check is one read of the same clock.
        assert!(crate::clock::Deadline::new(43).passed());
        assert_eq!(crate::clock::now_ns(), 44);
    }
}
