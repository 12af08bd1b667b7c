//! Thread → virtual-core registry.
//!
//! LibASL identifies the caller's core class on every lock acquisition
//! ("getting the core id and looking up a pre-defined table", §3.3).
//! In the emulation, a thread *declares* its virtual core once via
//! [`register_on_core`]; [`is_big_core`] and [`work_multiplier`] are
//! then thread-local reads, costing a few nanoseconds — comparable to
//! the real lookup.
//!
//! Unregistered threads behave as big cores with multiplier 1.0, so
//! plain code that never touches topology still works (this mirrors
//! the paper's "non-latency-critical applications can transparently
//! use LibASL").

use std::cell::Cell;

use crate::topology::{CoreId, CoreKind, Topology};

/// The assignment of the current thread to a virtual core.
#[derive(Debug, Clone, Copy)]
pub struct CoreAssignment {
    /// Which virtual core this thread runs on.
    pub core: CoreId,
    /// Class of that core.
    pub kind: CoreKind,
    /// NUMA socket of that core.
    pub socket: usize,
    /// Emulated-work multiplier for this thread (1.0 on big cores,
    /// the topology's `perf_ratio` on little cores).
    pub multiplier: f64,
}

impl CoreAssignment {
    /// Assignment used for threads that never registered.
    pub const DEFAULT_BIG: CoreAssignment = CoreAssignment {
        core: CoreId(0),
        kind: CoreKind::Big,
        socket: 0,
        multiplier: 1.0,
    };
}

thread_local! {
    static ASSIGNMENT: Cell<CoreAssignment> = const {
        Cell::new(CoreAssignment::DEFAULT_BIG)
    };
}

/// Register the current thread on `core` of `topology`.
///
/// Overwrites any previous registration (threads may migrate, as the
/// paper's energy-aware-scheduler discussion allows).
pub fn register_on_core(topology: &Topology, core: CoreId) -> CoreAssignment {
    let vc = topology.core(core);
    let a = CoreAssignment {
        core,
        kind: vc.kind,
        socket: vc.socket,
        multiplier: topology.work_multiplier(vc.kind),
    };
    ASSIGNMENT.with(|c| c.set(a));
    a
}

/// Remove the current thread's registration (back to default-big).
pub fn unregister() {
    ASSIGNMENT.with(|c| c.set(CoreAssignment::DEFAULT_BIG));
}

/// The current thread's assignment.
#[inline]
pub fn current_core() -> CoreAssignment {
    ASSIGNMENT.with(|c| c.get())
}

/// Paper Algorithm 3's `is_big_core()`: true when the calling thread
/// runs on a big (or unregistered/default) core.
#[inline]
pub fn is_big_core() -> bool {
    current_core().kind == CoreKind::Big
}

/// The emulated-work multiplier for the calling thread.
#[inline]
pub fn work_multiplier() -> f64 {
    current_core().multiplier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_big() {
        unregister();
        assert!(is_big_core());
        assert_eq!(work_multiplier(), 1.0);
    }

    #[test]
    fn register_little() {
        let t = Topology::apple_m1();
        let a = register_on_core(&t, CoreId(5));
        assert_eq!(a.kind, CoreKind::Little);
        assert!(!is_big_core());
        assert_eq!(current_core().core, CoreId(5));
        assert_eq!(work_multiplier(), t.perf_ratio());
        unregister();
    }

    #[test]
    fn register_big_then_migrate() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(1));
        assert!(is_big_core());
        register_on_core(&t, CoreId(6));
        assert!(!is_big_core());
        unregister();
        assert!(is_big_core());
    }

    #[test]
    fn registration_is_thread_local() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(7));
        assert!(!is_big_core());
        std::thread::spawn(|| {
            // Fresh thread: default big.
            assert!(is_big_core());
        })
        .join()
        .unwrap();
        unregister();
    }
}
