//! Epoch annotation and the SLO feedback loop (paper Algorithm 2).
//!
//! An *epoch* is an application-designated latency-critical span —
//! typically one request-handling procedure — identified by a small
//! static id. Each thread keeps, per epoch id, a reorder window, the
//! epoch's start timestamp, and a growth unit. [`epoch_end`] compares
//! the measured epoch latency against the caller-supplied SLO and
//! adjusts the window the way TCP congestion control adjusts its
//! window:
//!
//! * **violation** (`latency > SLO`): `window >>= 1` and
//!   `unit = window * (100 - PCT) / 100`;
//! * **success**: `window += unit` (clamped to the configured max).
//!
//! With PCT = 99 the growth unit is 1% of the last reduced window, so
//! after a violation it takes ~100 successful epochs to climb back —
//! which is exactly what bounds the violation probability near
//! `1 - PCT/100` (paper footnote 4).
//!
//! Nesting is supported with a per-thread stack; `epoch_end` of an
//! inner epoch restores the outer epoch as current (the paper's
//! "LibASL always prioritizes the inner epoch").
//!
//! Everything here is thread-local: no synchronization on the epoch
//! path. The paper measures ~93 cycles for the pair of epoch calls;
//! ours is two [`now_ns`] reads (one cycle-counter read each where the
//! host has a trusted one — see [`asl_runtime::clock`]) plus a handful
//! of plain thread-local loads and stores: the open epoch's id,
//! window, start and unit sit in const-initialised `Cell`s, and the
//! 128-entry table and the nesting stack behind them are touched only
//! when a thread changes epoch id or nests.

use std::cell::{Cell, RefCell};

use asl_runtime::clock::now_ns;
use asl_runtime::registry::is_big_core;

use crate::config;

/// Number of distinct epoch ids usable per thread.
pub const MAX_EPOCHS: usize = 128;

/// Per-epoch, per-thread metadata (paper's `epoch_t`: 24 bytes).
#[derive(Debug, Clone, Copy)]
pub struct EpochMeta {
    /// Current reorder window (ns).
    pub window: u64,
    /// Timestamp of the last `epoch_start` (ns).
    pub start: u64,
    /// Linear growth unit (ns).
    pub unit: u64,
    /// Whether this id has been used on this thread yet.
    pub used: bool,
}

impl EpochMeta {
    fn fresh() -> Self {
        let cfg = config::current();
        EpochMeta {
            window: cfg.default_window_ns,
            start: 0,
            unit: config::unit_for_window(cfg.default_window_ns, cfg.pct),
            used: false,
        }
    }
}

/// The hot side of a thread's epoch state: what one un-nested
/// `epoch_start` / lock / `epoch_end` round on a repeating id reads
/// and writes. No lazy initialisation, no destructor, no borrow flag.
///
/// `slot` names the table entry whose metadata currently lives in
/// `meta` instead of in [`Cold::table`] (a one-entry write-back
/// cache; -1 = none). Invariant: while an epoch is open (`cur >= 0`)
/// it is the cached one (`slot == cur`).
struct Hot {
    /// Currently open epoch id, or -1 (paper's `cur_epoch_id`).
    cur: Cell<i32>,
    /// Length of [`Cold::stack`], so an un-nested `epoch_end` need not
    /// look.
    depth: Cell<u32>,
    slot: Cell<i32>,
    meta: Cell<EpochMeta>,
}

/// The cold side: every epoch id's metadata but the cached one, and
/// the stack of outer epochs (paper's `epoch_stack`).
struct Cold {
    table: Box<[EpochMeta; MAX_EPOCHS]>,
    stack: Vec<i32>,
}

impl Cold {
    fn new() -> Self {
        Cold {
            table: Box::new([EpochMeta::fresh(); MAX_EPOCHS]),
            stack: Vec::with_capacity(8),
        }
    }
}

thread_local! {
    static HOT: Hot = const {
        Hot {
            cur: Cell::new(-1),
            depth: Cell::new(0),
            slot: Cell::new(-1),
            meta: Cell::new(EpochMeta { window: 0, start: 0, unit: 0, used: false }),
        }
    };
    static COLD: RefCell<Cold> = RefCell::new(Cold::new());
}

// The bodies of `epoch_start` / `epoch_end` are methods, not closures
// handed to `LocalKey::with`: a closure this size keeps `with` from
// being inlined, and the un-inlined `with` reaches the thread-local
// through an indirect call.
impl Hot {
    #[inline(never)]
    fn start(&self, id: usize) {
        if self.cur.get() >= 0 {
            self.push_outer(self.cur.get());
        }
        self.cur.set(id as i32);
        let mut m = self.load(id);
        m.start = now_ns();
        m.used = true;
        self.meta.set(m);
    }

    #[inline(never)]
    fn end(&self, id: usize, slo_ns: u64, end: u64) -> u64 {
        let mut m = self.load(id);
        let latency = end.saturating_sub(m.start);
        if !is_big_core() {
            if latency > slo_ns {
                m.window >>= 1;
                m.unit = config::unit_for_window(m.window, config::pct());
            } else {
                m.window = (m.window + m.unit).min(config::max_window_ns());
            }
            self.meta.set(m);
        }
        if self.depth.get() == 0 {
            self.cur.set(-1);
        } else {
            self.pop_outer();
        }
        latency
    }

    /// Metadata of epoch `id`, through the cache.
    #[inline]
    fn load(&self, id: usize) -> EpochMeta {
        if self.slot.get() != id as i32 {
            self.switch_slot(id as i32);
        }
        self.meta.get()
    }

    /// Write the cached entry back and cache entry `id` (-1: none).
    #[cold]
    fn switch_slot(&self, id: i32) {
        COLD.with(|c| {
            let mut c = c.borrow_mut();
            if let Ok(old) = usize::try_from(self.slot.get()) {
                c.table[old] = self.meta.get();
            }
            if let Ok(new) = usize::try_from(id) {
                self.meta.set(c.table[new]);
            }
        });
        self.slot.set(id);
    }

    #[cold]
    fn push_outer(&self, outer: i32) {
        COLD.with(|c| c.borrow_mut().stack.push(outer));
        self.depth.set(self.depth.get() + 1);
    }

    /// Back to the enclosing epoch, which becomes the cached one.
    #[cold]
    fn pop_outer(&self) {
        let outer = COLD.with(|c| c.borrow_mut().stack.pop()).unwrap_or(-1);
        self.depth.set(self.depth.get() - 1);
        self.cur.set(outer);
        if outer >= 0 {
            self.switch_slot(outer);
        }
    }
}

/// Begin epoch `id` on this thread (paper `epoch_start`).
///
/// Pushes any currently open epoch onto the nesting stack.
///
/// # Panics
/// Panics if `id >= MAX_EPOCHS`.
pub fn epoch_start(id: usize) {
    assert!(id < MAX_EPOCHS, "epoch id {id} out of range");
    HOT.with(|h| h.start(id));
}

/// End epoch `id` with the given latency SLO in nanoseconds (paper
/// `epoch_end`). Returns the measured epoch latency (ns).
///
/// On big cores the window is left untouched (big cores never stand
/// by), but nesting state is still maintained.
///
/// # Panics
/// Panics if `id >= MAX_EPOCHS`.
pub fn epoch_end(id: usize, slo_ns: u64) -> u64 {
    assert!(id < MAX_EPOCHS, "epoch id {id} out of range");
    let end = now_ns();
    HOT.with(|h| h.end(id, slo_ns, end))
}

/// Reorder window of the currently open epoch, if any (used by the
/// dispatch layer, paper Algorithm 3 lines 4–8).
#[inline]
pub fn current_window() -> Option<u64> {
    HOT.with(|h| (h.cur.get() >= 0).then(|| h.meta.get().window))
}

/// Id of the currently open epoch, if any.
pub fn current_epoch_id() -> Option<usize> {
    usize::try_from(HOT.with(|h| h.cur.get())).ok()
}

/// Current metadata for epoch `id` on this thread.
pub fn epoch_meta(id: usize) -> EpochMeta {
    assert!(id < MAX_EPOCHS);
    HOT.with(|h| {
        if h.slot.get() == id as i32 {
            h.meta.get()
        } else {
            COLD.with(|c| c.borrow().table[id])
        }
    })
}

/// Overwrite the reorder window of epoch `id` (used by LibASL-OPT
/// experiments that pin a static window, and by tests).
pub fn set_epoch_window(id: usize, window_ns: u64) {
    assert!(id < MAX_EPOCHS);
    let set = |m: &mut EpochMeta| {
        m.window = window_ns;
        m.used = true;
    };
    HOT.with(|h| {
        if h.slot.get() == id as i32 {
            let mut m = h.meta.get();
            set(&mut m);
            h.meta.set(m);
        } else {
            COLD.with(|c| set(&mut c.borrow_mut().table[id]));
        }
    });
}

/// Reset all of this thread's epoch state to defaults (tests and
/// between-experiment hygiene).
pub fn reset_thread_epochs() {
    COLD.with(|c| *c.borrow_mut() = Cold::new());
    HOT.with(|h| {
        h.cur.set(-1);
        h.depth.set(0);
        h.slot.set(-1);
    });
}

/// Scoped helper: run `f` inside epoch `id` with the given SLO.
/// Returns `f`'s result and the measured latency (ns).
pub fn with_epoch_timed<R>(id: usize, slo_ns: u64, f: impl FnOnce() -> R) -> (R, u64) {
    epoch_start(id);
    let r = f();
    let lat = epoch_end(id, slo_ns);
    (r, lat)
}

/// Scoped helper: run `f` inside epoch `id` with the given SLO.
pub fn with_epoch<R>(id: usize, slo_ns: u64, f: impl FnOnce() -> R) -> R {
    with_epoch_timed(id, slo_ns, f).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::registry::{register_on_core, unregister};
    use asl_runtime::topology::{CoreId, Topology};

    fn on_little<R>(f: impl FnOnce() -> R) -> R {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(5));
        let r = f();
        unregister();
        r
    }

    #[test]
    fn window_shrinks_on_violation() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(1, 8_000);
            epoch_start(1);
            // SLO of 0 ns: guaranteed violation.
            epoch_end(1, 0);
            let m = epoch_meta(1);
            assert_eq!(m.window, 4_000);
            // unit = window * (100-99)/100 = 40ns, above the floor? floor=100
            assert_eq!(m.unit, config::unit_for_window(4_000, 99));
        });
    }

    #[test]
    fn window_grows_on_success() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(2, 10_000);
            let before = epoch_meta(2);
            epoch_start(2);
            // Huge SLO: success.
            epoch_end(2, u64::MAX);
            let after = epoch_meta(2);
            assert_eq!(after.window, before.window + before.unit);
        });
    }

    #[test]
    fn window_clamped_to_max() {
        on_little(|| {
            reset_thread_epochs();
            let max = config::max_window_ns();
            set_epoch_window(3, max);
            epoch_start(3);
            epoch_end(3, u64::MAX);
            assert_eq!(epoch_meta(3).window, max);
        });
    }

    #[test]
    fn repeated_violations_collapse_to_fifo() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(4, 1 << 20);
            for _ in 0..40 {
                epoch_start(4);
                epoch_end(4, 0);
            }
            // Fallback-to-FIFO regime: window hits zero.
            assert_eq!(epoch_meta(4).window, 0);
            // And can recover thanks to the unit floor.
            epoch_start(4);
            epoch_end(4, u64::MAX);
            assert!(epoch_meta(4).window > 0);
        });
    }

    #[test]
    fn big_core_does_not_adjust() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(0)); // big
        reset_thread_epochs();
        set_epoch_window(5, 4_096);
        epoch_start(5);
        epoch_end(5, 0); // would violate on a little core
        assert_eq!(epoch_meta(5).window, 4_096);
        unregister();
    }

    #[test]
    fn nesting_restores_outer() {
        on_little(|| {
            reset_thread_epochs();
            assert_eq!(current_epoch_id(), None);
            epoch_start(7);
            assert_eq!(current_epoch_id(), Some(7));
            epoch_start(8);
            assert_eq!(current_epoch_id(), Some(8));
            epoch_end(8, u64::MAX);
            assert_eq!(current_epoch_id(), Some(7));
            epoch_end(7, u64::MAX);
            assert_eq!(current_epoch_id(), None);
        });
    }

    #[test]
    fn current_window_reflects_open_epoch() {
        on_little(|| {
            reset_thread_epochs();
            assert_eq!(current_window(), None);
            set_epoch_window(9, 12_345);
            epoch_start(9);
            assert_eq!(current_window(), Some(12_345));
            epoch_end(9, u64::MAX);
            assert_eq!(current_window(), None);
        });
    }

    #[test]
    fn latency_measured_sanely() {
        on_little(|| {
            reset_thread_epochs();
            let (_, lat) = with_epoch_timed(10, u64::MAX, || {
                asl_runtime::clock::busy_wait_ns(300_000);
            });
            assert!(lat >= 300_000, "latency {lat} < busy-wait time");
        });
    }

    #[test]
    fn growth_unit_follows_pct() {
        on_little(|| {
            config::set_pct(90);
            reset_thread_epochs();
            set_epoch_window(11, 100_000);
            epoch_start(11);
            epoch_end(11, 0); // violate: window -> 50_000, unit -> 10% = 5_000
            let m = epoch_meta(11);
            assert_eq!(m.window, 50_000);
            assert_eq!(m.unit, 5_000);
            config::set_pct(99);
        });
    }

    #[test]
    #[should_panic]
    fn epoch_id_out_of_range() {
        epoch_start(MAX_EPOCHS);
    }

    #[test]
    fn epoch_state_is_per_thread() {
        on_little(|| {
            reset_thread_epochs();
            set_epoch_window(12, 77);
        });
        std::thread::spawn(|| {
            assert_ne!(epoch_meta(12).window, 77, "TLS leaked across threads");
        })
        .join()
        .unwrap();
    }
}
