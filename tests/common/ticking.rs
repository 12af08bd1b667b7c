//! A substrate whose clock the test owns — shared by the test binaries
//! that count clock reads or predict timestamps (`acquire_hygiene`,
//! `proptests`); each includes this file by path.

// Each test binary that includes this module uses its own subset.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};

use libasl::runtime::substrate::Substrate;

/// A virtual clock that ticks 10 ns per read, far from host time — and
/// nothing else moves it, so reads can be counted and predicted.
pub struct Ticking(pub AtomicU64);

impl Ticking {
    /// Clock reads `f` makes on this thread.
    pub fn reads_in(&self, f: impl FnOnce()) -> u64 {
        let before = self.0.load(Ordering::Relaxed);
        f();
        (self.0.load(Ordering::Relaxed) - before) / 10
    }
}

impl Substrate for Ticking {
    fn now_ns(&self) -> u64 {
        self.0.fetch_add(10, Ordering::Relaxed)
    }
    fn relax(&self) {}
    fn busy_wait_ns(&self, _: u64) {}
    fn sleep_ns(&self, _: u64) {}
    fn park(&self) {}
    fn charge_work_units(&self, _: u64) {}
}
