//! The capability columns of the registry table.

use std::fmt;

/// What a lock family promises: the capability columns of its
/// [`super::Family`] row, printed by `repro locks` as one letter each (`-`
/// where the family lacks the capability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps(u8);

impl Caps {
    /// No capability.
    pub const NONE: Caps = Caps(0);
    /// `F` — exclusive grants follow arrival order exactly (the
    /// torture sweep's FIFO oracle holds the family to it).
    pub const FIFO: Caps = Caps(1);
    /// `R` — a genuine reader-writer lock: shared acquisitions overlap.
    pub const RW: Caps = Caps(1 << 1);
    /// `t` — a timed acquire (`RawTimedLock::try_lock_for`) exists **on
    /// the static type only**. The erased form the registry builds
    /// cannot back out of a wait: `PlainLock` has no timed entry point
    /// and, its required methods being frozen, can only ever gain a
    /// provided one. No row offers more today.
    pub const TIMED_STATIC: Caps = Caps(1 << 2);
    /// `E` — the family takes epochs: its duration parameter is the
    /// SLO [`super::LockSpec::epoch_slo`] reports, and it guards a KV shard
    /// as the deadline-ordered [`asl_locks::AsyncPolicy::Slo`] queue.
    pub const EPOCH: Caps = Caps(1 << 3);
    /// `B` — a waiter may give up its CPU (futex, park, nanosleep).
    pub const BLOCKING: Caps = Caps(1 << 4);
    /// `D` — a delegation structure, reached through the baton bridge.
    pub const DELEGATION: Caps = Caps(1 << 5);

    /// Both sets together.
    pub const fn and(self, other: Caps) -> Caps {
        Caps(self.0 | other.0)
    }

    /// What of this set is also in `kept`.
    pub const fn only(self, kept: Caps) -> Caps {
        Caps(self.0 & kept.0)
    }

    /// Whether every capability of `cap` is in this set.
    pub const fn has(self, cap: Caps) -> bool {
        self.0 & cap.0 == cap.0
    }
}

impl fmt::Display for Caps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One letter per capability, in bit order.
        let letter = |(bit, c)| if self.0 >> bit & 1 == 1 { c } else { '-' };
        f.write_str(&"FRtEBD".chars().enumerate().map(letter).collect::<String>())
    }
}
