//! Shared cache-line arena.
//!
//! The paper's micro-benchmark critical sections "read-modify-write a
//! specific number of shared cache lines". The arena gives every
//! experiment the same substrate: an aligned array of 64-byte lines,
//! each holding an atomic counter, so RMW traffic produces genuine
//! coherence misses between the competing cores.

use std::sync::atomic::{AtomicU64, Ordering};

/// One 64-byte cache line holding a counter.
#[repr(align(64))]
pub struct CacheLine {
    value: AtomicU64,
    _pad: [u8; 56],
}

impl CacheLine {
    fn new() -> Self {
        CacheLine {
            value: AtomicU64::new(0),
            _pad: [0; 56],
        }
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed arena of shared cache lines.
pub struct CacheLineArena {
    lines: Box<[CacheLine]>,
}

impl CacheLineArena {
    /// Allocate `n` lines (all zero).
    pub fn new(n: usize) -> Self {
        CacheLineArena {
            lines: (0..n).map(|_| CacheLine::new()).collect(),
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when the arena has no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Read-modify-write lines `[offset, offset+k)` (wrapping), the
    /// paper's critical-section body. Uses plain load+store pairs
    /// (not `fetch_add`) intentionally: the caller holds a lock, so a
    /// relaxed read-increment-write is exactly the "protected shared
    /// data" access pattern the paper exercises.
    #[inline]
    pub fn rmw(&self, offset: usize, k: usize) {
        let n = self.lines.len();
        debug_assert!(n > 0);
        for i in 0..k {
            let line = &self.lines[(offset + i) % n];
            let v = line.value.load(Ordering::Relaxed);
            line.value.store(v.wrapping_add(1), Ordering::Relaxed);
        }
    }

    /// Sum of all line counters (test/verification helper).
    pub fn total(&self) -> u64 {
        self.lines
            .iter()
            .map(|l| l.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Value of one line.
    pub fn line(&self, i: usize) -> u64 {
        self.lines[i].value.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for l in self.lines.iter() {
            l.value.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_is_64_bytes() {
        assert_eq!(std::mem::size_of::<CacheLine>(), 64);
        assert_eq!(std::mem::align_of::<CacheLine>(), 64);
    }

    #[test]
    fn rmw_touches_k_lines() {
        let a = CacheLineArena::new(8);
        a.rmw(0, 4);
        assert_eq!(a.total(), 4);
        assert_eq!(a.line(0), 1);
        assert_eq!(a.line(3), 1);
        assert_eq!(a.line(4), 0);
    }

    #[test]
    fn rmw_wraps() {
        let a = CacheLineArena::new(4);
        a.rmw(2, 4);
        assert_eq!(a.total(), 4);
        assert_eq!(a.line(0), 1);
        assert_eq!(a.line(2), 1);
    }

    #[test]
    fn reset_zeroes() {
        let a = CacheLineArena::new(3);
        a.rmw(0, 3);
        a.reset();
        assert_eq!(a.total(), 0);
    }
}
