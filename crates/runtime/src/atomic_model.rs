//! Asymmetric atomic-operation success model.
//!
//! Paper §2.2: "the success rate of atomic operations (e.g.
//! test-and-set) is asymmetric" on AMP — on some platforms big cores
//! stably win the TAS, on others (M1 under back-to-back contention)
//! little cores win, and the direction even shifts with contention
//! distance (footnote 1).
//!
//! Symmetric x86 hardware cannot reproduce that microarchitectural
//! bias, so we model it explicitly: the *disadvantaged* class pays a
//! fixed spin penalty (raw work units) between failed acquisition
//! attempts, which lowers its retry rate and therefore its win
//! probability — the observable effect the paper analyzes. The model
//! is a knob on the TAS lock, letting experiments reproduce both
//! Figure 1 (little-core-affinity) and Figure 4 (big-core-affinity).

use crate::topology::CoreKind;

/// Which core class wins contended atomics, and by how much.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AtomicAffinity {
    /// Both classes retry at the same rate.
    #[default]
    Neutral,
    /// Big cores win: little cores pay `penalty_units` after each
    /// failed attempt (Figure 4 / upscaledb scenario).
    BigWins {
        /// Extra raw work units the little core spins after a failure.
        penalty_units: u64,
    },
    /// Little cores win: big cores pay the penalty (Figure 1 / SQLite
    /// scenario).
    LittleWins {
        /// Extra raw work units the big core spins after a failure.
        penalty_units: u64,
    },
}

impl AtomicAffinity {
    /// Default penalty magnitude used by the paper-reproduction
    /// experiments: large enough for a stable affinity, small enough
    /// not to idle the loser entirely.
    pub const DEFAULT_PENALTY: u64 = 600;

    /// Big-core affinity with the default penalty.
    pub const fn big_wins() -> Self {
        AtomicAffinity::BigWins {
            penalty_units: Self::DEFAULT_PENALTY,
        }
    }

    /// Little-core affinity with the default penalty.
    pub const fn little_wins() -> Self {
        AtomicAffinity::LittleWins {
            penalty_units: Self::DEFAULT_PENALTY,
        }
    }

    /// Penalty (raw units) a thread of class `kind` pays after a
    /// failed atomic attempt.
    #[inline]
    pub fn post_fail_penalty(&self, kind: CoreKind) -> u64 {
        match (self, kind) {
            (AtomicAffinity::BigWins { penalty_units }, CoreKind::Little) => *penalty_units,
            (AtomicAffinity::LittleWins { penalty_units }, CoreKind::Big) => *penalty_units,
            _ => 0,
        }
    }

    /// The class this model favours, if any.
    pub fn favoured(&self) -> Option<CoreKind> {
        match self {
            AtomicAffinity::Neutral => None,
            AtomicAffinity::BigWins { .. } => Some(CoreKind::Big),
            AtomicAffinity::LittleWins { .. } => Some(CoreKind::Little),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_never_penalizes() {
        let m = AtomicAffinity::Neutral;
        assert_eq!(m.post_fail_penalty(CoreKind::Big), 0);
        assert_eq!(m.post_fail_penalty(CoreKind::Little), 0);
        assert_eq!(m.favoured(), None);
    }

    #[test]
    fn big_wins_penalizes_little() {
        let m = AtomicAffinity::BigWins { penalty_units: 42 };
        assert_eq!(m.post_fail_penalty(CoreKind::Big), 0);
        assert_eq!(m.post_fail_penalty(CoreKind::Little), 42);
        assert_eq!(m.favoured(), Some(CoreKind::Big));
    }

    #[test]
    fn little_wins_penalizes_big() {
        let m = AtomicAffinity::LittleWins { penalty_units: 7 };
        assert_eq!(m.post_fail_penalty(CoreKind::Big), 7);
        assert_eq!(m.post_fail_penalty(CoreKind::Little), 0);
        assert_eq!(m.favoured(), Some(CoreKind::Little));
    }

    #[test]
    fn default_is_neutral() {
        assert_eq!(AtomicAffinity::default(), AtomicAffinity::Neutral);
    }
}
