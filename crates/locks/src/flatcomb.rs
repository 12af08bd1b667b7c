//! Flat combining (Hendler et al., SPAA 2010 \[47\]) — the delegation
//! comparator from the paper's related work (§5).
//!
//! Delegation locks execute *all* critical sections on one core
//! instead of migrating the lock. The paper notes that "placing the
//! lock server on big cores can hide the weak computing capacity of
//! little cores", at two costs LibASL avoids: critical sections must
//! be converted into closures (invasive), and at low contention a
//! precious big core busy-polls.
//!
//! [`FlatCombiner`] is the publication-slot engine of
//! [`delegation`](crate::delegation) with the *combiner* executor and
//! no usage policy ([`SlotLock`]`<.., false, false>`, which is where
//! its methods are documented): whichever submitter grabs the
//! executor flag executes every published pending operation. No
//! dedicated core, but the combiner is whichever class happens to win
//! — on AMP a little-core combiner executes *everyone's* critical
//! section slowly. The same engine with a dedicated server loop (bound by the
//! caller to a big core — the strongest delegation configuration on
//! AMP, `repro sec5-delegation`) is [`RclLock`](crate::rcl::RclLock);
//! with the ban policy it is [`FcBan`](crate::fcban::FcBan); the
//! combining *queue* lives in [`ccsynch`](crate::ccsynch).
//!
//! Operations are a caller-chosen `Op` type applied by a caller-
//! chosen function, keeping the hot path allocation-free (no boxed
//! closures). The participant cap ([`MAX_SLOTS`] — exhaustion is the
//! clean [`SlotsExhausted`](crate::delegation::SlotsExhausted) error)
//! and the panic-isolation protocol are the family's.

use crate::delegation::SlotLock;

pub use crate::delegation::MAX_SLOTS;

/// Classic flat combining over a value `T` with operation type `Op`:
/// the [`SlotLock`] whose submitters execute, with no usage policy.
pub type FlatCombiner<T, Op, Out, F> = SlotLock<T, Op, Out, F, false, false>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_ops() {
        let fc = FlatCombiner::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let h = fc.register();
        assert_eq!(h.apply(5), 5);
        assert_eq!(h.apply(7), 12);
        drop(h);
        assert_eq!(fc.into_inner(), 12);
    }

    #[test]
    fn concurrent_counter_flat_combining() {
        let fc = FlatCombiner::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let mut handles = vec![];
        for _ in 0..8 {
            let h = fc.register();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    h.apply(1);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(fc.into_inner(), 160_000);
    }
}
