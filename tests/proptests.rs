//! Workspace-wide property-based tests (proptest).

mod common;
#[path = "common/ticking.rs"]
mod ticking;

use std::sync::Arc;

use libasl::dbsim::LockFactory;
use libasl::harness::locks::LockSpec;
use libasl::locks::plain::PlainLock;
use libasl::runtime::stats::Samples;
use libasl::runtime::Topology;
use libasl::sim::{RunResult, ZooConfig};
use proptest::prelude::*;

fn mcs_factory() -> impl LockFactory {
    || -> Arc<dyn PlainLock> { Arc::new(libasl::locks::McsLock::new()) }
}

/// Naive exact percentile: the oracle for the latency record.
fn exact_percentile(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn samples_percentile_is_nearest_rank(
        mut values in prop::collection::vec(0u64..1_000_000_000, 1..500),
        tenths in 0u32..1_001,
    ) {
        let p = f64::from(tenths) / 10.0;
        let s = Samples::from(values.clone());
        prop_assert_eq!(s.percentile(p), exact_percentile(&mut values, p));
        prop_assert_eq!(s.max(), *values.last().unwrap());
    }

    #[test]
    fn samples_from_two_halves_in_either_order_are_one_record(
        a in prop::collection::vec(1u64..1_000_000, 0..200),
        b in prop::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let ab = Samples::from(a.iter().chain(&b).copied().collect::<Vec<_>>());
        let ba = Samples::from(b.iter().chain(&a).copied().collect::<Vec<_>>());
        prop_assert_eq!(ab.len(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ab.percentile(99.0), ba.percentile(99.0));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn samples_fraction_at_or_below_is_monotone_and_ends_at_one(
        values in prop::collection::vec(1u64..1_000_000_000, 1..300),
    ) {
        let s = Samples::from(values.clone());
        let max = s.max();
        let mut prev = 0.0f64;
        for i in 0..=64u64 {
            let f = s.fraction_at_or_below(max / 64 * i);
            let below = values.iter().filter(|&&v| v <= max / 64 * i).count();
            prop_assert_eq!(f, below as f64 / values.len() as f64);
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert_eq!(s.fraction_at_or_below(max), 1.0);
    }

    #[test]
    fn kyoto_agrees_with_hashmap_model(
        ops in prop::collection::vec((0u64..500, any::<bool>()), 1..300),
    ) {
        let db = libasl::dbsim::kyoto::Kyoto::new(&mcs_factory(), 4);
        let mut model = std::collections::HashMap::new();
        for (key, is_put) in ops {
            if is_put {
                let v = libasl::dbsim::value_for(key);
                db.put(key, v);
                model.insert(key, v);
            } else {
                prop_assert_eq!(db.get(key), model.get(&key).copied());
            }
        }
        prop_assert_eq!(db.len(), model.len());
    }

    #[test]
    fn sqlite_point_queries_agree_with_model(
        rows in prop::collection::vec((0u64..1_000, 0u64..1_000), 1..60),
    ) {
        let db = libasl::dbsim::sqlite::Sqlite::new(&mcs_factory(), 0);
        let mut model = std::collections::HashMap::new();
        for (indexed, payload) in rows {
            db.insert(indexed, payload);
            model.insert(indexed, payload); // last writer wins in the index
        }
        for (indexed, payload) in &model {
            let row = db.select_point(*indexed);
            prop_assert!(row.is_some());
            prop_assert_eq!(row.unwrap().payload, *payload);
        }
    }

    #[test]
    fn proportional_policy_share_converges(
        n in 1u32..20,
        rounds in 200usize..2_000,
    ) {
        // With both classes always waiting, the proportional shuffle
        // policy must grant bigs n/(n+1) of the time (±10%).
        use libasl::locks::shuffle::{Candidate, ProportionalPolicy, ShufflePolicy};
        use libasl::runtime::CoreKind;
        let p = ProportionalPolicy::new(n);
        let cands = [Candidate { kind: CoreKind::Big }, Candidate { kind: CoreKind::Little }];
        let mut big = 0usize;
        for _ in 0..rounds {
            if p.pick(CoreKind::Big, &cands) == 0 {
                big += 1;
            }
        }
        let share = big as f64 / rounds as f64;
        let expect = n as f64 / (n as f64 + 1.0);
        prop_assert!(
            (share - expect).abs() < 0.1,
            "n={n}: share {share:.3} vs expected {expect:.3}"
        );
    }

    #[test]
    fn class_local_policy_skips_bounded(
        max_skips in 1u32..32,
        rounds in 100usize..1_000,
    ) {
        // The class-local policy may pass over the front waiter at
        // most `max_skips` times in a row before forcing FIFO.
        use libasl::locks::shuffle::{Candidate, ClassLocalPolicy, ShufflePolicy};
        use libasl::runtime::CoreKind;
        let p = ClassLocalPolicy::new(max_skips);
        // Front is always Little, a Big (releaser-class) waiter sits
        // behind it: the policy wants to skip every time.
        let cands = [Candidate { kind: CoreKind::Little }, Candidate { kind: CoreKind::Big }];
        let mut consecutive = 0u32;
        for _ in 0..rounds {
            if p.pick(CoreKind::Big, &cands) == 0 {
                consecutive = 0;
            } else {
                consecutive += 1;
                prop_assert!(
                    consecutive <= max_skips,
                    "front waiter skipped {consecutive} > bound {max_skips}"
                );
            }
        }
    }

    #[test]
    fn zipfian_samples_in_range_any_params(
        n in 1u64..100_000,
        theta_milli in 1u64..999,
        seed in 0u64..1_000,
    ) {
        use libasl::dbsim::workload::Zipfian;
        use rand::SeedableRng;
        let z = Zipfian::new(n, theta_milli as f64 / 1_000.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn epoch_feedback_window_bounded(
        initial in 1u64..100_000_000,
        outcomes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        // The real controller on a little core, driven by outcome
        // alone (SLO 0 = miss, u64::MAX = hit): the window stays within
        // [0, max_window] whatever the sequence, a miss never grows it
        // and a hit never shrinks it.
        use libasl::epoch;
        use libasl::runtime::topology::CoreId;
        let max_window = libasl::core::config::MAX_WINDOW_NS;
        libasl::runtime::register_on_core(&Topology::apple_m1(), CoreId(5));
        epoch::reset_thread_epochs();
        epoch::set_epoch_window(1, initial.min(max_window));
        for violated in outcomes {
            let before = epoch::epoch_meta(1).window;
            epoch::with_epoch(1, if violated { 0 } else { u64::MAX }, || ());
            let after = epoch::epoch_meta(1).window;
            prop_assert!(after <= max_window);
            prop_assert!(if violated { after <= before } else { after >= before });
        }
        libasl::runtime::registry::unregister();
    }
}

/// The modeled 4-big / 4-little machine under a LibASL-OPT lock with
/// a static reorder window (`common::run`: the real lock, stepped in
/// virtual time, jittered sections).
fn static_window_cell(seed: u64, window_ns: u64) -> RunResult {
    let cfg = ZooConfig {
        cs_units: 2_000,
        ncs_units: 1_000,
        duration_ns: 2_000_000,
        ..ZooConfig::quick(Topology::custom(4, 4, 3.0), 8, seed)
    };
    common::run(&cfg, LockSpec::AslOpt { window_ns }.make_lock_raw())
}

// Each case steps real locks through a few hundred acquisitions on the
// simulator (tens of ms of host time), so these run fewer cases than
// the pure-function properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sim_is_deterministic(
        seed in 0u64..1_000,
        cs in 500u64..5_000,
        ncs in 500u64..5_000,
    ) {
        let cfg = ZooConfig {
            cs_units: cs,
            ncs_units: ncs,
            duration_ns: 1_000_000,
            ..ZooConfig::quick(Topology::custom(4, 4, 3.0), 8, seed)
        };
        let a = common::run(&cfg, Arc::new(libasl::locks::McsLock::new()));
        let b = common::run(&cfg, Arc::new(libasl::locks::McsLock::new()));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sim_reorderable_never_starves_little(
        seed in 0u64..200,
        window in 1_000u64..1_000_000,
    ) {
        let r = static_window_cell(seed, window);
        // Bounded windows guarantee little-core progress.
        prop_assert!(r.little_ops > 0, "little cores starved at window {window}");
        prop_assert!(r.big_ops > 0);
    }

    #[test]
    fn sim_bigger_window_never_hurts_throughput_much(
        seed in 0u64..50,
    ) {
        let small = static_window_cell(seed, 1_000).throughput;
        let large = static_window_cell(seed, 10_000_000).throughput;
        // Monotone-ish: a larger reorder window (more reordering) must
        // not lose more than noise.
        prop_assert!(large > small * 0.9, "window 10ms {large:.0} << window 1us {small:.0}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Draw a (row, parameter) pair uniformly — every spelling of the
    /// parameter the row reads, a wrapper's inner name being a drawn
    /// registry member — and check that `from_str ∘ to_string` is the
    /// identity, that the printed name is one its own row reads back,
    /// and that no second row claims it.
    #[test]
    fn lockspec_names_roundtrip(row in 0usize..1_000, n in 0u64..120_000_000, inner in 0usize..1_000) {
        use libasl::harness::locks::{families, registry};
        let family = &families()[row % families().len()];
        let inner = registry()[inner % registry().len()].spec.to_string();
        let spellings = [String::new(), n.to_string(), format!("{n}ns"), format!("{n}us"), "max".into(), inner];
        let read: Vec<LockSpec> = spellings
            .iter()
            .filter_map(|param| family.parse(&format!("{}{param}", family.stem)))
            .collect();
        // (`malthusian-0` is the one count a row refuses.)
        prop_assert!(!read.is_empty() || n == 0, "{} reads no spelling of {}", family.stem, n);
        for spec in read {
            let name = spec.to_string();
            let reparsed: LockSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            prop_assert_eq!(&reparsed, &spec, "{} must round-trip", name);
            let claimants = families().iter().filter(|f| f.parse(&name).is_some()).count();
            prop_assert_eq!(claimants, 1, "{} is claimed by {} rows", name, claimants);
        }
    }
}

/// The epoch state machine as it was before `epoch_start` learnt to
/// skip stores that change nothing: every start rewrites the entry,
/// every little-core end of a timed epoch steps the window.
struct EpochModel {
    table: [libasl::epoch::EpochMeta; 4],
    open: Vec<usize>,
    big: bool,
    clock: u64,
}

impl EpochModel {
    fn read_clock(&mut self) -> u64 {
        self.clock += 10;
        self.clock - 10
    }

    fn start(&mut self, id: usize) {
        self.open.push(id);
        let start = if self.big {
            libasl::epoch::UNTIMED
        } else {
            self.read_clock()
        };
        self.table[id].start = start;
        self.table[id].used = true;
    }

    /// Close the innermost epoch; its id and the latency returned.
    fn end(&mut self, slo_ns: u64) -> (usize, u64) {
        let id = self.open.pop().expect("an epoch is open");
        if self.big || self.table[id].start == libasl::epoch::UNTIMED {
            return (id, 0);
        }
        let latency = self.read_clock() - self.table[id].start;
        let w = self.table[id].window;
        self.table[id].window = if latency > slo_ns {
            w - w / 4
        } else {
            // PCT = 99: a hit adds 75 / 39 700 of the window, at least 1.
            (w + (w * 75 / 39_700).max(1)).min(libasl::core::config::MAX_WINDOW_NS)
        };
        (id, latency)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `epoch_start` on a big core returns before any store once the
    /// cached entry already reads what it would write; whatever the
    /// sequence of starts, nested pairs, ends, migrations between core
    /// classes and window overrides, the observable state stays that
    /// of the state machine that always wrote.
    #[test]
    fn epoch_fast_path_is_the_old_state_machine(
        ops in prop::collection::vec((0u8..8, 0usize..4, 0u64..5), 1..120),
    ) {
        use libasl::epoch;
        use libasl::runtime::topology::CoreId;
        let m1 = Topology::apple_m1();
        let _clock = libasl::runtime::substrate::install(Arc::new(ticking::Ticking(0.into())));
        libasl::runtime::register_on_core(&m1, CoreId(0));
        epoch::reset_thread_epochs();
        let fresh = epoch::epoch_meta(0);
        let mut model = EpochModel { table: [fresh; 4], open: vec![], big: true, clock: 0 };
        for (op, id, arg) in ops {
            match op {
                0..=2 => {
                    epoch::epoch_start(id);
                    model.start(id);
                }
                3..=5 if !model.open.is_empty() => {
                    let slo = [0, 5, 25, 1_000, u64::MAX][arg as usize];
                    let (id, latency) = model.end(slo);
                    let measured = epoch::epoch_end(id, slo);
                    prop_assert_eq!(measured, latency);
                    let untimed = model.big || model.table[id].start == epoch::UNTIMED;
                    prop_assert_eq!(measured == 0, untimed, "0 means not measured");
                }
                6 => {
                    model.big = arg % 2 == 0;
                    let core = if model.big { CoreId(0) } else { CoreId(5) };
                    libasl::runtime::register_on_core(&m1, core);
                }
                7 => {
                    let window = [1, 3, 4_096, 10_000, 100_000_000][arg as usize];
                    epoch::set_epoch_window(id, window);
                    model.table[id].window = window;
                    model.table[id].used = true;
                }
                _ => {}
            }
            for (id, want) in model.table.iter().enumerate() {
                let got = epoch::epoch_meta(id);
                prop_assert_eq!(
                    (got.window, got.start, got.used),
                    (want.window, want.start, want.used),
                    "epoch {} after op {}", id, op
                );
            }
            let cur = model.open.last().copied();
            prop_assert_eq!(epoch::current_epoch_id(), cur);
            prop_assert_eq!(epoch::current_window(), cur.map(|c| model.table[c].window));
        }
        while !model.open.is_empty() {
            let (id, _) = model.end(u64::MAX);
            epoch::epoch_end(id, u64::MAX);
        }
        libasl::runtime::registry::unregister();
    }
}

#[test]
fn lmdb_versions_monotone_under_concurrency() {
    use rand::SeedableRng;
    let db = Arc::new(libasl::dbsim::lmdb::Lmdb::new(&mcs_factory()));
    let mut handles = vec![];
    for i in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(i);
            let mut last = 0;
            for _ in 0..500 {
                use libasl::dbsim::Engine;
                db.run_request(&mut rng);
                let v = db.version();
                assert!(v >= last, "version went backwards");
                last = v;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
