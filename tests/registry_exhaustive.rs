//! The lock registry is exhaustive by construction: one loop over the
//! table's rows × canonical members × wrappers round-trips every name,
//! builds it through both factories and completes a real critical
//! section under a guard; every capability answer a figure reads is
//! pinned in one table; and the name grammar accepts and rejects what
//! it always did. A row that fails any of these is unreachable from the
//! `repro` CLI, which is how every experiment point is addressed.

use libasl::harness::locks::{families, registry, Family, LockSpec};
use libasl::locks::{telemetry, AsyncPolicy};

/// The names a family is exercised under: its canonical members, or —
/// for a row `repro locks` does not list — the spelling it reads.
fn names_of(family: &Family) -> Vec<String> {
    let name = |param: &str| format!("{}{param}", family.stem);
    if family.members.is_empty() {
        let reads = |n: &String| family.parse(n).is_some();
        let names: Vec<String> = ["", "7"].map(name).into_iter().filter(reads).collect();
        assert_eq!(names.len(), 1, "{}: a literal or a count", family.stem);
        return names;
    }
    family
        .members
        .iter()
        .map(|(param, _)| name(param))
        .collect()
}

/// Round-trip `name`, then run a critical section through each factory.
fn exercise(name: &str) -> LockSpec {
    let spec: LockSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(spec.to_string(), name, "{name}: Display round-trip");

    let lock = spec.make_dyn();
    {
        let _held = lock.lock();
        assert!(lock.is_locked(), "{name}: guard must hold the lock");
        assert!(lock.try_lock().is_none(), "{name}: must exclude");
    }
    assert!(!lock.is_locked(), "{name}: dropping the guard must release");
    let held = lock
        .try_lock()
        .unwrap_or_else(|| panic!("{name}: free lock must try_lock"));
    held.unlock();
    assert!(!lock.is_locked(), "{name}");

    let lock = spec.make_dyn_rw();
    // Read side first, on the fresh lock: overlaps for genuine rw
    // specs (BRAVO only guarantees overlap while reader bias is on,
    // which a writer revokes), degenerates — but still locks and
    // releases — for exclusive specs.
    {
        let _r = lock.read();
        assert!(lock.is_locked(), "{name}");
        match lock.try_read() {
            Some(r2) if spec.is_rw() => r2.unlock(),
            None if !spec.is_rw() => {}
            Some(_) => panic!("{name}: exclusive spec reads must serialize"),
            None => panic!("{name}: rw spec reads must overlap"),
        }
        assert!(lock.try_lock().is_none(), "{name}: reader excludes writer");
    }
    {
        let _w = lock.lock();
        assert!(lock.is_locked(), "{name}");
        assert!(lock.try_lock().is_none(), "{name}: writer excludes writer");
        assert!(lock.try_read().is_none(), "{name}: writer excludes reader");
    }
    // A read after the writer still works (possibly without overlap —
    // BRAVO before its bias re-enables).
    drop(lock.read());
    assert!(!lock.is_locked(), "{name}: all guards released");
    spec
}

#[test]
fn registry_exhaustive() {
    // `instrumented-` records only while the process-wide gate is
    // armed; this is the one test of this binary that builds a lock.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            telemetry::clear_registered();
            telemetry::set_recording(false);
        }
    }
    let _disarm = Disarm;
    telemetry::set_recording(true);

    for family in families() {
        for name in names_of(family) {
            let spec = exercise(&name);
            // `gcr-` and `instrumented-` compose over every name, keep
            // or drop rw-ness as their rows state, and the recording
            // wrapper files its acquisitions under the full label.
            let gated = exercise(&format!("gcr-{name}"));
            assert!(!gated.is_rw(), "gcr-{name}: the gate serializes, never rw");
            let label = format!("instrumented-{name}");
            assert_eq!(exercise(&label).is_rw(), spec.is_rw(), "{label}");
            let recorded: u64 = telemetry::snapshots()
                .iter()
                .filter(|(l, _)| l.starts_with(&label))
                .map(|(_, s)| s.acquisitions)
                .sum();
            assert!(recorded >= 1, "{label}: no telemetry recorded");
        }
    }
}

/// `(name, capability letters, epoch_slo, async SLO — None = FIFO)` of
/// every canonical member, in listing order. `epoch_slo` decides
/// whether a workload opens epochs, `async_policy` how a KV shard
/// queues, the `R` letter is `is_rw`: a change to any of them moves a
/// figure, and shows up here as a one-line diff.
const PINNED: &[(&str, &str, Option<u64>, Option<u64>)] = &[
    ("pthread", "----B-", None, None),
    ("tas", "--t---", None, None),
    ("tas-big", "--t---", None, None),
    ("tas-little", "--t---", None, None),
    ("ticket", "F-t---", None, None),
    ("mcs", "F-t---", None, None),
    ("mcs-stp", "F---B-", None, None),
    ("shfl-pb10", "------", None, None),
    ("shfl-local16", "--t---", None, None),
    ("cna", "--t---", None, None),
    ("cohort", "------", None, None),
    ("malthusian", "--t---", None, None),
    ("libasl-70us", "---E--", Some(70_000), Some(70_000)),
    ("libasl-max", "---E--", None, Some(u64::MAX)),
    ("libasl-clh-70us", "---E--", Some(70_000), Some(70_000)),
    ("libasl-clh-max", "---E--", None, Some(u64::MAX)),
    ("libasl-ticket-max", "---E--", None, Some(u64::MAX)),
    ("libasl-shfl-max", "---E--", None, Some(u64::MAX)),
    ("libasl-opt-50us", "------", None, None),
    ("libasl-blk-70us", "---EB-", Some(70_000), Some(70_000)),
    ("libasl-blk-max", "---EB-", None, Some(u64::MAX)),
    ("rw-ticket", "-R----", None, None),
    ("bravo-mcs", "-R----", None, None),
    ("bravo-tas", "-R----", None, None),
    ("bravo-libasl", "-R----", None, None),
    ("libasl-rw-70us", "-R-E--", Some(70_000), Some(70_000)),
    ("libasl-rw-max", "-R-E--", None, Some(u64::MAX)),
    ("adaptive", "--t---", None, None),
    ("flatcomb", "-----D", None, None),
    ("ccsynch", "-----D", None, None),
    ("rcl", "-----D", None, None),
    ("fc-ban", "-----D", None, None),
    ("instrumented-mcs", "F-----", None, None),
    ("gcr-mcs", "--t-B-", None, None),
];

/// The same four answers seen through the capabilities a wrapper keeps.
const WRAPPED: &[(&str, &str, Option<u64>, Option<u64>)] = &[
    ("instrumented-libasl-9ns", "---E--", Some(9), Some(9)),
    ("instrumented-rw-ticket", "-R----", None, None),
    ("gcr-libasl-max", "---EB-", None, Some(u64::MAX)),
    ("gcr-libasl-rw-70us", "---EB-", Some(70_000), Some(70_000)),
    ("gcr-ticket", "--t-B-", None, None),
    ("instrumented-gcr-mcs", "----B-", None, None),
];

#[test]
fn capabilities_are_pinned() {
    let listed: Vec<String> = registry().iter().map(|e| e.spec.to_string()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    assert_eq!(listed, pinned, "one pinned line per canonical member");
    for &(name, letters, epoch_slo, async_slo) in PINNED.iter().chain(WRAPPED) {
        let spec: LockSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.caps().to_string(), letters, "{name}: capabilities");
        assert_eq!(spec.epoch_slo(), epoch_slo, "{name}: epoch_slo");
        let policy = async_slo.map_or(AsyncPolicy::Fifo, |slo_ns| AsyncPolicy::Slo { slo_ns });
        assert_eq!(spec.async_policy(), policy, "{name}: async_policy");
        assert_eq!(spec.is_rw(), letters.contains('R'), "{name}: is_rw");
    }
}

#[test]
fn the_name_grammar_reads_what_it_always_did() {
    // Spellings that are not the canonical one still name the spec.
    for (spelling, canonical) in [
        ("libasl-70000", "libasl-70us"),
        ("libasl-70000ns", "libasl-70us"),
        ("libasl-0", "libasl-0ns"),
        ("libasl-opt-1000", "libasl-opt-1us"),
        ("libasl-4000us", "libasl-4ms"),
        ("tas-big-p600", "tas-big"),
        ("shfl-pb007", "shfl-pb7"),
    ] {
        let spec: LockSpec = spelling
            .parse()
            .unwrap_or_else(|e| panic!("{spelling}: {e}"));
        assert_eq!(spec.to_string(), canonical, "{spelling}");
    }
    // Wrappers nest, and a non-round duration keeps an exact printed
    // form (tests/proptests.rs draws every other parameter).
    for name in [
        "libasl-1500ns",
        "tas-little-p42",
        "instrumented-gcr-libasl-blk-1ms",
        "gcr-instrumented-gcr-bravo-ticket",
    ] {
        let spec: LockSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.to_string(), name, "{name}: round-trip");
    }
    // A stem that is a prefix of another resolves longest-first.
    let slo_ns = Some(5_000);
    for (name, spec) in [
        ("libasl-5us", LockSpec::asl(slo_ns)),
        ("libasl-rw-5us", LockSpec::AslRw { slo_ns }),
        ("libasl-blk-5us", LockSpec::AslBlocking { slo_ns }),
        ("libasl-opt-5us", LockSpec::AslOpt { window_ns: 5_000 }),
        ("malthusian", LockSpec::Malthusian(None)),
        ("malthusian-5", LockSpec::Malthusian(Some(5))),
    ] {
        assert_eq!(name.parse::<LockSpec>().unwrap(), spec, "{name}");
    }
    for bad in [
        "",
        "mc",
        "mcsx",
        "nope-mcs",
        "libasl-",
        "libasl-opt-",
        "libasl-opt-max",
        "libasl-xyz",
        "libasl-rw-",
        "libasl-rw-xyz",
        "shfl-pb",
        "shfl-pb4294967296",
        "tas-big-p",
        "tas-bigx",
        "malthusian-0",
        "bravo-",
        "bravo-xyz",
        "rw-",
        "gcr-",
        "instrumented-",
        "instrumented-nope",
        // Durations that would overflow u64 nanoseconds are rejected,
        // not wrapped.
        "libasl-20000000000000000000ms",
        "libasl-opt-99999999999999999999us",
    ] {
        assert!(bad.parse::<LockSpec>().is_err(), "{bad:?} should not parse");
    }
    let err = "nope".parse::<LockSpec>().unwrap_err();
    assert!(err.to_string().contains("nope"));
}
