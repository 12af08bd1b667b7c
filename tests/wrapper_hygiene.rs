//! Every-wrapper-once audit.
//!
//! The erased handle (`DynLock`, and `DynRwLock` — the same handle
//! over `dyn PlainRwLock`) is a `RawLock` / `RawRwLock` like any
//! other, so every layer above the zoo exists
//! once, generic over its lock, and covers runtime-chosen locks by
//! taking the handle as its type parameter. Before that, each layer
//! had a hand-written twin over `Arc<dyn PlainLock>` — and the twins
//! drifted (one `Gcr` had a timed acquire, the other had not; one
//! `Instrumented` kept its recording path out of line, the other
//! inlined it). The delegation family had the same disease one level
//! down — the publication-slot array written once per lock, and the
//! warm-up → measure → done loop once per figure that drives them;
//! and the figures had a real-thread runner beside the simulator.
//! This grep fails if a twin comes back, if a container's guard or a
//! second spelling of a guard does, if the simulator grows a
//! second engine again, if either delegation copy does, if a figure
//! spawns OS workers again, if the async mutex splits into
//! per-policy types again, if a reader-writer lock grows a write
//! path beside the exclusive lock it is, and if the reader-writer
//! container or erased handle splits from the exclusive one again.

use std::path::Path;

/// Every non-test line of the `.rs` files under `dir` (relative to
/// the repo root), tagged with its path relative to `dir`.
fn source_lines(dir: &str) -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, lines: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable source tree") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, lines);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let name = path.strip_prefix(root).unwrap().to_string_lossy();
                let text = std::fs::read_to_string(&path).expect("readable source file");
                let code = text.split("#[cfg(test)]").next().expect("non-empty");
                lines.extend(code.lines().map(|l| (name.to_string(), l.to_string())));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut lines = Vec::new();
    walk(&root, &root, &mut lines);
    assert!(!lines.is_empty(), "source walk of {dir} looks broken");
    lines
}

/// The `file: line` of every `struct` or `enum` declaration in `lines`
/// whose name `banned` rejects.
fn banned_types(lines: &[(String, String)], banned: impl Fn(&str) -> bool) -> Vec<String> {
    lines
        .iter()
        .filter_map(|(file, line)| {
            let decl = line
                .trim_start()
                .strip_prefix("pub ")
                .unwrap_or(line.trim_start());
            let name: String = decl
                .strip_prefix("struct ")
                .or_else(|| decl.strip_prefix("enum "))?
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            banned(&name).then(|| format!("{file}: {}", line.trim()))
        })
        .collect()
}

/// The files (deduplicated, sorted) with a line containing `needle`.
fn files_with(lines: &[(String, String)], needle: &str) -> Vec<String> {
    let mut files: Vec<String> = lines
        .iter()
        .filter(|(_, l)| l.contains(needle))
        .map(|(f, _)| f.clone())
        .collect();
    files.sort();
    files.dedup();
    files
}

#[test]
fn each_wrapper_and_guard_is_written_once() {
    let lines = source_lines("crates/locks/src");
    assert!(lines.len() > 5_000, "source walk looks broken");

    // No struct of its own for the erased forms: they are type
    // aliases of the generic ones, or gone.
    let offenders = banned_types(&lines, |name| {
        name == "GcrPlain"
            || name.starts_with("InstrumentedPlain")
            || ["DynGuard", "DynMutexGuard", "DynReadGuard", "DynWriteGuard"].contains(&name)
            || (name.starts_with("DynRw") && name.ends_with("Guard"))
    });
    assert!(
        offenders.is_empty(),
        "hand-written twin of a generic wrapper or guard — use the generic type over \
         DynLock / DynRwLock instead:\n{}",
        offenders.join("\n")
    );

    for header in ["RawLock for Gcr<", "RawLock for Instrumented<"] {
        let impls = lines.iter().filter(|(_, l)| l.contains(header)).count();
        assert_eq!(impls, 1, "`{header}` must be implemented exactly once");
    }

    // One guard per acquisition mode: a container hands out the guard a
    // bare lock does (`Guard<'_, L, D>` carries the data reference), so
    // no data guard holds a token of its own, and a guard has no
    // second spelling through an extension trait.
    let offenders = banned_types(&lines, |name| {
        ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"].contains(&name)
    });
    assert!(
        offenders.is_empty(),
        "a data guard with its own token and Drop — return Guard / ReadGuard \
         with the data in their third type parameter:\n{}",
        offenders.join("\n")
    );
    for needle in ["trait GuardedLock", "trait GuardedRwLock"] {
        assert_eq!(
            files_with(&lines, needle),
            Vec::<String>::new(),
            "`{needle}` is a second spelling of `Guard::new` / `ReadGuard::new`"
        );
    }

    // LibASL's mutex is the generic one over `AslLock`, like its rwlock.
    let core = source_lines("crates/core/src");
    let offenders = banned_types(&core, |name| name == "AslMutex");
    assert!(
        offenders.is_empty(),
        "AslMutex is `api::Mutex<T, AslLock<L, W>>`, not a wrapper:\n{}",
        offenders.join("\n")
    );

    // A registry spec is itself the engines' lock factory; the frozen
    // benchmark keeps its own, nothing else wraps a spec to be one.
    let mut factories: Vec<String> = ["crates", "src", "examples"]
        .iter()
        .flat_map(|dir| source_lines(dir))
        .filter_map(|(file, line)| {
            let implementor = line.split("LockFactory for ").nth(1)?;
            let name: String = implementor
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            (name != "LockSpec" && name != "F").then(|| format!("{file}: {}", line.trim()))
        })
        .collect();
    factories.sort();
    assert!(
        factories.is_empty(),
        "a lock factory beside `impl LockFactory for LockSpec` — pass the spec itself:\n{}",
        factories.join("\n")
    );
}

#[test]
fn the_adaptive_lock_is_a_queue_policy() {
    // `adaptive` is `QueueLock<Impatient>`: arrivals barge past the MCS
    // queue until its head runs out of patience. A second lock beside
    // the queue, with a mode word of its own, does not come back.
    let lines: Vec<_> = ["crates", "src"]
        .iter()
        .flat_map(|dir| source_lines(dir))
        .collect();
    let offenders = banned_types(&lines, |name| ["Adaptive", "AdaptiveMode"].contains(&name));
    assert!(
        offenders.is_empty(),
        "a contention-adaptive lock of its own — make it a head policy of \
         asl_locks::mcs::QueueLock instead:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_async_mutex_is_one_type() {
    // `AsyncMutex<T>` is built with its `AsyncPolicy`: one queue, one
    // future, one guard that releases through a direct call. A
    // fixed-policy twin, a second future or a release through a trait
    // object does not come back.
    let lines: Vec<_> = ["crates", "src"]
        .iter()
        .flat_map(|dir| source_lines(dir))
        .collect();
    let offenders = banned_types(&lines, |name| {
        ["AsyncFifoMutex", "AsyncDynMutex", "RawAsyncLock"].contains(&name)
            || (name.ends_with("LockFuture") && name != "AsyncLockFuture")
    });
    assert!(
        offenders.is_empty(),
        "a second async mutex or lock future — give asl_locks::AsyncMutex \
         another AsyncPolicy instead:\n{}",
        offenders.join("\n")
    );
    assert_eq!(
        files_with(&lines, "trait GuardTarget"),
        Vec::<String>::new(),
        "AsyncGuard releases through &AsyncMutex, not a trait object"
    );
    let mut alias: Vec<_> = lines
        .iter()
        .filter(|(_, l)| l.contains("AsyncDynMutex"))
        .map(|(f, l)| format!("{f}: {}", l.trim()))
        .collect();
    alias.sort();
    assert_eq!(
        alias,
        [
            "locks/src/asynclock.rs: pub type AsyncDynMutex<T> = AsyncMutex<T>;",
            "locks/src/lib.rs: pub use asynclock::{AsyncDynMutex, AsyncGuard, AsyncMutex, AsyncPolicy};",
        ],
        "AsyncDynMutex is only the benchmark's alias of AsyncMutex; spell AsyncMutex"
    );
}

#[test]
fn an_rwlock_is_a_lock() {
    // `RawRwLock: RawLock` and `PlainRwLock: PlainLock`: an rwlock's
    // exclusive side is the lock interface itself, so its exclusive
    // guard is `Guard`, its write token the lock's `Token`, and an
    // rwlock at an exclusive call site is the upcast `dyn PlainLock`.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<String> = std::fs::read_dir(&crates)
        .expect("readable crates dir")
        .map(|e| {
            format!(
                "crates/{}/src",
                e.expect("dir entry").file_name().to_string_lossy()
            )
        })
        .collect();
    dirs.push("src".into());
    let lines: Vec<_> = dirs.iter().flat_map(|dir| source_lines(dir)).collect();
    let offenders = banned_types(&lines, |name| {
        ["WriteGuard", "WriteHalf", "RwLockWriteGuard"].contains(&name)
    });
    assert!(
        offenders.is_empty(),
        "a second exclusive guard or adapter for rwlocks — an rwlock is a RawLock / \
         PlainLock, take Guard or upcast to dyn PlainLock:\n{}",
        offenders.join("\n")
    );
    for needle in [
        "fn unlock_write",
        "fn acquire_write",
        "fn release_write",
        "type WriteToken",
    ] {
        assert_eq!(
            files_with(&lines, needle),
            Vec::<String>::new(),
            "`{needle}`: an rwlock's exclusive side is its RawLock / PlainLock impl"
        );
    }
    for header in ["trait RawRwLock: RawLock", "trait PlainRwLock: PlainLock"] {
        let decls = lines.iter().filter(|(_, l)| l.contains(header)).count();
        assert_eq!(decls, 1, "`{header}` must be declared exactly once");
    }
}

#[test]
fn the_rw_container_is_the_mutex() {
    // `Mutex<T, L>` over a `RawRwLock` is the reader-writer container
    // (`lock` writes, `read` reads), and `DynRwLock` is
    // `DynLock<dyn PlainRwLock>`: neither has a struct of its own, and
    // the erased handle implements `RawLock` once.
    let lines: Vec<_> = ["crates", "src"]
        .iter()
        .flat_map(|dir| source_lines(dir))
        .collect();
    let offenders = banned_types(&lines, |name| ["RwLock", "DynRwLock"].contains(&name));
    assert!(
        offenders.is_empty(),
        "a reader-writer container or handle of its own — use api::Mutex over the \
         rwlock, or DynLock<dyn PlainRwLock>:\n{}",
        offenders.join("\n")
    );
    let impls = lines
        .iter()
        .filter(|(_, l)| l.contains("RawLock for DynLock") || l.contains("RawLock for DynRwLock"))
        .count();
    assert_eq!(
        impls, 1,
        "the erased handle implements RawLock once, generic over its object"
    );
}

#[test]
fn the_simulator_has_one_engine() {
    let sim = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/sim/src");
    assert!(sim.join("exec.rs").is_file(), "audit is stale");
    for gone in ["engine.rs", "model.rs"] {
        assert!(
            !sim.join(gone).exists(),
            "crates/sim/src/{gone}: the analytic engine was retired — model the machine, \
             run the real locks (asl_sim::exec)"
        );
    }
}

#[test]
fn delegation_is_written_once() {
    // One publication-slot engine: no per-lock shared-state struct,
    // no second server, and one place that executes a published op.
    let locks = source_lines("crates/locks/src");
    let offenders = banned_types(&locks, |name| {
        [
            "DedicatedServer",
            "ServerHandle",
            "FcShared",
            "RclShared",
            "BanShared",
        ]
        .contains(&name)
    });
    assert!(
        offenders.is_empty(),
        "a delegation lock with a slot array of its own — build it from the engine's executor \
         and policy axes (asl_locks::delegation) instead:\n{}",
        offenders.join("\n")
    );
    let executes: Vec<_> = locks
        .iter()
        .filter(|(_, l)| l.contains(".execute("))
        .collect();
    assert_eq!(
        executes.len(),
        1,
        "a published op is executed by the engine's one pending-slot scan: {executes:?}"
    );

    // One measurement loop, in virtual time: the runner steps every
    // figure's workers on the simulator, and nothing in the harness
    // spawns OS workers — the one OS thread spawn left is the torture
    // sweep's `--os` mode, whose point is the host.
    let harness = source_lines("crates/harness/src");
    assert_eq!(
        files_with(&harness, "run_on_topology"),
        Vec::<String>::new(),
        "a figure spawns OS workers — call runner::run_timed_with_setup"
    );
    assert_eq!(
        files_with(&harness, "thread::spawn"),
        ["torture.rs"],
        "a figure spawns OS workers — call runner::run_timed_with_setup"
    );
}

#[test]
fn no_environment_variable_knobs() {
    let readers = files_with(&source_lines("crates"), "env::var");
    assert!(
        readers.is_empty(),
        "{readers:?} read the environment — behaviour is set by arguments, not ambient state"
    );
}
