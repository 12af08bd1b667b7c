//! Every-wrapper-once audit.
//!
//! The erased handle (`DynLock`, `DynRwLock`) is a `RawLock` /
//! `RawRwLock` like any other, so every layer above the zoo exists
//! once, generic over its lock, and covers runtime-chosen locks by
//! taking the handle as its type parameter. Before that, each layer
//! had a hand-written twin over `Arc<dyn PlainLock>` — and the twins
//! drifted (one `Gcr` had a timed acquire, the other had not; one
//! `Instrumented` kept its recording path out of line, the other
//! inlined it). This grep fails if a twin comes back, and if the
//! simulator grows a second engine again.

use std::path::Path;

/// Every non-test line of `crates/locks/src`, tagged with its file.
fn locks_source_lines() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/locks/src");
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("readable source tree") {
        let path = entry.expect("dir entry").path();
        assert!(path.is_file(), "crates/locks/src is expected to be flat");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable source file");
        let code = text.split("#[cfg(test)]").next().expect("non-empty");
        lines.extend(code.lines().map(|l| (name.clone(), l.to_string())));
    }
    assert!(lines.len() > 5_000, "source walk looks broken");
    lines
}

#[test]
fn each_wrapper_and_guard_is_written_once() {
    let lines = locks_source_lines();

    // No struct of its own for the erased forms: they are type
    // aliases of the generic ones, or gone.
    let twin = |name: &str| {
        name == "GcrPlain"
            || name.starts_with("InstrumentedPlain")
            || ["DynGuard", "DynMutexGuard", "DynReadGuard", "DynWriteGuard"].contains(&name)
            || (name.starts_with("DynRw") && name.ends_with("Guard"))
    };
    let offenders: Vec<String> = lines
        .iter()
        .filter_map(|(file, line)| {
            let decl = line
                .trim_start()
                .strip_prefix("pub ")
                .unwrap_or(line.trim_start());
            let name: String = decl
                .strip_prefix("struct ")?
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            twin(&name).then(|| format!("{file}: {}", line.trim()))
        })
        .collect();
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
