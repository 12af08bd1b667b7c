//! What a run prints and writes.
//!
//! * standard output: every metric by name with unit and clock, then —
//!   as the last line — the one JSON object the driver reads;
//! * `<out>/report-….json`: the same numbers with their evidence
//!   notes, made self-describing (commit, `nproc`, rustc, seed, clock
//!   per metric), so two files can be compared safely;
//! * `<out>/spans-….jsonl`: the spans of a traced run.
//!
//! `<out>` is `bench-out/` beside the benchmark's executable, i.e.
//! inside the build directory, which `.gitignore` already covers.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::metrics::{json_num, json_str, per_layer_names, Better, Metric, END_TO_END, WORKLOADS};
use crate::run::why;
use crate::trace::{self, ThreadLog};

/// How long one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 15;

/// Identity of one run.
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub traced: bool,
}

/// Print the metric table to standard output.
pub fn print_table(id: &RunId, metrics: &[Metric]) {
    println!(
        "# {}  seed {}  {} s  tracing {}",
        id.workload,
        id.seed,
        id.seconds,
        if id.traced { "on" } else { "off" }
    );
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        // Six decimals, or three significant digits for tiny values
        // (the JSON carries every digit either way).
        let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.3e}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        println!(
            "{:<width$}  {:>18} {:<6} {:<7} {}",
            m.name,
            value,
            m.unit,
            m.clock.label(),
            m.note
        );
    }
}

/// The driver's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(contract: &[Metric], attempted: u64, failed: u64) -> String {
    let sound = contract.iter().all(|m| m.value.is_finite());
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && sound,
        attempted.max(1)
    );
    for (i, m) in contract.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    line.push_str("}}");
    line
}

/// `bench-out/` beside the executable (created on demand).
pub fn out_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("bench-out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The commit checked out in the current directory, read from `.git`
/// by hand: the driver's checkout is not a repository, and asking
/// `git` would make it search the parent directories.
fn commit() -> String {
    let git = std::path::Path::new(".git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string(); // detached HEAD
    };
    let loose = read(git.join(reference)).map(|s| s.trim().to_string());
    let packed = || {
        let refs = read(git.join("packed-refs"))?;
        let line = refs.lines().find(|l| l.ends_with(reference))?;
        Some(line.split(' ').next()?.to_string())
    };
    loose.or_else(packed).unwrap_or_else(|| "unknown".into())
}

fn header(id: &RunId) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {nproc}, \"rustc\": {}",
        json_str(id.workload),
        id.seed,
        json_num(id.seconds),
        id.traced,
        json_str(&commit()),
        json_str(env!("BENCH_RUSTC_VERSION")),
    )
}

/// Write the self-describing report (and, for a traced run, the span
/// file) into [`out_dir`]. Returns the report's path.
pub fn write_files(
    id: &RunId,
    metrics: &[Metric],
    attempted: u64,
    failed: u64,
    logs: &[ThreadLog],
) -> std::io::Result<PathBuf> {
    let dir = out_dir()?;
    let stem = format!(
        "{}-seed{}-trace{}",
        id.workload,
        id.seed,
        u8::from(id.traced)
    );
    let head = header(id);
    let mut body =
        format!("{{{head}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(
            body,
            "  {{\"name\": {}, \"value\": {}, \"unit\": {}, \"clock\": {}, \"note\": {}}}{sep}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            json_str(m.clock.label()),
            json_str(&m.note)
        );
    }
    body.push_str("]}\n");
    let report = dir.join(format!("report-{stem}.json"));
    std::fs::write(&report, body)?;
    if id.traced {
        trace::write_jsonl(&dir.join(format!("spans-{stem}.jsonl")), &head, logs)?;
    }
    Ok(report)
}

/// The text of `BENCHMARK.json`, generated from the same tables the
/// runs use so the two cannot drift (a test compares the committed
/// file against this).
pub fn contract_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {DEFAULT_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w),
            json_str(why(w))
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let better = match m.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\", \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_num(m.bound)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer_names();
    for (i, (name, unit)) in layers.iter().enumerate() {
        let sep = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{sep}",
            json_str(name),
            json_str(unit),
            layer_direction(name)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Rates and shares of useful work improve upwards; times, waits,
/// taxes and overheads improve downwards.
fn layer_direction(name: &str) -> &'static str {
    let up = [
        "vops_s",
        "ops_per_s",
        "per_host_s",
        "achieved_rate",
        "window_final_vns",
        "little_share",
    ];
    if up.iter().any(|u| name.ends_with(u)) {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Clock;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric::new("setup_s", 0.25, "s", Clock::Host)];
        assert_eq!(
            result_line(&m, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&m, 0, 2)
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 2"));
    }

    #[test]
    fn contract_is_within_the_drivers_limits() {
        let text = contract_json();
        assert!(text.len() < 64 * 1024);
        assert_eq!(text.matches("\"why\"").count(), 5);
        assert_eq!(text.matches("\"bound\"").count(), END_TO_END.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| why(w).len() <= 200 && !why(w).is_empty()));
    }
}
