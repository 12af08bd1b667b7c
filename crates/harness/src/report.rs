//! Result tables: the harness's common output format.
//!
//! Every figure driver produces a [`Table`]; the `repro` binary
//! renders it as aligned text for the terminal and CSV for plotting.
//! Alongside the formatted rows, drivers attach machine-readable
//! [`BenchSample`]s (lock name, thread count, ops/s) that `repro
//! --out` serializes as `BENCH_<figure>.json`, and [`telemetry_table`]
//! renders the process-wide per-lock telemetry collected under
//! `repro --profile`.

use asl_locks::telemetry::{self, TelemetrySnapshot};
use asl_runtime::stats::Samples;

/// One machine-readable throughput measurement backing a table row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSample {
    /// Registry lock name (`LockSpec` label). Figures that sweep a
    /// second parameter besides the lock and thread count append it
    /// as an `@key=value` suffix (`mcs@rf=0.95`) so every (figure,
    /// lock, threads) key maps to exactly one throughput.
    pub lock: String,
    /// Worker threads the point ran with.
    pub threads: usize,
    /// Measured operations per second.
    pub ops_per_sec: f64,
    /// P99 request latency (ns), for figures that measure latency
    /// (the KV service); `None` for throughput-only figures.
    pub p99_ns: Option<u64>,
    /// P99.9 request latency (ns); `None` for throughput-only figures.
    pub p999_ns: Option<u64>,
}

/// One reproduced figure (or sub-figure).
#[derive(Debug, Clone)]
pub struct Table {
    /// Identifier, e.g. "fig8a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (workload parameters, caveats).
    pub notes: Vec<String>,
    /// Machine-readable throughput points behind the rows.
    pub samples: Vec<BenchSample>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Append a row; must match the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Attach one machine-readable throughput point.
    pub fn push_sample(&mut self, lock: &str, threads: usize, ops_per_sec: f64) {
        self.samples.push(BenchSample {
            lock: lock.to_string(),
            threads,
            ops_per_sec,
            p99_ns: None,
            p999_ns: None,
        });
    }

    /// Attach one machine-readable throughput + tail-latency point
    /// (serving-side figures that report p99/p999 alongside ops/s).
    pub fn push_latency_sample(
        &mut self,
        lock: &str,
        threads: usize,
        ops_per_sec: f64,
        p99_ns: u64,
        p999_ns: u64,
    ) {
        self.samples.push(BenchSample {
            lock: lock.to_string(),
            threads,
            ops_per_sec,
            p99_ns: Some(p99_ns),
            p999_ns: Some(p999_ns),
        });
    }

    /// Render as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("== {} — {}\n", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; cells are simple numerics/labels).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Serialize samples as the `BENCH_<figure>.json` document: figure
/// id, then one record per (lock, threads, ops/s) point.
pub fn render_bench_json(figure: &str, samples: &[BenchSample]) -> String {
    let mut out = format!(
        "{{\n  \"figure\": {},\n  \"results\": [\n",
        json_str(figure)
    );
    for (i, s) in samples.iter().enumerate() {
        let mut tail = String::new();
        if let Some(p99) = s.p99_ns {
            tail.push_str(&format!(", \"p99_ns\": {p99}"));
        }
        if let Some(p999) = s.p999_ns {
            tail.push_str(&format!(", \"p999_ns\": {p999}"));
        }
        out.push_str(&format!(
            "    {{\"lock\": {}, \"threads\": {}, \"ops_per_sec\": {:.1}{}}}{}\n",
            json_str(&s.lock),
            s.threads,
            s.ops_per_sec,
            tail,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render the process-wide per-lock telemetry (collected while
/// `asl_locks::telemetry` profiling is on) as a stats table for one
/// figure. Locks with zero recorded acquisitions are skipped.
pub fn telemetry_table(figure_id: &str) -> Table {
    let mut t = Table::new(
        &format!("{figure_id}-profile"),
        &format!("per-lock telemetry for {figure_id}"),
        &[
            "lock",
            "acquisitions",
            "contended",
            "contended_pct",
            "avg_hold_us",
            "timed_holds",
            "avg_wait_us",
        ],
    );
    for (label, snap) in telemetry::snapshots() {
        if snap.acquisitions == 0 {
            continue;
        }
        t.push_row(telemetry_row(&label, &snap));
    }
    t.note("telemetry sampled via Instrumented wrappers (--profile or instrumented-* specs)");
    t.note(format!(
        "avg_hold_us is the mean of the timed_holds holds that were timed, about one in {}; \
         avg_wait_us is over all acquisitions",
        telemetry::HOLD_SAMPLE_STRIDE
    ));
    t
}

fn telemetry_row(label: &str, s: &TelemetrySnapshot) -> Vec<String> {
    vec![
        label.to_string(),
        s.acquisitions.to_string(),
        s.contended.to_string(),
        format!("{:.1}", 100.0 * s.contention_ratio()),
        format!("{:.2}", s.avg_hold_ns() / 1_000.0),
        s.timed_holds.to_string(),
        format!("{:.2}", s.avg_wait_ns() / 1_000.0),
    ]
}

/// Format ops/sec compactly (e.g. "2.41M", "853k").
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Format nanoseconds as microseconds with one decimal.
pub fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// A latency statistic over `samples` samples, in microseconds: `—`
/// over none. A class that completed nothing has no tail, and a `0.0`
/// would read as the best one in its table.
pub fn fmt_tail_us(samples: u64, ns: u64) -> String {
    if samples == 0 {
        "—".to_string()
    } else {
        fmt_us(ns)
    }
}

/// The P99 of `s` as a table cell ([`fmt_tail_us`]).
pub fn fmt_p99(s: &Samples) -> String {
    fmt_tail_us(s.len(), s.percentile(99.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_class_is_not_a_zero() {
        assert_eq!(fmt_p99(&Samples::default()), "—");
        let zero = Samples::from(vec![0]);
        assert_eq!(fmt_p99(&zero), "0.0", "a real zero-wait sample");
        assert_eq!(fmt_tail_us(0, 1_500), "—");
        assert_eq!(fmt_tail_us(1, 1_500), "1.5");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new("figX", "demo", &["lock", "thpt"]);
        t.push_row(vec!["mcs".into(), "1.2M".into()]);
        t.note("quick mode");
        let text = t.render_text();
        assert!(text.contains("figX"));
        assert!(text.contains("mcs"));
        assert!(text.contains("note: quick mode"));
        let csv = t.render_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("lock,thpt"));
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ops(2_410_000.0), "2.41M");
        assert_eq!(fmt_ops(853_000.0), "853k");
        assert_eq!(fmt_ops(12.0), "12");
        assert_eq!(fmt_us(1_500), "1.5");
    }

    #[test]
    fn bench_json_schema() {
        let mut t = Table::new("fig1", "demo", &["lock"]);
        t.push_sample("mcs", 8, 1234.56);
        t.push_sample("libasl-max", 4, 99.0);
        let json = render_bench_json("fig1", &t.samples);
        assert!(json.contains("\"figure\": \"fig1\""));
        assert!(json.contains("\"lock\": \"mcs\""));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("\"ops_per_sec\": 1234.6"));
        // Exactly one trailing comma (two records).
        assert_eq!(json.matches("},").count(), 1);
        // Throughput-only samples must not emit latency fields.
        assert!(!json.contains("p99_ns"));
    }

    #[test]
    fn bench_json_latency_fields() {
        let mut t = Table::new("kv", "demo", &["lock"]);
        t.push_latency_sample("async-slo@rate=500k", 4, 480_000.0, 90_000, 240_000);
        t.push_sample("mcs", 4, 1_000.0);
        let json = render_bench_json("kv", &t.samples);
        assert!(json.contains("\"p99_ns\": 90000"));
        assert!(json.contains("\"p999_ns\": 240000"));
        assert_eq!(json.matches("},").count(), 1);
        // The latency fields ride inside the record, before its close.
        let rec = json
            .lines()
            .find(|l| l.contains("async-slo"))
            .expect("record present");
        assert!(rec.trim_end().ends_with("\"p999_ns\": 240000},"));
    }

    #[test]
    fn json_strings_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("\n"), "\"\\u000a\"");
    }

    #[test]
    fn telemetry_table_skips_idle_cells() {
        use std::sync::Arc;
        // The cell registry is process-global and the overhead-figure
        // tests clear it wholesale — serialize on the shared gate.
        let _gate = crate::telemetry_test_lock();
        let busy = Arc::new(telemetry::TelemetryCell::new());
        busy.record_acquisition(true);
        telemetry::register_cell("report-test-busy", busy);
        telemetry::register_cell(
            "report-test-idle",
            Arc::new(telemetry::TelemetryCell::new()),
        );
        let t = telemetry_table("figX");
        assert_eq!(t.id, "figX-profile");
        assert!(
            t.rows.iter().any(|r| r[0] == "report-test-busy"),
            "recorded cell must appear: {:?}",
            t.rows
        );
        assert!(
            !t.rows.iter().any(|r| r[0] == "report-test-idle"),
            "idle cell must be skipped"
        );
    }
}
