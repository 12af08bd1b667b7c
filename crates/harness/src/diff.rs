//! `repro diff` — compare two `BENCH_<figure>.json` files cell by
//! cell and flag throughput deltas beyond a noise bound.
//!
//! Seeds ROADMAP item 5 (regression gating): CI regenerates a figure
//! and diffs it against a committed baseline. A cell is the
//! `(lock, threads)` pair; the compared quantity is `ops_per_sec`.
//! `@key=value` label suffixes are part of the cell key (that's how
//! figures sweep a second parameter, e.g. `mcs@layer=dyn`) — except
//! the fairness annotations `@share=`/`@usage=`, which carry
//! fractions rather than throughput and are skipped.
//!
//! Verdicts per cell: within noise, improved (delta > noise, worth a
//! look but never fatal), **regressed** (delta < -noise) or
//! **missing** (a baseline cell the new run no longer has). The last
//! two make [`DiffReport::failed`] true: a gated cell that disappears
//! is a gate that stopped measuring. A cell only the new run has is
//! reported but does not fail the diff; a schema change re-records the
//! baseline. Diffing two different figures is an error, not a diff.

use std::fmt;

/// One `(lock, threads) -> ops/s` cell parsed from a bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    pub lock: String,
    pub threads: usize,
    pub ops_per_sec: f64,
}

/// A parsed `BENCH_<figure>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    pub figure: String,
    pub cells: Vec<BenchCell>,
}

/// Pull the string value of `"key": "..."` out of a line of our own
/// `render_bench_json` output (names never contain escapes).
fn field_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Pull the numeric value of `"key": 123.4` out of a line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = line[line.find(&needle)? + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the line-oriented JSON `render_bench_json` emits. Tolerant:
/// anything that isn't a recognizable result line is ignored, so the
/// format can grow fields without breaking old binaries.
pub fn parse_bench_json(text: &str) -> Result<BenchFile, String> {
    let figure = text
        .lines()
        .find_map(|l| field_str(l, "figure"))
        .ok_or_else(|| "no \"figure\" field found".to_string())?;
    let mut cells = Vec::new();
    for line in text.lines() {
        let Some(lock) = field_str(line, "lock") else {
            continue;
        };
        let Some(threads) = field_num(line, "threads") else {
            continue;
        };
        let Some(ops_per_sec) = field_num(line, "ops_per_sec") else {
            continue;
        };
        cells.push(BenchCell {
            lock,
            threads: threads as usize,
            ops_per_sec,
        });
    }
    if cells.is_empty() {
        return Err(format!("no result cells found for figure {figure}"));
    }
    Ok(BenchFile { figure, cells })
}

/// Per-cell verdict of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// |delta| within the noise bound.
    Within,
    /// Faster by more than the noise bound.
    Improved,
    /// Slower by more than the noise bound — fails the diff.
    Regressed,
    /// Present only in the old file — fails the diff.
    MissingInNew,
    /// Present only in the new file.
    OnlyInNew,
}

/// One compared cell.
#[derive(Debug, Clone)]
pub struct DiffLine {
    pub lock: String,
    pub threads: usize,
    pub old_ops: Option<f64>,
    pub new_ops: Option<f64>,
    pub verdict: Verdict,
}

impl DiffLine {
    /// Relative delta `(new - old) / old`, when both sides exist.
    pub fn delta(&self) -> Option<f64> {
        match (self.old_ops, self.new_ops) {
            (Some(o), Some(n)) if o > 0.0 => Some((n - o) / o),
            _ => None,
        }
    }
}

/// Full result of comparing two bench files.
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub figure: String,
    pub noise: f64,
    pub lines: Vec<DiffLine>,
    /// Annotation rows (`@`-labelled) skipped on either side.
    pub skipped: usize,
}

impl DiffReport {
    /// True iff a cell regressed beyond the noise bound or is missing
    /// from the new run.
    pub fn failed(&self) -> bool {
        self.lines
            .iter()
            .any(|l| matches!(l.verdict, Verdict::Regressed | Verdict::MissingInNew))
    }

    pub fn count(&self, v: Verdict) -> usize {
        self.lines.iter().filter(|l| l.verdict == v).count()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "diff: {} (noise bound {:.0}%)",
            self.figure,
            self.noise * 100.0
        )?;
        let width = self
            .lines
            .iter()
            .map(|l| l.lock.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for l in &self.lines {
            let tag = match l.verdict {
                Verdict::Within => "  ok",
                Verdict::Improved => "  up",
                Verdict::Regressed => "REGR",
                Verdict::MissingInNew => "MISS",
                Verdict::OnlyInNew => " new",
            };
            let delta = l
                .delta()
                .map(|d| format!("{:+6.1}%", d * 100.0))
                .unwrap_or_else(|| "      -".to_string());
            writeln!(
                f,
                "{tag}  {:<width$}  t={:<3}  old={:>12}  new={:>12}  {delta}",
                l.lock,
                l.threads,
                l.old_ops.map(|v| format!("{v:.0}")).unwrap_or_default(),
                l.new_ops.map(|v| format!("{v:.0}")).unwrap_or_default(),
            )?;
        }
        if self.skipped > 0 {
            writeln!(f, "({} share/usage annotation rows skipped)", self.skipped)?;
        }
        write!(
            f,
            "{} within, {} improved, {} regressed, {} missing, {} new",
            self.count(Verdict::Within),
            self.count(Verdict::Improved),
            self.count(Verdict::Regressed),
            self.count(Verdict::MissingInNew),
            self.count(Verdict::OnlyInNew),
        )
    }
}

/// Fairness annotation rows carry fractions (shares), not
/// throughput; every other `@key=value` suffix is a real sweep
/// parameter and part of the cell key.
fn is_annotation(lock: &str) -> bool {
    lock.contains("@share=") || lock.contains("@usage=")
}

/// Compare two parsed bench files of one figure (the old file names
/// it). `noise` is the relative bound (0.10 = 10%); a cell regresses
/// when `(new-old)/old < -noise`.
pub fn diff(old: &BenchFile, new: &BenchFile, noise: f64) -> DiffReport {
    let mut lines = Vec::new();
    let mut skipped = 0usize;
    let mut seen = Vec::new();
    for o in &old.cells {
        if is_annotation(&o.lock) {
            skipped += 1;
            continue;
        }
        seen.push((o.lock.clone(), o.threads));
        let n = new
            .cells
            .iter()
            .find(|c| c.lock == o.lock && c.threads == o.threads);
        let (new_ops, verdict) = match n {
            None => (None, Verdict::MissingInNew),
            Some(n) => {
                let d = if o.ops_per_sec > 0.0 {
                    (n.ops_per_sec - o.ops_per_sec) / o.ops_per_sec
                } else {
                    0.0
                };
                let v = if d < -noise {
                    Verdict::Regressed
                } else if d > noise {
                    Verdict::Improved
                } else {
                    Verdict::Within
                };
                (Some(n.ops_per_sec), v)
            }
        };
        lines.push(DiffLine {
            lock: o.lock.clone(),
            threads: o.threads,
            old_ops: Some(o.ops_per_sec),
            new_ops,
            verdict,
        });
    }
    for n in &new.cells {
        if is_annotation(&n.lock) {
            skipped += 1;
            continue;
        }
        if !seen.contains(&(n.lock.clone(), n.threads)) {
            lines.push(DiffLine {
                lock: n.lock.clone(),
                threads: n.threads,
                old_ops: None,
                new_ops: Some(n.ops_per_sec),
                verdict: Verdict::OnlyInNew,
            });
        }
    }
    DiffReport {
        figure: old.figure.clone(),
        noise,
        lines,
        skipped,
    }
}

/// Collapse several runs of the same figure into one file holding the
/// per-cell **median** ops/s — the CI gate regenerates a figure
/// `N` times and compares the median, so one descheduled run can't
/// fail (or mask) the gate. Cells are keyed `(lock, threads)`; a cell
/// missing from some runs takes the median of the runs that have it.
pub fn median_bench(runs: &[BenchFile]) -> BenchFile {
    assert!(!runs.is_empty(), "median of zero runs");
    let mut cells: Vec<BenchCell> = Vec::new();
    for c in runs.iter().flat_map(|r| &r.cells) {
        if cells
            .iter()
            .any(|seen| seen.lock == c.lock && seen.threads == c.threads)
        {
            continue;
        }
        let mut vals: Vec<f64> = runs
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|o| o.lock == c.lock && o.threads == c.threads)
            .map(|o| o.ops_per_sec)
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        let mid = vals.len() / 2;
        let median = if vals.len() % 2 == 1 {
            vals[mid]
        } else {
            (vals[mid - 1] + vals[mid]) / 2.0
        };
        cells.push(BenchCell {
            lock: c.lock.clone(),
            threads: c.threads,
            ops_per_sec: median,
        });
    }
    BenchFile {
        figure: runs[0].figure.clone(),
        cells,
    }
}

/// Diff a baseline against the per-cell median of several new runs
/// (the `repro diff old.json new1.json new2.json ...` form). A new
/// file of another figure than the baseline's is an error.
pub fn diff_files_median(
    old_path: &str,
    new_paths: &[String],
    noise: f64,
) -> Result<DiffReport, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let old = parse_bench_json(&read(old_path)?).map_err(|e| format!("{old_path}: {e}"))?;
    let mut runs = Vec::new();
    for p in new_paths {
        let run = parse_bench_json(&read(p)?).map_err(|e| format!("{p}: {e}"))?;
        if run.figure != old.figure {
            return Err(format!(
                "{p}: figure {} is not the baseline's {}",
                run.figure, old.figure
            ));
        }
        runs.push(run);
    }
    if runs.is_empty() {
        return Err("no new files to diff against".to_string());
    }
    Ok(diff(&old, &median_bench(&runs), noise))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render_bench_json, BenchSample};

    fn sample(lock: &str, threads: usize, ops: f64) -> BenchSample {
        BenchSample {
            lock: lock.to_string(),
            threads,
            ops_per_sec: ops,
            p99_ns: None,
            p999_ns: None,
        }
    }

    fn bench(cells: &[(&str, usize, f64)]) -> BenchFile {
        let samples: Vec<_> = cells.iter().map(|(l, t, o)| sample(l, *t, *o)).collect();
        parse_bench_json(&render_bench_json("fig", &samples)).unwrap()
    }

    #[test]
    fn parses_render_bench_json_output() {
        let samples = vec![sample("mcs", 8, 1234.56), sample("ticket", 4, 99.0)];
        let f = parse_bench_json(&render_bench_json("fig8a", &samples)).unwrap();
        assert_eq!(f.figure, "fig8a");
        assert_eq!(f.cells.len(), 2);
        assert_eq!(f.cells[0].lock, "mcs");
        assert_eq!(f.cells[0].threads, 8);
        assert!((f.cells[0].ops_per_sec - 1234.6).abs() < 0.01);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_bench_json("not json at all").is_err());
        assert!(parse_bench_json("{\"figure\": \"x\", \"results\": []}").is_err());
    }

    #[test]
    fn within_noise_is_clean() {
        let old = bench(&[("mcs", 8, 1000.0)]);
        let new = bench(&[("mcs", 8, 950.0)]);
        let r = diff(&old, &new, 0.10);
        assert!(!r.failed());
        assert_eq!(r.lines[0].verdict, Verdict::Within);
    }

    #[test]
    fn regression_beyond_noise_flags() {
        let old = bench(&[("mcs", 8, 1000.0), ("ticket", 8, 1000.0)]);
        let new = bench(&[("mcs", 8, 800.0), ("ticket", 8, 1300.0)]);
        let r = diff(&old, &new, 0.10);
        assert!(r.failed());
        assert_eq!(r.lines[0].verdict, Verdict::Regressed);
        assert_eq!(r.lines[1].verdict, Verdict::Improved);
        let shown = r.to_string();
        assert!(shown.contains("REGR"), "{shown}");
        assert!(shown.contains("1 regressed"), "{shown}");
    }

    #[test]
    fn noise_bound_is_configurable() {
        let old = bench(&[("mcs", 8, 1000.0)]);
        let new = bench(&[("mcs", 8, 800.0)]);
        assert!(diff(&old, &new, 0.10).failed());
        assert!(!diff(&old, &new, 0.25).failed());
    }

    #[test]
    fn a_missing_cell_fails_and_a_new_cell_does_not() {
        let old = bench(&[("mcs", 8, 1000.0), ("gone", 8, 1.0)]);
        let new = bench(&[("mcs", 8, 1000.0), ("added", 8, 2.0)]);
        let r = diff(&old, &new, 0.10);
        assert!(r.failed(), "a baseline cell went missing");
        assert_eq!(r.count(Verdict::MissingInNew), 1);
        assert_eq!(r.count(Verdict::OnlyInNew), 1);
        assert!(r.to_string().contains("MISS  gone"), "{r}");

        let grown = bench(&[("mcs", 8, 1000.0), ("gone", 8, 1.0), ("added", 8, 2.0)]);
        let r = diff(&old, &grown, 0.10);
        assert!(!r.failed(), "a cell only the new run has is informational");
        assert_eq!(r.count(Verdict::OnlyInNew), 1);
    }

    #[test]
    fn a_figure_mismatch_is_an_error() {
        let dir = std::env::temp_dir();
        let write = |name: &str, figure: &str| {
            let path = dir.join(format!("asl-diff-{}-{name}.json", std::process::id()));
            let text = render_bench_json(figure, &[sample("mcs", 8, 1000.0)]);
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let old = write("old", "fig8a");
        let same = write("same", "fig8a");
        let other = write("other", "fig8b");
        let r = diff_files_median(&old, std::slice::from_ref(&same), 0.10).expect("one figure");
        assert!(!r.failed());
        let err = diff_files_median(&old, &[same.clone(), other.clone()], 0.10)
            .expect_err("fig8b is not fig8a");
        assert!(err.contains("fig8b") && err.contains("fig8a"), "{err}");
        for p in [old, same, other] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn share_annotation_rows_are_skipped_but_sweep_suffixes_compare() {
        let old = bench(&[
            ("fc-ban", 8, 1000.0),
            ("fc-ban@share=hog", 8, 0.5),
            ("mcs@layer=dyn", 1, 1000.0),
        ]);
        let new = bench(&[
            ("fc-ban", 8, 1000.0),
            ("fc-ban@share=hog", 8, 0.03),
            ("mcs@layer=dyn", 1, 500.0),
        ]);
        let r = diff(&old, &new, 0.10);
        assert_eq!(r.skipped, 2, "share rows must not be treated as ops/s");
        assert_eq!(r.lines.len(), 2);
        assert!(r.failed(), "@layer cells are real throughput cells");
        let regr: Vec<_> = r
            .lines
            .iter()
            .filter(|l| l.verdict == Verdict::Regressed)
            .collect();
        assert_eq!(regr.len(), 1);
        assert_eq!(regr[0].lock, "mcs@layer=dyn");
    }

    #[test]
    fn median_of_three_discards_the_outlier_run() {
        let baseline = bench(&[("mcs", 8, 1000.0)]);
        // One descheduled run craters; the median must not regress.
        let runs = [
            bench(&[("mcs", 8, 980.0)]),
            bench(&[("mcs", 8, 100.0)]),
            bench(&[("mcs", 8, 1010.0)]),
        ];
        let med = median_bench(&runs);
        assert!((med.cells[0].ops_per_sec - 980.0).abs() < f64::EPSILON);
        assert!(!diff(&baseline, &med, 0.10).failed());
        // ...but a consistent slowdown across runs still fails.
        let slow = [
            bench(&[("mcs", 8, 500.0)]),
            bench(&[("mcs", 8, 480.0)]),
            bench(&[("mcs", 8, 510.0)]),
        ];
        assert!(diff(&baseline, &median_bench(&slow), 0.10).failed());
    }

    #[test]
    fn median_of_even_runs_averages_the_middle_pair() {
        let runs = [bench(&[("mcs", 8, 100.0)]), bench(&[("mcs", 8, 300.0)])];
        let med = median_bench(&runs);
        assert!((med.cells[0].ops_per_sec - 200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn same_file_diffs_clean() {
        let old = bench(&[("mcs", 2, 10.0), ("mcs", 4, 20.0), ("mcs", 8, 30.0)]);
        let r = diff(&old, &old, 0.10);
        assert!(!r.failed());
        assert_eq!(r.count(Verdict::Within), 3);
    }
}
