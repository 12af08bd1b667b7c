//! Metric values, and the names `BENCHMARK.json` promises.
//!
//! Every number the benchmark prints is a [`Metric`]: a name, a value,
//! a unit and the clock it was read from. Two fixed name lists are the
//! contract with the driver: [`END_TO_END`] (emitted by every
//! workload with tracing off, each with a regression bound) and
//! [`per_layer_names`] (emitted by every traced run, ungated).

use std::fmt::Write as _;

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulator's cycle-charged virtual time: a pure function of
    /// configuration and seed.
    Virtual,
    /// Wall time on the machine running the benchmark.
    Host,
}

impl Clock {
    /// `"virtual"` or `"host"`.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique within one run's report.
    pub name: String,
    /// The measurement, with all its digits.
    pub value: f64,
    /// Unit (`1/s`, `ns`, `vns`, `share`, `x`…).
    pub unit: &'static str,
    /// Clock the value derives from.
    pub clock: Clock,
    /// Evidence beside the value: sample counts, median/q90, the
    /// percentile actually reported. Empty when there is none.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            clock,
            note: String::new(),
        }
    }

    /// Attach the evidence note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in report order. Every workload emits all
/// of them; the README's glossary says what each means per workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "speedup_vs_baseline",
        unit: "x",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_over_slo",
        unit: "x",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The values of [`END_TO_END`] for one run, in that order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndValues {
    /// Headline cell: completed operations per second of the
    /// workload's clock.
    pub throughput_ops_s: f64,
    /// Headline cell ÷ baseline cell of the same run.
    pub speedup_vs_baseline: f64,
    /// The SLO cell's gated latency ÷ its pinned limit.
    pub latency_over_slo: f64,
    /// Median host seconds of one set-up.
    pub setup_s: f64,
}

impl EndToEndValues {
    /// As named metrics on `clock` (set-up time is always host time).
    pub fn metrics(&self, clock: Clock) -> Vec<Metric> {
        let values = [
            self.throughput_ops_s,
            self.speedup_vs_baseline,
            self.latency_over_slo,
            self.setup_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| {
                let clock = if m.name == "setup_s" {
                    Clock::Host
                } else {
                    clock
                };
                Metric::new(m.name, v, m.unit, clock)
            })
            .collect()
    }
}

/// Lock cells of `amp-lock`, baseline first, headline second.
pub const AMP_LOCK_CELLS: [&str; 5] = ["mcs", "libasl-60us", "libasl-max", "shfl-pb10", "adaptive"];
/// Lock cells of `amp-oversub`, baseline first; headline `gcr-mcs`.
pub const AMP_OVERSUB_CELLS: [&str; 4] = ["mcs-stp", "pthread", "gcr-mcs", "libasl-blk-500us"];
/// The five `asl-dbsim` engines of `amp-db`.
pub const ENGINES: [&str; 5] = ["kyoto", "upscale", "lmdb", "leveldb", "sqlite"];
/// The three simulated workloads.
pub const SIM_WORKLOADS: [&str; 3] = ["amp-lock", "amp-oversub", "amp-db"];
/// Rungs of the `host-acquire` ladder, in ladder order.
pub const ACQUIRE_RUNGS: [&str; 9] = [
    "static_mcs",
    "dyn_mcs",
    "instr_off_mcs",
    "instr_on_mcs",
    "gcr_mcs",
    "pthread",
    "libasl_max",
    "libasl_epoch",
    "timed_mcs",
];
/// Derived wrapper taxes of the ladder.
pub const ACQUIRE_TAXES: [&str; 5] = ["dyn", "instr", "gcr", "epoch", "timed"];
/// All workloads, in report order.
pub const WORKLOADS: [&str; 5] = [
    "amp-lock",
    "amp-oversub",
    "amp-db",
    "host-acquire",
    "host-kv",
];

/// Name and unit of every per-layer metric, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for cell in AMP_LOCK_CELLS.iter().chain(&AMP_OVERSUB_CELLS) {
        for (stat, unit) in [
            ("vops_s", "1/s"),
            ("wait_p50_vns", "vns"),
            ("wait_p99_big_vns", "vns"),
            ("wait_p99_little_vns", "vns"),
            ("little_share", "share"),
        ] {
            out.push((format!("locks.{cell}.{stat}"), unit));
        }
    }
    out.push(("core.epoch_vns".into(), "vns"));
    out.push(("core.window_final_vns".into(), "vns"));
    for engine in ENGINES {
        for (stat, unit) in [
            ("mcs_vops_s", "1/s"),
            ("asl_vops_s", "1/s"),
            ("little_p99_vns", "vns"),
            ("slo_miss_share", "share"),
            ("request_self_vns", "vns"),
            ("lock_wait_share", "share"),
        ] {
            out.push((format!("dbsim.{engine}.{stat}"), unit));
        }
    }
    for w in SIM_WORKLOADS {
        out.push((format!("sim.{w}.host_ops_per_s"), "1/s"));
        out.push((format!("sim.{w}.virtual_ns_per_host_s"), "vns/s"));
    }
    for rung in ACQUIRE_RUNGS {
        out.push((format!("acquire.{rung}_ns"), "ns"));
    }
    for tax in ACQUIRE_TAXES {
        out.push((format!("acquire.{tax}_tax_ns"), "ns"));
    }
    out.push(("runtime.clock_now_ns".into(), "ns"));
    out.push(("runtime.work_unit_ns".into(), "ns"));
    for (name, unit) in [
        ("exec.spawn_ns", "ns"),
        ("exec.queue_delay_p50_ns", "ns"),
        ("asynclock.uncontended_ns", "ns"),
        ("kv.request_await_p50_ns", "ns"),
        ("kv.burst.fifo_ns", "ns"),
        ("kv.burst.slo_ns", "ns"),
        ("kv.chain_ns", "ns"),
        ("kv.openloop.p99_us", "us"),
        ("kv.openloop.p999_us", "us"),
        ("kv.openloop.window_p99_median_us", "us"),
        ("kv.openloop.generator_lag_p99_us", "us"),
        ("kv.openloop.achieved_rate", "1/s"),
    ] {
        out.push((name.into(), unit));
    }
    for w in WORKLOADS {
        out.push((format!("trace.{w}.overhead_share"), "share"));
    }
    out
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`: shortest round-trip digits (non-finite
/// values, which no oracle-passing run produces, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_issue_counts_hold() {
        // The issue's 115, and `kv.chain_ns`.
        let names = per_layer_names();
        assert_eq!(names.len(), 116);
        let mut sorted: Vec<_> = names.iter().map(|(n, _)| n.clone()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 116, "per-layer names are unique");
        assert!(names.iter().all(|(n, _)| n.len() <= 64));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
