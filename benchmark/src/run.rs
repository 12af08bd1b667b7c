//! Dispatch by workload name, and the shape of a traced run.

use crate::amp::{AMP_LOCK, AMP_OVERSUB};
use crate::metrics::{per_layer_names, Clock, Metric, WORKLOADS};
use crate::workload::{Layers, Outcome};
use crate::{amp_db, host_acquire, host_kv};

/// Share of a traced run's budget spent on the workload it was asked
/// for; each of the other four gets [`PROBE_SHARE`].
const OWN_SHARE: f64 = 0.8;
/// Share of a traced run's budget spent on each *other* workload.
///
/// The driver requires every traced run to report every per-layer
/// metric, and most of them belong to layers the asked-for workload
/// never touches. Those are filled in from a short probe of the
/// workload that does, rather than with a placeholder: the numbers are
/// real but low-precision (the report marks them `probe`), and they
/// double as the "predicted no move" side of each layer.
const PROBE_SHARE: f64 = 0.05;

/// Why a workload is in the set: one line each, for `BENCHMARK.json`.
pub fn why(workload: &str) -> &'static str {
    match workload {
        "amp-lock" => "virtual time: 8 vthreads on one lock on the modeled M1 (paper Fig. 8); the lock and reorder layer do almost all the work",
        "amp-oversub" => "virtual time: 16 vthreads on 4 modeled cores; park/wake and admission instead of spinning, so a spin-path gain that costs the blocking path shows",
        "amp-db" => "virtual time: the five dbsim engines under mcs and libasl; engine work dominates, so a lock gain must survive dilution and epoch overhead shows",
        "host-acquire" => "host time: one-thread uncontended acquire+release ladder across every wrapper layer, the instruction cost the simulator cannot see",
        "host-kv" => "host time: executor run queue + async mutex + sharded KV under closed bursts, one-at-a-time chains and a 40k req/s open loop, which the other four bypass",
        _ => "",
    }
}

/// Whether `name` is one of the five workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.contains(&name)
}

/// Run `workload` with tracing off.
pub fn untraced(workload: &str, seconds: f64, seed: u64) -> Outcome {
    match workload {
        "amp-lock" => AMP_LOCK.run(seconds, seed),
        "amp-oversub" => AMP_OVERSUB.run(seconds, seed),
        "amp-db" => amp_db::run(seconds, seed),
        "host-acquire" => host_acquire::run(seconds, seed),
        "host-kv" => host_kv::run(seconds, seed),
        other => panic!("unknown workload {other}"),
    }
}

fn layers_of(workload: &str, seconds: f64, seed: u64) -> Layers {
    match workload {
        "amp-lock" => AMP_LOCK.layers(seconds, seed),
        "amp-oversub" => AMP_OVERSUB.layers(seconds, seed),
        "amp-db" => amp_db::layers(seconds, seed),
        "host-acquire" => host_acquire::layers(seconds, seed),
        "host-kv" => host_kv::layers(seconds, seed),
        other => panic!("unknown workload {other}"),
    }
}

/// The traced run of `workload`: its own layers at [`OWN_SHARE`] of
/// the budget and a probe of every other workload's layers, in
/// [`per_layer_names`] order. Span logs are kept for `workload` only.
/// A per-layer metric that no pass produced counts as one failure.
pub fn traced(workload: &str, seconds: f64, seed: u64) -> Layers {
    let mut produced: Vec<Metric> = Vec::new();
    let mut out = Layers::default();
    for w in WORKLOADS {
        let own = w == workload;
        let share = if own { OWN_SHARE } else { PROBE_SHARE };
        let mut l = layers_of(w, seconds * share, seed);
        out.attempted += l.attempted;
        out.failed += l.failed;
        if own {
            out.logs = std::mem::take(&mut l.logs);
        } else {
            for m in &mut l.metrics {
                m.note = format!("probe of {w}; {}", m.note);
            }
        }
        produced.append(&mut l.metrics);
    }
    for (name, unit) in per_layer_names() {
        match produced.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.push(produced.swap_remove(i)),
            None => {
                out.failed += 1;
                out.metrics.push(
                    Metric::new(name, 0.0, unit, Clock::Host)
                        .with_note("MISSING: no pass produced it"),
                );
            }
        }
    }
    out
}
