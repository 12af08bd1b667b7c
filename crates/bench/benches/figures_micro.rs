//! Criterion benches regenerating the paper's micro-benchmark
//! figures (1, 4, 5, 8a/8b/8e/8g/8h). One bench group per figure;
//! each measurement is "time per operation" on the figure's workload,
//! so Criterion's ops/s view mirrors the paper's throughput axes.

use std::time::Duration;

use asl_harness::locks::LockSpec;
use asl_harness::runner::run_until_ops;
use asl_harness::scenario::{
    worker_rng, MicroScenario, FIG1_LINES, FIG1_NCS_UNITS, FIG4_LINES, FIG8G_LINES,
};
use asl_runtime::{AtomicAffinity, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Measure one scenario's per-op time at a given thread count.
fn bench_scenario(
    c: &mut Criterion,
    group_name: &str,
    label: &str,
    spec: &LockSpec,
    make: impl Fn(&LockSpec) -> MicroScenario,
    threads: usize,
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
        .throughput(Throughput::Elements(1));
    let topo = Topology::apple_m1();
    group.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter_custom(|iters| {
            let scenario = make(spec);
            run_until_ops(
                &topo,
                threads,
                iters.max(threads as u64),
                |ctx| worker_rng(ctx.index),
                |_, rng| scenario.run_op(rng),
            )
        });
    });
    group.finish();
}

fn fig1(c: &mut Criterion) {
    for (label, spec) in [
        ("mcs-8t", LockSpec::Mcs),
        (
            "tas-little-affinity-8t",
            LockSpec::Tas(AtomicAffinity::little_wins()),
        ),
    ] {
        bench_scenario(
            c,
            "fig1_collapse",
            label,
            &spec,
            |s| MicroScenario::simple(s, FIG1_LINES, FIG1_NCS_UNITS),
            8,
        );
    }
    // The 4-big-core reference point.
    bench_scenario(
        c,
        "fig1_collapse",
        "mcs-4big",
        &LockSpec::Mcs,
        |s| MicroScenario::simple(s, FIG1_LINES, FIG1_NCS_UNITS),
        4,
    );
}

fn fig4(c: &mut Criterion) {
    for (label, spec) in [
        ("mcs", LockSpec::Mcs),
        (
            "tas-big-affinity",
            LockSpec::Tas(AtomicAffinity::big_wins()),
        ),
    ] {
        bench_scenario(
            c,
            "fig4_bigaffinity",
            label,
            &spec,
            |s| MicroScenario::simple(s, FIG4_LINES, FIG1_NCS_UNITS),
            8,
        );
    }
}

fn fig5(c: &mut Criterion) {
    for n in [0u32, 5, 10, 29] {
        bench_scenario(
            c,
            "fig5_proportional",
            &format!("pb{n}"),
            &LockSpec::ShflPb(n),
            MicroScenario::bench1,
            8,
        );
    }
}

fn fig8a(c: &mut Criterion) {
    let specs: Vec<(String, LockSpec)> = vec![
        ("pthread".into(), LockSpec::Pthread),
        ("tas".into(), LockSpec::Tas(AtomicAffinity::big_wins())),
        ("ticket".into(), LockSpec::Ticket),
        ("shfl-pb10".into(), LockSpec::ShflPb(10)),
        ("mcs".into(), LockSpec::Mcs),
        ("libasl-0".into(), LockSpec::asl(Some(0))),
        ("libasl-100us".into(), LockSpec::asl(Some(100_000))),
        ("libasl-max".into(), LockSpec::asl(None)),
    ];
    for (label, spec) in specs {
        bench_scenario(c, "fig8a_bench1", &label, &spec, MicroScenario::bench1, 8);
    }
}

fn fig8b(c: &mut Criterion) {
    for slo_us in [25u64, 50, 100, 400] {
        bench_scenario(
            c,
            "fig8b_slo_sweep",
            &format!("slo-{slo_us}us"),
            &LockSpec::asl(Some(slo_us * 1_000)),
            MicroScenario::bench1,
            8,
        );
    }
}

fn fig8ef(c: &mut Criterion) {
    for threads in [4usize, 8] {
        for (name, spec) in [("mcs", LockSpec::Mcs), ("libasl-max", LockSpec::asl(None))] {
            bench_scenario(
                c,
                "fig8ef_scalability",
                &format!("{name}-{threads}t"),
                &spec,
                |s| MicroScenario::simple(s, FIG4_LINES, FIG1_NCS_UNITS),
                threads,
            );
        }
    }
}

fn fig8g(c: &mut Criterion) {
    for exp in [0u32, 2, 4] {
        let ncs = 10u64.pow(exp);
        for (name, spec) in [("mcs", LockSpec::Mcs), ("libasl-max", LockSpec::asl(None))] {
            bench_scenario(
                c,
                "fig8g_contention",
                &format!("{name}-ncs1e{exp}"),
                &spec,
                move |s| MicroScenario::simple(s, FIG8G_LINES, ncs),
                8,
            );
        }
    }
}

fn fig8hi(c: &mut Criterion) {
    for (label, spec) in [
        ("pthread", LockSpec::Pthread),
        ("mcs-stp", LockSpec::McsStp),
        ("libasl-blk-max", LockSpec::AslBlocking { slo_ns: None }),
    ] {
        bench_scenario(c, "fig8hi_oversub", label, &spec, MicroScenario::bench1, 16);
    }
}

criterion_group!(benches, fig1, fig4, fig5, fig8a, fig8b, fig8ef, fig8g, fig8hi);
criterion_main!(benches);
