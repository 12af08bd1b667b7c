//! `repro` — regenerate the paper's figures.
//!
//! ```text
//! repro list                 # available figure ids
//! repro locks                # the string-addressable lock registry
//! repro fig8a                # one figure (full profile)
//! repro fig1 fig4 --quick    # several figures, quick profile
//! repro --lock libasl-70us   # Bench-1 under one named lock
//! repro fig1 --profile       # + per-lock telemetry stats tables
//! repro all --quick --out results/
//! repro sim --quick --out simA/    # deterministic-simulator family
//! ```
//!
//! Every figure except `overhead` and `kv` (host time) runs in
//! virtual time on a modeled machine, so its tables repeat to the
//! byte. Each figure prints aligned text tables; with `--out DIR` every
//! table is also written as `DIR/<table-id>.csv` and every figure's
//! machine-readable throughput points as `DIR/BENCH_<figure>.json`
//! (schema: figure id, lock name, threads, ops/s). With `--profile`,
//! every lock the registry materializes is wrapped in a telemetry
//! recorder and a per-lock stats table is printed after each figure.

use std::io::Write as _;

use asl_harness::figures::{self, Profile};
use asl_harness::locks::{listing, LockSpec};
use asl_harness::report::{render_bench_json, telemetry_table, Table};
use asl_locks::telemetry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }

    // `repro torture [--quick] [--seed N] [--sim|--os] [--lock NAME]
    // [--out DIR]` — the locktorture-style fault-schedule sweep
    // (exit 1 = an invariant oracle failed).
    if args[0] == "torture" {
        std::process::exit(asl_harness::torture::run_torture(&args[1..]));
    }

    let mut quick = false;
    let mut profile_locks = false;
    let mut out_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut lock_names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--profile" => profile_locks = true,
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }));
            }
            "--lock" => {
                i += 1;
                lock_names.push(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--lock requires a registry name (try `repro locks`)");
                    std::process::exit(2);
                }));
            }
            "list" => {
                for (id, _) in figures::registry() {
                    println!("{id}");
                }
                return;
            }
            "locks" => {
                list_locks();
                return;
            }
            "all" => ids.extend(
                figures::registry()
                    .into_iter()
                    .map(|(id, _)| id.to_string()),
            ),
            // The deterministic-simulator figure family as one word.
            "sim" => ids.extend(
                figures::registry()
                    .into_iter()
                    .map(|(id, _)| id.to_string())
                    .filter(|id| id.starts_with("sim-")),
            ),
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                usage();
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    ids.dedup();

    if ids.is_empty() && lock_names.is_empty() {
        usage();
        std::process::exit(2);
    }

    let profile = if quick {
        Profile::quick()
    } else {
        Profile::full()
    };
    eprintln!(
        "profile: {} ({}ms/point, warmup {}ms{})",
        if quick { "quick" } else { "full" },
        profile.duration_ms,
        profile.warmup_ms,
        if profile_locks {
            ", lock telemetry on"
        } else {
            ""
        }
    );

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out dir");
    }

    telemetry::set_profiling(profile_locks);
    // Explicitly requested `instrumented-*` locks should report even
    // without --profile: arm count recording (no timing) so their
    // wrappers don't fast-exit. Library users get the zero-cost
    // default; asking for an instrumented lock by name is opt-in.
    if !profile_locks && lock_names.iter().any(|n| n.starts_with("instrumented-")) {
        telemetry::set_recording(true);
    }

    let mut failed = false;

    // One-off single-lock sweeps: `--lock <name>` (repeatable).
    for name in &lock_names {
        let spec: LockSpec = match name.parse() {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("{e}");
                failed = true;
                continue;
            }
        };
        eprintln!("running --lock {spec} ...");
        telemetry::clear_registered();
        let table = figures::single_lock(&profile, &spec);
        emit(&table, &out_dir);
        finish_figure(&format!("lock-{spec}"), &[table], &out_dir);
    }

    for id in &ids {
        if figures::find(id).is_none() {
            eprintln!("unknown figure id: {id} (try `repro list`)");
            failed = true;
            continue;
        }
        eprintln!("running {id} ...");
        let t0 = std::time::Instant::now();
        telemetry::clear_registered();
        let tables = figures::run(id, &profile).expect("a registered figure");
        for table in &tables {
            emit(table, &out_dir);
        }
        finish_figure(id, &tables, &out_dir);
        eprintln!("{id} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if failed {
        std::process::exit(1);
    }
}

/// Per-figure epilogue: the per-lock telemetry table (whenever any
/// lock recorded — `--profile` wraps everything and arms sampling;
/// `instrumented-*` specs record counts while the recording gate is
/// armed) and the machine-readable `BENCH_<figure>.json` (under
/// `--out`).
fn finish_figure(id: &str, tables: &[Table], out_dir: &Option<String>) {
    let stats = telemetry_table(id);
    if !stats.rows.is_empty() {
        emit(&stats, out_dir);
    }
    if let Some(dir) = out_dir {
        let samples: Vec<_> = tables.iter().flat_map(|t| t.samples.clone()).collect();
        if !samples.is_empty() {
            let path = format!("{dir}/BENCH_{id}.json");
            let mut f = std::fs::File::create(&path).expect("create bench json");
            f.write_all(render_bench_json(id, &samples).as_bytes())
                .expect("write bench json");
            eprintln!("wrote {path}");
        }
    }
}

fn emit(table: &Table, out_dir: &Option<String>) {
    println!("{}", table.render_text());
    if let Some(dir) = out_dir {
        let path = format!("{dir}/{}.csv", table.id);
        let mut f = std::fs::File::create(&path).expect("create csv");
        f.write_all(table.render_csv().as_bytes())
            .expect("write csv");
        eprintln!("wrote {path}");
    }
}

fn list_locks() {
    print!("{}", listing());
    println!(
        "\nBetween name and description, what the family promises: F exact FIFO,\n\
         R readers overlap, t timed acquire on the static type only (the erased\n\
         lock built here cannot back out), E takes epochs (carries an SLO),\n\
         B waiters may block, D delegation.\n\
         SLO-parameterized families accept any duration, e.g. libasl-25us,\n\
         libasl-clh-4ms, libasl-opt-500ns, libasl-blk-1ms. Prefix any name\n\
         with `instrumented-` to record telemetry for it (counts via --lock;\n\
         full hold/wait sampling under --profile; near-zero otherwise)."
    );
}

fn usage() {
    let ids: Vec<&str> = figures::registry().into_iter().map(|(id, _)| id).collect();
    let ids: Vec<String> = ids.chunks(8).map(|line| line.join(" ")).collect();
    eprintln!(
        "usage: repro [--quick|--full] [--profile] [--out DIR] [--lock NAME]... <figure-id>... | all | list | locks\n\
         \u{20}      repro torture [--quick] [--seed N] [--sim|--os] [--lock NAME] [--out DIR]   # fault-schedule sweep, exit 1 on oracle failure\n\
         figure ids: {} (`sim` for the sim-* family)\n\
         lock names: see `repro locks` (e.g. mcs, ccsynch, fc-ban, gcr-mcs, libasl-70us)",
        ids.join("\n            ")
    );
}
