//! Command line of the repo benchmark (see `benchmark/README.md`).

use std::process::ExitCode;

use libasl_benchmark::metrics::WORKLOADS;
use libasl_benchmark::report::{
    contract_json, print_table, result_line, write_files, RunId, DEFAULT_SECONDS,
};
use libasl_benchmark::run::{is_workload, traced, untraced};

const USAGE: &str = "usage: libasl-benchmark (--workload <name> | --all | --smoke | --contract)
                        [--seed <n>] [--seconds <s>] [--trace <0|1>]
  --workload <name>  one of: amp-lock amp-oversub amp-db host-acquire host-kv
  --all              every workload in turn (one result line each)
  --smoke            --all at a tenth of the default length (CI profile)
  --contract         print the text of BENCHMARK.json and exit
  --seed <n>         workload seed (default 1)
  --seconds <s>      measuring budget per workload (default 15)
  --trace <0|1>      0: end-to-end metrics, tracing off (default)
                     1: per-layer metrics from a traced run, spans written out";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(DEFAULT_SECONDS),
        traced: false,
    };
    let mut smoke = false;
    let mut seconds_given = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workloads = vec![name];
            }
            "--all" => args.workloads = WORKLOADS.map(String::from).to_vec(),
            "--smoke" => {
                smoke = true;
                args.workloads = WORKLOADS.map(String::from).to_vec();
            }
            "--contract" => {
                print!("{}", contract_json());
                return Ok(None);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if smoke && !seconds_given {
        args.seconds /= 10.0;
    }
    if args.workloads.is_empty() {
        return Err("name a workload, or --all".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in &args.workloads {
        let id = RunId {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
        };
        let (contract, table, attempted, failed, logs) = if args.traced {
            let l = traced(workload, args.seconds, args.seed);
            (l.metrics.clone(), l.metrics, l.attempted, l.failed, l.logs)
        } else {
            let o = untraced(workload, args.seconds, args.seed);
            let contract = o.e2e.metrics(o.clock);
            let table = [contract.clone(), o.detail].concat();
            (contract, table, o.attempted, o.failed, Vec::new())
        };
        print_table(&id, &table);
        match write_files(&id, &table, attempted, failed, &logs) {
            Ok(path) => eprintln!("report: {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the report: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("{}", result_line(&contract, attempted, failed));
        all_correct &= failed == 0;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
