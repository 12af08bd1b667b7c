#!/usr/bin/env bash
# Agreement check: run the whole workload set on the same code and seed
# in two sets of runs, and print, per workload and end-to-end metric,
# the relative difference between the two sets' medians against the
# metric's bound.
#
#   benchmark/agree.sh [seed] [seconds] [runs-per-set]
#
# Virtual-clock values (everything but setup_s on the amp-* workloads)
# must be identical in every run; host-clock medians must differ by
# less than their bound; no operation may fail. Exits 1 otherwise.
# Defaults: seed 1, 15 s, 3 runs per set (about six minutes).
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-15}
runs=${3:-3}

one_run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --all --seed "$seed" --seconds "$seconds" 2>/dev/null | grep '^{"correct"'
}

lines=""
for _ in $(seq $((2 * runs))); do
    lines+="$(one_run)"$'\n'
done

python3 - "$runs" "$lines" <<'PY'
import json, statistics, sys

contract = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
names = [w["name"] for w in contract["workloads"]]
runs = int(sys.argv[1])
results = [json.loads(line) for line in sys.argv[2].splitlines() if line]
assert len(results) == 2 * runs * len(names), "one result line per workload and run"
# results[r][w]: run r, workload w; the first `runs` runs are set one.
per_run = [results[i * len(names):(i + 1) * len(names)] for i in range(2 * runs)]

bad = 0
for w, name in enumerate(names):
    column = [run[w] for run in per_run]
    for r in column:
        if not r["correct"] or r["failed"]:
            print(f"{name}: {r['failed']} of {r['attempted']} operations failed")
            bad += 1
    for metric, bound in bounds.items():
        values = [r["metrics"][metric]["value"] for r in column]
        virtual = name.startswith("amp-") and metric != "setup_s"
        a, b = statistics.median(values[:runs]), statistics.median(values[runs:])
        if virtual:
            diff, limit = (0.0 if len(set(values)) == 1 else max(values) / min(values) - 1), 0.0
        else:
            diff, limit = abs(a - b) / max(abs(a), abs(b)), bound
        verdict = "ok" if diff <= limit else "OUTSIDE"
        bad += verdict != "ok"
        clock = "virtual" if virtual else "host"
        print(f"{name:13} {metric:20} {clock:7} {a:>16.6f} {b:>16.6f}  diff {diff:8.4%}  bound {limit:6.2%}  {verdict}")
sys.exit(1 if bad else 0)
PY
