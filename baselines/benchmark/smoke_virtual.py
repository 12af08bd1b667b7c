"""Print the virtual-clock metrics of a `libasl-benchmark --smoke` run.

One `report name value` line per metric whose `clock` is `virtual`, in
report order, from the untraced seed-1 reports a `--smoke` run writes:
the lines `baselines/benchmark/smoke-virtual.txt` holds and CI's
`benchmark-smoke` job diffs a fresh run against. (A later run with
seed 1 overwrites those reports; reports of other seeds are ignored.)

    python3 baselines/benchmark/smoke_virtual.py [bench-out dir]

The directory defaults to `benchmark/target/release/bench-out`.
"""
import glob
import json
import os
import sys

out = sys.argv[1] if len(sys.argv) > 1 else "benchmark/target/release/bench-out"
reports = sorted(glob.glob(os.path.join(out, "report-*-seed1-trace0.json")))
assert reports, f"no trace0 report under {out}"
for path in reports:
    report = os.path.basename(path)[len("report-"):-len(".json")]
    for metric in json.load(open(path))["metrics"]:
        if metric["clock"] == "virtual":
            print(report, metric["name"], json.dumps(metric["value"]))
