"""Check the `overhead` figure's idle layers by ratios taken within runs.

    python3 baselines/overhead_ratios.py a/BENCH_overhead.json b/BENCH_overhead.json c/BENCH_overhead.json

Each argument is the `BENCH_overhead.json` of one `repro overhead --quick`
run. A cell `<lock>@layer=<layer>` holds ops/s; its ns/op is 1e9 over
that, and the check takes each cell's minimum ns over the runs given
(one run alone has read `instr-off / dyn` as high as 2.37 on a 2-CPU
host, where no group of three read over 1.31). Per registry row it
then holds two ratios of layers measured in the same batches of the
same process, so the host's speed cancels:

* `instr-off / dyn` <= OFF_LIMIT: an `instrumented-` wrapper with
  profiling off costs one predictable branch over the `dyn` facade.
  Every row but `rcl`, whose op is a round trip to its server thread,
  so its columns follow where the host schedules that thread.
* `instr-on / instr-off` <= ON_LIMIT: profiling on samples one hold in
  32. Every row but `rcl` and the `gcr-*` rows, whose instr-on leg also
  pays the inner lock's own profiling cell (the figure's table note).

Each limit is the worst ratio measured over three-run groups on the
reference host, x 1.25, capped at the host-acquire idle-layer caps (1.6
and 2.0). On a 2-CPU x86-64 host, the 120 groups of ten runs read at
worst 1.29 and 1.68, and the 120 of ten more under `taskset -c 0` 1.31
and 1.65, so both limits are the caps. A clock read added to the
gate-off path reads 1.8-4.9 on 31 of the 34 rows. Every ratio is
printed; the exit status is 1 when one is over its limit or a row lacks
a layer in some run.
"""
import json
import sys

OFF_LIMIT = 1.6
ON_LIMIT = 2.0


def min_ns(paths):
    """`{(lock, layer): minimum ns/op over the runs}`, every cell in every run."""
    runs = []
    for path in paths:
        bench = json.load(open(path))
        assert bench["figure"] == "overhead", f"{path} is {bench['figure']!r}, not overhead"
        runs.append({r["lock"]: 1e9 / r["ops_per_sec"] for r in bench["results"]})
    keys = set(runs[0])
    for path, run in zip(paths, runs):
        assert set(run) == keys, f"{path} has other cells than {paths[0]}"
    cells = {}
    for key in keys:
        lock, layer = key.split("@layer=")
        cells[lock, layer] = min(run[key] for run in runs)
    return cells


def main(paths):
    assert paths, __doc__
    cells = min_ns(paths)
    locks = sorted({lock for lock, _ in cells})
    over = []
    print(f"min ns/op over {len(paths)} run(s); limits: instr-off/dyn {OFF_LIMIT}, instr-on/instr-off {ON_LIMIT}")
    for lock in locks:
        dyn, off, on = (cells[lock, layer] for layer in ("dyn", "instr-off", "instr-on"))
        checks = [("instr-off/dyn", off / dyn, OFF_LIMIT, lock != "rcl"),
                  ("instr-on/instr-off", on / off, ON_LIMIT,
                   lock != "rcl" and not lock.startswith("gcr-"))]
        words = []
        for name, ratio, limit, gated in checks:
            mark = "" if gated else " (not gated)"
            if gated and ratio > limit:
                mark = f" OVER {limit}"
                over.append(f"{lock} {name}")
            words.append(f"{name} {ratio:.2f}{mark}")
        print(f"{lock:18} dyn {dyn:6.1f}  off {off:6.1f}  on {on:6.1f}   " + "   ".join(words))
    if over:
        print(f"an idle layer costs more than it measured: {', '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
