"""Run-to-run spread of the end-to-end metrics and the raw times.

    python3 perfbench/spread.py [--first-seed 1] [--out FILE]

Runs ``run.py`` once per seed (SEEDS seeds from ``--first-seed``) on each
workload of BENCHMARK.json, at its run length, one run at a time, and
reports for every end-to-end metric and every raw time (``run.*``) the
median of the runs, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median.  A metric whose spread exceeds its bound
in BENCHMARK.json cannot be told apart from noise at that bound.  One traced
run per workload, at the first seed, adds the per-layer metrics.
perfbench/BASELINE.json holds such reports for the commit that added the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

SEEDS = 10
RAW_TIMES = ("run.certs_per_s", "run.pass_wall_s", "run.pass_cpu_s")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Metric values of one run, with the raw times of an untraced run taken
    from its full record; raises if it fails or any op fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        name = f"result-{workload}-seed{seed}-trace0.json"
        with open(os.path.join(run.OUT_DIR, name), encoding="utf-8") as handle:
            record = json.load(handle)["metrics"]
        values.update({k: record[k] for k in RAW_TIMES})
    return values


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(run.OUT_DIR, "spread.json"))
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "machine": run.machine_record(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0)
                for seed in range(args.first_seed, args.first_seed + SEEDS)]
        summary = {}
        for name in [*run.END_TO_END, *RAW_TIMES]:
            values = [r[name] for r in runs]
            q1, q3 = run.quartiles(values)
            med = statistics.median(values)
            bound = bounds.get(name)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bound, "runs": values}
            print(f"{workload:14s} {name:16s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {(q3 - q1) / med:6.3f}  bound {bound}",
                  flush=True)
        summary["layers"] = bench(workload, args.first_seed, seconds, 1)
        report["workloads"][workload] = summary
    report["machine"]["loadavg_end"] = list(os.getloadavg())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
