"""isospec benchmark: exact certificates completed per second.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; isospec is imported from its ``src/``.
Workloads (see workloads.py and BENCHMARK.json): verify-all, lattice-cert,
qes-blocks, family-tables.

isospec is a single-threaded, CPU-bound library with no request traffic, so
the load is a closed loop of one client: passes run one after another, each
in a fresh worker process (as a CLI user would), as many as fit in
``--seconds`` but at least MIN_PASSES.  Pass i draws its inputs
from (seed, i).  Every output is checked; an op that raises, returns a false
verdict or fails its check counts as failed.

With ``--trace 0`` the end-to-end metrics are certs_per_kref, correct ops per
thousand runs' worth of a reference kernel timed alongside them (so the
figure follows the work, not the drifting speed of a shared host; see
reference.py), and the medians of setup_s and peak_rss_mb over the passes.
The raw times (run.certs_per_s, run.pass_wall_s, run.pass_cpu_s) are
printed too, and are per-layer metrics of the traced run.  With
``--trace 1`` each pass runs twice on the same inputs, untraced and then
traced, and the per-layer metrics come from the traced ones: counts and
ratios from the first traced pass (they repeat exactly for a seed), times as
medians.  The last line of standard output is one JSON object; a full record
with the machine and every pass goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 3
# no pass starts if it might end after this; the run must end within 180 s
DEADLINE_S = 150.0

# name -> (unit, better), in the order of BENCHMARK.json
END_TO_END = {
    "certs_per_kref": ("1/kref", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, index: int, trace: bool, timeout: float) -> dict:
    """Run one pass in a fresh worker and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
           str(seed), str(index), "1" if trace else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {index} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} exited with {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("first_call") - launched
    report["trace"] = trace
    return report


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_record() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
    }


def percentile_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    p = 100 * (n - 10) // n
    value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"n={n}; p{p}={value:.6g}"


def kref(report: dict) -> float:
    """CPU time of a pass in thousands of reference-kernel runs."""
    return report["cpu_s"] / report["kernel_s"] / 1000


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics and the (q1, q3) of their per-pass samples.

    certs_per_kref is correct ops over the total cost of the passes in
    reference-kernel units (see reference.py); the others are medians over
    the passes, each of which sets up afresh."""
    samples = {
        "certs_per_kref": [(p["attempted"] - p["failed"]) / kref(p) for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["maxrss_kib"] / 1024 for p in passes],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["certs_per_kref"] = (sum(p["attempted"] - p["failed"] for p in passes)
                                / sum(kref(p) for p in passes))
    return values, {k: quartiles(v) for k, v in samples.items()}


def timings(passes: list[dict]) -> tuple[dict, dict]:
    """Raw times: correct ops over the total wall time, and the mean wall
    and CPU time of a pass.  They follow the machine's speed at the moment."""
    samples = {
        "run.certs_per_s": [(p["attempted"] - p["failed"]) / p["wall_s"] for p in passes],
        "run.pass_wall_s": [p["wall_s"] for p in passes],
        "run.pass_cpu_s": [p["cpu_s"] for p in passes],
    }
    values = {k: statistics.fmean(v) for k, v in samples.items()}
    values["run.certs_per_s"] = (sum(p["attempted"] - p["failed"] for p in passes)
                                 / sum(p["wall_s"] for p in passes))
    return values, {k: quartiles(v) for k, v in samples.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from paired untraced and traced passes."""
    layers = [p["layers"] for p in traced]
    values, spread = {}, {}
    for name in tracer.LAYER_METRICS:
        if name in tracer.EXACT_METRICS:
            values[name] = layers[0][name]
        elif name in layers[0]:
            samples = [layer[name] for layer in layers]
            values[name], spread[name] = statistics.median(samples), quartiles(samples)
    raw, raw_spread = timings(plain)
    values.update(raw)
    spread.update(raw_spread)
    ratios = [t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)]
    values["trace.overhead_ratio"] = statistics.median(ratios)
    spread["trace.overhead_ratio"] = quartiles(ratios)
    attempted = sum(p["attempted"] for p in plain + traced)
    values["fail_ratio"] = sum(p["failed"] for p in plain + traced) / attempted
    return {name: values[name] for name in tracer.LAYER_METRICS}, spread


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced passes and, with ``trace``, a traced pass on each one's inputs.

    A pass starts only if it is expected to end within ``seconds``, except
    that MIN_PASSES (one pair when tracing) always run."""
    plain, traced = [], []
    started = time.monotonic()
    rounds: list[float] = []
    while True:
        round_start = time.monotonic()
        for sink, is_traced in ((plain, False), (traced, True))[: 1 + trace]:
            timeout = DEADLINE_S + 25 - (time.monotonic() - started)
            sink.append(run_pass(workload, seed, len(rounds), is_traced, timeout))
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - started
        expected_end = elapsed + statistics.median(rounds)
        if len(rounds) >= (1 if trace else MIN_PASSES) and expected_end > seconds:
            return plain, traced
        if expected_end > DEADLINE_S:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "isospec", "__init__.py")):
        print(f"perfbench: no isospec sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    machine = machine_record()
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    machine["loadavg_end"] = list(os.getloadavg())

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, spread = per_layer(plain, traced)
        shown = values
        units = {k: unit for k, (unit, _) in tracer.LAYER_METRICS.items()}
    else:
        values, spread = end_to_end(plain)
        raw, raw_spread = timings(plain)
        shown = {**values, **raw}
        spread.update(raw_spread)
        units = {k: unit for k, (unit, _) in {**END_TO_END, **tracer.LAYER_METRICS}.items()}

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes"
          f"{' (+ as many traced)' if args.trace else ''}, {attempted} ops, {failed} failed")
    for name, value in shown.items():
        line = f"  {name} = {value:.6g} {units[name]}"
        if name in spread:
            line += " (pass quartiles {:.6g} .. {:.6g})".format(*spread[name])
        if name == "run.pass_wall_s":
            walls = [p["wall_s"] for p in plain]
            line += f"; median {statistics.median(walls):.6g}, {percentile_note(walls)}"
        print(line)
    if "fail_ratio" not in values:
        print(f"  fail_ratio = {failed / attempted:.6g}")
    print(f"  digest pass0 sha256 {plain[0]['digest']}")
    for p in passes:
        for error in p["errors"]:
            print(f"  error: {error}")
    print("machine " + json.dumps(machine))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "metrics": shown,
              "pass_quartiles": spread, "passes": passes}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
