"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py ROOT WORKLOAD SEED PASS TRACE

Imports isospec from ROOT/src, builds the pass's inputs, times the calls
(sampling the reference kernel unless traced), then checks and digests
their outputs outside the timed region.  The last
line of standard output is one JSON object; ``first_call`` is the
``time.monotonic()`` reading just before the first timed call, from which
run.py derives the set-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def run_calls(calls, sampler=None) -> tuple[list, float, float]:
    """Run the calls in order; an exception becomes the call's output.  The
    returned wall and CPU times leave out the sampler's kernel runs."""
    outputs = []
    if sampler is not None:
        sampler.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for call in calls:
        try:
            outputs.append(call.run())
        except Exception as exc:  # a raising op is a failed op, not a crash
            outputs.append(exc)
    if sampler is not None:
        sampler.stop()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if sampler is not None:
        wall, cpu = wall - sampler.wall_s, cpu - sampler.cpu_s
    return outputs, wall, cpu


def tally(calls, outputs) -> tuple[int, int, str]:
    """(attempted ops, failed ops, sha256 over the encoded outputs joined by
    newlines; for verify-all it is the hash of the summary file)."""
    attempted = failed = 0
    encoded = []
    for call, output in zip(calls, outputs):
        attempted += call.ops
        if isinstance(output, Exception):
            failed += call.ops
            encoded.append(repr(output).encode())
        else:
            failed += min(call.ops, call.failures(output))
            encoded.append(call.encode(output))
    return attempted, failed, hashlib.sha256(b"\n".join(encoded)).hexdigest()


def main(argv: list[str]) -> int:
    root, workload, seed, pass_index, trace = argv
    seed, pass_index, trace = int(seed), int(pass_index), trace == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import reference

    # forked before isospec is imported, so the kernel's helper process
    # holds none of isospec's state
    sampler = None if trace else reference.Sampler()
    try:
        return run_pass(root, src, workload, seed, pass_index, sampler)
    finally:
        if sampler is not None:
            sampler.close()


def run_pass(root, src, workload, seed, pass_index, sampler) -> int:
    # the tracer patches only modules already loaded
    import isospec.cli
    import isospec.verify

    if os.path.dirname(os.path.realpath(isospec.__file__)) != os.path.realpath(
            os.path.join(src, "isospec")):
        print(f"isospec imported from {isospec.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    out_dir = os.path.join(root, ".perfbench_out")
    calls = workloads.build(isospec, workload, seed, pass_index, out_dir)
    # a traced pass reports per-layer times only: no kernel runs in its spans
    spans = None if sampler else tracer.Tracer()
    if spans is not None:
        spans.install()
    first_call = time.monotonic()
    try:
        outputs, wall, cpu = run_calls(calls, sampler)
    finally:
        if spans is not None:
            spans.restore()
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, digest = tally(calls, outputs)
    result = {
        "first_call": first_call,
        "wall_s": wall,
        "cpu_s": cpu,
        "kernel_s": sampler.kernel_s() if sampler else None,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "maxrss_kib": maxrss_kib,
        "errors": [repr(o) for o in outputs if isinstance(o, Exception)],
    }
    if spans is not None:
        result["layers"] = spans.layer_metrics()
        spans.write_spans(os.path.join(out_dir, f"spans-{workload}.jsonl"), pass_index)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
