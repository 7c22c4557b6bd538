"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import isospec  # noqa: E402
import isospec.cli  # noqa: E402,F401  (the tracer patches every loaded module)
import isospec.verify  # noqa: E402,F401
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def test_self_time_of_a_nested_span_tree():
    # root [0,10] has children A [1,4], B [5,8] and C [7,12]; C overlaps B
    # and sticks out of the root.  A has one child D [2,3].
    spans = [(0, 10, -1), (1, 4, 0), (5, 8, 0), (7, 12, 0), (2, 3, 1)]
    assert tracer.self_times(spans) == [10 - 3 - 5, 3 - 1, 3, 5, 1]


def test_spans_nest_along_the_call_chain_and_restore_originals():
    original = isospec.spectral.char_poly
    element = isospec.second_order_element(isospec.SecondOrderParams(1, 2, 3, 4, 5, 6))
    op = isospec.realize_lattice(element, Fraction(1, 2))
    spans = tracer.Tracer()
    spans.install()
    patches = list(spans.patches)
    try:
        assert isospec.char_poly is isospec.spectral.char_poly is not original
        isospec.lattice_matrix(op, 3)
    finally:
        spans.restore()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    patched = {(getattr(o, "__name__", None), a) for o, a, _ in patches}
    for module in ("isospec", "isospec.spectral", "isospec.verify"):
        assert (module, "isospectral_check") in patched
    assert ("ShiftOperator", "apply") in patched

    names = [name for name, *_ in spans.spans]
    parent = {i: p for i, (_, p, _, _) in enumerate(spans.spans)}
    first_shift = names.index("polynomials.Polynomial.shifted")
    chain = []
    i = first_shift
    while i >= 0:
        chain.append(names[i])
        i = parent[i]
    assert chain == ["polynomials.Polynomial.shifted","representations.ShiftOperator.apply",
                          "spectral.matrix_on_basis", "spectral.lattice_matrix"]
    metrics = spans.layer_metrics()
    assert metrics["spectral.lattice_matrix.calls"] == 1
    assert metrics["spectral.matrix_on_basis.calls"] == 1
    assert metrics["representations.ShiftOperator.apply.calls"] == 4


def test_sampler_runs_the_kernel_in_a_helper_and_leaves_it_out_of_the_pass():
    sampler = reference.Sampler()
    try:
        assert sampler.pid not in (0, os.getpid())
        busy = workloads.Call(lambda: sum(i * i for i in range(6_000_000)),
                              lambda out: 0, lambda out: b"", 1)
        _, wall, cpu = worker.run_calls([busy], sampler)
        assert sampler.samples and sampler.kernel_s() > 0 and 0 < cpu
        # the kernel's CPU time is the helper's, not this process's
        assert sampler.cpu_s < sum(sampler.samples)
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    finally:
        sampler.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(sampler.pid, os.WNOHANG)


def _lattice_call(degree: int, corrupt: bool) -> workloads.Call:
    coeffs = (Fraction(1, 2), 2, -3, Fraction(4, 3), 5, -6)
    element = isospec.second_order_element(isospec.SecondOrderParams(*coeffs))

    def run_call():
        cert = isospec.isospectral_check(element, Fraction(2, 3), degree)
        if corrupt:
            bad = list(cert.lattice_char_poly.coeffs)
            bad[0] += 1
            cert = dataclasses.replace(cert, lattice_char_poly=isospec.Polynomial(bad))
        return cert

    return workloads.Call(run_call,
                          lambda cert: checks.lattice_cert_failures(coeffs, degree, cert),
                          lambda cert: json.dumps(cert.to_json_obj()).encode(), 1)


def _raising_call() -> workloads.Call:
    return workloads.Call(lambda: isospec.discrete_family("no-such-family", 1, 3),
                          lambda out: 0, lambda out: b"", 29)


def test_corrupted_and_raising_outputs_count_as_failed():
    calls = [_lattice_call(6, False), _lattice_call(6, True), _raising_call()]
    outputs, wall, cpu = worker.run_calls(calls)
    attempted, failed, _ = worker.tally(calls, outputs)
    assert (attempted, failed) == (31, 30)
    plain = [{"attempted": attempted, "failed": failed, "wall_s": wall, "cpu_s": cpu}]
    traced = [{"attempted": 1, "failed": 0, "wall_s": wall, "cpu_s": cpu, "layers": {
        name: 0 for name in tracer.LAYER_METRICS}}]
    values, _ = run.per_layer(plain, traced)
    assert values["fail_ratio"] == 30 / 32


def test_family_and_verify_checks_catch_corruption():
    table = isospec.discrete_family("jacobi", Fraction(-2, 3), 5,
                                    alpha=Fraction(1, 2), beta=Fraction(3, 4))
    params = {"alpha": Fraction(1, 2), "beta": Fraction(3, 4)}
    assert checks.family_failures("jacobi", params, Fraction(-2, 3), 5, table) == 0
    rows = list(table.entries)
    rows[2] = dataclasses.replace(rows[2], eigenvalue=rows[2].eigenvalue + 1)
    rows[4] = dataclasses.replace(rows[4], monomial=rows[3].monomial)
    bad = dataclasses.replace(table, entries=tuple(rows))
    assert checks.family_failures("jacobi", params, Fraction(-2, 3), 5, bad) == 2

    summary = {"ok": True, "suites": [{"checks": [{"passed": True}] * checks.VERIFY_CHECKS}]}
    data = json.dumps(summary).encode()
    assert hashlib.sha256(data).hexdigest() != checks.GATE_SHA256
    assert checks.verify_failures(0, data) == checks.VERIFY_CHECKS


def test_qes_check_catches_a_wrong_lower_coefficient():
    form = isospec.QesQuadraticForm(4, *(Fraction(k + 1, 3) for k in range(10)))
    element = isospec.qes_quadratic_element(form)
    pair = (isospec.invariant_subspace_check(element, 4),
            isospec.invariant_subspace_check(element, 4, Fraction(2, 5)))
    assert checks.qes_pair_failures(4, *pair) == 0
    # the same wrong constant term in both realizations keeps them equal
    bad = list(pair[0].block_char_poly.coeffs)
    bad[0] += 1
    wrong = [dataclasses.replace(r, block_char_poly=isospec.Polynomial(bad)) for r in pair]
    assert checks.qes_pair_failures(4, *wrong) == 1


def test_a_stale_or_missing_verify_output_fails_every_check(tmp_path):
    path = tmp_path / "verify-all-output.json"
    path.write_bytes(b"left by an earlier pass")
    (call,) = workloads.build(isospec, "verify-all", 1, 0, str(tmp_path))
    assert not path.exists()
    assert call.failures((0, str(path))) == checks.VERIFY_CHECKS


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_and_ratios_repeat_across_traced_runs():
    first, second = _traced_run("qes-blocks", 11), _traced_run("qes-blocks", 11)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(tracer.LAYER_METRICS)
    for name in tracer.EXACT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["spectral.char_poly.calls"]["value"] == 2 * len(workloads.QES_SPINS)
    assert first["metrics"]["spectral.char_poly.max_bits"]["value"] > 0


def test_benchmark_json_names_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert list(run.END_TO_END) == [m["name"] for m in spec["end_to_end"]]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-cert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
