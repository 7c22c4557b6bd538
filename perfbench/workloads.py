"""The four workloads: inputs drawn from (seed, pass), the calls into the
public isospec API, and how each call's output is checked and digested.

Degrees, spins and table sizes are fixed, so a pass costs the same whatever
the draws; only the rational coefficients, steps and family parameters vary.
Every certificate gets a fresh step, so nothing keyed by step is shared
between certificates.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

LATTICE_DEGREES = (32, 40, 48)
QES_SPINS = (12, 14, 16, 18)
FAMILY_K_MAX = 28
FAMILIES = ("hermite", "laguerre", "legendre", "jacobi")
NAMES = ("verify-all", "lattice-cert", "qes-blocks", "family-tables")


@dataclass
class Call:
    """One timed call into isospec, producing ``ops`` checked results."""

    run: Callable[[], Any]
    failures: Callable[[Any], int]
    encode: Callable[[Any], bytes]
    ops: int


def _rational(rng: random.Random) -> Fraction:
    """Nonzero p/q with |p| <= 9, 1 <= q <= 5."""
    return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 5))


def _step(rng: random.Random) -> Fraction:
    """Nonzero p/q with |p| <= 9, 1 <= q <= 9."""
    return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))


def _exponent(rng: random.Random) -> Fraction:
    """A family exponent > -1."""
    return Fraction(rng.randint(-4, 18), rng.randint(5, 9))


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _verify_all(isospec, rng: random.Random, out_dir: str) -> list[Call]:
    # Every pass is the behaviour gate at seed 7, checked against its pinned
    # sha256.  The suites draw their degrees from the verify seed, so another
    # seed would change the work done by up to ~20 % and drown the timing.
    path = os.path.join(out_dir, "verify-all-output.json")
    # a file left by an earlier pass must not stand in for this pass's output
    if os.path.exists(path):
        os.remove(path)
    argv = ["verify", "--suite", "all", "--seed", str(checks.GATE_SEED), "--output", path]

    def run():
        return isospec.cli.main(argv), path

    def read(output) -> bytes:
        """The summary file; empty if the pass wrote none, which fails every check."""
        try:
            with open(output[1], "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    def failures(output) -> int:
        return checks.verify_failures(output[0], read(output))

    return [Call(run, failures, read, checks.VERIFY_CHECKS)]


def _lattice_cert(isospec, rng: random.Random, out_dir: str) -> list[Call]:
    calls = []
    for degree in LATTICE_DEGREES:
        coeffs = tuple(_rational(rng) for _ in range(6))
        element = isospec.second_order_element(isospec.SecondOrderParams(*coeffs))
        step = _step(rng)

        def run(element=element, step=step, degree=degree):
            return isospec.isospectral_check(element, step, degree)

        def failures(cert, coeffs=coeffs, degree=degree):
            return checks.lattice_cert_failures(coeffs, degree, cert)

        calls.append(Call(run, failures, lambda c: _json_bytes(c.to_json_obj()), 1))
    return calls


def _qes_blocks(isospec, rng: random.Random, out_dir: str) -> list[Call]:
    # spin quadratic forms at the even positions, extended three-point forms
    # at the odd ones, so both kinds close at a small and a large spin
    elements = []
    for position, spin in enumerate(QES_SPINS):
        step = _step(rng)
        if position % 2 == 0:
            form = isospec.QesQuadraticForm(spin, *(_rational(rng) for _ in range(10)))
            element = isospec.qes_quadratic_element(form)
        else:
            params = isospec.ThreePointParams(*(_rational(rng) for _ in range(5)), step)
            element = isospec.qes_three_point_element(_rational(rng), params, spin)
        elements.append((spin, element, step))
    calls = []
    for spin, element, step in elements:

        def run(element=element, spin=spin, step=step):
            return (isospec.invariant_subspace_check(element, spin),
                    isospec.invariant_subspace_check(element, spin, step))

        def failures(pair, spin=spin):
            return checks.qes_pair_failures(spin, *pair)

        calls.append(Call(run, failures,
                          lambda pair: _json_bytes([r.to_json_obj() for r in pair]), 1))
    return calls


def _family_tables(isospec, rng: random.Random, out_dir: str) -> list[Call]:
    calls = []
    for name in FAMILIES:
        params = {}
        if name in ("laguerre", "jacobi"):
            params["alpha"] = _exponent(rng)
        if name == "jacobi":
            params["beta"] = _exponent(rng)
        step = _step(rng)

        def run(name=name, step=step, params=params):
            return isospec.discrete_family(name, step, FAMILY_K_MAX, **params)

        def failures(table, name=name, step=step, params=params):
            return checks.family_failures(name, params, step, FAMILY_K_MAX, table)

        calls.append(Call(run, failures, lambda t: _json_bytes(t.to_json_obj()),
                          FAMILY_K_MAX + 1))
    return calls


_BUILDERS = {
    "verify-all": _verify_all,
    "lattice-cert": _lattice_cert,
    "qes-blocks": _qes_blocks,
    "family-tables": _family_tables,
}


def build(isospec, name: str, seed: int, pass_index: int, out_dir: str) -> list[Call]:
    """The calls of pass ``pass_index``; the same (seed, pass) gives the same inputs."""
    rng = random.Random(f"{seed}:{name}:{pass_index}")
    return _BUILDERS[name](isospec, rng, out_dir)
