"""Independent output checks.

Each check recomputes what it verifies from the benchmark's own draws with
plain ``fractions.Fraction`` arithmetic and only reads attributes of the
returned objects; it calls no isospec function, so a defect in the library
cannot also hide in its checker.  Every check returns the number of failed
ops.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

GATE_SEED = 7
GATE_SHA256 = "b3493b9a18fa25b11eae8cf41c604870148a327d6979f58155683654ba05e3aa"
# checks in one `verify --suite all` summary (7 suites); fixed by the gate
VERIFY_CHECKS = 24


def product_poly(roots) -> list[Fraction]:
    """Coefficients, low to high, of prod (lam - r) over ``roots``."""
    coeffs = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return coeffs


def second_order_spectrum(a0, b0, c0, degree: int) -> list[Fraction]:
    """Diagonal of a degree-preserving second-order operator: -a0*k(k-1) + b0*k + c0."""
    return [-a0 * k * (k - 1) + b0 * k + c0 for k in range(degree + 1)]


def lattice_cert_failures(coeffs, degree: int, cert) -> int:
    """``coeffs`` = (a0, a1, a2, b0, b1, c0) as drawn; one op per certificate."""
    a0, _, _, b0, _, c0 = coeffs
    expected = product_poly(second_order_spectrum(a0, b0, c0, degree))
    ok = (
        cert.verdict is True
        and cert.degree_bound == degree
        and list(cert.lattice_char_poly.coeffs) == expected
        and list(cert.continuum_char_poly.coeffs) == expected
    )
    return 0 if ok else 1


def determinant(rows) -> Fraction:
    """Determinant by Gaussian elimination over ``Fraction``."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col]
        det *= head[col]
        for row in rows[col + 1:]:
            factor = row[col] / head[col]
            if factor:
                for j in range(col, len(row)):
                    row[j] -= factor * head[j]
    return det


def _eval_poly(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _block_ok(report, spin: int) -> bool:
    if not report.closed or report.block is None or report.block_char_poly is None:
        return False
    entries = report.block.entries
    coeffs = report.block_char_poly.coeffs
    n = len(entries)
    if n != spin + 1 or len(coeffs) != n + 1 or coeffs[-1] != 1:
        return False
    # two monic polynomials of degree n that agree at n points are equal
    for lam in range(n):
        shifted = [[(lam if i == j else 0) - entries[i][j] for j in range(n)]
                   for i in range(n)]
        if determinant(shifted) != _eval_poly(coeffs, lam):
            return False
    return True


def qes_pair_failures(spin: int, continuum, lattice) -> int:
    """Both blocks close, each char poly is monic of degree n = spin+1 and
    equals det(lam*I - block) at lam = 0 .. n-1, and the two agree."""
    ok = (
        _block_ok(continuum, spin)
        and _block_ok(lattice, spin)
        and continuum.block_char_poly.coeffs == lattice.block_char_poly.coeffs
    )
    return 0 if ok else 1


def family_eigenvalue(name: str, k: int, params: dict) -> Fraction:
    """Closed-form diagonal of each classical preset at degree k."""
    if name == "hermite":
        return Fraction(-2 * k)
    if name == "laguerre":
        return Fraction(k)
    if name == "legendre":
        return Fraction(-k * (k + 1))
    if name == "jacobi":
        return -k * (k + params["alpha"] + params["beta"] + 1)
    raise ValueError(f"no eigenvalue formula for {name!r}")


def _eval_quasi(coeffs, step, x) -> Fraction:
    acc, ladder = Fraction(0), Fraction(1)
    for k, c in enumerate(coeffs):
        if k:
            ladder *= x - (k - 1) * step
        acc += c * ladder
    return acc


def family_failures(name: str, params: dict, step, k_max: int, table) -> int:
    """One op per table row: verified, the preset's eigenvalue, and the
    quasi and monomial columns describing the same polynomial."""
    entries = table.entries
    if len(entries) != k_max + 1:
        return k_max + 1
    points = (Fraction(5, 2) * step + Fraction(1, 7), Fraction(-3, 11), 4 * step)
    failed = 0
    for k, entry in enumerate(entries):
        quasi, mono = entry.quasi.coeffs, entry.monomial.coeffs
        ok = (
            entry.degree == k
            and entry.verified is True
            and entry.eigenvalue == family_eigenvalue(name, k, params)
            and len(quasi) == k + 1
            and all(_eval_quasi(quasi, step, x) == _eval_poly(mono, x) for x in points)
        )
        failed += not ok
    return failed


def verify_failures(exit_code: int, data: bytes) -> int:
    """One op per check of the seed-7 summary; every op fails if the run as
    a whole did (exit code, ``ok`` flag, check count or the gate hash)."""
    try:
        summary = json.loads(data)
        checks = [c for suite in summary["suites"] for c in suite["checks"]]
    except (ValueError, KeyError, TypeError):
        return VERIFY_CHECKS
    if (
        exit_code != 0
        or summary.get("ok") is not True
        or len(checks) != VERIFY_CHECKS
        or hashlib.sha256(data).hexdigest() != GATE_SHA256
    ):
        return VERIFY_CHECKS
    return sum(1 for c in checks if c.get("passed") is not True)
