"""Independent reference generators for classical polynomial families.

They never build operators: the verify suites check operator eigenvectors
against them, and family tables take their rows from them once the matching
eigenvector agrees.  The continuum families (hermite, laguerre, legendre,
jacobi) share one three-term recurrence p_{n+1} = (A_n x + B_n) p_n -
C_n p_{n-1} on coefficient lists, each family being its row (A_n, B_n, C_n)
of DLMF 18.9 and its p_1; the lattice families (hahn, meixner, charlier)
come from terminating hypergeometric sums, all over exact rationals.  Each
family's members of degree 0..k come from one run: one recurrence, or one
set of Pochhammer polynomials (-x)_j shared by every sum.

Normalization conventions differ between handbooks, so comparisons are
projective: equal up to one nonzero rational factor.  Where the matching
operator lives on a mirrored lattice the family records the change of
variable (x -> scale*x) once, discovered during bring-up and frozen here;
``reference_in_operator_variable`` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BasisMismatchError, ParameterError, canonical_name, require, require_int
from .polynomials import Polynomial
from .rationals import admissible_exponent, as_fraction, format_fraction

__all__ = [
    "FamilySpec",
    "family",
    "FAMILY_NAMES",
    "reference_polynomial",
    "reference_in_operator_variable",
    "projective_equal",
]

_ONE = Fraction(1)


@dataclass(frozen=True)
class FamilySpec:
    """A named family with its rational parameters and recorded variable map."""

    name: str
    params: tuple[tuple[str, Fraction], ...] = ()
    variable_scale: Fraction = _ONE
    max_degree: int | None = None

    def param(self, key: str) -> Fraction:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def __str__(self):
        inner = ", ".join(f"{k}={format_fraction(v)}" for k, v in self.params)
        return f"{self.name}({inner})"


def family(name: str, **params) -> FamilySpec:
    """Validated family descriptor; see FAMILY_NAMES for the choices.  The
    operator presets of the same name take their parameters from here."""
    key = canonical_name(name)
    if key == "hermite":
        require(not params, "hermite takes no parameters")
        return FamilySpec("hermite")
    if key == "laguerre":
        alpha = admissible_exponent(params.pop("alpha", 0), "alpha")
        require(not params, f"unexpected laguerre parameters {sorted(params)}")
        return FamilySpec("laguerre", (("alpha", alpha),))
    if key == "legendre":
        require(not params, "legendre takes no parameters")
        return FamilySpec("legendre")
    if key == "jacobi":
        alpha = admissible_exponent(params.pop("alpha", 0), "alpha")
        beta = admissible_exponent(params.pop("beta", 0), "beta")
        require(not params, f"unexpected jacobi parameters {sorted(params)}")
        return FamilySpec("jacobi", (("alpha", alpha), ("beta", beta)))
    if key == "hahn":
        alpha = admissible_exponent(params.pop("alpha", 0), "alpha")
        beta = admissible_exponent(params.pop("beta", 0), "beta")
        size = params.pop("size", None)
        require_int(size, "size", 2, ParameterError)
        require(not params, f"unexpected hahn parameters {sorted(params)}")
        # the matching lattice preset runs on the mirrored grid
        return FamilySpec(
            "hahn",
            (("alpha", alpha), ("beta", beta), ("size", Fraction(size))),
            variable_scale=Fraction(-1),
            max_degree=size - 1,
        )
    if key == "meixner":
        gamma = as_fraction(params.pop("gamma", 1))
        require("mu" in params, "meixner requires mu")
        mu = as_fraction(params.pop("mu"))
        require(mu not in (0, 1), f"mu must differ from 0 and 1, got {mu}")
        # (gamma)_j vanishes from j = 1 - gamma on: no meixner polynomial there
        require(
            not (gamma <= 0 and gamma.denominator == 1),
            f"gamma must not be a non-positive integer, got {gamma}",
        )
        require(not params, f"unexpected meixner parameters {sorted(params)}")
        return FamilySpec("meixner", (("gamma", gamma), ("mu", mu)))
    if key == "charlier":
        require("mu" in params, "charlier requires mu")
        mu = as_fraction(params.pop("mu"))
        require(mu != 0, f"mu must be nonzero, got {mu}")
        require(not params, f"unexpected charlier parameters {sorted(params)}")
        return FamilySpec("charlier", (("mu", mu),))
    raise ParameterError(f"unknown family {name!r}; choose from {sorted(FAMILY_NAMES)}")


def _three_term(k: int, p1: list, rule) -> list[Polynomial]:
    """p_0..p_k from p_0 = 1, ``p1`` and one run of the recurrence
    p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}, ``rule(n)`` giving the row
    (A_n, B_n, C_n); members stay coefficient lists until the end."""
    members = [[_ONE], p1]
    for n in range(1, k):
        a, b, c = rule(n)
        cur, prev = members[-1], members[-2]
        members.append([a * u + b * v - c * w
                        for u, v, w in zip([0, *cur], [*cur, 0], [*prev, 0, 0])])
    return [Polynomial(p) for p in members[:k + 1]]


def _hermite(spec: FamilySpec, k: int) -> list[Polynomial]:
    return _three_term(k, [0, 2], lambda n: (2, 0, 2 * n))


def _laguerre(spec: FamilySpec, k: int) -> list[Polynomial]:
    alpha = spec.param("alpha")
    return _three_term(
        k,
        [1 + alpha, -1],
        lambda n: (Fraction(-1, n + 1), (2 * n + 1 + alpha) / (n + 1), (n + alpha) / (n + 1)),
    )


def _legendre(spec: FamilySpec, k: int) -> list[Polynomial]:
    return _three_term(k, [0, 1], lambda n: (Fraction(2 * n + 1, n + 1), 0, Fraction(n, n + 1)))


def _jacobi(spec: FamilySpec, k: int) -> list[Polynomial]:
    alpha, beta = spec.param("alpha"), spec.param("beta")

    def row(n):
        s = 2 * n + alpha + beta
        denom = 2 * (n + 1) * (n + alpha + beta + 1) * s
        return ((s + 1) * s * (s + 2) / denom,
                (s + 1) * (alpha**2 - beta**2) / denom,
                2 * (n + alpha) * (n + beta) * (s + 2) / denom)

    return _three_term(k, [(alpha - beta) / 2, (alpha + beta + 2) / 2], row)


def _hypergeometric_sums(k: int, tops, bottoms: list[Fraction],
                         z: Fraction) -> list[Polynomial]:
    """p_0..p_k with p_n = sum_j [prod (tops(n))_j] (-x)_j z^j / [prod (bottoms)_j j!],
    terminating at j = n because tops(n) starts with -n; the (-x) slot is
    not in tops.  The polynomials (-x)_j and the n-free weights
    z^j / [prod (bottoms)_j j!] are built once for all members."""
    neg_x_pochhammer = [Polynomial.constant(1)]
    weights = [_ONE]
    for j in range(1, k + 1):
        weight = weights[-1] * z / j
        for bq in bottoms:
            denom = bq + (j - 1)
            if denom == 0:
                raise ParameterError(
                    f"hypergeometric bottom parameter {format_fraction(bq)} "
                    f"degenerates at term {j}"
                )
            weight /= denom
        weights.append(weight)
        neg_x_pochhammer.append(neg_x_pochhammer[-1] * Polynomial((j - 1, -1)))
    members = []
    for n in range(k + 1):
        acc = neg_x_pochhammer[0]
        rising = _ONE
        tops_n = tops(n)
        for j in range(1, n + 1):
            for t in tops_n:
                rising *= t + (j - 1)
            acc = acc + (rising * weights[j]) * neg_x_pochhammer[j]
        members.append(acc)
    return members


def _hahn(spec: FamilySpec, k: int) -> list[Polynomial]:
    alpha, beta = spec.param("alpha"), spec.param("beta")
    size = int(spec.param("size"))
    return _hypergeometric_sums(
        k,
        tops=lambda n: (Fraction(-n), n + alpha + beta + 1),
        bottoms=[beta + 1, Fraction(1 - size)],
        z=_ONE,
    )


def _meixner(spec: FamilySpec, k: int) -> list[Polynomial]:
    gamma, mu = spec.param("gamma"), spec.param("mu")
    return _hypergeometric_sums(
        k, tops=lambda n: (Fraction(-n),), bottoms=[gamma], z=_ONE - _ONE / mu
    )


def _charlier(spec: FamilySpec, k: int) -> list[Polynomial]:
    mu = spec.param("mu")
    return _hypergeometric_sums(k, tops=lambda n: (Fraction(-n),), bottoms=[], z=-_ONE / mu)


_GENERATORS = {
    "hermite": _hermite,
    "laguerre": _laguerre,
    "legendre": _legendre,
    "jacobi": _jacobi,
    "hahn": _hahn,
    "meixner": _meixner,
    "charlier": _charlier,
}

FAMILY_NAMES = tuple(sorted(_GENERATORS))


def _members(spec: FamilySpec, k: int) -> list[Polynomial]:
    """The members of degree 0..k, from one run of the family's generator."""
    require_int(k, "degree", error=ParameterError)
    if spec.max_degree is not None and k > spec.max_degree:
        raise ParameterError(f"{spec.name} has only degrees 0..{spec.max_degree}, got {k}")
    return _GENERATORS[spec.name](spec, k)


def reference_polynomial(spec: FamilySpec, k: int) -> Polynomial:
    """The degree-k member of the family, exact, in the monomial basis: the
    last of one run through degrees 0..k."""
    return _members(spec, k)[k]


def reference_in_operator_variable(spec: FamilySpec, k: int) -> Polynomial:
    """The reference polynomial with the recorded variable map x -> scale*x
    applied, ready for projective comparison against operator eigenvectors."""
    return _in_operator_variable(spec, reference_polynomial(spec, k))


def _in_operator_variable(spec: FamilySpec, p: Polynomial) -> Polynomial:
    """``p(scale*x)`` for the family's recorded variable map."""
    scale = spec.variable_scale
    return Polynomial(c * scale**i for i, c in enumerate(p.coeffs))


def projective_equal(p: Polynomial, q: Polynomial) -> bool:
    """True iff p = c*q for some nonzero rational c.

    Zero is projectively equal to zero only.  Inputs must share a basis.
    """
    if p.basis != q.basis:
        raise BasisMismatchError("projective comparison needs a common basis")
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    if p.degree != q.degree:
        return False
    scale = p.leading / q.leading
    return p.coeffs == tuple(scale * c for c in q.coeffs)
