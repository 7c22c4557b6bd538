"""Constructors for the solvable operator families.

Four families are covered, each with its algebra-side builder and, where a
closed form exists, an independently written stencil for cross-checking:

* the six-coefficient second-order family
  ``-(a0 x^2 + a1 x + a2) d^2 + (b0 x + b1) d + c0`` whose lattice realization
  reads exactly five points, with classical presets (hermite, laguerre,
  legendre, jacobi);
* the ten-parameter quadratic form in the spin-n sl2 generators
  (quasi-exactly solvable; its lattice stencil fits in shifts +2..-4);
* the three-point lattice family
  ``A1*Z*Z*(M + 1/delta) + A2*Z*M + A3*Z + A4*M + A5`` written in the
  degree-grading generator ``Z`` and lowering generator ``M``, with the
  discrete presets (hahn, analytically continued hahn, meixner, charlier);
* the three-point family extended by a spin-n raising term
  (quasi-exactly solvable).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from inspect import signature

from .algebra import AlgebraElement, gen_a, gen_b, sl2_generator, unit
from . import oracles
from .errors import ParameterError, canonical_name, require_int
from .polynomials import Polynomial
from .rationals import as_fraction, nonzero_step
from .representations import ShiftOperator, realize_lattice

__all__ = [
    "SecondOrderParams",
    "second_order_element",
    "second_order_stencil",
    "classical_preset",
    "CLASSICAL_PRESETS",
    "QesQuadraticForm",
    "qes_quadratic_element",
    "ThreePointParams",
    "three_point_element",
    "three_point_operator",
    "three_point_stencil",
    "three_point_diagonal",
    "discrete_preset",
    "DISCRETE_PRESETS",
    "qes_three_point_element",
    "qes_three_point_operator",
    "eigenvalue_convention_note",
]


def _frac_field(obj, name):
    object.__setattr__(obj, name, as_fraction(getattr(obj, name)))


@dataclass(frozen=True)
class SecondOrderParams:
    """Coefficients of ``-(a0 x^2 + a1 x + a2) d^2 + (b0 x + b1) d + c0``."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    b0: Fraction
    b1: Fraction
    c0: Fraction

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "b0", "b1", "c0"):
            _frac_field(self, name)

    def as_tuple(self):
        return (self.a0, self.a1, self.a2, self.b0, self.b1, self.c0)


def second_order_element(p: SecondOrderParams) -> AlgebraElement:
    """Normal-ordered form ``-(a0 b^2 + a1 b + a2) a^2 + (b0 b + b1) a + c0``."""
    a, b = gen_a(), gen_b()
    q2 = p.a0 * (b * b) + p.a1 * b + unit(p.a2)
    q1 = p.b0 * b + unit(p.b1)
    return -(q2 * (a * a)) + q1 * a + unit(p.c0)


def second_order_stencil(p: SecondOrderParams, step) -> ShiftOperator:
    """Closed-form five-term lattice stencil of the second-order family.

    Written out bracket by bracket (with at_i = a_i/step^2, bt_i = b_i/step)
    rather than composed from generators, so it can serve as an independent
    target for :func:`realize_lattice` of :func:`second_order_element`:

        T^{+2}: -at2
        T^{+1}: -at1*x + (2*at2 + bt1)
        T^0   : -at0*x(x-step) + (2*at1 + bt0)*x - (at2 + bt1) + c0
        T^{-1}:  2*at0*x(x-step) - (at1 + bt0)*x
        T^{-2}: -at0*x(x-step)
    """
    step = nonzero_step(step)
    at0, at1, at2 = (c / step**2 for c in (p.a0, p.a1, p.a2))
    bt0, bt1 = p.b0 / step, p.b1 / step
    x = Polynomial.identity()
    rung = x * (x - Polynomial.constant(step))  # x(x - step)
    terms = {
        2: Polynomial.constant(-at2),
        1: -at1 * x + Polynomial.constant(2 * at2 + bt1),
        0: -at0 * rung + (2 * at1 + bt0) * x + Polynomial.constant(-(at2 + bt1) + p.c0),
        -1: 2 * at0 * rung - (at1 + bt0) * x,
        -2: -at0 * rung,
    }
    return ShiftOperator(step, terms)


def _preset_hermite() -> SecondOrderParams:
    return SecondOrderParams(0, 0, -1, -2, 0, 0)


def _preset_laguerre(alpha) -> SecondOrderParams:
    return SecondOrderParams(0, 1, 0, 1, -(alpha + 1), 0)


def _preset_legendre() -> SecondOrderParams:
    return SecondOrderParams(1, 0, -1, -2, 0, 0)


def _preset_jacobi(alpha, beta) -> SecondOrderParams:
    return SecondOrderParams(1, 0, -1, -(alpha + beta + 2), beta - alpha, 0)


CLASSICAL_PRESETS = {
    "hermite": _preset_hermite,
    "laguerre": _preset_laguerre,
    "legendre": _preset_legendre,
    "jacobi": _preset_jacobi,
}


def _preset_builder(kind: str, presets: dict, name: str):
    """``(key, builder)`` of the named preset; an unknown name raises."""
    key = canonical_name(name)
    if key not in presets:
        raise ParameterError(f"unknown {kind} preset {name!r}; choose from {sorted(presets)}")
    return key, presets[key]


def _build_preset(kind: str, presets: dict, name: str, params: dict):
    """The named preset.  A preset with a reference family of the same name
    takes the parameters that family validates and defaults, so the two can
    never disagree on what is admissible; the builders keep only their
    coefficient formulas."""
    key, builder = _preset_builder(kind, presets, name)
    if key in oracles.FAMILY_NAMES:
        return builder(**dict(oracles.family(key, **params).params))
    # only a missing or unexpected keyword is a ParameterError, not a float
    try:
        signature(builder).bind(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for preset {key!r}: {exc}") from exc
    return builder(**params)


def classical_preset(name: str, **params) -> SecondOrderParams:
    """Second-order coefficients whose eigenfunctions are the named classical
    family (hermite, laguerre, legendre, jacobi); signs were fixed against the
    reference recurrences, not copied from a table."""
    return _build_preset("classical", CLASSICAL_PRESETS, name, params)


def eigenvalue_convention_note(name: str) -> str | None:
    """Warning attached to reports for presets whose computed eigenvalue sign
    differs from the sign commonly quoted alongside the family."""
    if canonical_name(name) == "hermite":
        return (
            "diagonal eigenvalue at degree k computes to -2k for this operator;"
            " the magnitude 2k matches the customary level listing, which"
            " quotes the opposite sign"
        )
    return None


@dataclass(frozen=True)
class QesQuadraticForm:
    """Ten coefficients of a quadratic form in the spin-n sl2 generators.

    The element built from it preserves polynomials of degree <= spin; the
    ordered products are plus*plus, plus*zero, plus*minus, zero*zero,
    zero*minus, minus*minus, followed by the three linear terms and the
    constant.
    """

    spin: int
    plus_plus: Fraction = Fraction(0)
    plus_zero: Fraction = Fraction(0)
    plus_minus: Fraction = Fraction(0)
    zero_zero: Fraction = Fraction(0)
    zero_minus: Fraction = Fraction(0)
    minus_minus: Fraction = Fraction(0)
    plus: Fraction = Fraction(0)
    zero: Fraction = Fraction(0)
    minus: Fraction = Fraction(0)
    const: Fraction = Fraction(0)

    def __post_init__(self):
        require_int(self.spin, "spin", error=ParameterError)
        for name in (
            "plus_plus", "plus_zero", "plus_minus", "zero_zero", "zero_minus",
            "minus_minus", "plus", "zero", "minus", "const",
        ):
            _frac_field(self, name)


def qes_quadratic_element(q: QesQuadraticForm) -> AlgebraElement:
    """Expand the quadratic form into a normal-ordered element."""
    jp = sl2_generator("plus", q.spin)
    jz = sl2_generator("zero", q.spin)
    jm = sl2_generator("minus", q.spin)
    out = (
        q.plus_plus * (jp * jp)
        + q.plus_zero * (jp * jz)
        + q.plus_minus * (jp * jm)
        + q.zero_zero * (jz * jz)
        + q.zero_minus * (jz * jm)
        + q.minus_minus * (jm * jm)
        + q.plus * jp
        + q.zero * jz
        + q.minus * jm
        + unit(q.const)
    )
    return out


@dataclass(frozen=True)
class ThreePointParams:
    """Coefficients A1..A5 of the three-point family at a fixed step."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a5: Fraction
    step: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a5"):
            _frac_field(self, name)
        object.__setattr__(self, "step", nonzero_step(self.step))


def three_point_element(p: ThreePointParams) -> AlgebraElement:
    """Abstract form ``A1*Z*Z*(M + 1/step) + A2*Z*M + A3*Z + A4*M + A5``
    with ``Z = b*a`` (degree grading) and ``M = a`` (lowering)."""
    z = gen_b() * gen_a()
    m = gen_a()
    inv = Fraction(1) / p.step
    return (
        p.a1 * (z * z * (m + unit(inv)))
        + p.a2 * (z * m)
        + p.a3 * z
        + p.a4 * m
        + unit(p.a5)
    )


def three_point_operator(p: ThreePointParams) -> ShiftOperator:
    """Lattice realization of the family; its support is always within
    shifts {-1, 0, +1} because ``M + 1/step`` collapses to ``T/step``."""
    return realize_lattice(three_point_element(p), p.step)


def three_point_stencil(p: ThreePointParams) -> ShiftOperator:
    """Closed-form three brackets, written independently of the realization:

        T^{+1}: A4/d + (A2/d^2) x + (A1/d^3) x^2
        T^0   : A5 - A4/d + (A1/d^2 - 2 A2/d^2 + A3/d) x - (2 A1/d^3) x^2
        T^{-1}: -(A1/d^2 - A2/d^2 + A3/d) x + (A1/d^3) x^2

    The brackets sum to A5, as they must (the operator maps the constant
    function to A5 times itself).
    """
    d = p.step
    terms = {
        1: Polynomial((p.a4 / d, p.a2 / d**2, p.a1 / d**3)),
        0: Polynomial(
            (
                p.a5 - p.a4 / d,
                p.a1 / d**2 - 2 * p.a2 / d**2 + p.a3 / d,
                -2 * p.a1 / d**3,
            )
        ),
        -1: Polynomial((0, -(p.a1 / d**2 - p.a2 / d**2 + p.a3 / d), p.a1 / d**3)),
    }
    return ShiftOperator(d, terms)


def three_point_diagonal(p: ThreePointParams, k: int) -> Fraction:
    """Matrix diagonal at degree ``k``: ``A1*k^2/step + A3*k + A5``."""
    return p.a1 * k * k / p.step + p.a3 * k + p.a5


def _preset_hahn(alpha, beta, size) -> ThreePointParams:
    return ThreePointParams(
        a1=-1,
        a2=size - beta - 2,
        a3=alpha + beta + 1,
        a4=(beta + 1) * (size - 1),
        a5=0,
        step=-1,
    )


def _preset_hahn_continued(mu, nu, size) -> ThreePointParams:
    mu, nu = as_fraction(mu), as_fraction(nu)
    require_int(size, "size", 2, ParameterError)
    return ThreePointParams(
        a1=1,
        a2=2 - 2 * size - nu,
        a3=1 - 2 * size - mu - nu,
        a4=(size + nu - 1) * (size - 1),
        a5=0,
        step=-1,
    )


def _preset_meixner(gamma, mu) -> ThreePointParams:
    return ThreePointParams(a1=0, a2=mu, a3=mu - 1, a4=gamma * mu, a5=0, step=1)


def _preset_charlier(mu) -> ThreePointParams:
    return ThreePointParams(a1=0, a2=0, a3=-1, a4=mu, a5=0, step=1)


DISCRETE_PRESETS = {
    "hahn": _preset_hahn,
    "hahn-continued": _preset_hahn_continued,
    "meixner": _preset_meixner,
    "charlier": _preset_charlier,
}


def discrete_preset(name: str, **params) -> ThreePointParams:
    """Three-point coefficients (including the pinned step) whose
    eigenfunctions are the named discrete family.

    hahn(alpha, beta, size): step -1; eigenvalues k(k+alpha+beta+1); the
    family matches its reference under x -> -x.  meixner(gamma, mu) and
    charlier(mu): step +1, identity variable.  These three take the
    parameters and defaults of :func:`oracles.family`.  hahn-continued(mu,
    nu, size) is carried as a parameter assignment with structural checks
    only.
    """
    return _build_preset("discrete", DISCRETE_PRESETS, name, params)


def qes_three_point_element(a_plus, p: ThreePointParams, spin: int) -> AlgebraElement:
    """Three-point form in spin-n generators plus the raising combination
    ``a_plus * (J+ + step*J0*J0)``; preserves degree <= spin."""
    a_plus = as_fraction(a_plus)
    jp = sl2_generator("plus", spin)
    jz = sl2_generator("zero", spin)
    jm = sl2_generator("minus", spin)
    inv = Fraction(1) / p.step
    return (
        a_plus * (jp + p.step * (jz * jz))
        + p.a1 * (jz * jz * (jm + unit(inv)))
        + p.a2 * (jz * jm)
        + p.a3 * jz
        + p.a4 * jm
        + unit(p.a5)
    )


def qes_three_point_operator(a_plus, p: ThreePointParams, spin: int) -> ShiftOperator:
    """Lattice realization of the spin-n three-point family; the stencil is
    whatever it comes out to be (measure it with stencil_extract rather than
    assuming three points)."""
    return realize_lattice(qes_three_point_element(a_plus, p, spin), p.step)
