"""Differential and finite-difference realizations of the canonical pair.

On the line, ``a = d/dx`` and ``b = x`` realize ``a*b - b*a = 1`` on monomial
polynomials (:func:`apply_continuum`).  On a uniform lattice of nonzero step
delta the same relation is realized by shift operators
(:func:`realize_lattice`):

    a  ->  (T - 1)/delta            the forward difference,
    b  ->  x * T^{-1}               multiply-then-step-back,

where ``T^k f(x) = f(x + k*delta)``.  Since ``(x * T^{-1})^m = x^(m) * T^{-m}``
with ``x^(m)`` the falling factorial of step delta, each normal-ordered term
has a closed form, and realization is term by term with no operator product:

    b^m a^n  ->  delta^{-n} * sum_{i=0..n} (-1)^(n-i) C(n, i) x^(m) T^(i-m).

The falling factorial expands by the signed Stirling numbers of the first
kind, ``x^(m) = sum_j s(m, j) delta^(m-j) x^j``, so every coefficient of a
realized element is an integer sum over one common denominator, divided
once.

A :class:`ShiftOperator` is a finite sum ``sum_k p_k(x) * T^k`` with polynomial
coefficients; composition follows the skew rule ``T^k * q(x) = q(x + k*delta) * T^k``.

Everything is immutable and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, perm

from .algebra import AlgebraElement
from .errors import (BasisMismatchError, StepMismatchError, mapping_items, require_instance,
                     require_int, unique_keys, wire_list, wire_object)
from .polynomials import (MONOMIAL, Basis, Polynomial, _fraction_vector, _integer_vector,
                          _ladder_shift, convert_basis)
from .rationals import as_fraction, format_fraction, nonzero_step

__all__ = [
    "ShiftOperator",
    "forward_difference",
    "backward_difference",
    "lattice_raising",
    "realize_lattice",
    "apply_continuum",
]

_ZERO = Fraction(0)


class ShiftOperator:
    """Finite sum ``sum_k p_k(x) * T^k`` over a fixed lattice step.

    Terms map an integer shift ``k`` to a monomial-basis coefficient
    polynomial; zero coefficients are dropped on construction.
    """

    __slots__ = ("step", "_terms")

    def __init__(self, step, terms=None):
        step_value = nonzero_step(step)
        clean: dict[int, Polynomial] = {}
        if terms:
            for shift, coeff in mapping_items(terms, "terms", "shift -> coefficients"):
                # require_int's rule, inlined on this hot path (any sign is fine)
                if type(shift) is not int:
                    raise ValueError(f"shift must be an integer, got {shift!r}")
                poly = coeff if isinstance(coeff, Polynomial) else Polynomial(coeff)
                if not poly.basis.is_monomial:
                    raise BasisMismatchError(
                        "shift-operator coefficients must be monomial polynomials"
                    )
                if not poly.is_zero:
                    clean[shift] = poly
        object.__setattr__(self, "step", step_value)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ShiftOperator is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, step) -> "ShiftOperator":
        return cls(step, {0: Polynomial.constant(1)})

    @classmethod
    def zero(cls, step) -> "ShiftOperator":
        return cls(step)

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[int, Polynomial]:
        return dict(self._terms)

    @property
    def shifts(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    @property
    def n_points(self) -> int:
        """Number of lattice points the operator reads."""
        return len(self._terms)

    @property
    def width(self) -> int:
        """max shift - min shift, 0 for the zero or one-point operator."""
        if not self._terms:
            return 0
        return max(self._terms) - min(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, shift: int) -> Polynomial:
        return self._terms.get(shift, Polynomial.zero())

    # -- arithmetic ---------------------------------------------------

    def _check_same_step(self, other: "ShiftOperator"):
        if self.step != other.step:
            raise StepMismatchError(
                f"steps differ: {format_fraction(self.step)} vs "
                f"{format_fraction(other.step)}"
            )

    def __add__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        self._check_same_step(other)
        out = dict(self._terms)
        for k, p in other._terms.items():
            q = out.get(k)
            out[k] = p if q is None else q + p
        return ShiftOperator(self.step, out)

    def __sub__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ShiftOperator(self.step, {k: -p for k, p in self._terms.items()})

    def __mul__(self, other):
        """Operator composition, or scaling by an exact rational."""
        if isinstance(other, ShiftOperator):
            self._check_same_step(other)
            out: dict[int, Polynomial] = {}
            for k1, p1 in self._terms.items():
                offset = k1 * self.step
                for k2, p2 in other._terms.items():
                    # T^{k1} q(x) = q(x + k1*step) T^{k1}
                    q = p1 * p2.shifted(offset)
                    key = k1 + k2
                    acc = out.get(key)
                    out[key] = q if acc is None else acc + q
            return ShiftOperator(self.step, out)
        try:
            scalar = as_fraction(other)
        except TypeError:
            return NotImplemented
        return ShiftOperator(
            self.step, {k: scalar * p for k, p in self._terms.items()}
        )

    def __rmul__(self, other):
        # scalar * operator; operator * operator is handled by __mul__
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        require_int(exponent, "exponent")
        out = ShiftOperator.identity(self.step)
        for _ in range(exponent):
            out = out * self
        return out

    def commutator(self, other: "ShiftOperator") -> "ShiftOperator":
        return self * other - other * self

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply to a monomial-basis polynomial: sum_k p_k(x) * p(x + k*step),
        by :meth:`_ladder_images` on the monomial ladder (``s = 0``)."""
        if not p.basis.is_monomial:
            raise BasisMismatchError(
                "shift operators act on monomial coefficient vectors; convert first"
            )
        (image,) = self._ladder_images([_integer_vector(p.coeffs)], MONOMIAL)
        return Polynomial(_fraction_vector(image))

    def _ladder_images(self, vectors, basis: Basis) -> list[tuple[int, list[tuple[int, int]], int]]:
        """Images of coefficient vectors written on ``basis``, on that same
        basis, untruncated and never through monomials.  ``basis`` is a
        falling-factorial ladder of any step ``s``; the monomial basis is the
        ladder with ``s = 0``.  Vectors and images are in the integer form
        ``(den, [(j, n_j), ...], length)`` of :func:`_integer_vector`.

        Each coefficient ``p_k`` is put on the ladder by :func:`convert_basis`,
        and each of its rungs ``c * x^(r)`` acts with ``T^k`` as the rung
        ``(r, c, h = k*step + r*s)`` of :func:`_ladder_shift`, over the
        integers: for ``y = x - r*s``, ``(x + k*step)^(j) = (y + h)^(j)`` and
        ``x^(r) * y^(i) = x^(r+i)``.  Over ``n`` entries in all (``d + 1`` unit
        vectors for a matrix) a rung that is a band ``w`` wide costs O(n*w),
        any other O(n^2).

        Only the step and the terms are read: the algebra is never consulted,
        so lattice matrices stay an independent check of ``realize_lattice``.
        """
        s = _ZERO if basis.is_monomial else basis.step
        rungs = []
        for k, pk in self._terms.items():
            ladder = pk if pk.basis == basis else convert_basis(pk, basis)
            rungs += [(r, c, k * self.step + r * s) for r, c in enumerate(ladder.coeffs)]
        return _ladder_shift(vectors, rungs, s)

    # -- housekeeping -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self.step == other.step and self._terms == other._terms

    def __hash__(self):
        return hash((self.step, frozenset(self._terms.items())))

    def __repr__(self):
        body = ", ".join(f"{k:+d}: {p}" for k, p in sorted(self._terms.items()))
        return f"ShiftOperator(step={format_fraction(self.step)}, {{{body}}})"

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "delta": format_fraction(self.step),
            "terms": [
                {
                    "shift": k,
                    "coeffs": [format_fraction(c) for c in self._terms[k].coeffs],
                }
                for k in sorted(self._terms)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "ShiftOperator":
        # "points" is the stencil list that `discretize` writes beside the terms
        obj = wire_object(obj, ("delta", "terms"), "shift operator", optional=("points",))
        terms = (wire_object(t, ("shift", "coeffs"), "shift-operator term")
                 for t in wire_list(obj["terms"], "terms"))
        return cls(obj["delta"], unique_keys(
            ((t["shift"], Polynomial(wire_list(t["coeffs"], "coeffs"))) for t in terms), "shift"))


def forward_difference(step) -> ShiftOperator:
    """``(f(x+step) - f(x)) / step``: the lattice realization of ``a``."""
    step = nonzero_step(step)
    inv = Fraction(1) / step
    return ShiftOperator(step, {1: Polynomial.constant(inv), 0: Polynomial.constant(-inv)})


def backward_difference(step) -> ShiftOperator:
    """``(f(x) - f(x-step)) / step``."""
    step = nonzero_step(step)
    inv = Fraction(1) / step
    return ShiftOperator(step, {0: Polynomial.constant(inv), -1: Polynomial.constant(-inv)})


def lattice_raising(step) -> ShiftOperator:
    """``x * T^{-1}``: the lattice realization of ``b``.

    The one-term closed form of multiply-by-x composed with the unit
    step-back; its n-th power is ``x^(n) * T^{-n}``, which keeps stencils
    minimal.
    """
    return ShiftOperator(step, {-1: Polynomial.identity()})


def _stirling_rows(top: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind ``s(m, j)``, rows
    ``m = 0..top``, by ``s(k+1, j) = s(k, j-1) - k*s(k, j)`` (DLMF 26.8): the
    quasi-monomial of step delta is ``x^(m) = sum_j s(m, j) delta^(m-j) x^j``."""
    rows = [[1]]
    for k in range(top):
        rows.append([lo - k * hi for lo, hi in zip([0] + rows[-1], rows[-1] + [0])])
    return rows


def realize_lattice(element: AlgebraElement, step) -> ShiftOperator:
    """Realize a normal-ordered element as a shift operator on the lattice.

    Substitutes ``a -> (T - 1)/delta`` and ``b -> x*T^{-1}`` term by term in
    closed form, ``c*b^m a^n -> c*delta^{-n} * sum_i (-1)^(n-i) C(n,i) x^(m) T^(i-m)``,
    with no skew product; the map is an exact algebra homomorphism, so the
    defining relation survives: ``[realize(a), realize(b)] = identity``.

    With ``x^(m) = sum_j s(m, j) delta^(m-j) x^j`` (Stirling numbers of the
    first kind) every coefficient is an integer sum over one denominator.
    For ``delta = u/q``, ``L`` the lcm of the term denominators, ``N`` the
    largest ``n`` and ``M`` the largest ``m``, the term adds
    ``c*L * u^(N-n) * q^(M-m+j) * (-1)^(n-i) C(n,i) s(m,j) u^(m-j) q^n``
    to the coefficient of ``x^j`` at shift ``i - m``, and each nonzero sum is
    divided once by ``L * u^N * q^M`` (the sign of ``u^N`` moved up).
    """
    require_instance(element, (AlgebraElement,), "element")
    step = nonzero_step(step)
    terms = element.terms
    u, q = step.numerator, step.denominator
    top_m = max((m for m, _ in terms), default=0)
    top_n = max((n for _, n in terms), default=0)
    scale = lcm(*(c.denominator for c in terms.values()))
    sign = -1 if u < 0 and top_n % 2 else 1
    stirling = _stirling_rows(top_m)
    sums: dict[int, list[int]] = {}
    for (m, n), c in terms.items():
        lead = sign * c.numerator * (scale // c.denominator) * u ** (top_n - n) * q ** n
        row = [s * u ** (m - j) * q ** (top_m - m + j) for j, s in enumerate(stirling[m])]
        for i in range(n + 1):
            weight = lead * comb(n, i) * (-1) ** (n - i)
            acc = sums.setdefault(i - m, [])
            acc += [0] * (m + 1 - len(acc))
            for j, r in enumerate(row):
                acc[j] += weight * r
    den = scale * abs(u) ** top_n * q ** top_m
    return ShiftOperator(step, {
        shift: Polynomial([Fraction(a, den) if a else _ZERO for a in acc])
        for shift, acc in sums.items()})


def apply_continuum(element: AlgebraElement, p: Polynomial) -> Polynomial:
    """Apply an element in the differential realization ``a = d/dx, b = x``.

    Each ``b^m a^n`` term acts by the closed form
    ``b^m a^n x^k = k!/(k-n)! * x^(k-n+m)`` (zero for ``k < n``), one pass
    over the coefficient vector per term; the input must be in the monomial
    basis.
    """
    if not p.basis.is_monomial:
        raise BasisMismatchError("continuum action is defined on the monomial basis")
    (image,) = _continuum_images(element, [p.coeffs])
    return Polynomial(image)


def _continuum_images(element: AlgebraElement, vectors) -> list[list[Fraction]]:
    """Images of monomial coefficient vectors in the differential
    realization, untruncated: ``c * c_k * k!/(k-n)!`` lands at degree
    ``k - n + m`` for every term ``c * b^m a^n`` and every nonzero ``c_k``
    with ``k >= n``.

    Only the element's terms and the definition ``a = d/dx, b = x`` are
    read: no algebra product and no lattice.  It serves
    :func:`apply_continuum`; continuum matrices are summed along their
    diagonals by ``spectral.continuum_matrix`` instead.
    """
    terms = require_instance(element, (AlgebraElement,), "element").terms
    lift = max((m - n for m, n in terms), default=0)
    images = []
    for v in vectors:
        image = [_ZERO] * (len(v) + max(lift, 0))
        nonzero = [(k, ck) for k, ck in enumerate(v) if ck]
        for (m, n), c in terms.items():
            for k, ck in nonzero:
                if k >= n:
                    image[k - n + m] += c * ck * perm(k, n)
        images.append(image)
    return images

