"""Dense exact polynomials tagged with the basis they are written in.

Two graded bases appear throughout.  The monomial basis is 1, x, x^2, ...
The quasi-monomial basis at step delta is the falling-factorial ladder

    x^(0) = 1,    x^(k+1) = (x - k*delta) * x^(k),

so x^(k) = x(x - delta)...(x - (k-1)delta), which degenerates to x^k as the
step goes to zero.  Both ladders are monic and graded, hence conversion
between them is a unitriangular change of coordinates: exact, invertible and
degree preserving.

Coefficient vectors are stored dense, lowest degree first, with the trailing
coefficient nonzero (the zero polynomial has an empty vector and degree -1).
Values are immutable.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BasisMismatchError, require_int, wire_list, wire_object
from .rationals import as_fraction, format_fraction, format_terms, nonzero_step

__all__ = [
    "Basis",
    "MONOMIAL",
    "quasi_basis",
    "Polynomial",
    "quasi_monomial",
    "convert_basis",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Basis:
    """Marker for a coefficient basis: monomial when ``step`` is None,
    otherwise the quasi-monomial ladder at that (nonzero) step."""

    step: Fraction | None = None

    def __post_init__(self):
        if self.step is not None:
            object.__setattr__(self, "step", nonzero_step(self.step))

    @property
    def is_monomial(self) -> bool:
        return self.step is None

    def __str__(self):
        if self.is_monomial:
            return "monomial"
        return f"quasi({format_fraction(self.step)})"

    def to_json_obj(self) -> str | dict:
        """``"monomial"``, or ``{"quasi": "p/q"}`` carrying the step."""
        return "monomial" if self.is_monomial else {"quasi": format_fraction(self.step)}

    @classmethod
    def from_json_obj(cls, obj) -> "Basis":
        """Inverse of :meth:`to_json_obj`; any other value raises ValueError."""
        if obj == "monomial":
            return MONOMIAL
        if isinstance(obj, dict) and obj.keys() == {"quasi"}:
            return quasi_basis(obj["quasi"])
        raise ValueError(f'basis must be "monomial" or {{"quasi": "p/q"}}, got {obj!r}')


MONOMIAL = Basis()


def quasi_basis(step) -> Basis:
    """Quasi-monomial basis at a nonzero step."""
    return Basis(as_fraction(step))


class Polynomial:
    """Immutable dense polynomial over exact rationals."""

    __slots__ = ("_coeffs", "basis")

    def __init__(self, coeffs=(), basis: Basis = MONOMIAL):
        if not isinstance(basis, Basis):
            raise TypeError("basis must be a Basis")
        if isinstance(coeffs, (str, bytes, bytearray, Mapping, Set)):
            raise TypeError(f"coefficients must be a sequence, got {coeffs!r}")
        vec = [as_fraction(c) for c in coeffs]
        while vec and vec[-1] == 0:
            vec.pop()
        self._coeffs = tuple(vec)
        self.basis = basis

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, basis: Basis = MONOMIAL) -> "Polynomial":
        return cls((), basis)

    @classmethod
    def constant(cls, value, basis: Basis = MONOMIAL) -> "Polynomial":
        return cls((value,), basis)

    @classmethod
    def identity(cls) -> "Polynomial":
        """The monomial-basis polynomial ``x``."""
        return cls((0, 1))

    @classmethod
    def unit_vector(cls, k: int, basis: Basis = MONOMIAL) -> "Polynomial":
        """The degree-``k`` basis element of ``basis``."""
        return cls((0,) * k + (1,), basis)

    # -- inspection ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else _ZERO

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return _ZERO

    # -- arithmetic ------------------------------------------------------

    def _check_same_basis(self, other: "Polynomial"):
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"cannot combine {self.basis} with {other.basis}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_basis(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            (self.coefficient(i) + other.coefficient(i) for i in range(n)),
            self.basis,
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial((-c for c in self._coeffs), self.basis)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_basis(other)
            if not self.basis.is_monomial:
                raise BasisMismatchError(
                    "products are only defined on monomial coefficient vectors;"
                    " convert first"
                )
            if self.is_zero or other.is_zero:
                return Polynomial.zero(self.basis)
            out = [_ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, ci in enumerate(self._coeffs):
                if not ci:
                    continue
                for j, cj in enumerate(other._coeffs):
                    out[i + j] += ci * cj
            return Polynomial(out, self.basis)
        try:
            scalar = as_fraction(other)
        except TypeError:
            return NotImplemented
        return Polynomial((scalar * c for c in self._coeffs), self.basis)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        require_int(exponent, "exponent")
        out = Polynomial.constant(1, self.basis)
        for _ in range(exponent):
            out = out * self
        return out

    # -- analysis ----------------------------------------------------------

    def __call__(self, point) -> Fraction:
        """Exact evaluation at a rational point, in either basis."""
        x = as_fraction(point)
        if self.basis.is_monomial:
            acc = _ZERO
            for c in reversed(self._coeffs):
                acc = acc * x + c
            return acc
        # quasi basis: accumulate the ladder values x^(k) at the point
        step = self.basis.step
        acc = _ZERO
        ladder = _ONE
        for k, c in enumerate(self._coeffs):
            if k:
                ladder *= x - (k - 1) * step
            acc += c * ladder
        return acc

    def shifted(self, amount) -> "Polynomial":
        """``p(x + amount)`` (monomial basis): :func:`_ladder_shift` at
        ``s = 0`` with the one rung ``(0, 1, amount)``, which spreads ``c_j x^j``
        to ``sum_i C(j, i) * amount^(j-i) * c_j * x^i`` over the integers."""
        if not self.basis.is_monomial:
            raise BasisMismatchError("a shift needs the monomial basis")
        amount = as_fraction(amount)
        if not amount or len(self._coeffs) <= 1:
            return self
        (image,) = _ladder_shift([_integer_vector(self._coeffs)], [(0, _ONE, amount)], _ZERO)
        return Polynomial(_fraction_vector(image))

    # -- housekeeping --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.basis == other.basis and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.basis, self._coeffs))

    def __repr__(self):
        return f"Polynomial({self}, basis={self.basis})"

    def __str__(self):
        monomial = self.basis.is_monomial
        return format_terms(
            (self._coeffs[k], "" if not k else f"x({k})" if not monomial
             else "x" if k == 1 else f"x^{k}")
            for k in range(self.degree, -1, -1))

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"basis": self.basis.to_json_obj(),
                "coeffs": [format_fraction(c) for c in self._coeffs]}

    @classmethod
    def from_json_obj(cls, obj) -> "Polynomial":
        obj = wire_object(obj, ("basis", "coeffs"), "polynomial")
        return cls(wire_list(obj["coeffs"], "coeffs"), Basis.from_json_obj(obj["basis"]))


def quasi_monomial(n: int, step) -> Polynomial:
    """Monomial-basis expansion of the degree-``n`` quasi-monomial x^(n).

    Computed by the recurrence x^(k+1) = (x - k*step) * x^(k), which is exact
    over the rationals (no Gamma functions involved).
    """
    require_int(n, "degree")
    step = nonzero_step(step)
    out = Polynomial.constant(1)
    x = Polynomial.identity()
    for k in range(n):
        out = out * (x - Polynomial.constant(k * step))
    return out


def convert_basis(p: Polynomial, target: Basis) -> Polynomial:
    """Re-express ``p`` in ``target``; the polynomial function is unchanged.

    Conversion between two quasi bases with different steps is refused (go
    through the conversion you actually mean); round trips are the identity.

    Both directions run over the integers with one final division.  For step
    ``u/q`` and ``L`` the lcm of the ``n`` denominators, ladder -> monomial is
    Newton-Horner on the nodes ``q*x - k*u`` and leaves ``L*q^(n-1)*P``;
    monomial -> ladder divides ``L*q^(n-1)*P(y/q)`` by ``y - k*u`` repeatedly,
    and remainder ``k`` is ``L*q^(n-1-k)`` times the coefficient of ``x^(k)``.
    """
    if p.basis == target:
        return p
    if not p.basis.is_monomial and not target.is_monomial:
        raise BasisMismatchError(
            f"cannot convert between quasi bases at different steps "
            f"({p.basis} -> {target})"
        )
    step = (p.basis if target.is_monomial else target).step
    u, q = step.numerator, step.denominator
    scale, top = lcm(*(c.denominator for c in p.coeffs)), p.degree
    ints = [c.numerator * (scale // c.denominator) * q ** (top - i)
            for i, c in enumerate(p.coeffs)]
    if target.is_monomial:
        acc: list[int] = []
        for k in range(top, -1, -1):
            node = k * u
            acc = [q * hi - node * lo for hi, lo in zip([0] + acc, acc + [0])]
            acc[0] += ints[k]
        return Polynomial([Fraction(a, scale * q ** top) if a else _ZERO for a in acc])
    for k in range(top + 1):
        node = k * u
        for i in range(top - 1, k - 1, -1):
            ints[i] += node * ints[i + 1]
    return Polynomial([Fraction(e, scale * q ** (top - k)) if e else _ZERO
                       for k, e in enumerate(ints)], target)


def _integer_vector(coeffs) -> tuple[int, list[tuple[int, int]], int]:
    """The integer form ``(den, [(j, n_j), ...], length)`` of a Fraction
    coefficient vector: ``den`` the lcm of its denominators and ``n_j / den``
    its nonzero entries, lowest degree first."""
    den = lcm(*(c.denominator for c in coeffs))
    return (den, [(j, c.numerator * (den // c.denominator)) for j, c in enumerate(coeffs) if c],
            len(coeffs))


def _fraction_vector(vector) -> list[Fraction]:
    """The Fraction coefficient vector of an integer form ``(den, [(j, n_j),
    ...], length)``: one Fraction per nonzero entry, ``_ZERO`` elsewhere."""
    den, nonzero, length = vector
    out = [_ZERO] * length
    for j, n in nonzero:
        out[j] = Fraction(n, den)
    return out


def _ladder_shift(vectors, rungs, s: Fraction) -> list[tuple[int, list[tuple[int, int]], int]]:
    """Images of coefficient vectors on the ladder of step ``s`` (``s = 0``:
    monomials), on that ladder and untruncated, under a sum of rungs
    ``(r, c, h)``: ``x^(j) -> c * sum_m C(j, m) * h^(m) * x^(r+j-m)`` with
    ``h^(m) = h(h - s)...(h - (m-1)s)``.

    Vectors and images are in the integer form of :func:`_integer_vector`.
    Only the degrees the rungs reach are touched, so a unit vector under
    rungs that are bands costs the width of the bands, not its degree.

    Over the integers: for ``D`` the lcm of the denominators of ``s`` and every
    ``h``, ``D^m * h^(m) = H(H - S)...(H - (m-1)S)`` with ``H = D*h, S = D*s``,
    cut at its first zero factor and scaled by ``D`` to the widest band ``w``.
    With ``V`` a vector's own denominator and ``R`` the rung coefficients',
    ``den`` is ``V*R*D^w``.
    """
    rungs = [(r, c, h) for r, c, h in rungs if c]
    top = max((length for _, _, length in vectors), default=0)
    d = lcm(s.denominator, *(h.denominator for _, _, h in rungs))
    big_s = s.numerator * (d // s.denominator)
    ratio = lcm(*(c.denominator for _, c, _ in rungs))
    bands = []
    for r, c, h in rungs:
        big_h = h.numerator * (d // h.denominator)
        falling = [c.numerator * (ratio // c.denominator)]
        while len(falling) < top and (nxt := falling[-1] * (big_h - (len(falling) - 1) * big_s)):
            falling.append(nxt)
        bands.append((r, falling))
    width = max((len(f) for _, f in bands), default=1) - 1
    bands = [(r, [f * d ** (width - m) for m, f in enumerate(falling)]) for r, falling in bands]
    scale = ratio * d ** width
    # x^(j) reaches degrees r+j-m, m <= min(j, width), so those in low..high
    low, high = min((r for r, _ in bands), default=0), max((r for r, _ in bands), default=0)
    images = []
    for den, nonzero, _ in vectors:
        if not nonzero:
            images.append((den * scale, [], 0))
            continue
        lo = low + max(nonzero[0][0] - width, 0)
        acc = [0] * (high + nonzero[-1][0] + 1 - lo)
        for r, falling in bands:
            for j, vj in nonzero:
                binom = vj  # vj * C(j, m)
                at = r + j - lo
                for m in range(min(j + 1, len(falling))):
                    acc[at - m] += binom * falling[m]
                    binom = binom * (j - m) // (m + 1)
        images.append((den * scale, [(i, a) for i, a in enumerate(acc, lo) if a], lo + len(acc)))
    return images
