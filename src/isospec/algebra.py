"""Normal-ordered arithmetic in the Heisenberg-Weyl algebra.

The algebra has two generators ``a`` and ``b`` subject to the single relation
``a*b - b*a = 1``.  Elements are finite sums ``sum c[m,n] * b^m * a^n`` with
exact rational coefficients, always kept in normal order (all ``b`` factors to
the left).  Products are rewritten with the closed form

    a^n * b^m  =  sum_k  k! * C(n,k) * C(m,k) * b^(m-k) * a^(n-k),

obtained by repeatedly commuting ``a`` past ``b``.

Elements are immutable and hashable; every operation returns a fresh value, so
sharing across threads is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import mapping_items, require_int, unique_keys, wire_list, wire_object
from .rationals import as_fraction, format_fraction, format_terms

__all__ = [
    "AlgebraElement",
    "gen_a",
    "gen_b",
    "unit",
    "zero",
    "sl2_generator",
]

_ZERO = Fraction(0)


class AlgebraElement:
    """A normal-ordered element, stored as a map ``(m, n) -> coefficient``.

    ``(m, n)`` means ``b^m * a^n``; zero coefficients are never kept, so the
    zero element has an empty term map and equality is plain map equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for key, coeff in mapping_items(terms, "terms", "(m, n) -> coefficient"):
                if not isinstance(key, tuple) or len(key) != 2:
                    raise ValueError(f"term key must be a pair (m, n), got {key!r}")
                m, n = key
                require_int(m, "exponent of b")
                require_int(n, "exponent of a")
                c = as_fraction(coeff)
                if c:
                    clean[(m, n)] = c
        self._terms = clean

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Copy of the term map ``(m, n) -> coefficient``."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, m: int, n: int) -> Fraction:
        return self._terms.get((m, n), _ZERO)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            acc = out.get(key, _ZERO) + c
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            acc: dict[tuple[int, int], Fraction] = {}
            for (m1, n1), c1 in self._terms.items():
                for (m2, n2), c2 in other._terms.items():
                    c12 = c1 * c2
                    for k in range(min(n1, m2) + 1):
                        key = (m1 + m2 - k, n1 + n2 - k)
                        w = c12 * (factorial(k) * comb(n1, k) * comb(m2, k))
                        tot = acc.get(key, _ZERO) + w
                        if tot:
                            acc[key] = tot
                        else:
                            acc.pop(key, None)
            return _raw(acc)
        try:
            scalar = as_fraction(other)
        except TypeError:
            return NotImplemented
        if not scalar:
            return _raw({})
        return _raw({k: c * scalar for k, c in self._terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; elements never reach here
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        require_int(exponent, "exponent")
        out = unit(1)
        for _ in range(exponent):
            out = out * self
        return out

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        """``self*other - other*self``."""
        return self * other - other * self

    # -- housekeeping ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"AlgebraElement({self})"

    def __str__(self):
        order = sorted(self._terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))
        return format_terms(
            (c, "*".join((["b"] if m == 1 else [f"b^{m}"] if m else [])
                         + (["a"] if n == 1 else [f"a^{n}"] if n else [])))
            for (m, n), c in order)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """List of ``{"m", "n", "coeff"}`` term triples, sorted by (m, n)."""
        return [
            {"m": m, "n": n, "coeff": format_fraction(c)}
            for (m, n), c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "AlgebraElement":
        terms = (wire_object(t, ("m", "n", "coeff"), "term")
                 for t in wire_list(obj, "algebra element"))
        return cls(unique_keys((((t["m"], t["n"]), t["coeff"]) for t in terms), "term"))


def _raw(terms: dict) -> AlgebraElement:
    out = AlgebraElement.__new__(AlgebraElement)
    out._terms = terms
    return out


def _coerce(value):
    if isinstance(value, AlgebraElement):
        return value
    try:
        scalar = as_fraction(value)
    except TypeError:
        return NotImplemented
    return unit(scalar)


def gen_a() -> AlgebraElement:
    """The lowering generator ``a``."""
    return AlgebraElement({(0, 1): 1})


def gen_b() -> AlgebraElement:
    """The raising generator ``b``."""
    return AlgebraElement({(1, 0): 1})


def unit(value=1) -> AlgebraElement:
    """A scalar multiple of the identity."""
    return AlgebraElement({(0, 0): value})


def zero() -> AlgebraElement:
    return AlgebraElement()


def sl2_generator(kind: str, spin: int) -> AlgebraElement:
    """Spin-``n`` sl2 generators acting on polynomials of degree <= n.

    ``plus``  -> b^2*a - n*b      (raises degree, annihilates the top vector)
    ``zero``  -> b*a - n/2        (grades by degree)
    ``minus`` -> a                (lowers degree)

    They satisfy [zero, minus] = -minus, [zero, plus] = plus and
    [plus, minus] = -2*zero, exactly.
    """
    require_int(spin, "spin")
    if kind == "plus":
        return AlgebraElement({(2, 1): 1, (1, 0): -spin})
    if kind == "zero":
        return AlgebraElement({(1, 1): 1, (0, 0): Fraction(-spin, 2)})
    if kind == "minus":
        return gen_a()
    raise ValueError(f"unknown generator kind {kind!r} (use plus/zero/minus)")
