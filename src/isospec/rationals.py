"""Exact rational scalars.

Every number in this library is a :class:`fractions.Fraction`; floats are
rejected everywhere so that no rounding can creep in.  On the wire (JSON, CSV,
command line) rationals travel as reduced fraction strings such as ``"3"`` or
``"-4/7"``.  The step and exponent checks below ``__all__`` are internal.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParameterError, require

__all__ = ["as_fraction", "parse_fraction", "format_fraction"]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact Fraction.

    Floats are refused: they carry binary rounding and would silently break
    the exactness guarantees of everything built on top.  Strings must be in
    the reduced wire form of :func:`parse_fraction`, so every constructor
    that takes rational strings (``Polynomial``, ``ShiftOperator``,
    ``SecondOrderParams``, the ``from_json_obj`` readers) raises ValueError
    on ``"0.5"``, ``"1e3"``, ``"2/4"`` or ``"+1"``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected an exact rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass an int, Fraction or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# the wire form is exactly what format_fraction writes: a reduced "p" or
# "p/q" with q > 1, no sign on zero, no leading zeros, no decimals or exponents
_WIRE_RATIONAL = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?", re.ASCII)
# digits allowed in a numerator or denominator, CPython's default limit on
# int/str conversion; checked before any integer is built
_MAX_DIGITS = 4300


def parse_fraction(text: str) -> Fraction:
    """Parse the wire form ``"p"`` or ``"p/q"`` (reduced, ``q > 1``) into a
    Fraction; surrounding whitespace is ignored.

    Anything else (``"0.1"``, ``"1e3"``, ``"2/4"``, ``"+1"``, ``"-0"``, a
    numerator or denominator longer than 4300 digits) raises
    ValueError.
    """
    match = _WIRE_RATIONAL.fullmatch(text.strip())
    if match is not None:
        sign, num, den = match.groups()
        if max(len(num), len(den or "")) > _MAX_DIGITS:
            raise ValueError(f"not a valid rational: more than {_MAX_DIGITS} digits")
        p, q = int(num), int(den or 1)
        if (p or not sign) and (den is None or (q > 1 and math.gcd(p, q) == 1)):
            return Fraction(-p if sign else p, q)
    raise ValueError(f"not a valid rational: {text!r} (expected reduced 'p' or 'p/q')")


def format_fraction(value: Fraction) -> str:
    """Canonical reduced string form, ``"p"`` for integers, else ``"p/q"``."""
    return str(as_fraction(value))


def format_terms(terms) -> str:
    """``c*w + c*w - ...`` from ``(coefficient, word)`` pairs in display
    order: zero terms are skipped, an empty word shows the coefficient alone,
    a coefficient of 1 or -1 shows as its sign only, and no terms read
    ``0``."""
    text = ""
    for c, word in terms:
        if not c:
            continue
        body = format_fraction(abs(c))
        if word:
            body = word if abs(c) == 1 else f"{body}*{word}"
        sign = "-" if c < 0 else "+"
        text = f"{text} {sign} {body}" if text else (body if c > 0 else "-" + body)
    return text or "0"


def nonzero_step(step) -> Fraction:
    """A lattice step as a Fraction; zero raises :class:`ParameterError`."""
    step = as_fraction(step)
    if not step:
        raise ParameterError("lattice step must be nonzero")
    return step


def admissible_exponent(value, name: str) -> Fraction:
    """A family exponent such as alpha or beta: a rational > -1."""
    value = as_fraction(value)
    require(value > -1, f"{name} must be a rational > -1, got {value}")
    return value
