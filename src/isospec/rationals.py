"""Exact rational scalars.

Every number in this library is a :class:`fractions.Fraction`; floats are
rejected everywhere so that no rounding can creep in.  On the wire (JSON, CSV,
command line) rationals travel as reduced fraction strings such as ``"3"`` or
``"-4/7"``.  The step and exponent checks below ``__all__`` are internal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError, require

__all__ = ["as_fraction", "parse_fraction", "format_fraction"]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact Fraction.

    Floats are refused: they carry binary rounding and would silently break
    the exactness guarantees of everything built on top.
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


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid rational: {text!r}") from exc


def format_fraction(value: Fraction) -> str:
    """Canonical reduced string form, ``"p"`` for integers, else ``"p/q"``."""
    return str(as_fraction(value))


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
