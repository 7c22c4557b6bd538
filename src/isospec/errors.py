"""Exception types shared across the library, and the input checks that
raise them.

The checks below ``__all__`` are internal: every module validates through
them so that each rule is written once.
"""

from __future__ import annotations

from collections.abc import Mapping

__all__ = [
    "IsospecError",
    "BasisMismatchError",
    "StepMismatchError",
    "ParameterError",
    "DegenerateSpectrumError",
    "SubspaceOverflowError",
]


class IsospecError(Exception):
    """Base class for all library errors."""


class BasisMismatchError(IsospecError):
    """Polynomials (or bases) that cannot be combined as requested."""


class StepMismatchError(IsospecError):
    """Shift operators over different lattice steps cannot be combined."""


class ParameterError(IsospecError):
    """Inadmissible operator or family parameters (including a zero step)."""


class DegenerateSpectrumError(IsospecError):
    """Repeated diagonal entries: eigenvectors are not solved for."""


class SubspaceOverflowError(IsospecError):
    """An operator left the degree-bounded space it was restricted to."""

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


def require(condition, message: str):
    """Raise :class:`ParameterError` with ``message`` unless ``condition``."""
    if not condition:
        raise ParameterError(message)


def require_int(value, name: str, minimum: int = 0, error: type[Exception] = ValueError) -> int:
    """``value`` itself if it is a plain ``int`` >= ``minimum``, else raise
    ``error``.  ``bool`` and ``float`` never pass, so nothing is truncated."""
    if type(value) is not int or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def require_instance(value, kinds: tuple[type, ...], name: str):
    """``value`` itself if it is an instance of one of ``kinds``, else raise
    TypeError naming the types expected and the type given, before a wrong
    kind of argument fails deeper down with a message about something else."""
    if not isinstance(value, kinds):
        expected = " or ".join(("an " if k.__name__[0] in "AEIOU" else "a ") + k.__name__
                               for k in kinds)
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


def unique_keys(pairs, what: str) -> dict:
    """Dict of the ``(key, value)`` pairs read from the wire; a repeated key
    raises ValueError instead of its last value silently winning."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what} {key!r} appears more than once")
        out[key] = value
    return out


def mapping_items(value, name: str, shape: str):
    """``value.items()`` if ``value`` is a mapping; anything else, a list of
    pairs above all, raises TypeError naming the mapping ``shape`` expected."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{name} must be a mapping {shape}, got {type(value).__name__} {value!r}")
    return value.items()


def wire_list(value, what: str) -> list:
    """``value`` if it is a list (a JSON array); anything else, a string
    above all, raises ValueError instead of being read item by item."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def wire_object(value, keys, what: str, optional=()) -> dict:
    """``value`` if it is a dict (a JSON object) with every one of ``keys``
    and nothing beyond them and ``optional``; anything else raises ValueError
    that names the missing or unexpected keys, or the wrong shape."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object with keys {list(keys)}, got {value!r}")
    missing = [key for key in keys if key not in value]
    unexpected = [key for key in value if key not in keys and key not in optional]
    if missing or unexpected:
        raise ValueError(f"{what}: missing keys {missing}, unexpected keys {unexpected}")
    return value


def canonical_name(name: str) -> str:
    """Lookup key of a user-supplied name: surrounding blanks are ignored,
    case does not matter, and ``_`` reads as ``-``."""
    return name.strip().lower().replace("_", "-")
