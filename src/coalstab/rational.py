"""Exact rational values.

Every quantity in this package is an exact rational: a plain ``int`` where
possible, a ``fractions.Fraction`` otherwise. Floats are rejected outright
because membership tests compare against sharp inequality boundaries, and
bools because ``True`` is a flag, not a worth.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

Rational = int | Fraction

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def exact(value) -> Rational:
    """Coerce ``value`` to an exact rational, normalizing whole Fractions to int."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool):
        raise InputError(f"not an exact rational: {value!r} (bools are not accepted)")
    if isinstance(value, int):  # other int subclasses
        return int(value)
    raise InputError(f"not an exact rational: {value!r} (floats are not accepted)")


def parse_rational(text: str) -> Rational:
    """Parse ``"7"`` or ``"p/q"`` into an exact rational."""
    if not isinstance(text, str):
        raise InputError(f"cannot parse rational {text!r}: expected a string")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise InputError(f"cannot parse rational {text!r}: expected an integer or p/q")
    try:
        num = int(m.group(1))
        den = int(m.group(2) or 1)
    except ValueError as err:  # beyond the interpreter's limit on integer digits
        raise InputError(f"cannot parse rational of {len(text)} characters: {err}") from err
    if den == 0:
        raise InputError(f"cannot parse rational {text!r}: zero denominator")
    return exact(Fraction(num, den))


def format_rational(value: Rational) -> str:
    """Render an exact rational as ``"7"`` or ``"p/q"``."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))
