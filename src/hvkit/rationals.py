"""Exact rational scalars.

Every probability in this package is a ``fractions.Fraction``: arbitrary
precision, always in canonical form (positive denominator, gcd 1), with
decidable equality.  Nothing downstream ever touches a float except the
quantum generator boundary, which converts through
:func:`approximate_from_float`.

Values are immutable and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ResourceLimitError

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_to_string(value: Fraction) -> str:
    """Serialize as ``"n/d"`` in canonical form (``"0/1"`` for zero).

    Raises ResourceLimitError when the numerator or denominator has more
    than MAX_RATIONAL_DIGITS digits, as such a value could not be read back.
    """
    if _past_cap(value):
        raise ResourceLimitError(
            f"cannot write a rational with more than MAX_RATIONAL_DIGITS = {MAX_RATIONAL_DIGITS} "
            "digits in its numerator or denominator"
        )
    return f"{value.numerator}/{value.denominator}"


_RATIONAL_PATTERN = re.compile(r"-?\d+(/\d+)?\Z")

# The longest numerator or denominator, in decimal digits, that
# rational_from_string accepts and rational_to_string writes.  It equals
# CPython's default limit on int/str conversion, so every parsed value
# prints back unchanged.
MAX_RATIONAL_DIGITS = 4300
_TOO_MANY_DIGITS = 10**MAX_RATIONAL_DIGITS


def _past_cap(value: Fraction) -> bool:
    return max(abs(value.numerator), value.denominator) >= _TOO_MANY_DIGITS


def _shown(value: Fraction) -> str:
    """``value`` as text for an error message; past the digit cap, only its size."""
    return f"a rational over {MAX_RATIONAL_DIGITS} digits long" if _past_cap(value) else str(value)


def _quoted(text: str) -> str:
    """``text`` quoted for an error message; a long one is cut to its first 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def rational_from_string(text: str) -> Fraction:
    """Parse ``"n/d"`` or a bare integer ``"n"``, optionally negative.

    Raises ValueError on anything else, including a zero denominator and
    a numerator or denominator longer than MAX_RATIONAL_DIGITS digits.
    """
    s = text.strip()
    if not _RATIONAL_PATTERN.match(s):
        raise ValueError(f"not a rational: {_quoted(text)}")
    num_part, sep, den_part = s.partition("/")
    if max(len(num_part.lstrip("-")), len(den_part)) > MAX_RATIONAL_DIGITS:
        raise ValueError(
            f"rational has more than {MAX_RATIONAL_DIGITS} digits in its numerator or denominator"
        )
    if not sep:
        return Fraction(int(num_part))
    denominator = int(den_part)
    if denominator == 0:
        raise ValueError(f"denominator must be positive: {_quoted(text)}")
    return Fraction(int(num_part), denominator)


def approximate_from_float(x: float, max_denominator: int) -> Fraction:
    """Best rational approximation to ``x`` with denominator <= ``max_denominator``.

    ``x`` must lie in [0, 1].  The result is the continued-fraction
    convergent or semiconvergent closest to ``x``, so no rational with an
    admissible denominator is strictly closer; the result stays in [0, 1].
    """
    if max_denominator < 1:
        raise DomainError(f"max_denominator must be >= 1, got {max_denominator}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"value must lie in [0, 1], got {x!r}")
    return Fraction(x).limit_denominator(max_denominator)
