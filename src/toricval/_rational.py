"""Exact rational arithmetic layer.

Everything in the package goes through ``Q`` so the whole toolkit can run on
gmpy2's C-backed rationals when available and fall back to the stdlib
otherwise.  The two types agree on str(), ordering, hashing and the
numerator/denominator attributes, which is all we rely on.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q  # type: ignore[assignment]

QZERO = Q(0)


def qsign(x) -> int:
    # the denominator is positive, so the numerator carries the sign
    n = x.numerator
    return (n > 0) - (n < 0)


def qstr(x) -> str:
    """Canonical "num/den" form, denominator always present."""
    return f"{int(x.numerator)}/{int(x.denominator)}"
