"""Small exact linear algebra over field elements.

Vectors are tuples of FieldElement.  Everything here is exact; there is no
pivoting heuristic to tune because there is no rounding.
"""

from __future__ import annotations

import math

from ._rational import QZERO
from .errors import DimensionMismatch
from .ordfield import FE_ZERO, _make, as_fe


def vec(entries):
    return tuple(as_fe(x) for x in entries)


def _integral(x):
    i = int(x)
    if i != x:
        raise ValueError(f"exponent entry {x} is not an integer")
    return i


def int_vector(entries):
    """The entries as a tuple of ints.

    Ints pass as they are; any other entry must equal an integer (an
    integral Fraction, say), else ValueError: nothing is truncated.
    """
    return tuple(x if type(x) is int else _integral(x) for x in entries)


def vdot(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of length {len(a)} with {len(b)}")
    # over Q, sum the rational parts; the sum starts at Q(0) so it stays in Q
    total = QZERO
    for x, y in zip(a, b):
        if x.d is not None or y.d is not None:
            break
        if x.p and y.p:
            total += x.p * y.p
    else:
        return _make(total, QZERO, None)
    total = FE_ZERO
    for x, y in zip(a, b):
        if x and y:
            total = total + x * y
    return total


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(t, a):
    return tuple(t * x for x in a)


def is_zero_vec(a):
    return all(not x for x in a)


def canonical_ray(v):
    """Scale by a positive factor so the first nonzero coordinate is +-1."""
    for x in v:
        if x:
            lead = x if x.sign() > 0 else -x
            return tuple(y / lead for y in v)
    raise ValueError("zero vector is not a ray")


def rref(rows, dim):
    """Reduced row echelon form.  Returns (rows, pivot_columns), rows canonical."""
    work = [list(vec(r)) for r in rows if not is_zero_vec(r)]
    pivots = []
    r = 0
    for c in range(dim):
        k = next((i for i in range(r, len(work)) if work[i][c]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                t = work[i][c]
                work[i] = [x - t * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work[:r]], pivots


def rank(rows, dim):
    return len(rref(rows, dim)[0])


def primitive_int_vector(v):
    """Rescale a rational vector to a primitive integer vector, same direction."""
    scale = 1
    for x in v:
        x = as_fe(x)
        if x.q != 0:
            raise ValueError(f"vector entry {x} is not rational")
        scale = math.lcm(scale, int(x.p.denominator))
    ints = [int(as_fe(x).p * scale) for x in v]
    content = 0
    for n in ints:
        content = math.gcd(content, n)
    if content == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(n // content for n in ints)
