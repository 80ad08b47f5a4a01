"""Exact arithmetic for the benchmark's generator and checker.

The checker must not share code with the timed path, so it does its own
arithmetic here: ``Fraction`` for Q and a small ``QS`` type for
p + q*sqrt(2).  Only d = 2 is needed (the quadratic workload's value group
is <1, sqrt(2)>).
"""

from __future__ import annotations

import re
from fractions import Fraction as F

D = 2

_STR_RE = re.compile(
    r"^(?:(?P<p>-?\d+(?:/\d+)?) (?P<sep>[+-]) )?(?P<neg>-)?"
    r"(?:(?P<q>\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+)\)$"
)


class QS:
    """p + q*sqrt(2) with p, q exact rationals."""

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        self.p = F(p)
        self.q = F(q)

    @staticmethod
    def of(x):
        return x if isinstance(x, QS) else QS(x)

    def __add__(self, o):
        o = QS.of(o)
        return QS(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, o):
        o = QS.of(o)
        return QS(self.p - o.p, self.q - o.q)

    def __rsub__(self, o):
        return QS.of(o) - self

    def __mul__(self, o):
        o = QS.of(o)
        return QS(self.p * o.p + D * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QS.of(o)
        norm = o.p * o.p - D * o.q * o.q
        return QS((self.p * o.p - D * self.q * o.q) / norm,
                  (self.q * o.p - self.p * o.q) / norm)

    def __neg__(self):
        return QS(-self.p, -self.q)

    def sign(self):
        sp = (self.p > 0) - (self.p < 0)
        sq = (self.q > 0) - (self.q < 0)
        if sq == 0 or sp == sq:
            return sp or sq
        if sp == 0:
            return sq
        return sp if self.p * self.p > D * self.q * self.q else sq

    def __eq__(self, o):
        o = QS.of(o)
        return self.p == o.p and self.q == o.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"QS({self.p}, {self.q})"

    def to_json(self):
        return {"p": qstr(self.p), "q": qstr(self.q)}

    @staticmethod
    def from_json(obj):
        return QS(F(obj["p"]), F(obj["q"]))

    @staticmethod
    def parse(text):
        """Read the toolkit's printed form: "1/2", "sqrt(2)", "1 - 3*sqrt(2)"."""
        if "sqrt" not in text:
            return QS(F(text))
        m = _STR_RE.match(text)
        if m is None or int(m["d"]) != D:
            raise ValueError(f"unreadable field element {text!r}")
        q = F(m["q"] or 1)
        if m["neg"] or m["sep"] == "-":
            q = -q
        return QS(F(m["p"] or 0), q)


def qstr(x) -> str:
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def dot(u, v):
    total = QS()
    for a, b in zip(u, v):
        total = total + QS.of(a) * b
    return total


def rank(rows):
    """Rank of a list of QS/int/Fraction vectors by exact elimination."""
    work = [[QS.of(x) for x in r] for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        k = next((i for i in range(r, len(work)) if work[i][c].sign()), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        for i in range(len(work)):
            if i != r and work[i][c].sign():
                t = work[i][c] / work[r][c]
                work[i] = [x - t * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def solve(rows, rhs):
    """The unique x with rows . x = rhs, or None when the system is singular."""
    n = len(rows)
    work = [[QS.of(x) for x in row] + [QS.of(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        k = next((i for i in range(c, n) if work[i][c].sign()), None)
        if k is None:
            return None
        work[c], work[k] = work[k], work[c]
        for i in range(n):
            if i != c and work[i][c].sign():
                t = work[i][c] / work[c][c]
                work[i] = [x - t * y for x, y in zip(work[i], work[c])]
    return tuple(work[i][n] / work[i][i] for i in range(n))
