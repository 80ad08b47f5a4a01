"""Exact ordered-field arithmetic and finitely generated value groups.

Elements live in Q or in a real quadratic extension Q(sqrt(d)): every value is
p + q*sqrt(d) with p, q exact rationals and d a fixed square-free integer >= 2.
Signs, comparisons and group membership are all decided exactly; nothing in
here ever rounds.

Every FieldElement keeps one invariant: p and q are instances of ``Q``, and d
is None exactly when q == 0, so a rational value is always (p, Q(0), None).
The public constructor ``FieldElement(p, q, d)`` (and ``fe``) coerces outside
input into that form and rejects q != 0 without d.  Arithmetic results are
built by the private ``_make``, which skips the coercion and trusts the
invariant; only this module's arithmetic and coercion and the kernel loops of
``linalg`` may call it.

When both operands are irrational, ``*``, ``/`` and ``sign`` (and so the
order comparisons) work on plain ints.  Each operand is read as
(x + y*sqrt(d)) / t with x = a*e, y = c*b and t = b*e for p = a/b and
q = c/e.  A product is (x1*x2 + d*y1*y2, x1*y2 + y1*x2) over t1*t2.  A
quotient multiplies by the conjugate and divides by the integer norm
x2^2 - d*y2^2, which is nonzero because sqrt(d) is irrational.  Each part is
then built by one ``Q(num, den)``, which reduces it by one gcd, so p and q
come out canonical, and d is dropped exactly when the irrational numerator
is 0: the invariant holds without a further check.  The sign of an
irrational element is ``pair_sign(x, y, d)``, because t > 0.  Branches with
a rational operand keep the ``Q`` operations on the parts.

A value group is a finitely generated subgroup of the reals inside such a
field.  Writing its generators as coordinate vectors (p, q) over Q turns it
into a rank <= 2 integer lattice after clearing denominators, so membership
and discreteness reduce to lattice arithmetic.  The same integer coordinates
(``ValueGroup.coords``) let bounded searches add and compare group elements
as plain int pairs, signed by ``pair_sign``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rational import QZERO, Q, qsign

from .errors import FieldMismatch


def _is_square_free(n: int) -> bool:
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Q when d is None, otherwise Q(sqrt(d)) with d square-free, d >= 2."""

    d: int | None = None

    def __post_init__(self):
        if self.d is not None:
            if not isinstance(self.d, int) or self.d < 2:
                raise ValueError(f"d must be an integer >= 2, got {self.d!r}")
            if not _is_square_free(self.d):
                raise ValueError(f"d must be square-free, got {self.d}")

    def __str__(self):
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


RATIONALS = FieldDescriptor(None)


def _merge_d(d1: int | None, d2: int) -> int:
    """The radicand of an operation on any operand and an irrational one."""
    if d1 is None or d1 == d2:
        return d2
    raise FieldMismatch(f"cannot mix sqrt({d1}) and sqrt({d2}) elements")


class FieldElement:
    """p + q*sqrt(d), exact.  Elements with q = 0 are plain rationals (d = None).

    The public constructor coerces p and q to Q; see the module docstring for
    the invariant that arithmetic results keep.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q=0, d: int | None = None):
        p = Q(p)
        q = Q(q)
        if q == 0:
            d = None
        elif d is None:
            raise ValueError("irrational part present but no d given")
        self.p = p
        self.q = q
        self.d = d

    @property
    def field(self) -> FieldDescriptor:
        return RATIONALS if self.d is None else FieldDescriptor(self.d)

    # -- arithmetic ---------------------------------------------------------
    # Each operation coerces by exact type first.  When an operand is rational
    # its irrational part is zero, so the result needs only the Q operations
    # on the other parts, and the invariant carries over without a check.

    def __add__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if other.d is None:
            return _make(self.p + other.p, self.q, self.d)
        if self.d is None:
            return _make(self.p + other.p, other.q, other.d)
        d = _merge_d(self.d, other.d)
        q = self.q + other.q
        return _make(self.p + other.p, q, d if q else None)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if other.d is None:
            return _make(self.p - other.p, self.q, self.d)
        if self.d is None:
            return _make(self.p - other.p, -other.q, other.d)
        d = _merge_d(self.d, other.d)
        q = self.q - other.q
        return _make(self.p - other.p, q, d if q else None)

    def __rsub__(self, other):
        return as_fe(other).__sub__(self)

    def __mul__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if other.d is None:
            if self.d is None:
                return _make(self.p * other.p, QZERO, None)
            return self._scaled(other.p)
        if self.d is None:
            return other._scaled(self.p)
        d = _merge_d(self.d, other.d)
        x1, y1, t1 = self._ints()
        x2, y2, t2 = other._ints()
        return _from_ints(x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2, t1 * t2, d)

    __rmul__ = __mul__

    def _ints(self):
        """(x, y, t) with self = (x + y*sqrt(d)) / t, x, y, t ints and t > 0."""
        p, q = self.p, self.q
        b, e = p.denominator, q.denominator
        return p.numerator * e, q.numerator * b, b * e

    def _scaled(self, r):
        """self * r for r in Q and self irrational."""
        if not r:
            return FE_ZERO
        return _make(self.p * r, self.q * r, self.d)

    def __truediv__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if other.d is None:
            r = other.p
            if not r:
                raise ZeroDivisionError("field element division by zero")
            if self.d is None:
                return _make(self.p / r, QZERO, None)
            return _make(self.p / r, self.q / r, self.d)
        d = _merge_d(self.d, other.d)
        # multiply by the conjugate m2 - n2*sqrt(d); the integer norm is
        # nonzero since sqrt(d) is irrational
        x1, y1, t1 = self._ints()
        m2, n2, s = other._ints()
        norm = m2 * m2 - d * n2 * n2
        return _from_ints((x1 * m2 - d * y1 * n2) * s, (y1 * m2 - x1 * n2) * s,
                          t1 * norm, d)

    def __rtruediv__(self, other):
        return as_fe(other).__truediv__(self)

    def __neg__(self):
        if self.d is None:
            return _make(-self.p, QZERO, None)
        return _make(-self.p, -self.q, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = FE_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        if self.d is None:
            return qsign(self.p)
        # p = a/b and q = c/e with b*e > 0, so p + q*sqrt(d) has the sign
        # of a*e + c*b*sqrt(d)
        p, q = self.p, self.q
        return pair_sign(p.numerator * q.denominator, q.numerator * p.denominator,
                         self.d)

    def __eq__(self, other):
        if type(other) is not FieldElement:
            try:
                other = as_fe(other)
            except (TypeError, ValueError):
                return NotImplemented
        # with the invariant, equal elements have equal d
        if self.d != other.d:
            return False
        return self.p == other.p and (self.d is None or self.q == other.q)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if self.d is None and other.d is None:
            return self.p < other.p
        return (self - other).sign() < 0

    def __le__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if self.d is None and other.d is None:
            return self.p <= other.p
        return (self - other).sign() <= 0

    def __gt__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if self.d is None and other.d is None:
            return self.p > other.p
        return (self - other).sign() > 0

    def __ge__(self, other):
        if type(other) is not FieldElement:
            other = as_fe(other)
        if self.d is None and other.d is None:
            return self.p >= other.p
        return (self - other).sign() >= 0

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.d is not None or bool(self.p)

    # -- presentation --------------------------------------------------------

    def __float__(self):
        # display/rendering convenience only; core algorithms never call this.
        # float() of a rational divides exactly before rounding, so huge
        # numerators and denominators with a moderate quotient do not overflow
        val = float(self.p)
        if self.q != 0:
            val += float(self.q) * math.sqrt(self.d)
        return val

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        root = f"sqrt({self.d})"
        if self.q == 1:
            irr = root
        elif self.q == -1:
            irr = f"-{root}"
        else:
            irr = f"{self.q}*{root}"
        if self.p == 0:
            return irr
        sep = "-" if self.q < 0 else "+"
        mag = irr.lstrip("-")
        return f"{self.p} {sep} {mag}"

    def __repr__(self):
        return f"FieldElement({self.p!r}, {self.q!r}, d={self.d})"


_new = object.__new__


def _make(p, q, d) -> FieldElement:
    """Trusted constructor: p and q must be Q instances, d None iff q == 0.

    Only this module's arithmetic and coercion and ``linalg.vdot`` call it,
    on values already in that form; outside input goes through
    ``FieldElement(p, q, d)``.
    """
    x = _new(FieldElement)
    x.p = p
    x.q = q
    x.d = d
    return x


def _from_ints(x, y, t, d) -> FieldElement:
    """(x + y*sqrt(d)) / t for ints x, y and t != 0: one Q per part, each
    reduced by its own gcd, and d dropped when y == 0."""
    if not y:
        return _make(Q(x, t), QZERO, None)
    return _make(Q(x, t), Q(y, t), d)


def as_fe(x) -> FieldElement:
    """Coerce an int, rational, or FieldElement to a FieldElement."""
    t = type(x)
    if t is FieldElement:
        return x
    if t is int:
        return _make(Q(x), QZERO, None)
    if t is Q:
        return _make(x, QZERO, None)
    return FieldElement(x)


def fe(p, q=0, d: int | None = None) -> FieldElement:
    return FieldElement(p, q, d)


def sqrtd(d: int) -> FieldElement:
    return FieldElement(0, 1, d)


FE_ZERO = FieldElement(0)
FE_ONE = FieldElement(1)


def pair_sign(a: int, b: int, d: int | None) -> int:
    """Sign of a + b*sqrt(d) for integers a and b (b == 0 when d is None).

    Decided exactly by comparing a^2 with d*b^2 when the signs of a and b
    differ; the two are never equal, since sqrt(d) is irrational, and an
    AssertionError is raised if they are (d not square-free).
    """
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (b > 0):
        return sb
    left = a * a
    right = d * b * b
    if left == right:
        raise AssertionError("square-free d produced a rational square root")
    return -sb if left > right else sb


# -- value groups -----------------------------------------------------------


def _echelon2(vectors):
    """Canonical echelon basis of the Z-span of integer vectors in Z^2.

    Returns [] (rank 0), [(a, b)] with a > 0, or [(a, b), (0, c)] with
    a > 0, c > 0, 0 <= b < c; when rank 1 with a = 0 returns [(0, c)], c > 0.
    Every step is unimodular on the row pair, so the span never changes.
    """
    r0 = None  # pivot in column 0
    r1 = None  # pivot in column 1
    for v in vectors:
        x, y = v
        if x != 0:
            if r0 is None:
                r0 = (x, y)
                x, y = 0, 0
            else:
                x0, y0 = r0
                while x != 0:
                    k = x0 // x
                    x0, y0, x, y = x, y, x0 - k * x, y0 - k * y
                r0 = (x0, y0)
        if y != 0:
            r1 = (0, y) if r1 is None else (0, math.gcd(r1[1], y))
    rows = []
    if r0 is not None:
        a, b = r0
        if a < 0:
            a, b = -a, -b
        if r1 is not None:
            c = abs(r1[1])
            b %= c
        rows.append((a, b))
    if r1 is not None:
        rows.append((0, abs(r1[1])))
    return rows


class ValueGroup:
    """Finitely generated subgroup of the reals inside one quadratic field.

    The empty generator list gives the trivial group {0} (the trivial
    valuation); it is considered discrete.
    """

    __slots__ = ("field", "generators", "_scale", "_basis")

    def __init__(self, field: FieldDescriptor, generators=()):
        gens = []
        for g in generators:
            g = as_fe(g)
            if g.d is not None and field.d != g.d:
                raise FieldMismatch(
                    f"generator {g} does not live in {field}"
                )
            gens.append(g)
        self.field = field
        self.generators = tuple(gens)

        scale = 1
        for g in gens:
            scale = math.lcm(scale, int(g.p.denominator), int(g.q.denominator))
        vecs = []
        for g in gens:
            vecs.append((int(g.p * scale), int(g.q * scale)))
        basis = _echelon2(vecs)
        # divide out common content so (scale, basis) is canonical per group
        if basis:
            content = scale
            for row in basis:
                for entry in row:
                    content = math.gcd(content, entry)
            scale //= content
            basis = [(a // content, b // content) for a, b in basis]
        else:
            scale = 1
        self._scale = scale
        self._basis = tuple(basis)

    def rank(self) -> int:
        return len(self._basis)

    def coords(self, x):
        """The integers (X, Y) with x * scale = X + Y*sqrt(d), or None when
        x * scale has a non-integer part.

        The scale is fixed per group, so every group element has integer
        coordinates and sums of group elements are sums of coordinates.
        """
        x = as_fe(x)
        if x.d is not None and self.field.d != x.d:
            raise FieldMismatch(f"{x} does not live in {self.field}")
        xp = x.p * self._scale
        xq = x.q * self._scale
        if xp.denominator != 1 or xq.denominator != 1:
            return None
        return int(xp), int(xq)

    def pair_coords(self, a, b, den):
        """coords of (a + b*sqrt(d)) / den for integers a, b and den > 0,
        or None when that value times scale has a non-integer part."""
        X, rx = divmod(a * self._scale, den)
        Y, ry = divmod(b * self._scale, den)
        if rx or ry:
            return None
        return X, Y

    def contains(self, x) -> bool:
        xy = self.coords(x)
        return xy is not None and self.has_coords(*xy)

    def has_coords(self, X, Y) -> bool:
        """Is the element with integer coordinates (X, Y) (see coords) in
        the group?"""
        rows = self._basis
        if not rows:
            return X == 0 and Y == 0
        if rows[0][0] != 0:
            a, b = rows[0]
            if X % a != 0:
                return False
            k = X // a
            Y -= k * b
            rows = rows[1:]
        elif X != 0:
            return False
        if not rows:
            return Y == 0
        return Y % rows[0][1] == 0

    def is_discrete(self) -> bool:
        return len(self._basis) <= 1

    def discrete_generator(self) -> FieldElement | None:
        """The positive g0 with Gamma = g0*Z, or None for the trivial group."""
        if not self.is_discrete():
            raise ValueError("group is dense; no single generator exists")
        if not self._basis:
            return None
        a, b = self._basis[0]
        g = FieldElement(Q(a, self._scale), Q(b, self._scale),
                         self.field.d if b else None)
        return -g if g.sign() < 0 else g

    def __eq__(self, other):
        if not isinstance(other, ValueGroup):
            return NotImplemented
        return (self.field == other.field
                and self._scale == other._scale
                and self._basis == other._basis)

    def __hash__(self):
        return hash((self.field, self._scale, self._basis))

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"<{gens}>" if gens else "<0>"

    def __repr__(self):
        return f"ValueGroup({self.field}, [{', '.join(map(str, self.generators))}])"
