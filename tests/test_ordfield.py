"""Exact field arithmetic and value-group tests.

Sign correctness is cross-checked against interval arithmetic (an
independent numeric route); arithmetic against plain Fraction arithmetic on
(p, q) pairs; group membership against brute-force integer combinations of
the generators.
"""

import math
import operator
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog import G_S2, G_SIXTH, G_TRIV, G_Z
from oracles import interval_sign
from toricval import (
    FieldDescriptor,
    FieldElement,
    FieldMismatch,
    ValueGroup,
    as_fe,
    fe,
    sqrtd,
)
from toricval._rational import Q
from toricval.linalg import vdot
from toricval.ordfield import pair_sign

S2 = sqrtd(2)


# -- arithmetic ---------------------------------------------------------------


def _random_fe(rng, d):
    p = Fr(rng.randint(-50, 50), rng.randint(1, 12))
    q = Fr(rng.randint(-50, 50), rng.randint(1, 12))
    return fe(p, q, d) if q else fe(p)


def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (_random_fe(rng, 3) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == fe(0)
        if b.sign() != 0:
            assert (a / b) * b == a


def test_inverse_and_power():
    x = fe(1, 1, 2)  # 1 + sqrt(2)
    inv = fe(1) / x
    assert inv == fe(-1, 1, 2)  # 1/(1+sqrt(2)) = sqrt(2) - 1
    assert x * inv == fe(1)
    assert x ** 2 == fe(3, 2, 2)
    assert x ** 0 == fe(1)


def test_irrational_part_requires_d():
    with pytest.raises(ValueError):
        fe(1, 1)


def test_mixed_radicands_rejected():
    with pytest.raises((FieldMismatch, ValueError)):
        fe(0, 1, 2) + fe(0, 1, 3)


def test_d_must_be_square_free():
    with pytest.raises(ValueError):
        FieldDescriptor(4)
    with pytest.raises(ValueError):
        FieldDescriptor(12)
    assert FieldDescriptor(6).d == 6


# -- arithmetic against (p, q) pairs -----------------------------------------
# Operands are ints, Fractions and field elements of Q or Q(sqrt(d)), on
# either side of the operator; the reference is Fraction arithmetic on the
# pair (p, q) standing for p + q*sqrt(d), and interval_sign for order.

def prop(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


SMALL_RATS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
BIG_RATS = st.builds(Fr, st.integers(-10**30, 10**30), st.integers(1, 10**30))
RATS = st.one_of(SMALL_RATS, BIG_RATS)


@st.composite
def operand(draw, d):
    kind = draw(st.sampled_from(["int", "fraction", "rational", "field"]))
    if kind == "int":
        return draw(st.integers(-20, 20))
    p = draw(RATS)
    if kind == "fraction":
        return p
    if kind == "rational":
        return fe(p)
    return fe(p, draw(RATS), d)


@st.composite
def irrational(draw, d):
    """p + q*sqrt(d) with q != 0.  A third of them are (m - n*sqrt(d))*r with
    n up to 10^30 and m = isqrt(d*n^2) or one more: the two parts cancel to
    about 30 digits, and the sign rests on the exact comparison of m^2
    with d*n^2."""
    if draw(st.integers(0, 2)):
        return fe(draw(RATS), draw(RATS.filter(bool)), d)
    n = draw(st.integers(1, 10**30))
    m = math.isqrt(d * n * n) + draw(st.integers(0, 1))
    scale = draw(RATS.filter(bool))
    return fe(m * scale, -n * scale, d)


@st.composite
def related_pair(draw, d):
    """Irrational a and b tied so that the operations land on edge cases:
    conjugates (the product is rational), rational multiples (the quotient
    is rational, a square when a is pure), and divisors of negative norm."""
    kind = draw(st.sampled_from(["conjugate", "multiple", "negative_norm"]))
    a = draw(irrational(d))
    if kind == "conjugate":
        b = fe(a.p, -a.q, d)
    elif kind == "multiple":
        r = draw(RATS.filter(bool))
        a = fe(0, a.q, d) if draw(st.booleans()) else a
        b = fe(a.p * r, a.q * r, d)
    else:
        # |p| < |q| <= |q|*sqrt(d), so p^2 - d*q^2 < 0
        den = draw(st.integers(2, 10**30))
        b = fe(a.q * Fr(draw(st.integers(-den + 1, den - 1)), den), a.q, d)
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def operands(draw):
    """(d, a, b) with d in {2, 3} and at least one of a, b a FieldElement."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.integers(0, 3)) == 0:
        return (d, *draw(related_pair(d)))
    a, b = draw(operand(d)), draw(operand(d))
    if not isinstance(a, FieldElement) and not isinstance(b, FieldElement):
        if draw(st.booleans()):
            a = fe(a)
        else:
            b = fe(b)
    return d, a, b


def pair(x):
    if isinstance(x, FieldElement):
        return x.p, x.q
    return Fr(x), Fr(0)


def pair_mul(a, b, d):
    return a[0] * b[0] + a[1] * b[1] * d, a[0] * b[1] + a[1] * b[0]


def pair_div(a, b, d):
    norm = b[0] * b[0] - b[1] * b[1] * d
    return (a[0] * b[0] - a[1] * b[1] * d) / norm, (a[1] * b[0] - a[0] * b[1]) / norm


def assert_exact(x, ref, d):
    """x is the field element ref = (p, q) of Q(sqrt(d)), in canonical form."""
    assert type(x) is FieldElement
    assert type(x.p) is Q and type(x.q) is Q
    assert (x.d is None) == (x.q == 0)
    assert x.d in (None, d)
    assert (x.p, x.q) == ref
    assert x.sign() == interval_sign(ref[0], ref[1], d)


@prop(300)
@given(operands())
def test_arithmetic_matches_pair_reference(case):
    d, a, b = case
    pa, pb = pair(a), pair(b)
    assert_exact(a + b, (pa[0] + pb[0], pa[1] + pb[1]), d)
    assert_exact(a - b, (pa[0] - pb[0], pa[1] - pb[1]), d)
    assert_exact(a * b, pair_mul(pa, pb, d), d)
    if pb == (0, 0):
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert_exact(a / b, pair_div(pa, pb, d), d)
    for x, px in ((a, pa), (b, pb)):
        assert_exact(as_fe(x), px, d)
        assert_exact(-as_fe(x), (-px[0], -px[1]), d)


@prop(100)
@given(operands(), st.integers(0, 5))
def test_power_matches_repeated_product(case, n):
    d, a, b = case
    x = a if isinstance(a, FieldElement) else b
    ref = (Fr(1), Fr(0))
    for _ in range(n):
        ref = pair_mul(ref, pair(x), d)
    assert_exact(x ** n, ref, d)


ORDER = [operator.lt, operator.le, operator.gt, operator.ge]


@prop(200)
@given(operands())
@example((2, fe(1, 1, 2), fe(1, 1, 2)))
@example((3, fe(Fr(1, 2)), Fr(1, 2)))
def test_order_equality_and_hash(case):
    d, a, b = case
    pa, pb = pair(a), pair(b)
    s = interval_sign(pa[0] - pb[0], pa[1] - pb[1], d)
    for op in ORDER:
        assert op(a, b) == op(s, 0)
    assert (a == b) == (pa == pb)
    assert (a != b) == (pa != pb)
    x, y = fe(pa[0], pa[1], d), fe(pb[0], pb[1], d)
    if x == y:
        assert hash(x) == hash(y)
    for z in (a, b):
        if isinstance(z, FieldElement):
            # built by arithmetic or by the public constructor: same value, same hash
            w = z + 0
            assert w == z and hash(w) == hash(fe(z.p, z.q, d))


@st.composite
def vectors(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.just(fe(0)), st.builds(fe, RATS), st.builds(fe, RATS, RATS, st.just(d)))
    return d, tuple(draw(entry) for _ in range(n)), tuple(draw(entry) for _ in range(n))


@prop(150)
@given(vectors())
@example((2, (), ()))
@example((2, (fe(0), fe(3)), (fe(5), fe(0))))
@example((3, (fe(0), fe(0, 1, 3)), (fe(1), fe(0))))
def test_vdot_matches_pair_reference(case):
    d, a, b = case
    ref = (Fr(0), Fr(0))
    for x, y in zip(a, b):
        prod = pair_mul(pair(x), pair(y), d)
        ref = (ref[0] + prod[0], ref[1] + prod[1])
    assert_exact(vdot(a, b), ref, d)


@prop(50)
@given(RATS, RATS.filter(bool), RATS, RATS.filter(bool))
def test_mixed_radicands_raise_field_mismatch(p2, q2, p3, q3):
    x, y = fe(p2, q2, 2), fe(p3, q3, 3)
    for op in [operator.add, operator.sub, operator.mul, operator.truediv, *ORDER]:
        with pytest.raises(FieldMismatch):
            op(x, y)
        with pytest.raises(FieldMismatch):
            op(y, x)
    assert x != y


@pytest.mark.parametrize("zero", [0, Fr(0), fe(0), fe(0, 0, 2)])
def test_division_by_zero(zero):
    for x in (fe(3), fe(1, 1, 2), fe(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
        if isinstance(zero, FieldElement):
            with pytest.raises(ZeroDivisionError):
                1 / zero


# -- sign ---------------------------------------------------------------------


def test_sign_known_values():
    # p + q*sqrt(2) with hand-checked signs: compare p^2 against 2*q^2
    assert fe(1, 1, 2).sign() == 1
    assert fe(1, -1, 2).sign() == -1       # 1 < sqrt(2)
    assert fe(Fr(3, 2), -1, 2).sign() == 1  # 9/4 > 2
    assert fe(Fr(7, 5), -1, 2).sign() == -1  # 49/25 < 2
    assert fe(0, 0, 2).sign() == 0
    assert fe(-3, 2, 2).sign() == -1       # 9 > 8


def test_sign_pell_near_zero():
    # Pell convergents to sqrt(2): extremely small but nonzero values
    assert fe(Fr(99, 70), -1, 2).sign() == 1        # 9801/9800 > 2*4900/4900
    assert fe(Fr(239, 169), -1, 2).sign() == -1     # 57121 < 2*28561
    assert fe(Fr(665857, 470832), -1, 2).sign() == 1
    assert fe(Fr(-665857, 470832), 1, 2).sign() == -1


def test_sign_interval_oracle_random():
    rng = random.Random(202)
    for _ in range(2000):
        d = rng.choice([2, 3, 5])
        p = Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        q = Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        x = fe(p, q, d)
        assert x.sign() == interval_sign(p, q, d)


@prop(300)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(st.just(d), irrational(d))))
def test_sign_matches_pair_sign_and_intervals(case):
    # the element's sign, the integer routine of the semigroup layer and
    # interval arithmetic agree, also when the two parts nearly cancel
    d, x = case
    s = interval_sign(x.p, x.q, d)
    assert x.sign() == s
    a, b = x.p.numerator, x.p.denominator
    c, e = x.q.numerator, x.q.denominator
    assert pair_sign(a * e, c * b, d) == s


def test_pair_sign_rejects_rational_square_root():
    # 3^2 == 9 * 1^2: only a d that is not square-free gets here
    with pytest.raises(AssertionError):
        pair_sign(3, -1, 9)
    assert pair_sign(3, -1, 8) == 1 and pair_sign(3, -1, 10) == -1


def test_float_of_huge_parts():
    # numerator and denominator beyond the float range, quotient near 1/3
    x = fe(Fr(10**400 + 1, 3 * 10**399))
    assert float(x) == float(Fr(10**400 + 1, 3 * 10**399))
    y = fe(Fr(10**400 + 1, 10**399), Fr(-(10**500 + 1), 10**500), 2)
    assert float(y) == 10 - math.sqrt(2)
    assert float(fe(Fr(1, 3), Fr(1, 7), 3)) == 1 / 3 + 1 / 7 * math.sqrt(3)


def test_total_order():
    vals = [fe(0), fe(1, -1, 2), fe(Fr(1, 2)), fe(0, 1, 2), fe(2)]
    expected = [fe(1, -1, 2), fe(0), fe(Fr(1, 2)), fe(0, 1, 2), fe(2)]
    assert sorted(vals) == expected
    assert fe(1) < fe(0, 1, 2) < fe(Fr(3, 2))


def test_str_formats():
    assert str(fe(Fr(1, 2))) == "1/2"
    assert str(fe(0)) == "0"
    assert str(fe(0, 1, 2)) == "sqrt(2)"
    assert str(fe(0, Fr(1, 3), 2)) == "1/3*sqrt(2)"


# -- value groups -------------------------------------------------------------


def test_group_ranks():
    assert G_TRIV.rank() == 0
    assert G_Z.rank() == 1
    assert G_SIXTH.rank() == 1   # <1/2, 1/3> = (1/6) Z
    assert G_S2.rank() == 2


def test_discreteness():
    assert G_TRIV.is_discrete()
    assert G_Z.is_discrete()
    assert G_SIXTH.is_discrete()
    assert not G_S2.is_discrete()


def test_sixth_collapses_to_one_generator():
    assert G_SIXTH == ValueGroup(FieldDescriptor(None), [Fr(1, 6)])
    g = G_SIXTH.discrete_generator()
    assert g is not None and abs(g) == fe(Fr(1, 6))


def test_membership_brute_force():
    # every |a|,|b| <= 8 combination a/2 + b/3 must be a member
    for a in range(-8, 9):
        for b in range(-8, 9):
            assert G_SIXTH.contains(Fr(a, 2) + Fr(b, 3))
    for a in range(-8, 9):
        for b in range(-8, 9):
            assert G_S2.contains(fe(a, b, 2))


def test_non_membership():
    assert not G_SIXTH.contains(Fr(1, 4))
    assert not G_SIXTH.contains(Fr(1, 5))
    assert not G_Z.contains(Fr(1, 2))
    assert not G_S2.contains(fe(Fr(1, 2)))
    assert not G_S2.contains(fe(0, Fr(1, 2), 2))
    assert not G_TRIV.contains(1)
    assert G_TRIV.contains(0)


def test_group_membership_closed_under_ops():
    rng = random.Random(303)
    for _ in range(100):
        a = fe(rng.randint(-5, 5), rng.randint(-5, 5), 2)
        b = fe(rng.randint(-5, 5), rng.randint(-5, 5), 2)
        assert G_S2.contains(a + b)
        assert G_S2.contains(a - b)
