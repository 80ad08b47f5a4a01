"""Exact field arithmetic and value-group tests.

Sign correctness is cross-checked against interval arithmetic (an
independent numeric route); group membership against brute-force integer
combinations of the generators.
"""

import random
from fractions import Fraction as Fr

import pytest

from catalog import G_S2, G_SIXTH, G_TRIV, G_Z
from oracles import interval_sign
from toricval import (
    FieldDescriptor,
    FieldMismatch,
    ValueGroup,
    fe,
    sqrtd,
)

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
