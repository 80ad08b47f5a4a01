"""Admissible cones: construction, slices, heights, finite type, generators.

Slice vertices and recession rays are checked against the hand-derived
catalog values; minimal heights against direct max(-<u, V>) computations.
"""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import (CONES, G_HALF, G_S2, G_SIXTH, G_Z, SQRT2, build,
                     random_admissible_cone)
from oracles import interval_sign, pairwise_generators
from toricval import (
    BoundTooSmall,
    ConstantNotInGamma,
    ContainsLine,
    DimensionMismatch,
    FieldMismatch,
    HalfSpace,
    HeightUnboundedBelow,
    NotFiniteType,
    SemigroupElement,
    algebra_generators,
    bad_slice_vertices,
    fe,
    is_finite_type,
    make_admissible,
    minimal_height,
    semigroup_membership,
)


# -- catalog geometry -----------------------------------------------------------


@pytest.mark.parametrize("entry", CONES, ids=[c.name for c in CONES])
def test_slice_matches_catalog(entry):
    sl = entry.build().slice()
    assert tuple(sorted(sl.vertices)) == tuple(sorted(entry.slice_vertices))
    got_rays = tuple(sorted(tuple(int(x) for x in r) for r in sl.recession_rays))
    assert got_rays == tuple(sorted(entry.recession_rays))


@pytest.mark.parametrize("entry", CONES, ids=[c.name for c in CONES])
def test_finite_type_matches_catalog(entry):
    assert is_finite_type(entry.build()) == entry.finite_type


def test_bad_vertices_c2():
    bad = bad_slice_vertices(build("C2"))
    assert bad == [(fe(0, Fr(1, 3), 2),)]


def test_finite_type_discrete_shortcut():
    # slice [0, 1/2] over Z: vertex outside the group, still finite type
    halfq = build("HALFQ")
    assert bad_slice_vertices(halfq) == [(fe(Fr(1, 2)),)]
    assert is_finite_type(halfq)


# -- construction errors ----------------------------------------------------------


def test_constant_must_lie_in_group():
    with pytest.raises(ConstantNotInGamma):
        make_admissible(1, [HalfSpace((1,), Fr(1, 2))], G_Z)


def test_unpointed_rejected():
    with pytest.raises(ContainsLine):
        make_admissible(2, [HalfSpace((1, 0), 0)], G_Z)


def test_mixed_field_rejected():
    with pytest.raises((FieldMismatch, ValueError)):
        make_admissible(1, [HalfSpace((1,), fe(0, 1, 3))], G_S2)


def test_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        make_admissible(2, [HalfSpace((1, 0), 0), HalfSpace((1,), 0)], G_Z)


def test_empty_interior_slice():
    # 1 <= omega <= 0 is empty at s=1; only the apex survives
    ac = make_admissible(
        1, [HalfSpace((1,), -1), HalfSpace((-1,), 0)], G_Z
    )
    assert ac.slice() is None


# -- heights ---------------------------------------------------------------------


def test_minimal_height_c1():
    c1 = build("C1")
    assert minimal_height(c1, (1,)).g == fe(0)
    assert minimal_height(c1, (-1,)).g == fe(1)
    assert minimal_height(c1, (-3,)).g == fe(3)


def test_non_integral_exponent_rejected():
    c1 = build("C1")
    with pytest.raises(ValueError):
        SemigroupElement((Fr(3, 2),), 1)
    with pytest.raises(ValueError):
        minimal_height(c1, (1.7,))
    with pytest.raises(ValueError):
        minimal_height(c1, (Fr(-1, 2),))
    assert SemigroupElement((Fr(-2, 2),), 1).u == (-1,)
    assert minimal_height(c1, (Fr(-3, 1),)).g == fe(3)


def test_minimal_height_infeasible_on_recession():
    half = build("HALF")
    res = minimal_height(half, (-1,))
    assert res.is_infeasible()


def test_minimal_height_not_attained_in_group():
    halfq = build("HALFQ")
    res = minimal_height(halfq, (-1,))
    assert res.kind == "not_attained"
    assert res.g == fe(Fr(1, 2))


def test_minimal_height_irrational():
    c1s = build("C1S")
    assert minimal_height(c1s, (-1,)).g == SQRT2
    assert minimal_height(c1s, (1,)).g == fe(0, 0, 2)


def test_minimal_height_vertical_slice():
    point = make_admissible(
        1, [HalfSpace((1,), 0), HalfSpace((-1,), 0)], G_Z
    )
    assert minimal_height(point, (5,)).g == fe(0)
    assert minimal_height(point, (-5,)).g == fe(0)


def test_membership():
    c1 = build("C1")
    assert semigroup_membership(c1, ((1,), 0))
    assert semigroup_membership(c1, ((-1,), 1))
    assert semigroup_membership(c1, ((-1,), 5))
    assert not semigroup_membership(c1, ((-1,), 0))
    assert not semigroup_membership(c1, ((1,), Fr(1, 2)))  # g outside Z
    assert semigroup_membership(c1, SemigroupElement((0,), fe(2)))


# -- generators -------------------------------------------------------------------


def test_generators_c1():
    gens = algebra_generators(build("C1"), 2)
    assert {(e.u, e.g) for e in gens} == {((1,), fe(0)), ((-1,), fe(1))}


def test_generators_c1s():
    gens = algebra_generators(build("C1S"), 2)
    assert {(e.u, e.g) for e in gens} == {((1,), fe(0, 0, 2)), ((-1,), SQRT2)}


def test_generators_halfq_round_up():
    # exponent -1 has no minimal group height (inf 1/2 not in Z); the facet
    # pair (-2, 1) carries the constraint instead
    gens = algebra_generators(build("HALFQ"), 2)
    assert {(e.u, e.g) for e in gens} == {((1,), fe(0)), ((-2,), fe(1))}


def test_generators_bound_too_small():
    with pytest.raises(BoundTooSmall):
        algebra_generators(build("HALFQ"), 1)


def test_generators_drop_decomposables():
    gens = algebra_generators(build("SHIFT"), 2)
    # (0, 1) = (1, -1) + (-1, 2) is decomposable and must not be listed
    assert {(e.u, e.g) for e in gens} == {((1,), fe(-1)), ((-1,), fe(2))}


def test_generators_not_finite_type():
    with pytest.raises(NotFiniteType):
        algebra_generators(build("C2"), 2)


def test_generators_unbounded_height():
    empty = make_admissible(
        1, [HalfSpace((1,), -1), HalfSpace((-1,), 0)], G_Z
    )
    with pytest.raises(HeightUnboundedBelow):
        algebra_generators(empty, 2)


def test_generators_skip_heights_outside_gamma():
    # slice [0, 2/3] over Z: -1 and -2 have heights 2/3 and 4/3, not in Z
    ac = make_admissible(1, [HalfSpace((1,), 0), HalfSpace((-3,), 2)], G_Z)
    assert minimal_height(ac, (-1,)).kind == "not_attained"
    assert algebra_generators(ac, 4) == pairwise_generators(ac, 4)


# -- heights and generators against the field-arithmetic oracles -------------------


def _random_box_cone(rng):
    """A cone over <1, sqrt 2> whose slice is a box with corners in Gamma,
    some sides left open, seen through a random unimodular change of
    coordinates, so its slice vertices stay in Gamma (finite type)."""
    n = rng.randint(1, 2)
    hss = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        lo = fe(rng.randint(-2, 2), rng.randint(-2, 2), 2)
        hi = lo + fe(rng.randint(0, 2), rng.randint(0, 2), 2)
        hss.append((e, -lo))
        if rng.random() < 0.75:
            hss.append(([-x for x in e], hi))
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 if n == 2 else 0):
        a, b = rng.sample(range(n), 2)
        k = rng.choice([-1, 1])
        for row in mat:
            row[b] += k * row[a]
    return make_admissible(
        n, [HalfSpace(tuple(sum(u[i] * mat[i][j] for i in range(n))
                            for j in range(n)), c) for u, c in hss], G_S2)


def _random_cone(seed):
    rng = random.Random(seed)
    if rng.random() < 0.25:
        return _random_box_cone(rng), rng
    while True:
        ac = random_admissible_cone(rng, groups=[G_Z, G_HALF, G_SIXTH, G_S2])
        if ac is not None:
            return ac, rng


def _outcome(f, *args):
    try:
        return f(*args)
    except BoundTooSmall:
        return BoundTooSmall


PROPERTY = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None)


@PROPERTY
@given(st.integers(0, 2**32 - 1).map(_random_cone))
def test_generators_match_pairwise_oracle(case):
    ac, _ = case
    for bound in ((1, 2, 3) if ac.n < 3 else (1, 2)):
        if ac.slice() is None:
            with pytest.raises(HeightUnboundedBelow):
                algebra_generators(ac, bound)
        elif not is_finite_type(ac):
            with pytest.raises(NotFiniteType):
                algebra_generators(ac, bound)
        else:
            assert (_outcome(algebra_generators, ac, bound)
                    == _outcome(pairwise_generators, ac, bound))


@PROPERTY
@given(st.integers(0, 2**32 - 1).map(_random_cone))
def test_minimal_height_is_interval_max(case):
    ac, rng = case
    sl = ac.slice()
    for _ in range(8):
        u = tuple(rng.randint(-3, 3) for _ in range(ac.n))
        if sl is None:
            with pytest.raises(HeightUnboundedBelow):
                minimal_height(ac, u)
            return
        res = minimal_height(ac, u)
        if any(sum(a * b for a, b in zip(u, r)) < 0 for r in sl.recession_rays):
            assert res.is_infeasible()
            continue
        best = None
        for v in sl.vertices:
            h = fe(0)
            for a, x in zip(u, v):
                h = h - fe(a) * x
            if best is None or interval_sign((h - best).p, (h - best).q, 2) > 0:
                best = h
        assert res.g == best
        assert res.kind == ("value" if ac.gamma.contains(best) else "not_attained")


# -- faces -------------------------------------------------------------------------


def test_faces_c1():
    c1 = build("C1")
    faces, _ = c1.faces()
    dims = sorted(f.cone.intrinsic_dim() for f in faces)
    assert dims == [0, 1, 1, 2]
    # only the apex is vertical-tight (s = 0 on the face)
    tight = [f for f in faces if f.vertical_tight]
    assert len(tight) == 1
    assert tight[0].cone.is_trivial()


def test_faces_half_has_horizontal_ray():
    half = build("HALF")
    faces, _ = half.faces()
    horizontal = [
        f for f in faces
        if f.vertical_tight and not f.cone.is_trivial()
    ]
    assert len(horizontal) == 1
    assert horizontal[0].cone.rays == ((fe(1), fe(0)),)


def test_faces_of_quadrant_count():
    quad = build("QUADZ")
    # cone over the quadrant slice is simplicial with 3 rays: 8 faces
    assert len(quad.faces()[0]) == 8


def test_slice_of_faces_are_cells():
    sq = build("SQZ")
    cells = [f.slice() for f in sq.faces()[0]]
    nonempty = [c for c in cells if c is not None]
    # square: 1 cell + 4 edges + 4 vertices = 9 nonempty slices (apex excluded)
    assert len(nonempty) == 9
