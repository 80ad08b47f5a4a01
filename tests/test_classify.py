"""Reconstruction, rational representation, saturation, and the round trip.

Rationalization is verified by exact recombination of the returned
multipliers; saturation witnesses by an exhaustive independent search.
"""

import itertools
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import (CONES, G_HALF, G_S2, G_SIXTH, G_Z, SQRT2, build,
                     catalog_gensets, random_group_element, random_in_cone_targets)
from oracles import brute_member, dfs_saturation_check, gamma_grid
from toricval import (
    BoundTooSmall,
    GeneratorSet,
    HeightUnboundedBelow,
    NotInCone,
    RankDeficient,
    RationalRepresentation,
    SemigroupElement,
    Witness,
    _io,
    algebra_generators,
    cone_from_generators,
    fe,
    polyhedra,
    rationalize,
    round_trip,
    saturation_check,
)
from toricval.classify import _grid_start, _MembershipSearch
from toricval.linalg import vec

FIXTURES = Path(__file__).parent / "fixtures"


def _gs(n, gamma, pairs):
    return GeneratorSet(n, gamma, [SemigroupElement(u, g) for u, g in pairs])


C1_GENS = _gs(1, G_Z, [((1,), 0), ((-1,), 1)])


# -- cone_from_generators ---------------------------------------------------------


def test_reconstruction_matches_c1():
    assert cone_from_generators(C1_GENS) == build("C1")


def test_rank_deficient_rejected():
    gens = _gs(2, G_Z, [((1, 0), 0), ((2, 0), 1)])
    with pytest.raises(RankDeficient):
        cone_from_generators(gens)


def test_redundant_generator_keeps_cone():
    gens = _gs(1, G_Z, [((1,), 0), ((-1,), 1), ((-2,), 3)])
    # -2w + 3 >= 0 is implied by the first two on the slice [0, 1]
    assert cone_from_generators(gens) == build("C1")


# -- rationalize ------------------------------------------------------------------


def test_rationalize_minimizes_group_part():
    # target (0, 1): multipliers (0, 0) reach u = 0 at group cost 0, so the
    # whole height goes into kappa
    rep = rationalize(SemigroupElement((0,), 1), C1_GENS)
    assert rep.lambda_hat == (Fr(0), Fr(0))
    assert rep.kappa == fe(1)
    assert rep.check(C1_GENS)


def test_rationalize_example_certificate_also_valid():
    # the non-minimizing certificate (1, 1) with kappa 0 still reconstructs
    alt = RationalRepresentation(
        SemigroupElement((0,), 1), (Fr(1), Fr(1)), fe(0)
    )
    assert alt.check(C1_GENS)


def test_rationalize_positive_exponent():
    # generators are kept in canonical sorted order: (-1, 1) then (1, 0)
    rep = rationalize(SemigroupElement((3,), 2), C1_GENS)
    assert rep.lambda_hat == (Fr(0), Fr(3))
    assert rep.kappa == fe(2)
    assert rep.check(C1_GENS)


def test_rationalize_needs_both_generators():
    rep = rationalize(SemigroupElement((-2,), 5), C1_GENS)
    assert rep.lambda_hat == (Fr(2), Fr(0))
    assert rep.kappa == fe(3)
    assert rep.check(C1_GENS)


def test_rationalize_not_in_cone():
    with pytest.raises(NotInCone):
        rationalize(SemigroupElement((-1,), 0), C1_GENS)
    with pytest.raises(NotInCone):
        rationalize(SemigroupElement((0,), -1), C1_GENS)


def test_rationalize_unbounded_height():
    gens = _gs(1, G_Z, [((1,), -1), ((-1,), 0)])
    with pytest.raises(HeightUnboundedBelow):
        rationalize(SemigroupElement((0,), 0), gens)


def test_rationalize_irrational_kappa():
    from catalog import G_S2

    gens = _gs(1, G_S2, [((1,), fe(0, 0, 2)), ((-1,), SQRT2)])
    rep = rationalize(SemigroupElement((0,), SQRT2), gens)
    assert rep.kappa == SQRT2
    assert rep.check(gens)


def test_rationalize_decides_membership_like_the_hull():
    # the simplex is the only decider: NotInCone exactly off the hull, on
    # random targets in and out of it, and no double description run
    rng = random.Random(405)
    gensets = catalog_gensets()
    calls = []
    real = polyhedra.dd_pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "dd_pair",
                   lambda *args: calls.append(args) or real(*args))
        for name, hulled in gensets.items():
            hull = hulled.hull()  # built by the generators' certificate
            gens = GeneratorSet(hulled.n, hulled.gamma, hulled)  # none cached
            for _ in range(40):
                u = tuple(rng.randint(-3, 3) for _ in range(gens.n))
                target = SemigroupElement(u, random_group_element(rng, gens.gamma))
                inside = hull.contains_point(target.pair_vector())
                try:
                    assert rationalize(target, gens).check(gens) and inside, name
                except NotInCone:
                    assert not inside, name
    assert calls == []


def test_rationalize_random_in_cone():
    rng = random.Random(404)
    for name, gens in catalog_gensets().items():
        for target in random_in_cone_targets(rng, gens, 60):
            rep = rationalize(target, gens)
            for l in rep.lambda_hat:
                # multipliers are plain rationals, never field elements
                assert l.denominator >= 1 and l >= 0, name
            assert rep.kappa.sign() >= 0, name
            assert rep.check(gens), name


# -- saturation --------------------------------------------------------------------


def test_catalog_semigroups_saturated():
    for name, gens in catalog_gensets().items():
        assert saturation_check(gens, (3, 3)) is None, name


def test_witness_for_numerical_semigroup():
    # G = {(2, 0), (3, 0)}: 2*(1, 0) = (2, 0) is representable, (1, 0) is not
    gens = _gs(1, G_Z, [((2,), 0), ((3,), 0)])
    w = saturation_check(gens, (3, 3))
    assert w == Witness((1,), fe(0), 2)


def test_witness_cross_checked_exhaustively():
    gens = _gs(1, G_Z, [((2,), 0), ((3,), 0)])
    w = saturation_check(gens, (3, 3))
    grid = [fe(v) for v in range(-3, 4)]
    ku = tuple(w.k * x for x in w.u)
    kg = fe(w.k) * w.g
    assert brute_member(gens, grid, ku, kg, cap=12)
    assert not brute_member(gens, grid, w.u, w.g, cap=12)


def test_witness_scan_order_is_lexicographic():
    # (-3, 0) .. scan order: first non-member u with representable double
    gens = _gs(1, G_SIXTH, [((2,), Fr(1, 2)), ((3,), 0)])
    w = saturation_check(gens, (2, 2))
    assert w is not None
    # the reported witness must itself fail membership while k*w passes
    grid_vals = [fe(Fr(a, 6)) for a in range(-18, 19)]
    ku = tuple(w.k * x for x in w.u)
    assert brute_member(gens, grid_vals, ku, fe(w.k) * w.g, cap=10)
    assert not brute_member(gens, grid_vals, w.u, w.g, cap=10)


def _random_saturation_case(seed):
    """A random generator set (|G| <= 4, n = 1..3) with saturation bounds,
    with or without a grid bound."""
    rng = random.Random(seed)
    gamma = rng.choice([G_Z, G_HALF, G_SIXTH, G_S2])
    n = rng.randint(1, 3)
    pairs = {}
    for _ in range(rng.randint(1, 4)):
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        pairs[u] = random_group_element(rng, gamma)
    bounds = rng.choice([(1, 2), (1, 3), (2, 2)])
    if rng.random() < 0.5:
        bounds += (rng.randint(1, 2),)
    return _gs(n, gamma, pairs.items()), bounds


# 60 draws: the depth-first oracle takes up to seconds on one draw
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1).map(_random_saturation_case))
def test_saturation_matches_dfs_oracle(case):
    gens, bounds = case
    queries = []
    expect = dfs_saturation_check(gens, bounds, queries)
    w = saturation_check(gens, bounds)
    assert (w if w is None else (w.u, w.g, w.k)) == expect
    b_u, k_max = bounds[:2]
    grid = gamma_grid(gens.gamma, bounds[2] if len(bounds) == 3 else 3)
    hcap = 2 * (b_u + k_max)
    search = _MembershipSearch(gens, grid, hcap, k_max * b_u)
    for u, g, ok in queries:
        assert search.member(u, g) == ok, (u, g)
    # brute_member => member, checked where member says no
    for u, g, ok in set(queries):
        if not ok:
            assert not brute_member(gens, grid, u, g, hcap), (u, g)


def _random_threshold_case(seed):
    """A random generator set (|G| <= 5, n = 1..3) over the four groups, a
    box bound and a grid; when deficient, the exponents lie in a span of
    rank n - 1, so the hull has equations."""
    rng = random.Random(seed)
    gamma = rng.choice([G_Z, G_HALF, G_SIXTH, G_S2])
    n = rng.randint(1, 3)
    deficient = n > 1 and rng.random() < 0.4
    basis = [tuple(rng.randint(-2, 2) for _ in range(n))
             for _ in range(n - 1 if deficient else n)]
    pairs = {}
    for _ in range(rng.randint(1, 5)):
        cs = [rng.randint(-1, 1) for _ in basis]
        u = tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))
        pairs[u] = random_group_element(rng, gamma)
    grid = gamma_grid(gamma, rng.randint(1, 2))
    return _gs(n, gamma, pairs.items()), deficient, rng.randint(1, 2), grid


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1).map(_random_threshold_case))
def test_grid_start_matches_hull(case):
    gens, deficient, b_u, grid = case
    hull = gens.hull()
    if deficient:
        assert hull.equations
    start = _grid_start(hull, grid)
    for u in itertools.product(range(-b_u, b_u + 1), repeat=gens.n):
        i0 = start(u)
        for i, g in enumerate(grid):
            assert (i >= i0) == hull.contains_point(vec(u) + (g,)), (u, g)


def test_saturation_former_hangs():
    # the depth-first search took 47.8 s and 18.9 s on these (2-core Xeon)
    s2 = SQRT2
    gens = _gs(2, G_S2, [((-1, 0), 1), ((1, 1), -s2), ((2, -1), 2 + s2),
                         ((2, 0), 1 - s2), ((2, 2), s2)])
    assert saturation_check(gens, (2, 2)) == Witness((1, 0), fe(0), 2)
    gens = _gs(3, G_S2, [((-1, 0, 2), s2), ((0, 1, 2), 2), ((0, 2, 1), -s2),
                         ((1, -1, -1), -1 + s2), ((2, -1, 2), -1 + 2 * s2)])
    assert saturation_check(gens, (1, 2)) is None


def test_member_outside_box_refused():
    search = _MembershipSearch(C1_GENS, [fe(1)], 4, 2)
    assert search.member((2,), fe(0))
    with pytest.raises(AssertionError):
        search.member((3,), fe(0))


def test_saturation_bounds_validated():
    with pytest.raises(ValueError):
        saturation_check(C1_GENS, (0, 3))
    with pytest.raises(ValueError):
        saturation_check(C1_GENS, (3, 1))


# -- round trip -------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry", [c for c in CONES if c.rt_bound is not None],
    ids=[c.name for c in CONES if c.rt_bound is not None],
)
def test_round_trip_catalog(entry):
    ac = entry.build()
    report = round_trip(ac, entry.rt_bound)
    assert report.ok, report.detail
    assert report.reconstructed == ac


@pytest.mark.parametrize("name", ["C1", "C1S", "THIRD"])
def test_round_trip_stable_under_larger_bound(name):
    entry = next(c for c in CONES if c.name == name)
    ac = entry.build()
    assert round_trip(ac, entry.rt_bound).ok
    assert round_trip(ac, entry.rt_bound + 1).ok


def test_round_trip_propagates_bound_too_small():
    with pytest.raises(BoundTooSmall):
        round_trip(build("HALFQ"), 1)


def test_round_trip_literal_ray_sets():
    report = round_trip(build("C1S"), 2)
    rays = {tuple(str(x) for x in r) for r in report.reconstructed.cone.rays}
    assert rays == {("0", "1"), ("1", "1/2*sqrt(2)")}


# -- double-description runs --------------------------------------------------------


def test_dd_runs_per_semigroup_call(monkeypatch):
    # the generator certificate reads the hull's facets, no second run; the
    # saturation scan reads the hull's facets, no run per grid value
    entries = [c for c in CONES if c.rt_bound is not None]
    cones = [c.build() for c in entries]
    witness = _io.genset_from_json(_io.load_path(FIXTURES / "gens-witness.json"))
    calls = []
    real = polyhedra.dd_pair
    monkeypatch.setattr(polyhedra, "dd_pair",
                        lambda *args: calls.append(args) or real(*args))
    for entry, ac in zip(entries, cones):
        del calls[:]
        algebra_generators(ac, entry.rt_bound)
        assert len(calls) == 1, entry.name
        del calls[:]
        assert round_trip(ac, entry.rt_bound).ok
        assert len(calls) == 2, entry.name
    del calls[:]
    assert saturation_check(witness, (3, 3)) == Witness((1,), fe(0), 2)
    assert len(calls) == 1
