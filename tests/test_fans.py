"""Fans, slice complexes, recession fans, and product fans.

Expected cone counts and posets are hand-derived from the defining data;
the product/recession round trip is checked for exact fan equality.  On
random grid fans and random rational fans, posets and maximal cones are
checked against a facet-sign inclusion test.
"""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalog import (
    G_S2,
    G_SIXTH,
    G_Z,
    PI1_RAYS,
    PI2_RAYS,
    PI4_RAYS,
    build,
    fan_f1_cones,
    fan_f2_cones,
    grid_box,
    nonfan_cones,
    random_grid_fan_cones,
    random_rational_fan_rays,
)
from oracles import (
    brute_inclusion,
    common_face_by_dd,
    lift_by_rays,
    product_by_pair_check,
    recession_by_pair_check,
)
from toricval import (
    Cone,
    DimensionMismatch,
    FieldMismatch,
    HalfSpace,
    NotAFan,
    fan_finite_type,
    fan_from_cones,
    fans,
    fe,
    make_admissible,
    polyhedra,
    product_fan,
    rational_fan_from_cones,
    recession_fan,
    slice_complex,
)
from toricval._io import dumps, fan_to_json, int_list, rational_fan_from_json
from toricval.linalg import primitive_int_vector, vec


# -- fan construction -----------------------------------------------------------


def test_f1_counts():
    fan = fan_from_cones(fan_f1_cones())
    assert len(fan.maximal_cones) == 2
    # faces: apex, vertical ray, two horizontal rays, two maximal cones
    assert len(fan.all_cones) == 6


def test_f2_counts():
    fan = fan_from_cones(fan_f2_cones())
    assert len(fan.maximal_cones) == 3
    # apex, 2 vertex rays, 2 horizontal rays, 3 maximal = 8
    assert len(fan.all_cones) == 8


def test_fan_rejects_overlap():
    with pytest.raises(NotAFan) as exc:
        fan_from_cones(nonfan_cones())
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_fan_order_independent():
    cones = fan_f2_cones()
    a = fan_from_cones(cones)
    b = fan_from_cones(list(reversed(cones)))
    assert a == b
    assert a.poset == b.poset


def test_fan_duplicate_input_idempotent():
    cones = fan_f1_cones()
    assert fan_from_cones(cones + cones) == fan_from_cones(cones)


def test_fan_accepts_face_plus_maximal():
    cones = fan_f1_cones()
    vertex = make_admissible(
        1, [HalfSpace((1,), 0), HalfSpace((-1,), 0)], G_Z
    )
    assert fan_from_cones(cones + [vertex]) == fan_from_cones(cones)


def test_fan_mixed_groups_rejected():
    a = make_admissible(1, [HalfSpace((1,), 0)], G_Z)
    b = make_admissible(1, [HalfSpace((-1,), 0)], G_SIXTH)
    with pytest.raises(FieldMismatch):
        fan_from_cones([a, b])


def test_fan_mixed_dimension_rejected():
    a = make_admissible(1, [HalfSpace((1,), 0)], G_Z)
    b = make_admissible(2, [HalfSpace((1, 0), 0), HalfSpace((0, 1), 0)], G_Z)
    with pytest.raises(DimensionMismatch):
        fan_from_cones([a, b])


def test_single_cone_fan_allows_non_finite_type():
    fan = fan_from_cones([build("C2")])
    assert len(fan.maximal_cones) == 1
    assert not fan_finite_type(fan)


# -- slice complexes -------------------------------------------------------------


def test_slice_complex_f1():
    sc = slice_complex(fan_from_cones(fan_f1_cones()))
    assert sc.component_count() == 1
    assert sc.vertices == ((fe(0),),)
    # cells: the two half-lines and the vertex
    assert len(sc.cells) == 3


def test_slice_complex_f2():
    sc = slice_complex(fan_from_cones(fan_f2_cones()))
    assert sc.component_count() == 2
    assert sc.vertices == ((fe(0),), (fe(1),))
    assert len(sc.cells) == 5


def test_slice_complex_poset_mirrors_inclusion():
    sc = slice_complex(fan_from_cones(fan_f2_cones()))
    cells = sc.cells
    for i, j in sc.poset:
        small, large = cells[i], cells[j]
        assert set(small.vertices) <= set(large.vertices)


# -- rational fans ----------------------------------------------------------------


def test_rational_fan_complete_line():
    pi = rational_fan_from_cones(1, PI1_RAYS)
    assert len(pi.cones) == 3  # trivial cone and two rays


def test_rational_fan_four_quadrants():
    pi = rational_fan_from_cones(2, PI4_RAYS)
    # 4 quadrants + 4 rays + origin
    assert len(pi.cones) == 9


def test_rational_fan_rejects_overlap():
    with pytest.raises(NotAFan):
        rational_fan_from_cones(2, [[(1, 0), (0, 1)], [(1, 1), (1, -1)]])


def test_rational_fan_order_independent():
    a = rational_fan_from_cones(2, PI4_RAYS)
    b = rational_fan_from_cones(2, list(reversed(PI4_RAYS)))
    assert a == b


# -- recession and product fans -----------------------------------------------------


def test_recession_fan_f1_is_complete_line():
    fan = fan_from_cones(fan_f1_cones())
    assert recession_fan(fan) == rational_fan_from_cones(1, PI1_RAYS)


def test_recession_fan_f2_is_complete_line():
    fan = fan_from_cones(fan_f2_cones())
    assert recession_fan(fan) == rational_fan_from_cones(1, PI1_RAYS)


@pytest.mark.parametrize("n,rays,gamma", [
    (1, PI1_RAYS, G_Z),
    (2, PI2_RAYS, G_Z),
    (2, PI4_RAYS, G_S2),
    (2, PI4_RAYS, G_SIXTH),
])
def test_product_recession_round_trip(n, rays, gamma):
    pi = rational_fan_from_cones(n, rays)
    lifted = product_fan(pi, gamma)
    assert recession_fan(lifted) == pi


def test_product_fan_of_line_equals_f1():
    pi = rational_fan_from_cones(1, PI1_RAYS)
    assert product_fan(pi, G_Z) == fan_from_cones(fan_f1_cones())


def test_product_fan_slice_single_vertex():
    for n, rays in ((1, PI1_RAYS), (2, PI2_RAYS), (2, PI4_RAYS)):
        pi = rational_fan_from_cones(n, rays)
        sc = slice_complex(product_fan(pi, G_Z))
        assert sc.component_count() == 1
        assert sc.vertices == ((fe(0),) * n,)


# -- finite type -----------------------------------------------------------------


def test_fan_finite_type_discrete_always():
    fan = fan_from_cones(fan_f2_cones())
    assert fan_finite_type(fan)


def test_fan_finite_type_dense_group():
    good = fan_from_cones([build("C1S")])
    assert fan_finite_type(good)
    bad = fan_from_cones([build("C2")])
    assert not fan_finite_type(bad)


# -- posets against the facet-sign inclusion oracle -------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_fan_posets_match_brute_inclusion(seed):
    inputs = random_grid_fan_cones(random.Random(seed))
    fan = fan_from_cones(inputs)
    assert list(fan.poset) == brute_inclusion([c.cone for c in fan.all_cones])

    uniq = list({c.key(): c.cone for c in inputs}.values())
    covered = {i for i, _ in brute_inclusion(uniq)}
    expected = sorted((uniq[i] for i in range(len(uniq)) if i not in covered),
                      key=lambda c: (c.intrinsic_dim(), c.key()))
    assert [c.cone for c in fan.maximal_cones] == expected

    sc = slice_complex(fan)
    by_cell = {ac.slice().key(): ac.cone
               for ac in fan.all_cones if ac.slice() is not None}
    assert list(sc.poset) == brute_inclusion(
        [by_cell[cell.key()] for cell in sc.cells])


@pytest.mark.parametrize("seed", range(12))
def test_rational_fan_poset_matches_brute_inclusion(seed):
    pi = rational_fan_from_cones(2, random_rational_fan_rays(random.Random(seed)))
    assert list(pi.poset) == brute_inclusion(list(pi.cones))


def test_input_face_of_another_input_is_not_maximal():
    cones = fan_f2_cones()
    faces = cones[1].faces()[0]
    fan = fan_from_cones(faces[1:2] + cones + faces[-2:-1])
    assert fan == fan_from_cones(cones)
    assert [c.key() for c in fan.maximal_cones] == [
        c.key() for c in fan_from_cones(cones).maximal_cones]
    assert list(fan.poset) == brute_inclusion([c.cone for c in fan.all_cones])


# -- double description runs --------------------------------------------------------


def _count_dd_runs(monkeypatch):
    calls = []
    real = polyhedra.dd_pair
    monkeypatch.setattr(polyhedra, "dd_pair",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_fan_separating_constraints_settle_every_grid_pair(monkeypatch):
    inputs = random_grid_fan_cones(random.Random(5))
    inputs.append(inputs[0])
    distinct = sum(1 for a, b in itertools.combinations(inputs, 2)
                   if a.key() != b.key())
    calls = _count_dd_runs(monkeypatch)
    fan = fan_from_cones(inputs)
    # separating facets and equations settle every pair, the inserted
    # lower-dimensional faces included, so no pair costs a run
    assert (distinct, len(calls)) == (77, 0)
    slice_complex(fan)
    assert calls == []


def test_fallback_accepts_pair_no_constraint_settles(monkeypatch):
    # two triangular cones on either side of s = 0 whose cross-sections form
    # a hexagram: they meet only in 0, yet no facet of either separates them
    a = Cone.from_rays(3, [vec(r) for r in [(0, 2, 1), (-2, -1, 1), (2, -1, 1)]])
    b = Cone.from_rays(3, [vec(r) for r in [(0, 2, -1), (-2, -1, -1), (2, -1, -1)]])
    assert not fans._settled(a, b)
    runs = []
    real = Cone.intersect
    monkeypatch.setattr(Cone, "intersect",
                        lambda x, y: runs.append(1) or real(x, y))
    fan = rational_fan_from_cones(3, [a, b])
    assert len(runs) == 1
    # the apex, six rays, six two-dimensional faces and the two cones
    assert len(fan.cones) == 15


# -- the pair check against one run per pair ------------------------------------------


PROPERTY = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None)


def _outcome(construct, inputs):
    """(None, the fan and its poset), or (the input pair, the message) of
    the NotAFan raised."""
    try:
        fan = construct(inputs)
    except NotAFan as exc:
        return (exc.i, exc.j), str(exc)
    return None, (fan, fan.poset)


def _agrees_with_dd_route(construct, inputs, kernel):
    """Check the separating-facet rule on inputs against a run per pair;
    return the kinds of pair seen: settled, or accepted or rejected by the
    fallback."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fans, "_settled", lambda a, b: False)
        by_dd = _outcome(construct, inputs)
    assert _outcome(construct, inputs) == by_dd

    kinds, first_bad = set(), None
    for (i, a), (j, b) in itertools.combinations(enumerate(map(kernel, inputs)), 2):
        if a.key() == b.key():
            continue
        common = common_face_by_dd(a, b)
        if fans._settled(a, b):
            assert common
            kinds.add("settled")
        else:
            kinds.add("accepted" if common else "rejected")
        if not common and first_bad is None:
            first_bad = (i, j)
    assert by_dd[0] == first_bad
    return kinds


@st.composite
def pointed_cones_r3(draw):
    """Two or three pointed cones in R^3 on rays drawn from one small pool of
    integer directions, so that they often share faces."""
    direction = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
    pool = draw(st.lists(direction, min_size=2, max_size=6, unique=True))
    cones = []
    for _ in range(draw(st.integers(2, 3))):
        rays = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                             unique=True))
        cone = Cone.from_rays(3, [vec(r) for r in rays])
        assume(not cone.lineality)
        cones.append(cone)
    return cones


@st.composite
def grid_boxes(draw):
    """Two or three admissible cones over integer boxes in [0, 4]^2, possibly
    flat: disjoint, sharing an edge or a corner, or overlapping."""
    boxes = []
    for _ in range(draw(st.integers(2, 3))):
        lo = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        hi = tuple(x + draw(st.integers(0, 2)) for x in lo)
        boxes.append(grid_box(lo, hi))
    return boxes


@pytest.mark.parametrize("inputs,construct,kernel", [
    (pointed_cones_r3(), lambda cs: rational_fan_from_cones(3, cs), lambda c: c),
    (grid_boxes(), fan_from_cones, lambda ac: ac.cone),
], ids=["pointed-cones", "grid-boxes"])
def test_pair_rule_matches_dd_route(inputs, construct, kernel):
    kinds = set()

    @PROPERTY
    @given(inputs)
    def check(cones):
        kinds.update(_agrees_with_dd_route(construct, cones, kernel))

    check()
    assert kinds == {"settled", "accepted", "rejected"}


# -- product lifts against the cone over the lifted rays ----------------------------


def _assert_lifts_match_rays(rf, gamma):
    up = vec((0,) * rf.n + (1,))
    lifts = [ac.cone.key() for ac in product_fan(rf, gamma).all_cones
             if up in ac.cone.rays]
    assert len(lifts) == len(rf.cones)
    assert set(lifts) == {lift_by_rays(c).key() for c in rf.cones}


@pytest.mark.parametrize("name", ["prodfan1.json", "prodfan2.json"])
def test_product_fan_lifts_match_rays_on_fixtures(name):
    path = Path(__file__).parent / "fixtures" / name
    _assert_lifts_match_rays(*rational_fan_from_json(json.loads(path.read_text())))


@pytest.mark.parametrize("seed", range(8))
def test_product_fan_lifts_match_rays_on_random_fans(seed):
    rng = random.Random(seed)
    rf = rational_fan_from_cones(2, random_rational_fan_rays(rng))
    _assert_lifts_match_rays(rf, rng.choice([G_Z, G_SIXTH, G_S2]))


# -- product and recession fans against the routes that check every pair ----------


def _orthant_rays(n):
    return [[tuple(s if i == j else 0 for j in range(n)) for i, s in enumerate(signs)]
            for signs in itertools.product((1, -1), repeat=n)]


def _unbounded_grid_fan(rng):
    """Admissible cones over some cells of a random grid on R^2 whose outer
    cells run to infinity, so that the recession cones are quadrants, half
    lines and the apex."""
    cuts = [sorted(rng.sample(range(-3, 4), rng.randint(1, 3))) for _ in range(2)]
    cones = []
    for cell in itertools.product(*[zip([None] + c, c + [None]) for c in cuts]):
        hss = []
        for axis, (lo, hi) in enumerate(cell):
            e = tuple(int(k == axis) for k in range(2))
            if lo is not None:
                hss.append(HalfSpace(e, -lo))
            if hi is not None:
                hss.append(HalfSpace(tuple(-x for x in e), hi))
        cones.append(make_admissible(2, hss, G_Z))
    rng.shuffle(cones)
    return cones[:rng.randint(1, len(cones))]


def _same_fan(new, old, to_json):
    assert new == old
    assert new.poset == old.poset
    assert dumps(to_json(new)) == dumps(to_json(old))


def _rational_fan_json(rf):
    """The recession command's report on rf."""
    return {
        "n": rf.n,
        "cones": [[int_list(primitive_int_vector(r)) for r in c.rays]
                  for c in rf.cones],
        "poset": [list(e) for e in rf.poset],
    }


@st.composite
def rational_fans(draw):
    """A random pointed fan in R^2 (some of its maximal cones rays), or the
    orthant fan of R^1, R^2 or R^3."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return rational_fan_from_cones(
            2, random_rational_fan_rays(random.Random(seed)))
    n = draw(st.integers(1, 3))
    return rational_fan_from_cones(n, _orthant_rays(n))


FAN_PROPERTY = settings(PROPERTY, max_examples=60)


@FAN_PROPERTY
@given(rational_fans(), st.sampled_from([G_Z, G_SIXTH, G_S2]))
def test_product_and_recession_match_pair_checked_routes(rf, gamma):
    lifted = product_fan(rf, gamma)
    _same_fan(lifted, product_by_pair_check(rf, gamma), fan_to_json)
    _same_fan(recession_fan(lifted), recession_by_pair_check(lifted),
              _rational_fan_json)


@FAN_PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_recession_of_grid_fans_matches_pair_checked_route(seed):
    rng = random.Random(seed)
    for fan in (fan_from_cones(_unbounded_grid_fan(rng)),
                fan_from_cones(random_grid_fan_cones(rng))):
        _same_fan(recession_fan(fan), recession_by_pair_check(fan),
                  _rational_fan_json)
