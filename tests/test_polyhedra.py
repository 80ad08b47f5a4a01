"""Double-description cone tests.

Extreme rays are cross-checked against an exhaustive subset-enumeration
oracle; face counts against closed-form values for simplicial cones, cones
over cubes and cones over polygons; Cone.dual, a swap of the two sides, is
checked against a fresh run on the V-side and biduality against a second one.
Property tests over random cones (Q and Q(sqrt 2), with and without
lineality, of every intrinsic dimension) check that one double description
run per cone gives the same canonical data as running the converter on both
sides, that duals and dimensions of every face match fresh runs and ranks,
and that the face lattice matches facet-subset enumeration.  Cones from a
run and faces compute their H-side on first read, once: it must equal an
eager _other_side call (and, for a face, a fresh run), the containment
relation must equal the all-pairs reference, and face_lattice itself must
run no linear algebra per face.  Every sign a built cone reads off its
integer rows must be vdot's, and separating_cut, rays_on and
contains_point must agree with the vdot routes kept in tests/oracles.py.
"""

import itertools
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import CONES
from oracles import (
    all_pairs_inclusions,
    assert_biduality,
    brute_face_sets,
    brute_rays,
    canon_rays,
    face_by_lattice,
    fresh_dual,
    matrix_rank,
    rays_on_by_vdot,
    separating_cut_by_vdot,
    sides,
)
from toricval import Cone, HalfSpace, fans, fe, polyhedra, sqrtd
from toricval.linalg import vdot, vec, vneg
from toricval.polyhedra import vertical_normal


def _cone_from_normals(dim, normals):
    return Cone.from_constraints(dim, [tuple(map(fe, n)) for n in normals])


# -- ray enumeration vs brute force -------------------------------------------


def test_rays_match_brute_force_fixed():
    cases = [
        (2, [(1, 0), (0, 1)]),
        (2, [(1, 0), (-1, 2)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 3)]),
        (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 1),
             (0, 0, 0, 1)]),
    ]
    for dim, normals in cases:
        cone = _cone_from_normals(dim, normals)
        assert canon_rays(cone.rays) == brute_rays(normals, dim)


def test_rays_match_brute_force_random():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        dim = rng.choice([2, 3, 4])
        m = rng.randint(dim, dim + 3)
        normals = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(m)]
        if any(not any(n) for n in normals):
            continue
        expected = brute_rays(normals, dim)
        if expected is None:  # cone with a line: oracle declines
            continue
        cone = _cone_from_normals(dim, normals)
        if cone.lineality:
            # oracle said pointed; library must agree
            raise AssertionError(f"lineality disagreement for {normals}")
        assert canon_rays(cone.rays) == expected
        checked += 1


def test_rays_match_brute_force_irrational():
    s = sqrtd(2)
    # wedge between y >= 0 and sqrt(2)*y >= x
    normals = [(fe(0), fe(1)), (fe(-1), s)]
    cone = Cone.from_constraints(2, [list(n) for n in normals])
    assert canon_rays(cone.rays) == brute_rays(normals, 2)


# -- V <-> H round trips --------------------------------------------------------


def test_vrep_hrep_round_trip_random():
    rng = random.Random(23)
    for _ in range(60):
        dim = rng.choice([2, 3])
        m = rng.randint(1, dim + 2)
        rays = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(m)]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        cone = Cone.from_rays(dim, rays)
        back = Cone.from_constraints(dim, cone.all_constraints())
        assert cone == back


def test_biduality_catalog():
    for c in CONES:
        assert_biduality(c.build().cone, c.name)


def test_biduality_random_pointed():
    rng = random.Random(37)
    done = 0
    while done < 60:
        dim = rng.choice([2, 3])
        m = rng.randint(dim, dim + 2)
        normals = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(m)]
        if any(not any(n) for n in normals):
            continue
        cone = _cone_from_normals(dim, normals)
        if cone.lineality or not cone.rays:
            continue
        assert_biduality(cone)
        done += 1


# -- membership ----------------------------------------------------------------


def test_contains_nonnegative_combinations():
    rng = random.Random(5)
    rays = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    cone = Cone.from_rays(3, rays)
    for _ in range(50):
        coeffs = [Fr(rng.randint(0, 9), rng.randint(1, 4)) for _ in rays]
        pt = tuple(sum(c * r[i] for c, r in zip(coeffs, rays))
                   for i in range(3))
        assert cone.contains_point(pt)
    assert not cone.contains_point((-1, 0, 0))
    assert not cone.contains_point((0, 1, 0))    # outside the wedge
    assert not cone.contains_point((1, 0, 1))    # y=0 forces z=0


# -- faces ----------------------------------------------------------------------


def test_face_count_simplicial():
    # simplicial cone: faces correspond to ray subsets, 2^k of them
    for k in (1, 2, 3):
        normals = [tuple(1 if i == j else 0 for i in range(k))
                   for j in range(k)]
        cone = _cone_from_normals(k, normals)
        assert len(cone.face_lattice()[0]) == 2 ** k


def test_face_count_cone_over_cube():
    # cone over the k-cube has 3^k + 1 faces (cube face poset plus the apex)
    for k in (1, 2):
        dim = k + 1
        normals = []
        for j in range(k):
            e = [0] * dim
            e[j] = 1
            normals.append(tuple(e))
            m = [0] * dim
            m[j] = -1
            m[-1] = 1
            normals.append(tuple(m))
        normals.append(tuple([0] * k + [1]))
        cone = _cone_from_normals(dim, normals)
        assert len(cone.face_lattice()[0]) == 3 ** k + 1


def test_face_count_cone_over_polygon():
    # cone over a convex k-gon: apex, k rays, k two-faces and the cone
    for k in range(3, 17):
        cone = Cone.from_rays(3, [(i, i * i, 1) for i in range(k)])
        assert len(cone.face_lattice()[0]) == 2 * k + 2


def test_halfspace_rejects_non_integral_exponent():
    with pytest.raises(ValueError):
        HalfSpace((Fr(1, 2), 1), 0)
    with pytest.raises(ValueError):
        HalfSpace((1.7, 0), 1)
    h = HalfSpace((Fr(4, 2), 1.0), 0)
    assert h.u == (2, 1) and all(type(x) is int for x in h.u)


def test_one_dd_run_per_cone_and_none_per_face(monkeypatch):
    calls = []
    real = polyhedra.dd_pair
    monkeypatch.setattr(polyhedra, "dd_pair",
                        lambda *args: calls.append(args) or real(*args))
    cone = Cone.from_rays(3, [(i, i * i, 1) for i in range(6)])
    assert len(calls) == 1
    Cone.from_constraints(3, cone.facets)
    assert len(calls) == 2
    cone.face_lattice()
    assert len(calls) == 2


def test_dual_makes_no_dd_run(monkeypatch):
    calls = []
    real = polyhedra.dd_pair
    monkeypatch.setattr(polyhedra, "dd_pair",
                        lambda *args: calls.append(args) or real(*args))
    cone = Cone.from_rays(3, [(i, i * i, 1) for i in range(6)], [])
    line = _cone_from_normals(3, [(1, 0, 0), (0, 1, 0)])
    assert len(calls) == 2
    for c in (cone, line, cone.face_lattice()[0][1]):
        d = c.dual()
        assert sides(d) == (c.facets, c.equations, c.rays, c.lineality)
        assert sides(d.dual()) == sides(c)
    assert len(calls) == 2


def test_is_face_of():
    quad = _cone_from_normals(2, [(1, 0), (0, 1)])
    xaxis = Cone.from_rays(2, [(1, 0)])
    diag = Cone.from_rays(2, [(1, 1)])
    origin = Cone.from_rays(2, [])
    assert xaxis.is_face_of(quad)
    assert origin.is_face_of(quad)
    assert quad.is_face_of(quad)
    assert not diag.is_face_of(quad)     # interior ray, not a face
    assert not quad.is_face_of(xaxis)


def test_intersect():
    quad = _cone_from_normals(2, [(1, 0), (0, 1)])
    upper = _cone_from_normals(2, [(0, 1), (-1, 1)])  # between y-axis and diag
    inter = quad.intersect(upper)
    assert canon_rays(inter.rays) == canon_rays([(0, 1), (1, 1)])


def test_halfspace_validation():
    with pytest.raises(ValueError):
        HalfSpace((0, 0), 0)
    h = HalfSpace((1, 0), Fr(1, 2))
    assert h.u == (1, 0)


def test_lineality_detected():
    # single halfspace in R^2: boundary line is lineality
    cone = _cone_from_normals(2, [(1, 0)])
    assert cone.lineality
    full = Cone.from_constraints(2, [])
    assert len(full.lineality) == 2


# -- properties over random cones ----------------------------------------------


@st.composite
def random_inputs(draw, dim=None):
    """(dim, vecs, lin): a few vectors over Q or Q(sqrt 2) and at most one
    line, in R^dim or in a random dimension from 2 to 4."""
    dim = dim or draw(st.integers(2, 4))
    if draw(st.booleans()):
        coord = st.builds(fe, st.integers(-3, 3))
    else:
        coord = st.builds(fe, st.integers(-3, 3), st.integers(-2, 2), st.just(2))
    vector = st.tuples(*[coord] * dim)
    vecs = draw(st.lists(vector, min_size=1, max_size=dim + 4))
    return dim, vecs, draw(st.lists(vector, max_size=1))


@st.composite
def random_cones(draw, dim=None):
    dim, vecs, lin = draw(random_inputs(dim))
    if draw(st.booleans()):
        return Cone.from_constraints(dim, vecs + lin + [vneg(l) for l in lin])
    return Cone.from_rays(dim, vecs, lin)


PROPERTY = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None)


@PROPERTY
@given(random_cones())
def test_one_run_matches_both_runs(cone):
    v_side = list(cone.rays) + list(cone.lineality) + [vneg(l) for l in cone.lineality]
    facets, eqs, tight = polyhedra.dd_pair(cone.dim, v_side)
    assert (facets, eqs) == (cone.facets, cone.equations)
    for f, t in zip(facets, tight):
        assert t == {i for i, v in enumerate(v_side)
                     if not sum((a * b for a, b in zip(f, v)), fe(0))}
    assert polyhedra.dd_pair(cone.dim, cone.all_constraints())[:2] == (
        cone.rays, cone.lineality)


@st.composite
def cone_pairs(draw):
    """Two random cones in one dimension; half the time the second has the
    first one's lineality, so that their intersection may be a face."""
    a = draw(random_cones())
    if draw(st.booleans()):
        return a, draw(random_cones(a.dim))
    _, vecs, _ = draw(random_inputs(a.dim))
    return a, Cone.from_rays(a.dim, vecs, a.lineality)


def test_least_face_test_matches_lattice_scan():
    seen = set()

    @PROPERTY
    @given(cone_pairs())
    def check(pair):
        a, b = pair
        inter = a.intersect(b)
        cases = [("face", f, a) for f in a.face_lattice()[0]] + [
            ("intersection", inter, a), ("intersection", inter, b),
            ("unrelated", b, a), ("unrelated", a, b)]
        for kind, c, d in cases:
            face = c.is_face_of(d)
            assert face == face_by_lattice(c, d), (kind, c, d)
            seen.add((kind, face, bool(d.lineality)))

    check()
    assert {(kind, face) for kind, face, _ in seen} == {
        ("face", True), ("intersection", True), ("intersection", False),
        ("unrelated", True), ("unrelated", False)}
    assert ("intersection", True, True) in seen


# -- integer rows against field arithmetic -------------------------------------


@PROPERTY
@given(cone_pairs())
def test_row_signs_match_vdot(pair):
    """Every sign read off integer rows is vdot's sign, within one cone and
    across two, on rays and lineality alike; each zero mask is the set of
    rays that vdot finds the constraint vanishing on."""
    for c, d in itertools.product(pair, repeat=2):
        vectors = d.rays + d.lineality
        rows = [polyhedra._row(v) for v in vectors]
        assert d._ray_rows() == tuple(rows[:len(d.rays)])
        for f, fr in zip(c.all_constraints(), c._constraint_rows()):
            for v, vr in zip(vectors, rows):
                assert polyhedra._row_sign(fr, vr) == vdot(f, v).sign()
    for c in pair:
        assert c._zero_masks() == tuple(
            sum(1 << k for k, r in enumerate(c.rays) if not vdot(f, r))
            for f in c.all_constraints())


@PROPERTY
@given(cone_pairs())
def test_row_queries_match_vdot_routes(pair):
    """separating_cut, fans._settled, rays_on and contains_point against
    the field-arithmetic routes they replaced."""
    a, b = pair
    cut = a.separating_cut(b)
    assert cut == separating_cut_by_vdot(a, b)
    assert fans._settled(a, b) == (cut[0] == cut[1])
    hyperplanes = b.all_constraints()
    assert a.rays_on(hyperplanes) == rays_on_by_vdot(a, hyperplanes)
    for h in hyperplanes:
        assert a.rays_on([h]) == rays_on_by_vdot(a, [h])
    for x in a.rays + b.rays + b.lineality + tuple(map(vneg, b.rays)):
        assert a.contains_point(x) == (
            all(vdot(f, x).sign() >= 0 for f in a.facets)
            and not any(vdot(e, x) for e in a.equations))


@PROPERTY
@given(random_cones())
def test_face_lattice_matches_facet_subsets(cone):
    faces, edges = cone.face_lattice()
    keys = [frozenset(cone.rays.index(r) for r in f.rays) for f in faces]
    expected = brute_face_sets(cone)
    assert keys == expected
    assert edges == all_pairs_inclusions(expected)


@PROPERTY
@given(random_cones())
def test_dual_and_dimension_match_fresh_runs(cone):
    """On the cone and every face: dual() is a new run on the V-side, field
    by field, and intrinsic_dim() is the rank of the rays and lineality."""
    for c in [cone] + cone.face_lattice()[0]:
        assert sides(c.dual()) == sides(fresh_dual(c))
        assert c.intrinsic_dim() == matrix_rank(c.rays + c.lineality, c.dim)


# -- lazy H-sides, graded dimensions, output-sensitive containment -------------


H_SIDE_READS = {
    "facets": lambda c: c.facets,
    "equations": lambda c: c.equations,
    "intrinsic_dim": Cone.intrinsic_dim,
    "dual": Cone.dual,
    "face_lattice": Cone.face_lattice,
}


def _check_h_side_on_first_read(dim, normals):
    """A from_constraints cone runs _other_side once, on the first read of
    its H-side by any reader, and not for key(), rays, == or hash; the
    result equals an eager _other_side call on the run's incidences."""
    calls = []
    real = polyhedra._other_side
    for name, read in H_SIDE_READS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyhedra, "_other_side",
                       lambda *args: calls.append(args) or real(*args))
            cone = Cone.from_constraints(dim, normals)
            twin = Cone.from_constraints(dim, normals)
            assert (cone.key(), cone.rays, hash(cone)) == (
                twin.key(), twin.rays, hash(twin)) and cone == twin
            assert calls == [], name
            read(cone)
            assert len(calls) == 1, name
            for again in H_SIDE_READS.values():
                again(cone)
            assert len(calls) == 1, name
            del calls[:]
    inputs = [vec(a) for a in normals]
    eager = real(dim, inputs, polyhedra.dd_pair(dim, inputs)[2])
    assert (cone.facets, cone.equations) == eager
    assert cone.intrinsic_dim() == dim - len(eager[1])


@PROPERTY
@given(random_inputs())
def test_h_side_on_first_read(inputs):
    dim, vecs, lin = inputs
    _check_h_side_on_first_read(dim, vecs + lin + [vneg(l) for l in lin])


def test_h_side_on_first_read_catalog():
    for entry in CONES:
        n = len(entry.halfspaces[0].u)
        normals = [h.normal() for h in entry.halfspaces]
        _check_h_side_on_first_read(n + 1, normals + [vertical_normal(n)])


def _check_lazy_faces(cone):
    """Every face answers intrinsic_dim() from the lattice, without its
    H-side; the H-side, once read, equals an eager _other_side call over the
    parent's constraints and a fresh run on the face's V-side."""
    calls = []
    real = polyhedra._other_side
    cone.facets  # the parent's own H-side, which face_lattice reads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "_other_side",
                   lambda *args: calls.append(args) or real(*args))
        faces, edges = cone.face_lattice()
        dims = [f.intrinsic_dim() for f in faces]
    assert calls == []
    constraints = cone.all_constraints()
    tight = {r: frozenset(i for i, c in enumerate(constraints)
                          if not sum((a * b for a, b in zip(c, r)), fe(0)))
             for r in cone.rays}
    for f, d in zip(faces, dims):
        assert d == matrix_rank(f.rays + f.lineality, f.dim)
        eager = real(cone.dim, constraints, [tight[r] for r in f.rays])
        fresh = Cone.from_rays(cone.dim, f.rays, f.lineality)
        assert sides(f) == (fresh.rays, fresh.lineality) + eager == sides(fresh)
    assert dims[0] == cone.intrinsic_dim()
    assert edges == all_pairs_inclusions([frozenset(f.rays) for f in faces])


@PROPERTY
@given(random_cones())
def test_lazy_faces_match_eager_and_fresh_runs(cone):
    _check_lazy_faces(cone)


def test_lazy_faces_catalog():
    for entry in CONES:
        _check_lazy_faces(entry.build().cone)


def _unit(d, i, s):
    v = [0] * d
    v[i] = s
    return tuple(v)


def _cone_over_cube(d):
    return Cone.from_rays(
        d + 1, [v + (1,) for v in itertools.product((0, 1), repeat=d)])


def _cone_over_cross_polytope(d):
    return Cone.from_rays(
        d + 1, [_unit(d, i, s) + (1,) for i in range(d) for s in (1, -1)])


def test_face_lattice_runs_no_linear_algebra(monkeypatch):
    """The cones over the 6-cube and the 6-dimensional cross-polytope: 730
    faces each (3^6 + 1), and 0 _other_side and 0 rref calls to list them
    with their containment relation and dimensions; the dimensions are
    checked against the faces' combinatorial types."""
    cones = [_cone_over_cube(6), _cone_over_cross_polytope(6)]
    calls = {"_other_side": 0, "rref": 0}
    for name in calls:
        real = getattr(polyhedra, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(polyhedra, name, counted)
    for cone in cones:
        faces, edges = cone.face_lattice()
        assert len(faces) == 730
        # (i, j) with face i < face j: pairs of cube faces in strict
        # inclusion, 5^6 - 3^6, plus the apex below each of the 3^6 faces
        assert len(edges) == 5 ** 6
    assert calls == {"_other_side": 0, "rref": 0}
    # the cone over a k-face of the cube has dimension k + 1 and 2^k rays;
    # a proper face of the cross-polytope is a simplex, its cone simplicial
    cube, cross = (cone.face_lattice()[0] for cone in cones)
    assert all(f.intrinsic_dim() == len(f.rays).bit_length() for f in cube)
    assert all(f.intrinsic_dim() == len(f.rays) for f in cross[1:])
    assert cross[0].intrinsic_dim() == 7


@st.composite
def set_families(draw):
    universe = draw(st.integers(0, 6))
    members = st.frozensets(st.integers(0, universe), max_size=universe + 1)
    return draw(st.lists(members, max_size=12))


@PROPERTY
@given(set_families())
def test_strict_inclusions_matches_all_pairs(sets):
    """Duplicates and the empty set included: equal sets are no pair.  Tuples
    without repeats, as the fan posets pass them, give the same pairs."""
    expected = all_pairs_inclusions(sets)
    assert polyhedra.strict_inclusions(sets) == expected
    assert polyhedra.strict_inclusions([tuple(sorted(s)) for s in sets]) == expected
