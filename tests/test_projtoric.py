"""Weight polytopes, regular subdivisions, certificates, and orbits.

Cells are cross-checked against a brute-force lower-envelope oracle in
dimension one, and cells, faces, dimensions and posets against one cone per
lower facet and per cell on random configurations; certificates are
re-verified pointwise; the orbit correspondence is checked to be a poset
isomorphism on all face pairs.
"""

import itertools
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import CONFIGS, G_S2, G_Z, SQRT2, random_heighted_config
from oracles import (
    cell_cone_faces,
    faces_of_cells_1d,
    lower_cells_1d,
    weight_polytope_reference,
)
from toricval import (
    Cone,
    HeightedConfig,
    ValueNotInGamma,
    fe,
    heights_from_valuations,
    orbit_correspondence,
    polyhedra,
    weight_polytope,
    weight_subdivision,
)

# seeded draws of the generator the property test below draws from
RANDOM_CONFIGS = {
    f"random-{seed}": random_heighted_config(random.Random(seed))
    for seed in range(16)
}


def _config(name):
    if name in RANDOM_CONFIGS:
        return RANDOM_CONFIGS[name]
    return CONFIGS[name]()


# -- configuration validation -------------------------------------------------


def test_config_requires_integer_points():
    with pytest.raises((ValueError, TypeError)):
        HeightedConfig(1, [(Fr(1, 2),)], [fe(0)])


def test_config_requires_finite_point():
    with pytest.raises(ValueError):
        HeightedConfig(1, [(0,), (1,)], [None, None])


def test_config_length_mismatch():
    with pytest.raises(ValueError):
        HeightedConfig(1, [(0,), (1,)], [fe(0)])


def test_heights_from_valuations():
    heights = heights_from_valuations([fe(1), None, fe(0)], G_Z)
    assert tuple(heights) == (fe(1), None, fe(0))
    with pytest.raises(ValueNotInGamma) as exc:
        heights_from_valuations([fe(Fr(1, 2))], G_Z)
    assert exc.value.index == 0


# -- weight polytope -----------------------------------------------------------


def test_weight_polytope_interval():
    assert weight_polytope(CONFIGS["P1"]()) == ((fe(0),), (fe(2),))


def test_weight_polytope_skips_infinite():
    assert weight_polytope(CONFIGS["P1inf"]()) == ((fe(0),), (fe(2),))


def test_weight_polytope_square_ccw():
    wp = weight_polytope(CONFIGS["square"]())
    assert wp == (
        (fe(0), fe(0)), (fe(1), fe(0)), (fe(1), fe(1)), (fe(0), fe(1))
    )


def test_weight_polytope_single_point():
    cfg = HeightedConfig(1, [(3,)], [fe(0)])
    assert weight_polytope(cfg) == ((fe(3),),)


@st.composite
def weight_configs(draw):
    """Configurations in rank 1 to 3: scattered, collinear (a line through
    a base point, a zero step allowed) or with repeated points, some heights
    infinite."""
    n = draw(st.sampled_from([1, 2, 3]))
    point = st.tuples(*[st.integers(-3, 3)] * n)
    kind = draw(st.sampled_from(["scattered", "collinear", "repeated"]))
    if kind == "collinear":
        base = draw(point)
        step = draw(st.tuples(*[st.integers(-2, 2)] * n))
        ts = draw(st.lists(st.integers(-3, 4), min_size=1, max_size=6))
        pts = [tuple(b + t * s for b, s in zip(base, step)) for t in ts]
    else:
        pts = draw(st.lists(point, min_size=1, max_size=7))
        if kind == "repeated":
            pts += pts[:draw(st.integers(1, len(pts)))]
    heights = draw(st.lists(st.none() | st.integers(-5, 5).map(fe),
                            min_size=len(pts), max_size=len(pts)))
    if all(h is None for h in heights):
        heights[draw(st.integers(0, len(pts) - 1))] = fe(0)
    return HeightedConfig(n, pts, heights)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(weight_configs())
def test_weight_polytope_matches_cone_reference(cfg):
    assert weight_polytope(cfg) == weight_polytope_reference(cfg)


# -- subdivisions: 1-d oracle ----------------------------------------------------


@pytest.mark.parametrize("name", ["P1", "P1mid", "P1flat", "P1inf"])
def test_cells_match_lower_envelope_oracle(name):
    cfg = CONFIGS[name]()
    sub = weight_subdivision(cfg)
    assert sorted(sub.cells) == lower_cells_1d(cfg.points, cfg.heights)


@pytest.mark.parametrize("name", ["P1", "P1mid", "P1flat", "P1inf"])
def test_faces_match_oracle(name):
    cfg = CONFIGS[name]()
    sub = weight_subdivision(cfg)
    assert list(sub.faces) == faces_of_cells_1d(sub.cells, cfg.points)


def test_p1_frozen():
    sub = weight_subdivision(CONFIGS["P1"]())
    assert sub.cells == ((0, 1), (1, 2))
    assert sub.faces == ((0, 1), (1, 2), (0,), (1,), (2,))
    assert sub.face_dims == (1, 1, 0, 0, 0)
    c01 = sub.certificates[(0, 1)]
    assert c01.phi == (fe(-1),) and c01.beta == fe(1)
    assert c01.tight == (0, 1)
    c12 = sub.certificates[(1, 2)]
    assert c12.phi == (fe(1),) and c12.beta == fe(-1)
    assert c12.tight == (1, 2)


def test_p1mid_single_cell_full_index_set():
    sub = weight_subdivision(CONFIGS["P1mid"]())
    assert sub.cells == ((0, 1, 2),)
    cert = sub.certificates[(0, 1, 2)]
    # the middle point lies above the envelope: tight set omits it
    assert cert.tight == (0, 2)
    assert sub.faces == ((0, 1, 2), (0,), (2,))


def test_p1flat_everything_tight():
    sub = weight_subdivision(CONFIGS["P1flat"]())
    assert sub.cells == ((0, 1, 2),)
    assert sub.certificates[(0, 1, 2)].tight == (0, 1, 2)


def test_p1inf_skips_infinite_point():
    sub = weight_subdivision(CONFIGS["P1inf"]())
    assert sub.cells == ((0, 2),)


def test_square_diagonal_split():
    sub = weight_subdivision(CONFIGS["square"]())
    assert sub.cells == ((0, 1, 2), (0, 2, 3))
    # the shared diagonal is a face of the complex
    assert (0, 2) in sub.faces


def test_square_irrational_heights():
    sub = weight_subdivision(CONFIGS["squareS2"]())
    assert sub.cells == ((0, 1, 2), (0, 2, 3))
    cert = sub.certificates[(0, 1, 2)]
    assert cert.phi == (SQRT2, -SQRT2)
    assert cert.beta == fe(0, 0, 2)


# -- certificate properties ---------------------------------------------------------


def _ell(cert, point):
    val = cert.beta
    for c, x in zip(cert.phi, point):
        val = val + c * fe(x)
    return val


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(RANDOM_CONFIGS))
def test_certificates_bound_heights(name):
    cfg = _config(name)
    sub = weight_subdivision(cfg)
    for cell, cert in sub.certificates.items():
        for j in cfg.finite_indices():
            diff = cfg.heights[j] - _ell(cert, cfg.points[j])
            assert diff.sign() >= 0, (name, cell, j)
            assert (diff.sign() == 0) == (j in cert.tight), (name, cell, j)


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(RANDOM_CONFIGS))
def test_cells_cover_weight_polytope(name):
    cfg = _config(name)
    sub = weight_subdivision(cfg)
    n = cfg.n
    fin = cfg.finite_indices()
    # rational sample grid over the weight polytope: midpoints of all finite
    # point subsets
    samples = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(fin, min(r, len(fin))):
            pt = tuple(
                sum(Fr(cfg.points[j][i]) for j in combo) / len(combo)
                for i in range(n)
            )
            samples.append(pt)
    hulls = [
        Cone.from_rays(n + 1, [tuple(cfg.points[j]) + (1,) for j in cell])
        for cell in sub.cells
    ]
    for pt in samples:
        hit = any(h.contains_point(tuple(pt) + (Fr(1),)) for h in hulls)
        assert hit, (name, pt)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pairwise_cells_meet_in_common_face(name):
    cfg = CONFIGS[name]()
    sub = weight_subdivision(cfg)
    n = cfg.n
    cones = {}
    for f in sub.faces:
        lifted = [tuple(cfg.points[j]) + (1,) for j in f]
        cones[f] = Cone.from_rays(n + 1, lifted)
    for a, b in itertools.combinations(sub.cells, 2):
        inter = cones[a].intersect(cones[b])
        if inter.is_trivial():
            continue
        match = [f for f in sub.faces if cones[f] == inter]
        assert match, (name, a, b)
        face = match[0]
        assert inter.is_face_of(cones[a]) and inter.is_face_of(cones[b])
        assert set(face) <= set(a) and set(face) <= set(b)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1).map(
    lambda seed: random_heighted_config(random.Random(seed))))
def test_subdivision_matches_cell_cone_oracle(cfg):
    sub = weight_subdivision(cfg)
    cells, faces, dims, poset = cell_cone_faces(cfg)
    assert list(sub.cells) == cells
    assert list(sub.faces) == faces
    assert list(sub.face_dims) == dims
    assert list(sub.poset) == poset
    xs = {cfg.points[j] for j in cfg.finite_indices()}
    if cfg.n == 1 and len(xs) > 1:
        assert list(sub.cells) == lower_cells_1d(cfg.points, cfg.heights)


def test_weight_subdivision_one_dd_run(monkeypatch):
    # the lifted hull; cells and faces are read off its incidences, and the
    # weight polygon is a plane hull of the integer points
    calls = []
    real = polyhedra.dd_pair
    monkeypatch.setattr(polyhedra, "dd_pair",
                        lambda *args: calls.append(args) or real(*args))
    cfg = HeightedConfig(
        2, [(i, j) for i in range(3) for j in range(3)],
        [fe((i * i + 2 * j * j) % 5) for i in range(3) for j in range(3)])
    sub = weight_subdivision(cfg)
    assert len(sub.cells) > 2
    assert len(calls) == 1


def test_shift_invariance():
    base = CONFIGS["P1"]()
    shifted = HeightedConfig(
        1, base.points, [h + fe(Fr(5, 2)) for h in base.heights]
    )
    a = weight_subdivision(base)
    b = weight_subdivision(shifted)
    assert a.cells == b.cells
    assert a.faces == b.faces


# -- orbits ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_orbit_correspondence_bijective_order_preserving(name):
    cfg = CONFIGS[name]()
    sub = weight_subdivision(cfg)
    orbits = orbit_correspondence(sub)
    assert len(orbits) == len(sub.faces)
    assert len({o.nonzero_coords for o in orbits}) == len(orbits)
    by_face = {o.face: o for o in orbits}
    for f1, f2 in itertools.product(sub.faces, repeat=2):
        face_le = set(f1) <= set(f2)
        orbit_le = by_face[f1].nonzero_coords <= by_face[f2].nonzero_coords
        assert face_le == orbit_le, (name, f1, f2)


def test_orbit_counts_p1():
    assert len(orbit_correspondence(weight_subdivision(CONFIGS["P1"]()))) == 5
    assert len(orbit_correspondence(weight_subdivision(CONFIGS["P1mid"]()))) == 3


def test_orbit_dims_match_faces():
    sub = weight_subdivision(CONFIGS["square"]())
    for o, f, d in zip(orbit_correspondence(sub), sub.faces, sub.face_dims):
        assert o.face == f
        assert o.dim == d
