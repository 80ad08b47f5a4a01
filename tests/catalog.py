"""Shared catalog of value groups, cones, fans, and heighted configurations.

Every expected value recorded here was derived by hand from the defining
half-spaces (the shapes are intervals, boxes, simplices, and quadrants, so
vertices and rays can be read off directly) and is frozen as an oracle for
the test suite.  Helper constructors only; no assertions live here.
"""

from fractions import Fraction as Fr

from toricval import (
    FieldDescriptor,
    HalfSpace,
    HeightedConfig,
    ValueGroup,
    fe,
    make_admissible,
    sqrtd,
)

RAT = FieldDescriptor(None)
QS2 = FieldDescriptor(2)

SQRT2 = sqrtd(2)

# value groups: trivial, Z, the dense-looking but discrete <1/2, 1/3> = (1/6)Z,
# and the genuinely dense rank-2 group <1, sqrt(2)>
G_TRIV = ValueGroup(RAT, [])
G_Z = ValueGroup(RAT, [1])
G_SIXTH = ValueGroup(RAT, [Fr(1, 2), Fr(1, 3)])
G_S2 = ValueGroup(QS2, [1, SQRT2])
G_HALF = ValueGroup(RAT, [Fr(1, 2)])  # for random draws; not in ALL_GROUPS

ALL_GROUPS = {"trivial": G_TRIV, "Z": G_Z, "sixth": G_SIXTH, "sqrt2": G_S2}


class CatalogCone:
    """One catalog entry: defining data plus hand-derived expectations."""

    def __init__(self, name, gamma, halfspaces, *, finite_type, slice_vertices,
                 recession_rays, rt_bound=None):
        self.name = name
        self.gamma = gamma
        self.halfspaces = tuple(HalfSpace(u, c) for u, c in halfspaces)
        self.finite_type = finite_type
        # sorted tuples of FieldElement coordinate tuples
        self.slice_vertices = tuple(slice_vertices)
        self.recession_rays = tuple(recession_rays)
        self.rt_bound = rt_bound  # None: skip the reconstruction round trip

    def build(self):
        return make_admissible(len(self.halfspaces[0].u), list(self.halfspaces),
                               self.gamma)

    def __repr__(self):
        return f"CatalogCone({self.name})"


def _pts(*rows):
    return tuple(tuple(fe(x) if not hasattr(x, "sign") else x for x in r)
                 for r in rows)


CONES = [
    # over Z -----------------------------------------------------------------
    CatalogCone(
        "C1", G_Z, [((1,), 0), ((-1,), 1)],
        finite_type=True,
        slice_vertices=_pts((0,), (1,)),
        recession_rays=(),
        rt_bound=2,
    ),
    CatalogCone(
        "HALF", G_Z, [((1,), 0)],
        finite_type=True,
        slice_vertices=_pts((0,)),
        recession_rays=((1,),),
        rt_bound=2,
    ),
    CatalogCone(
        "SHIFT", G_Z, [((1,), -1), ((-1,), 2)],
        finite_type=True,
        slice_vertices=_pts((1,), (2,)),
        recession_rays=(),
        rt_bound=2,
    ),
    CatalogCone(
        # slice [0, 1/2]: the vertex 1/2 is not in Z, yet the group is
        # discrete, so the cone is still of finite type
        "HALFQ", G_Z, [((1,), 0), ((-2,), 1)],
        finite_type=True,
        slice_vertices=_pts((0,), (Fr(1, 2),)),
        recession_rays=(),
        rt_bound=2,
    ),
    CatalogCone(
        "QUADZ", G_Z, [((1, 0), 0), ((0, 1), 0)],
        finite_type=True,
        slice_vertices=_pts((0, 0)),
        recession_rays=((0, 1), (1, 0)),
        rt_bound=2,
    ),
    CatalogCone(
        "SQZ", G_Z,
        [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)],
        finite_type=True,
        slice_vertices=_pts((0, 0), (0, 1), (1, 0), (1, 1)),
        recession_rays=(),
        rt_bound=2,
    ),
    CatalogCone(
        "SIMP3", G_Z,
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)],
        finite_type=True,
        slice_vertices=_pts((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
        recession_rays=(),
        rt_bound=2,
    ),
    # over <1, sqrt(2)> -------------------------------------------------------
    CatalogCone(
        "C1S", G_S2, [((1,), 0), ((-1,), SQRT2)],
        finite_type=True,
        slice_vertices=_pts((fe(0, 0, 2),), (SQRT2,)),
        recession_rays=(),
        rt_bound=2,
    ),
    CatalogCone(
        # slice [sqrt(2)/3, 1]: the left vertex is not in <1, sqrt(2)>
        "C2", G_S2, [((3,), -SQRT2), ((-1,), 1)],
        finite_type=False,
        slice_vertices=_pts((fe(0, Fr(1, 3), 2),), (fe(1, 0, 2),)),
        recession_rays=(),
        rt_bound=None,
    ),
    CatalogCone(
        "BOXS2", G_S2,
        [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), SQRT2)],
        finite_type=True,
        slice_vertices=_pts(
            (fe(0, 0, 2), fe(0, 0, 2)),
            (fe(0, 0, 2), SQRT2),
            (fe(1, 0, 2), fe(0, 0, 2)),
            (fe(1, 0, 2), SQRT2),
        ),
        recession_rays=(),
        rt_bound=2,
    ),
    # over <1/2, 1/3> ----------------------------------------------------------
    CatalogCone(
        "QUAD23", G_SIXTH, [((1, 0), 0), ((0, 1), 0)],
        finite_type=True,
        slice_vertices=_pts((0, 0)),
        recession_rays=((0, 1), (1, 0)),
        rt_bound=2,
    ),
    CatalogCone(
        # slice [1/3, 5/6]; both endpoints lie in (1/6)Z
        "THIRD", G_SIXTH, [((3,), -1), ((-2,), Fr(5, 3))],
        finite_type=True,
        slice_vertices=_pts((Fr(1, 3),), (Fr(5, 6),)),
        recession_rays=(),
        rt_bound=2,
    ),
    # over the trivial group ----------------------------------------------------
    CatalogCone(
        "HALFT", G_TRIV, [((1,), 0)],
        finite_type=True,
        slice_vertices=_pts((0,)),
        recession_rays=((1,),),
        rt_bound=2,
    ),
    CatalogCone(
        "QUADT", G_TRIV, [((1, 0), 0), ((0, 1), 0)],
        finite_type=True,
        slice_vertices=_pts((0, 0)),
        recession_rays=((0, 1), (1, 0)),
        rt_bound=2,
    ),
]

BY_NAME = {c.name: c for c in CONES}


def build(name):
    return BY_NAME[name].build()


def catalog_gensets():
    """name -> GeneratorSet for every finite-type catalog cone."""
    from toricval import algebra_generators

    return {c.name: algebra_generators(c.build(), c.rt_bound)
            for c in CONES if c.rt_bound is not None}


# -- fans -------------------------------------------------------------------


def fan_f1_cones():
    """Two half-lines glued at 0: slice cells [0, inf) and (-inf, 0]."""
    a = make_admissible(1, [HalfSpace((1,), 0)], G_Z)
    b = make_admissible(1, [HalfSpace((-1,), 0)], G_Z)
    return [a, b]


def fan_f2_cones():
    """Slice cells (-inf, 0], [0, 1], [1, inf): two bounded vertices."""
    left = make_admissible(1, [HalfSpace((-1,), 0)], G_Z)
    mid = make_admissible(1, [HalfSpace((1,), 0), HalfSpace((-1,), 1)], G_Z)
    right = make_admissible(1, [HalfSpace((1,), -1)], G_Z)
    return [left, mid, right]


def nonfan_cones():
    """C1 and the overlapping slice [0, 1/2]: intersection is not a face."""
    a = make_admissible(1, [HalfSpace((1,), 0), HalfSpace((-1,), 1)], G_Z)
    b = make_admissible(1, [HalfSpace((2,), -1)], G_Z)
    return [a, b]


# complete fan on R: two rays
PI1_RAYS = [[(1,)], [(-1,)]]
# quadrant fan on R^2 (single maximal cone, not complete)
PI2_RAYS = [[(1, 0), (0, 1)]]
# complete fan on R^2: four quadrants
PI4_RAYS = [
    [(1, 0), (0, 1)],
    [(0, 1), (-1, 0)],
    [(-1, 0), (0, -1)],
    [(0, -1), (1, 0)],
]


# -- heighted configurations --------------------------------------------------


def config_p1():
    """A = (0, 1, 2) with heights (1, 0, 1): two cells {0,1} and {1,2}."""
    return HeightedConfig(1, [(0,), (1,), (2,)], [fe(1), fe(0), fe(1)])


def config_p1_mid():
    """A = (0, 1, 2) with heights (0, 1, 0): one cell with full index set."""
    return HeightedConfig(1, [(0,), (1,), (2,)], [fe(0), fe(1), fe(0)])


def config_p1_flat():
    return HeightedConfig(1, [(0,), (1,), (2,)], [fe(0), fe(0), fe(0)])


def config_p1_inf():
    """Middle point at infinite height: single cell {0, 2}."""
    return HeightedConfig(1, [(0,), (1,), (2,)], [fe(1), None, fe(0)])


def config_square():
    """Unit square, heights (0, 1, 0, 1): split along the main diagonal."""
    return HeightedConfig(
        2,
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [fe(0), fe(1), fe(0), fe(1)],
    )


def config_square_s2():
    """Unit square with sqrt(2) heights (0, s, 0, s)."""
    return HeightedConfig(
        2,
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [fe(0, 0, 2), SQRT2, fe(0, 0, 2), SQRT2],
    )


CONFIGS = {
    "P1": config_p1,
    "P1mid": config_p1_mid,
    "P1flat": config_p1_flat,
    "P1inf": config_p1_inf,
    "square": config_square,
    "squareS2": config_square_s2,
}


# -- randomized inputs --------------------------------------------------------


def random_in_cone_targets(rng, gens, count):
    """Random points of cone(gens + vertical ray): nonnegative integer
    combinations of the generators pushed up by a nonnegative amount."""
    from toricval import SemigroupElement

    n = gens.n
    out = []
    for _ in range(count):
        lam = [rng.randint(0, 4) for _ in range(len(gens))]
        u = tuple(sum(l * e.u[i] for l, e in zip(lam, gens)) for i in range(n))
        g = fe(0)
        for l, e in zip(lam, gens):
            g = g + fe(l) * e.g
        extra = rng.choice([0, 1, 2, Fr(1, 2), Fr(3, 2)])
        g = g + fe(extra)
        out.append(SemigroupElement(u, g))
    return out


def random_admissible_cone(rng, groups=None, max_dim=3):
    """One random pointed admissible cone, or None when the draw fails
    (a zero normal or a cone containing a line)."""
    from toricval import ContainsLine

    if groups is None:
        groups = [G_TRIV, G_Z, G_SIXTH, G_S2]
    gamma = rng.choice(groups)
    n = rng.randint(1, max_dim)
    m = rng.randint(n + 1, n + 3)
    halfspaces = []
    for _ in range(m):
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(u):
            return None
        halfspaces.append(HalfSpace(u, random_group_element(rng, gamma)))
    try:
        return make_admissible(n, halfspaces, gamma)
    except ContainsLine:
        return None


def random_group_element(rng, gamma):
    if gamma is G_TRIV:
        return fe(0)
    if gamma is G_Z:
        return fe(rng.randint(-2, 2))
    if gamma is G_SIXTH:
        return fe(Fr(rng.randint(-12, 12), 6))
    if gamma is G_HALF:
        return fe(Fr(rng.randint(-4, 4), 2))
    return fe(rng.randint(-2, 2), rng.randint(-2, 2), 2)


def random_heighted_config(rng):
    """One random heighted configuration in rank 1 or 2: a grid, scattered
    points (repeats allowed), a collinear set or a single point, with heights
    in Q or Q(sqrt 2), some infinite (None) and sometimes all equal."""
    n = rng.choice([1, 2])
    kind = rng.choice(["grid", "grid", "scattered", "scattered", "collinear",
                       "single"])
    if kind == "grid":
        m = rng.randint(2, 4)
        pts = [(i,) for i in range(m + 1)] if n == 1 else [
            (i, j) for i in range(m) for j in range(rng.randint(2, 3))
        ]
    elif kind == "single":
        pts = [tuple(rng.randint(-3, 3) for _ in range(n))]
    elif kind == "collinear":
        step = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(step):
            step = (1,) * n
        pts = [tuple(t * x for x in step) for t in range(rng.randint(2, 5))]
    else:
        pts = [tuple(rng.randint(-3, 3) for _ in range(n))
               for _ in range(rng.randint(3, 9))]
    quadratic = rng.random() < 0.4

    def height():
        if quadratic:
            return fe(rng.randint(-4, 4), rng.randint(-3, 3), 2)
        return fe(Fr(rng.randint(-12, 12), rng.choice([1, 2, 3])))

    if rng.random() < 0.1:
        heights = [height()] * len(pts)
    else:
        heights = [None if rng.random() < 0.15 else height() for _ in pts]
    if all(h is None for h in heights):
        heights[rng.randrange(len(pts))] = height()
    return HeightedConfig(n, pts, heights)


def random_grid_fan_cones(rng):
    """Input cones of a random fan over Z or (1/6)Z: the cones over the boxes
    of an m x m grid with random integer breakpoints, shuffled, with a few
    faces of them inserted as further inputs."""
    m = rng.randint(1, 3)
    gamma, unit = rng.choice([(G_Z, Fr(1)), (G_SIXTH, Fr(1, 6))])
    xs, ys = [0], [0]
    for _ in range(m):
        xs.append(xs[-1] + rng.randint(1, 3))
        ys.append(ys[-1] + rng.randint(1, 3))
    cones = []
    for i in range(m):
        for j in range(m):
            lo, hi = (xs[i], ys[j]), (xs[i + 1], ys[j + 1])
            hss = []
            for a in range(2):
                e = tuple(1 if b == a else 0 for b in range(2))
                hss.append(HalfSpace(e, -lo[a] * unit))
                hss.append(HalfSpace(tuple(-x for x in e), hi[a] * unit))
            cones.append(make_admissible(2, hss, gamma))
    rng.shuffle(cones)
    for _ in range(rng.randint(0, 3)):
        face = rng.choice(rng.choice(cones).faces()[0])
        cones.insert(rng.randint(0, len(cones)), face)
    return cones


def random_rational_fan_rays(rng):
    """Ray lists of a random pointed fan in R^2: consecutive pairs of random
    primitive directions in angular order span the two-dimensional cones
    (some dropped), and some rays also come as one-ray inputs."""
    import math

    dirs = set()
    count = rng.randint(1, 8)
    while len(dirs) < count:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(v):
            g = math.gcd(*v)
            dirs.add((v[0] // g, v[1] // g))
    dirs = sorted(dirs, key=lambda v: math.atan2(v[1], v[0]))
    cones = []
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        if a[0] * b[1] - a[1] * b[0] > 0 and rng.random() < 0.8:
            cones.append([a, b])
    for r in dirs:
        if rng.random() < 0.3:
            cones.append([r])
    rng.shuffle(cones)
    return cones or [[dirs[0]]]
