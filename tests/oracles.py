"""Independent oracles used to cross-check library results.

Each oracle reimplements the quantity under test with a different algorithm
(interval arithmetic, exhaustive subset enumeration, brute-force coefficient
search) so that agreement is meaningful evidence rather than a tautology.
Only FieldElement arithmetic is borrowed from the package, apart from
fresh_dual, a second double description run where Cone.dual swaps sides,
cell_cone_faces and weight_polytope_reference, which take the long way
through kernel cones (one per lower facet and per cell, or one over the
points), common_face_by_dd and lift_by_rays, the fan routes by one run per
cone pair and per lifted cone, and the reference routes for the semigroup searches
(pairwise_generators, dfs_saturation_check), which build the package's
GeneratorSet and its hull; every algorithm here is deliberately naive.
"""

import itertools
from fractions import Fraction

import mpmath

from toricval import BoundTooSmall, Cone, FieldElement, GeneratorSet, fe
from toricval.linalg import vec, vneg
from toricval.ordfield import FE_ONE, FE_ZERO, as_fe

# -- interval-arithmetic sign -----------------------------------------------


def interval_sign(p: Fraction, q: Fraction, d, prec: int = 128):
    """Sign of p + q*sqrt(d) by interval arithmetic, escalating precision.

    Returns -1/0/+1.  Zero is only reported when p == q == 0 (for square-free
    d the element is irrational otherwise, so a zero value forces p = q = 0).
    """
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 and q == 0:
        return 0
    iv = mpmath.iv
    while prec <= 4096:
        with mpmath.workprec(prec):
            old = iv.prec
            iv.prec = prec
            try:
                x = (
                    iv.mpf(p.numerator) / iv.mpf(p.denominator)
                    + iv.mpf(q.numerator) / iv.mpf(q.denominator) * iv.sqrt(d)
                )
                if x > 0:
                    return 1
                if x < 0:
                    return -1
            finally:
                iv.prec = old
        prec *= 2
    raise RuntimeError("interval sign did not resolve at 4096 bits")


# -- naive exact linear algebra over FieldElement -----------------------------


def _rref(rows, width):
    """Row-reduce a list of FieldElement tuples; returns (rref_rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c].sign() != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c].sign() != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def kernel_basis(rows, width):
    """Basis of the null space of the given FieldElement matrix."""
    zero = fe(0)
    one = fe(1)
    rref, pivots = _rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * width
        v[f] = one
        for row, p in zip(rref, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def matrix_rank(rows, width):
    return len(_rref(rows, width)[1])


def _canon_ray(v):
    """Scale so the first nonzero coordinate is +1 (canonical direction)."""
    for x in v:
        s = x.sign()
        if s != 0:
            pivot = x if s > 0 else -x
            return tuple(y / pivot for y in v), s
    return None, 0


def brute_rays(normals, dim):
    """Extreme rays of {x : <n_i, x> >= 0} by exhaustive subset enumeration.

    For every constraint subset whose kernel is a line, the +/- directions
    feasible for all constraints are candidates; a candidate is extreme iff
    its full tight set has rank dim-1.  Returns None when the cone contains
    a line (kernel of the whole system nonzero).
    """
    normals = [tuple(x if isinstance(x, FieldElement) else fe(x) for x in n)
               for n in normals]
    if kernel_basis(normals, dim):
        return None
    found = {}
    idx = range(len(normals))
    for size in range(min(dim - 1, len(normals)), len(normals) + 1):
        for subset in itertools.combinations(idx, size):
            ker = kernel_basis([normals[i] for i in subset], dim)
            if len(ker) != 1:
                continue
            base = ker[0]
            for cand in (base, tuple(-x for x in base)):
                vals = [sum((n[i] * cand[i] for i in range(dim)), fe(0))
                        for n in normals]
                if any(v.sign() < 0 for v in vals):
                    continue
                tight = [normals[i] for i, v in enumerate(vals) if v.sign() == 0]
                if matrix_rank(tight, dim) != dim - 1:
                    continue
                key, s = _canon_ray(cand)
                if s != 0:
                    found[key] = key
    return sorted(found)


def canon_rays(rays):
    """The library's rays normalized the same way as brute_rays output."""
    out = set()
    for r in rays:
        key, s = _canon_ray([x if isinstance(x, FieldElement) else fe(x)
                             for x in r])
        if s != 0:
            out.add(key)
    return sorted(out)


def sides(cone):
    """The four canonical tuples of a cone: rays, lineality, facets, equations."""
    return cone.rays, cone.lineality, cone.facets, cone.equations


def fresh_dual(cone):
    """The dual cone from a new double description run with cone's rays,
    lineality and negated lineality as constraints: the reference for
    Cone.dual, which swaps the two sides with no run."""
    lin = list(cone.lineality)
    return Cone.from_constraints(
        cone.dim, list(cone.rays) + lin + [vneg(l) for l in lin]
    )


def assert_biduality(cone, label=""):
    """A fresh run on the V-side gives Cone.dual field by field, and a
    fresh run on that dual's V-side gives the cone back."""
    d = fresh_dual(cone)
    assert sides(d) == sides(cone.dual()), f"{label}: swapped dual differs"
    assert sides(fresh_dual(d)) == sides(cone), f"{label}: no biduality"


# -- face lattice by facet-subset enumeration ---------------------------------


def brute_face_sets(cone):
    """Ray-index sets of every face of a cone, by trying all facet subsets.

    Each subset of the facets (the empty one included) picks the rays tight
    on all of them; the distinct picks are the faces.  Sorted by decreasing
    size, then by index list, the order Cone.face_lattice uses.
    """
    nf = len(cone.facets)
    sets = set()
    for mask in range(1 << nf):
        chosen = [cone.facets[j] for j in range(nf) if mask >> j & 1]
        sets.add(frozenset(
            i for i, r in enumerate(cone.rays)
            if all(sum((a * b for a, b in zip(f, r)), fe(0)).sign() == 0
                   for f in chosen)
        ))
    return sorted(sets, key=lambda s: (-len(s), sorted(s)))


def all_pairs_inclusions(sets):
    """Every (i, j) with sets[i] a proper subset of sets[j], in index order,
    by comparing every pair: the reference for polyhedra.strict_inclusions."""
    return [(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets) if a < b]


# -- fan pair check and product lifts, one run each ------------------------------


def common_face_by_dd(a, b):
    """Whether a ∩ b is a face of both cones, by a double description run on
    both cones' constraints and a look-up in both face lattices: the route
    that fans takes only for pairs no separating facet settles."""
    inter = a.intersect(b)
    return inter.is_face_of(a) and inter.is_face_of(b)


def lift_by_rays(c):
    """c x R+ in R^(n+1), from a run on c's rays at s = 0 and the vertical
    ray: the reference for product_fan, which lifts c's facets instead."""
    n = c.dim
    rays = [tuple(r) + (FE_ZERO,) for r in c.rays]
    return Cone.from_rays(n + 1, rays + [(FE_ZERO,) * n + (FE_ONE,)])


# -- brute-force semigroup membership -----------------------------------------


def brute_member(gens, grid_values, target_u, target_g, cap):
    """Is (u, g) a nonnegative-integer combination of the generators plus one
    vertical element (0, v) with v >= 0 from the grid?  Exhaustive search with
    every coefficient capped at cap."""
    pairs = [(e.u, e.g) for e in gens]
    verticals = [v for v in grid_values if v.sign() >= 0]
    for coeffs in itertools.product(range(cap + 1), repeat=len(pairs)):
        u = tuple(sum(c * p[0][i] for c, p in zip(coeffs, pairs))
                  for i in range(len(target_u)))
        if u != tuple(target_u):
            continue
        g = fe(0)
        for c, p in zip(coeffs, pairs):
            g = g + fe(c) * p[1]
        if g == target_g:
            return True
        rem = target_g - g
        if rem.sign() > 0 and any(rem == v for v in verticals):
            return True
    return False


# -- semigroup generators and saturation, the field-arithmetic routes ------------


ZERO = fe(0)


def pairwise_generators(ac, bound):
    """Degree-bounded generators by the O(H^2) decomposition test.

    The height of each exponent u in the box is the max over slice vertices
    of -<u, V> in field arithmetic; u is kept when its height lies in Gamma
    (other exponents are skipped), and (u, g(u)) is dropped when some split
    u = u1 + u2 inside the box has g(u1) + g(u2) == g(u).  Raises
    BoundTooSmall when the kept set's hull is not the dual cone.  The caller
    handles cones that are not of finite type or have an empty slice.
    """
    sl = ac.slice()
    heights = {}
    for u in itertools.product(range(-bound, bound + 1), repeat=ac.n):
        if not any(u):
            continue
        if any(sum(a * b for a, b in zip(u, r)) < 0 for r in sl.recession_rays):
            continue
        best = None
        for v in sl.vertices:
            h = ZERO
            for a, x in zip(u, v):
                h = h - fe(a) * x
            if best is None or h > best:
                best = h
        if ac.gamma.contains(best):
            heights[u] = best
    kept = []
    for u, g in heights.items():
        decomposable = False
        for u1 in heights:
            u2 = tuple(a - b for a, b in zip(u, u1))
            if u2 == u or not any(u2):
                continue
            g2 = heights.get(u2)
            if g2 is not None and heights[u1] + g2 == g:
                decomposable = True
                break
        if not decomposable:
            kept.append((u, g))
    gens = GeneratorSet(ac.n, ac.gamma, kept)
    if gens.hull() != fresh_dual(ac.cone):
        raise BoundTooSmall(bound, "generated cone does not reach the dual cone")
    return gens


def gamma_grid(gamma, bound):
    """All group elements sum n_i * gen_i with |n_i| <= bound, deduplicated."""
    vals = {ZERO}
    for coeffs in itertools.product(
        range(-bound, bound + 1), repeat=len(gamma.generators)
    ):
        total = ZERO
        for c, g in zip(coeffs, gamma.generators):
            if c:
                total = total + c * g
        vals.add(total)
    return sorted(vals)


class DfsMembershipSearch:
    """Bounded search for natural-number combinations of G plus vertical
    grid elements.  Soundness is one-way: "found" is a certificate, "not
    found" means not found within the caps.

    The depth-first route: one search per queried exponent over the
    generator coefficients, pruned by the per-coordinate reach of the
    remaining generators, with field arithmetic on the heights."""

    def __init__(self, gens: GeneratorSet, verts, hcap):
        self.gens = list(gens)
        self.verts = sorted((v for v in verts if v.sign() > 0), reverse=True)
        self.hcap = hcap
        self.n = gens.n
        # per-coordinate reach of the remaining generators, for pruning
        self.suffix = []
        acc = [0] * self.n
        for e in reversed(self.gens):
            acc = [a + hcap * abs(u) for a, u in zip(acc, e.u)]
            self.suffix.append(tuple(acc))
        self.suffix.reverse()
        self.suffix.append(tuple([0] * self.n))
        self._residual_cache = {}
        self._member_cache = {}

    def _residual_ok(self, r, i=0):
        s = r.sign()
        if s == 0:
            return True
        if s < 0 or i >= len(self.verts):
            return False
        key = (r.p, r.q, i)
        hit = self._residual_cache.get(key)
        if hit is not None:
            return hit
        coin = self.verts[i]
        c = 0
        acc = ZERO
        while acc + coin <= r:
            acc = acc + coin
            c += 1
        ok = False
        for cc in range(c, -1, -1):
            if self._residual_ok(r - cc * coin, i + 1):
                ok = True
                break
        self._residual_cache[key] = ok
        return ok

    def member(self, u, g):
        key = (u, g.p, g.q)
        hit = self._member_cache.get(key)
        if hit is not None:
            return hit
        ok = self._search(0, tuple([0] * self.n), ZERO, u, g)
        self._member_cache[key] = ok
        return ok

    def _search(self, i, acc_u, acc_g, u, g):
        reach = self.suffix[i]
        if any(abs(a - t) > s for a, t, s in zip(acc_u, u, reach)):
            return False
        if i == len(self.gens):
            return acc_u == u and self._residual_ok(g - acc_g)
        e = self.gens[i]
        for c in range(self.hcap + 1):
            nu = tuple(a + c * x for a, x in zip(acc_u, e.u))
            ng = acc_g + c * e.g if c else acc_g
            if self._search(i + 1, nu, ng, u, g):
                return True
        return False


def dfs_saturation_check(gens, bounds, queries=None):
    """saturation_check by one DfsMembershipSearch per call: the same scan
    and bounds (the grid bound defaults to 3).  Each membership query the
    scan makes is appended to queries as (u, g, answer)."""
    if len(bounds) == 2:
        b_u, k_max = bounds
        grid_bound = 3
    else:
        b_u, k_max, grid_bound = bounds
    grid = gamma_grid(gens.gamma, grid_bound)
    search = DfsMembershipSearch(gens, grid, 2 * (b_u + k_max))
    hull = gens.hull()

    def member(u, g):
        ok = search.member(u, g)
        if queries is not None:
            queries.append((u, g, ok))
        return ok

    for u in itertools.product(range(-b_u, b_u + 1), repeat=gens.n):
        for g in grid:
            if not hull.contains_point(tuple(fe(x) for x in u) + (g,)):
                continue
            for k in range(2, k_max + 1):
                if member(tuple(k * x for x in u), k * g) and not member(u, g):
                    return u, g, k
    return None


# -- 1-d lower envelope -------------------------------------------------------


def lower_cells_1d(points, heights):
    """Cells of the regular subdivision of a 1-d heighted configuration.

    Brute force: every pair of finite points defines a line; a pair is a
    lower edge iff no finite lifted point lies strictly below the line.  The
    cell of an edge is every finite index whose point lies in the closed
    interval spanned by the tight set.  Returns the maximal cells, sorted.
    """
    fin = [j for j, h in enumerate(heights) if h is not None]
    xs = {j: points[j][0] for j in fin}
    cells = set()
    for i, j in itertools.combinations(fin, 2):
        if xs[i] == xs[j]:
            continue
        # line through lifted i and j: h(x) = hi + (hj-hi)*(x-xi)/(xj-xi)
        denom = fe(xs[j] - xs[i])
        slope = (heights[j] - heights[i]) / denom
        below = False
        tight = []
        for k in fin:
            lk = heights[i] + slope * fe(xs[k] - xs[i])
            s = (heights[k] - lk).sign()
            if s < 0:
                below = True
                break
            if s == 0:
                tight.append(k)
        if below:
            continue
        lo = min(xs[k] for k in tight)
        hi = max(xs[k] for k in tight)
        cell = tuple(sorted(k for k in fin if lo <= xs[k] <= hi))
        cells.add(cell)
    maximal = [c for c in cells
               if not any(c != d and set(c) <= set(d) for d in cells)]
    return sorted(maximal)


def faces_of_cells_1d(cells, points):
    """Face list (cells plus endpoint vertices) of a 1-d cell complex."""
    faces = set(cells)
    for c in cells:
        xs = [points[j][0] for j in c]
        lo, hi = min(xs), max(xs)
        faces.add(tuple(j for j in c if points[j][0] == lo))
        faces.add(tuple(j for j in c if points[j][0] == hi))
    return sorted(faces, key=lambda f: (-len(f), f))


# -- regular subdivisions, one cone per cell ------------------------------------


def cell_cone_faces(cfg):
    """Cells, faces, face dimensions and poset of the regular subdivision,
    with one cone per lower facet and per cell.

    Each lower facet of the lifted hull (positive lam-coefficient) gives a
    cell: every finite index whose point (u_j, 1) lies in the cone over the
    facet's tight points.  The faces are the nontrivial faces of the cone
    over each cell's points, each keyed by the cell indices it contains, of
    dimension one less than the face's.  Ordered as weight_subdivision
    orders them: cells sorted, faces by decreasing dimension then index
    tuple, poset as strict index-set inclusions.
    """
    n = cfg.n
    fin = cfg.finite_indices()
    one, zero = fe(1), fe(0)
    point = {j: tuple(fe(x) for x in cfg.points[j]) + (one,) for j in fin}
    lifted = {j: point[j][:n] + (cfg.heights[j], one) for j in fin}
    hull = Cone.from_rays(
        n + 2, list(lifted.values()) + [(zero,) * n + (one, zero)])

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), zero)

    cells = set()
    for normal in hull.facets:
        if normal[n].sign() <= 0:
            continue
        tight = [j for j in fin if dot(normal, lifted[j]).sign() == 0]
        member = Cone.from_rays(n + 1, [point[j] for j in tight])
        cells.add(tuple(j for j in fin if member.contains_point(point[j])))
    cells = sorted(cells)

    faces = {}
    for cell in cells:
        over = Cone.from_rays(n + 1, [point[j] for j in cell])
        for f in over.face_lattice()[0]:
            if f.is_trivial():
                continue
            idx = tuple(j for j in cell if f.contains_point(point[j]))
            faces[idx] = f.intrinsic_dim() - 1
    order = sorted(faces, key=lambda idx: (-faces[idx], idx))
    poset = [(i, j) for i, a in enumerate(order) for j, b in enumerate(order)
             if set(a) < set(b)]
    return cells, order, [faces[idx] for idx in order], poset


# -- inclusion between cones --------------------------------------------------------


def brute_inclusion(cones):
    """Strict inclusions (i, j), cones[i] inside cones[j] and not equal to
    it: every ray and lineality direction of cones[i] (both signs) passes
    every facet sign and equation of cones[j]."""
    zero = fe(0)

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), zero)

    def inside(a, b):
        gens = list(a.rays) + list(a.lineality) + [
            tuple(-x for x in l) for l in a.lineality]
        return all(dot(f, g).sign() >= 0 for f in b.facets for g in gens) and all(
            dot(e, g).sign() == 0 for e in b.equations for g in gens)

    return [(i, j) for i, a in enumerate(cones) for j, b in enumerate(cones)
            if i != j and inside(a, b) and not inside(b, a)]


# -- weight polytopes from one cone --------------------------------------------
#
# Vertices from the cone over the points at t = 1, ordered in the plane by
# an exact angular sort around their centroid: a route that shares nothing
# with the monotone chain of projtoric.ccw_hull.


def _hull_vertices(n, points):
    """Vertices of conv(points) for integer points, via the cone over the
    configuration at t = 1."""
    cone = Cone.from_rays(n + 1, [vec(u) + (FE_ONE,) for u in points])
    verts = []
    for r in cone.rays:
        t = r[-1]
        if t.sign() > 0:
            verts.append(tuple(x / t for x in r[:-1]))
    return verts


def _ccw_order(points):
    """Exact counterclockwise angular order around the centroid, starting at
    the lexicographically smallest point."""
    k = as_fe(len(points))
    cx = sum((p[0] for p in points), FE_ZERO) / k
    cy = sum((p[1] for p in points), FE_ZERO) / k

    def half(p):
        vx, vy = p[0] - cx, p[1] - cy
        # 0: positive x-axis and upper half; 1: negative x-axis and lower half
        if vy.sign() > 0 or (vy.sign() == 0 and vx.sign() > 0):
            return 0
        return 1

    def cross(p, q):
        px, py = p[0] - cx, p[1] - cy
        qx, qy = q[0] - cx, q[1] - cy
        return (px * qy - py * qx).sign()

    import functools

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        c = cross(p, q)
        return -c

    ordered = sorted(points, key=functools.cmp_to_key(cmp))
    start = min(range(len(ordered)), key=lambda i: ordered[i])
    return ordered[start:] + ordered[:start]


def weight_polytope_reference(cfg):
    """Vertices of the hull of the finite-height points: ascending for
    n = 1, counterclockwise from the lexicographically smallest for n = 2
    with more than two vertices, lexicographic otherwise."""
    pts = [cfg.points[j] for j in cfg.finite_indices()]
    verts = _hull_vertices(cfg.n, pts)
    if cfg.n == 1:
        return tuple(sorted(verts))
    if cfg.n == 2 and len(verts) > 2:
        return tuple(_ccw_order(verts))
    return tuple(sorted(verts))
