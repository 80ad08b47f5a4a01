"""Projective side: heighted point configurations, weight polytopes, regular
subdivisions from lifted lower hulls, and the orbit-face correspondence.

The lifted set conv{(u_j, lam) : lam >= a_j} is homogenized to a cone in
R^(n+2) with coordinates (x, lam, t); its vertical recession ray (0, 1, 0)
lies on every facet except the lower ones, so the lower facets are exactly
the facets whose inward normal has a positive lam-coefficient, and the other
facets (lam-coefficient 0) are vertical.  Everything is read off this one
hull, with no further double description run.  That run takes the lifted
points as constraints: its rays are the hull's facets and its incidence
sets are each facet's tight points, so the hull's own H-side is never
computed.  From that run:

- each lower facet F gives an affine function ell_F = <phi, x> + beta, and
  the lower envelope, being convex, is the maximum of the ell_F over the
  weight polytope; so finite j lies in the cell of F iff ell_F(u_j) equals
  the maximum of ell_F'(u_j) over all lower facets F';
- every face of the subdivision is a face of the lifted polyhedron inside a
  lower facet, hence an intersection of facets, one of them lower; so the
  face index sets are the closure of the cell index sets under intersection
  with each other and with the point-index sets of the vertical facets;
- a face with index set I has dimension rank{(u_j, 1) : j in I} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, ValueNotInGamma
from .linalg import rank, vdot, vec
from .admissible import slice_at_one
from .ordfield import FE_ONE, FE_ZERO, FieldElement, ValueGroup, as_fe
from .polyhedra import Cone, meet_closure, strict_inclusions


class HeightedConfig:
    """A point configuration u_0..u_R in Z^n with heights in Gamma or
    infinity (encoded as None).  At least one height must be finite."""

    __slots__ = ("n", "points", "heights")

    def __init__(self, n, points, heights):
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        pts = []
        for j, u in enumerate(points):
            u = tuple(u)
            if len(u) != n:
                raise DimensionMismatch(
                    f"point {j} has length {len(u)}, expected {n}"
                )
            if not all(isinstance(x, int) for x in u):
                raise ValueError(f"point {j} must have integer coordinates")
            pts.append(u)
        hts = []
        for j, a in enumerate(heights):
            if a is None:
                hts.append(None)
            else:
                hts.append(as_fe(a))
        if len(hts) != len(pts):
            raise ValueError(
                f"{len(pts)} points but {len(hts)} heights"
            )
        if not pts:
            raise ValueError("a configuration needs at least one point")
        if all(a is None for a in hts):
            raise ValueError("at least one height must be finite")
        self.n = n
        self.points = tuple(pts)
        self.heights = tuple(hts)

    def finite_indices(self):
        return tuple(j for j, a in enumerate(self.heights) if a is not None)

    def __eq__(self, other):
        return isinstance(other, HeightedConfig) and (
            self.n == other.n
            and self.points == other.points
            and self.heights == other.heights
        )

    def __hash__(self):
        return hash((self.n, self.points, self.heights))

    def __repr__(self):
        return f"HeightedConfig(n={self.n}, R+1={len(self.points)})"


def heights_from_valuations(values, gamma: ValueGroup):
    """Validate coordinate valuations against the group and package them as
    heights (None encodes an infinite valuation, i.e. a zero coordinate)."""
    out = []
    for j, v in enumerate(values):
        if v is None:
            out.append(None)
            continue
        v = as_fe(v)
        if not gamma.contains(v):
            raise ValueNotInGamma(j, v)
        out.append(v)
    if not any(v is not None for v in out):
        raise ValueError("at least one valuation must be finite")
    return tuple(out)


def ccw_hull(points):
    """Andrew's monotone chain: the vertices of the convex hull of plane
    points, counterclockwise from the lexicographically smallest, points
    inside an edge dropped.  Collinear points give the two ends; fewer than
    three distinct points come back sorted.  Exact on exact coordinates."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def weight_polytope(cfg: HeightedConfig):
    """Ordered vertex list of the convex hull of the finite-height points:
    ascending for n = 1, counterclockwise from the lexicographically smallest
    vertex for n = 2 (ascending when they are collinear), lexicographic for
    n >= 3."""
    pts = [cfg.points[j] for j in cfg.finite_indices()]
    if cfg.n == 1:
        return tuple(vec(u) for u in sorted({min(pts), max(pts)}))
    if cfg.n == 2:
        return tuple(vec(u) for u in ccw_hull(pts))
    cone = Cone.from_rays(cfg.n + 1, [vec(u) + (FE_ONE,) for u in pts])
    return slice_at_one(cone).vertices


@dataclass(frozen=True)
class CellCertificate:
    """Affine function ell(x) = <phi, x> + beta with ell(u_j) <= a_j for all
    finite j and equality exactly on the tight set; the cell is every finite
    j with u_j in the convex hull of the tight points."""

    phi: tuple
    beta: FieldElement
    tight: tuple


@dataclass(frozen=True)
class Subdivision:
    """Regular subdivision of the weight polytope induced by the heights.

    cells: top cells as sorted index tuples (finite-height indices only).
    faces: all faces of all cells, deduplicated, sorted by decreasing
    dimension then lexicographically; face_dims aligned with faces.
    poset: strict inclusion pairs (i, j) on face indices.
    certificates: per top cell, the supporting affine function.
    """

    n: int
    support_vertices: tuple
    cells: tuple
    faces: tuple
    face_dims: tuple
    poset: tuple
    certificates: dict


def weight_subdivision(cfg: HeightedConfig) -> Subdivision:
    """Project the lower facets of the lifted hull
    conv{(u_j, lam) : lam >= a_j} to the weight polytope.

    A cell's index set contains every finite-height j whose point lies in the
    projected facet as a polyhedron, not only the lifted-hull vertices.
    Cells, faces and dimensions are read off this one hull (module notes).
    """
    n = cfg.n
    finite = cfg.finite_indices()
    lifted = {
        j: vec(cfg.points[j]) + (cfg.heights[j], FE_ONE) for j in finite
    }
    rays = list(lifted.values()) + [
        tuple([FE_ZERO] * n) + (FE_ONE, FE_ZERO)
    ]
    hull_dual = Cone.from_constraints(n + 2, rays)

    lower = []
    vertical = []
    for normal, on in zip(hull_dual.rays, hull_dual.incidences()):
        tight = tuple(finite[i] for i in sorted(on) if i < len(finite))
        c = normal[n]
        if c.sign() == 0:
            vertical.append(frozenset(tight))
            continue
        phi = tuple(-x / c for x in normal[:n])
        beta = -normal[n + 1] / c
        ell = {j: vdot(phi, lifted[j][:n]) + beta for j in finite}
        lower.append((CellCertificate(phi, beta, tight), ell))

    # the lower envelope is the maximum of the lower facets' affine functions
    envelope = {j: max(ell[j] for _, ell in lower) for j in finite}
    certs = {}
    for cert, ell in lower:
        certs[tuple(j for j in finite if ell[j] == envelope[j])] = cert
    cells = sorted(certs)

    # faces: cells closed under intersection with cells and vertical facets
    cell_sets = [frozenset(cell) for cell in cells]
    found = meet_closure(cell_sets, cell_sets + vertical)
    found.discard(frozenset())
    faces = {}
    for face in found:
        idx = tuple(sorted(face))
        faces[idx] = rank([lifted[j][:n] + (FE_ONE,) for j in idx], n + 1) - 1

    ordered = sorted(faces.items(), key=lambda kv: (-kv[1], kv[0]))
    face_list = tuple(idx for idx, _ in ordered)
    dims = tuple(d for _, d in ordered)
    poset = strict_inclusions(face_list)

    return Subdivision(
        n,
        weight_polytope(cfg),
        tuple(cells),
        face_list,
        dims,
        tuple(poset),
        certs,
    )


@dataclass(frozen=True)
class OrbitDescriptor:
    """One torus orbit per subdivision face: the coordinates that do not
    vanish on the orbit are exactly the finite-height indices lying in the
    face."""

    face: tuple
    dim: int
    nonzero_coords: frozenset


def orbit_correspondence(sub: Subdivision):
    """One descriptor per face, ordered by decreasing face dimension then
    lexicographically; inclusion of faces mirrors inclusion of coordinate
    supports."""
    out = []
    for idx, dim in zip(sub.faces, sub.face_dims):
        out.append(OrbitDescriptor(idx, dim, frozenset(idx)))
    return out
