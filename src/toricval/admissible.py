"""Admissible cones over a value group and their semigroup data.

An admissible cone lives in R^n x R+ and is cut out by half-spaces
<u, w> + c*s >= 0 with u an integer vector and c in the value group, plus the
structural constraint s >= 0.  It must not contain a line.

The dual semigroup S = (dual cone) intersect (M x Gamma) is what the rest of
the toolkit consumes: minimal heights of characters, membership, and the
degree-bounded generator enumeration with its cone-equality certificate.

Heights come from one routine on integers: the slice vertices are scaled
once to integer pairs over a common denominator, and the height
g(u) = max over vertices V of -<u, V> is found together with the set of
vertices attaining it.  g is convex (a maximum of linear functions), so
g(u1) + g(u2) >= g(u1 + u2), with equality exactly when u1 and u2 share a
maximising vertex; any vertex attaining g(u1 + u2) is then such a shared
vertex.  The generator enumeration decides decomposability by that rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    BoundTooSmall,
    ConstantNotInGamma,
    ContainsLine,
    DimensionMismatch,
    HeightUnboundedBelow,
    NotFiniteType,
)
from ._rational import Q
from .linalg import canonical_ray, int_vector, primitive_int_vector, vdot, vec
from .ordfield import FieldElement, ValueGroup, as_fe, pair_sign
from .polyhedra import Cone, HalfSpace, vertical_normal


@dataclass(frozen=True)
class SlicePolyhedron:
    """The polyhedron cone ∩ {s = 1}, in slice coordinates (R^n).

    vertices: exact coordinate vectors of the 0-faces.
    recession_rays: primitive integer generators of the s = 0 rays.
    """

    vertices: tuple
    recession_rays: tuple

    def key(self):
        return (self.vertices, self.recession_rays)


def slice_at_one(cone: Cone):
    """Slice a cone in R^n x R at s = 1.  Returns None when the slice is empty
    (the cone lies in {s = 0})."""
    verts = []
    recs = []
    for r in cone.rays:
        s = r[-1]
        if s.sign() > 0:
            verts.append(tuple(x / s for x in r[:-1]))
        elif s.sign() == 0:
            recs.append(primitive_int_vector(canonical_ray(r[:-1])))
        else:
            raise ValueError("cone is not contained in {s >= 0}")
    for l in cone.lineality:
        if l[-1].sign() != 0:
            raise ValueError("cone is not contained in {s >= 0}")
    if not verts:
        return None
    return SlicePolyhedron(tuple(sorted(verts)), tuple(sorted(recs)))


class AdmissibleCone:
    """A certified admissible cone: integer half-spaces, constants in Gamma,
    pointed, contained in {s >= 0}.

    vertical_tight marks faces pinned to the s = 0 hyperplane; the vertical
    constraint is structural (part of the ambient), so such faces stay
    presentable even over the trivial group where -1 is not an admissible
    constant.
    """

    __slots__ = ("n", "gamma", "halfspaces", "cone", "vertical_tight",
                 "_slice", "_have_slice", "_int_slice")

    def __init__(self, n, gamma, halfspaces, cone, vertical_tight=False):
        self.n = n
        self.gamma = gamma
        self.halfspaces = tuple(halfspaces)
        self.cone = cone
        self.vertical_tight = vertical_tight
        self._slice = None
        self._have_slice = False
        self._int_slice = None

    def slice(self):
        if not self._have_slice:
            self._slice = slice_at_one(self.cone)
            self._have_slice = True
        return self._slice

    def integer_slice(self):
        """The slice over a common denominator: (den, d, vertices, rays).

        Each vertex V becomes the pair of integer vectors (P, R) with
        den * V = P + R*sqrt(d) coordinatewise (R is all zero over Q); rays
        are the integer recession rays.  None when the slice is empty.
        """
        if self._int_slice is None:
            sl = self.slice()
            if sl is None:
                return None
            den = 1
            for v in sl.vertices:
                for x in v:
                    for part in (x.p, x.q):
                        den = math.lcm(den, int(part.denominator))
            verts = tuple(
                (tuple(int(x.p * den) for x in v), tuple(int(x.q * den) for x in v))
                for v in sl.vertices
            )
            self._int_slice = (den, self.gamma.field.d, verts, sl.recession_rays)
        return self._int_slice

    def dual(self):
        return self.cone.dual()

    def key(self):
        return self.cone.key()

    def __eq__(self, other):
        return isinstance(other, AdmissibleCone) and (
            self.gamma == other.gamma and self.cone == other.cone
        )

    def __hash__(self):
        return hash((self.gamma, self.cone))

    def faces(self):
        """All faces as admissible cones (geometry from the kernel lattice,
        presentation from the original half-spaces plus tight negations)."""
        kfaces, edges = self.cone.face_lattice()
        return [self._wrap_face(f) for f in kfaces], edges

    def _wrap_face(self, face: Cone):
        if face.key() == self.cone.key():
            return self
        hss = list(self.halfspaces)
        test_vecs = list(face.rays) + list(face.lineality)
        for h in self.halfspaces:
            normal = h.normal()
            if all(not vdot(normal, r) for r in test_vecs):
                hss.append(HalfSpace(tuple(-x for x in h.u), -h.c))
        vertical = all(not r[-1] for r in test_vecs)
        return AdmissibleCone(self.n, self.gamma, hss, face,
                              vertical_tight=vertical or self.vertical_tight)

    def __repr__(self):
        return f"AdmissibleCone(n={self.n}, gamma={self.gamma}, rays={len(self.cone.rays)})"


def make_admissible(n, halfspaces, gamma: ValueGroup) -> AdmissibleCone:
    """Validate half-spaces against the value group and build the cone.

    Raises ConstantNotInGamma when some constant is outside the group and
    ContainsLine when the resulting cone is not pointed.
    """
    if n < 1:
        raise ValueError(f"lattice rank must be >= 1, got {n}")
    hss = []
    for i, h in enumerate(halfspaces):
        if not isinstance(h, HalfSpace):
            h = HalfSpace(*h)
        if len(h.u) != n:
            raise DimensionMismatch(
                f"half-space {i} has u of length {len(h.u)}, expected {n}"
            )
        if not gamma.contains(h.c):
            raise ConstantNotInGamma(i, h.c)
        hss.append(h)
    normals = [h.normal() for h in hss] + [vertical_normal(n)]
    cone = Cone.from_constraints(n + 1, normals)
    if cone.lineality:
        raise ContainsLine(cone.lineality[0])
    return AdmissibleCone(n, gamma, hss, cone)


# -- semigroup data -----------------------------------------------------------


@dataclass(frozen=True)
class SemigroupElement:
    """(u, g): a character exponent with a candidate valuation g."""

    u: tuple
    g: FieldElement

    def __post_init__(self):
        object.__setattr__(self, "u", int_vector(self.u))
        object.__setattr__(self, "g", as_fe(self.g))

    def pair_vector(self):
        return vec(self.u) + (self.g,)

    def sort_key(self):
        return (self.u, self.g.p, self.g.q)


class GeneratorSet:
    """A finite set of semigroup elements over one value group, kept sorted."""

    __slots__ = ("n", "gamma", "gens", "_hull")

    def __init__(self, n, gamma: ValueGroup, gens):
        elems = []
        for e in gens:
            if not isinstance(e, SemigroupElement):
                e = SemigroupElement(*e)
            if len(e.u) != n:
                raise DimensionMismatch(
                    f"generator {e.u} has length {len(e.u)}, expected {n}"
                )
            if not gamma.contains(e.g):
                raise ValueError(f"generator height {e.g} is not in {gamma}")
            elems.append(e)
        elems.sort(key=SemigroupElement.sort_key)
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate generator ({a.u}, {a.g})")
        self.n = n
        self.gamma = gamma
        self.gens = tuple(elems)
        self._hull = None

    def hull(self):
        """The cone generated by the vertical ray and the pair vectors."""
        if self._hull is None:
            self._hull = Cone.from_rays(
                self.n + 1,
                [vertical_normal(self.n)] + [e.pair_vector() for e in self.gens],
            )
        return self._hull

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and (
            self.n == other.n and self.gamma == other.gamma and self.gens == other.gens
        )

    def __repr__(self):
        body = ", ".join(f"({list(e.u)}, {e.g})" for e in self.gens)
        return f"GeneratorSet(n={self.n}, [{body}])"


# -- heights ------------------------------------------------------------------


@dataclass(frozen=True)
class HeightResult:
    """Outcome of the minimal-height computation for one exponent u."""

    kind: str  # "value" | "not_attained" | "infeasible"
    g: FieldElement | None = None

    @staticmethod
    def value(g):
        return HeightResult("value", as_fe(g))

    @staticmethod
    def not_attained(g):
        return HeightResult("not_attained", as_fe(g))

    @staticmethod
    def infeasible():
        return HeightResult("infeasible")

    def is_infeasible(self):
        return self.kind == "infeasible"


def _height(isl, u):
    """(a, b, mask) with den * g(u) = a + b*sqrt(d) and mask the bitmask of
    the vertices of isl = ac.integer_slice() attaining it, or None when u is
    negative along a recession ray (no height exists)."""
    _, d, verts, rays = isl
    for r in rays:
        if sum(x * y for x, y in zip(u, r)) < 0:
            return None
    best_a = best_b = 0
    mask = 0
    for i, (P, R) in enumerate(verts):
        a = -sum(x * y for x, y in zip(u, P))
        b = -sum(x * y for x, y in zip(u, R)) if d else 0
        if not mask:
            best_a, best_b, mask = a, b, 1
            continue
        s = pair_sign(a - best_a, b - best_b, d)
        if s > 0:
            best_a, best_b, mask = a, b, 1 << i
        elif s == 0:
            mask |= 1 << i
    return best_a, best_b, mask


def _height_value(isl, a, b):
    den, d, _, _ = isl
    return FieldElement(Q(a, den), Q(b, den), d)


def minimal_height(ac: AdmissibleCone, u) -> HeightResult:
    """Least g with <u, w> + g*s >= 0 on the whole cone.

    Infeasible when u is negative along a recession direction; otherwise the
    infimum is max over slice vertices V of -<u, V>, reported as a Value when
    it lies in Gamma and as NotAttainedInGamma otherwise.
    """
    u = int_vector(u)
    if len(u) != ac.n:
        raise DimensionMismatch(f"u has length {len(u)}, expected {ac.n}")
    isl = ac.integer_slice()
    if isl is None:
        raise HeightUnboundedBelow()
    h = _height(isl, u)
    if h is None:
        return HeightResult.infeasible()
    best = _height_value(isl, h[0], h[1])
    if ac.gamma.contains(best):
        return HeightResult.value(best)
    return HeightResult.not_attained(best)


def semigroup_membership(ac: AdmissibleCone, elem) -> bool:
    """Is (u, g) in S = (dual cone) ∩ (M x Gamma)?"""
    if not isinstance(elem, SemigroupElement):
        elem = SemigroupElement(*elem)
    if not ac.gamma.contains(elem.g):
        return False
    res = minimal_height(ac, elem.u)
    if res.is_infeasible():
        return False
    return res.g <= elem.g


def bad_slice_vertices(ac: AdmissibleCone):
    """Slice vertices with some coordinate outside Gamma."""
    sl = ac.slice()
    if sl is None:
        return []
    return [v for v in sl.vertices if not all(ac.gamma.contains(x) for x in v)]


def is_finite_type(ac: AdmissibleCone) -> bool:
    """Vertex criterion: over a discrete group always true; otherwise all
    slice-vertex coordinates must lie in Gamma."""
    if ac.gamma.is_discrete():
        return True
    return not bad_slice_vertices(ac)


# -- generator enumeration ----------------------------------------------------


def algebra_generators(ac: AdmissibleCone, bound: int) -> GeneratorSet:
    """Degree-bounded generators of the semigroup algebra.

    Enumerates exponents u with sup-norm <= bound, keeps the indecomposable
    (u, g(u)) pairs, and certifies the result by checking that the generated
    cone together with the vertical ray equals the dual cone.  Raises
    BoundTooSmall when the certificate fails.

    (u, g(u)) is dropped when u = u1 + u2 with g(u1) + g(u2) = g(u), both
    parts in the box.  By convexity of g that holds exactly when u1 and u2
    both attain their heights at one vertex v attaining g(u), any such v
    (module docstring); so for one v in u's vertex set only the u1 attaining
    at v are scanned, and the test is a bitmask lookup.  Heights stay integer
    pairs over the slice denominator (Gamma-membership through
    ValueGroup.pair_coords and has_coords); only kept generators become
    field elements.

    The certificate is biduality: hull == dual cone exactly when the hull's
    dual, its two sides swapped, is the cone.
    """
    if bound < 1:
        raise ValueError(f"degree bound must be >= 1, got {bound}")
    if not is_finite_type(ac):
        raise NotFiniteType(bad_slice_vertices(ac))
    isl = ac.integer_slice()
    if isl is None:
        raise HeightUnboundedBelow()
    den = isl[0]
    gamma = ac.gamma

    heights = {}  # u -> (a, b, mask): den * g(u) = a + b*sqrt(d), attained on mask
    at_vertex = [[] for _ in isl[2]]
    for u in itertools.product(range(-bound, bound + 1), repeat=ac.n):
        if not any(u):
            continue
        h = _height(isl, u)
        if h is None:
            continue
        # not_attained exponents (possible over a discrete group whose slice
        # has non-group vertices) have no minimal semigroup element; skipped
        xy = gamma.pair_coords(h[0], h[1], den)
        if xy is None or not gamma.has_coords(*xy):
            continue
        heights[u] = h
        mask = h[2]
        for i in range(len(at_vertex)):
            if mask >> i & 1:
                at_vertex[i].append(u)

    kept = []
    for u, (a, b, mask) in heights.items():
        low = mask & -mask
        decomposable = False
        for u1 in at_vertex[low.bit_length() - 1]:
            h2 = heights.get(tuple(x - y for x, y in zip(u, u1)))
            if h2 is not None and h2[2] & low:
                decomposable = True
                break
        if not decomposable:
            kept.append(SemigroupElement(u, _height_value(isl, a, b)))

    gens = GeneratorSet(ac.n, gamma, kept)
    if gens.hull().dual() != ac.cone:
        raise BoundTooSmall(bound, "generated cone does not reach the dual cone")
    return gens
