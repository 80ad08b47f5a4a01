"""Fans of admissible cones: the common-face gluing condition, face closure,
slice complexes at s = 1, recession fans, products with the vertical ray, and
the fan-level finite-type test.

A fan is finite by construction.  Cones are deduplicated by canonical ray
sets and assembly order is deterministic (sorted canonical forms).  Posets
are stored as the full strict-inclusion relation on indices, computed on
canonical ray sets alone: fan cones are pointed and, once the pairwise check
has passed, meet in common faces, so one fan cone lies in another iff it is
a face of it, iff its extreme rays are among the other's.

The pairwise check reads a certificate off the constraints the two cones
already have, after the separation lemma (Fulton, Introduction to Toric
Varieties, §1.2): two cones meet in a common face iff some hyperplane
separates them and cuts that face out of both.  For pointed cones a and b,
the cut is every facet of a, and either sign of each equation of a, that is
<= 0 on all rays of b, and likewise for b.  Each such hyperplane is >= 0 on
one cone and <= 0 on the other (an equation vanishes on its own cone), so it
vanishes on a ∩ b.  The rays of a on every hyperplane of the cut span a face
F of a, those of b a face G of b, and a ∩ b lies in both.  When the two ray
sets are equal, F = G lies in a ∩ b, so a ∩ b = F is a common face.  Only a
pair whose ray sets differ costs a double description run: its intersection
is built and put to the least-face test against both cones.

Two constructors skip the check, because their cones are fans by
construction.  product_fan lifts the maximal cones of a rational fan, and
(sigma x R+) ∩ (tau x R+) = (sigma ∩ tau) x R+, a common face of both lifts.
recession_fan takes sigma ∩ {s = 0} for each maximal cone; s >= 0 on sigma,
so that is a face of sigma, and faces of a fan meet in common faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .admissible import is_finite_type, make_admissible
from .errors import DimensionMismatch, FieldMismatch, NotAFan, shown
from .linalg import primitive_int_vector, vdot, vec
from .ordfield import FE_ZERO, ValueGroup
from .polyhedra import Cone, HalfSpace, strict_inclusions


def _cone_sort_key(c: Cone):
    return (c.intrinsic_dim(), c.key())


def _separating(a, b):
    """The constraints of a (facets, ±equations) that are <= 0 on all of b's rays."""
    return [
        f for f in a.all_constraints() if all(vdot(f, r).sign() <= 0 for r in b.rays)
    ]


def _settled(a, b):
    """True when the separating constraints of a and b pick the same rays out
    of both, which makes a ∩ b the cone over them, a common face."""
    cut = _separating(a, b) + _separating(b, a)
    return a.rays_on(cut) == b.rays_on(cut)


def _check_pairs(cones, kernel):
    """Raise NotAFan on the first input pair, by position, whose pointed
    kernel cones kernel(c) do not meet in a common face.

    A pair that _settled passes costs no double description run; any other
    builds a ∩ b and puts it to the least-face test against a and b, which
    decides the pair and words the NotAFan message.
    """
    for i in range(len(cones)):
        a = kernel(cones[i])
        for j in range(i + 1, len(cones)):
            b = kernel(cones[j])
            if a.key() == b.key() or _settled(a, b):
                continue
            inter = a.intersect(b)
            if not (inter.is_face_of(a) and inter.is_face_of(b)):
                raise NotAFan(
                    i, j,
                    f"intersection with rays "
                    f"{[tuple(map(shown, r)) for r in inter.rays]} "
                    f"is not a common face",
                )


def _closure(cones, kernel, faces):
    """The face closure of cones that meet pairwise in common faces.

    kernel(c) is the pointed kernel cone of input c, faces(c) its faces.
    Returns (maximal, all_cones, poset): the deduplicated inputs that are no
    face of another input, the face closure of those sorted by (dimension,
    canonical form), and its poset.
    """
    uniq = {}
    for c in cones:
        uniq.setdefault(kernel(c).key(), c)
    items = sorted(uniq.values(), key=lambda c: _cone_sort_key(kernel(c)))
    dominated = {i for i, _ in strict_inclusions([kernel(c).rays for c in items])}
    maximal = [c for i, c in enumerate(items) if i not in dominated]

    closed = {}
    for c in maximal:
        for f in faces(c):
            closed.setdefault(f.key(), f)
    all_cones = sorted(closed.values(), key=lambda c: _cone_sort_key(kernel(c)))
    poset = strict_inclusions([kernel(c).rays for c in all_cones])
    return maximal, all_cones, tuple(poset)


class Fan:
    """A finite fan of admissible cones over one value group.

    maximal_cones: the deduplicated, non-dominated input cones.
    all_cones: face closure, sorted by (dimension, canonical form).
    poset: strict inclusions (i, j) on all_cones indices.
    """

    __slots__ = ("n", "gamma", "maximal_cones", "all_cones", "poset")

    def __init__(self, n, gamma, maximal_cones, all_cones, poset):
        self.n = n
        self.gamma = gamma
        self.maximal_cones = tuple(maximal_cones)
        self.all_cones = tuple(all_cones)
        self.poset = tuple(poset)

    def __eq__(self, other):
        return isinstance(other, Fan) and (
            self.n == other.n
            and self.gamma == other.gamma
            and [c.key() for c in self.all_cones]
            == [c.key() for c in other.all_cones]
        )

    def __hash__(self):
        return hash((self.n, self.gamma, tuple(c.key() for c in self.all_cones)))

    def __repr__(self):
        return (
            f"Fan(n={self.n}, maximal={len(self.maximal_cones)}, "
            f"cones={len(self.all_cones)})"
        )


def fan_from_cones(cones) -> Fan:
    """Validate the pairwise common-face condition and close under faces.

    Every pair of input cones must intersect in a common face; the offending
    pair is reported by input position in NotAFan.
    """
    cones = list(cones)
    if not cones:
        raise ValueError("a fan needs at least one cone")
    n = cones[0].n
    gamma = cones[0].gamma
    for c in cones[1:]:
        if c.n != n:
            raise DimensionMismatch(f"mixed lattice ranks {c.n} and {n}")
        if c.gamma != gamma:
            raise FieldMismatch("cones over different value groups")

    kernel = attrgetter("cone")
    _check_pairs(cones, kernel)
    return Fan(n, gamma, *_closure(cones, kernel, lambda c: c.faces()[0]))


@dataclass(frozen=True)
class SliceComplex:
    """The polyhedral complex fan ∩ {s = 1}.

    cells: the slice polyhedra of the fan cones meeting {s > 0}, in the
    fan's order; poset: strict face inclusions on cell indices;
    vertices: the deduplicated union of cell vertex lists, one per
    irreducible component of the special fibre.
    """

    n: int
    cells: tuple
    poset: tuple
    vertices: tuple

    def component_count(self):
        return len(self.vertices)


def slice_complex(fan: Fan) -> SliceComplex:
    """Slice every fan cone at s = 1.

    A pointed cone in {s >= 0} is the cone over its slice, so cells are in
    bijection with the fan cones not contained in {s = 0}, and distinct
    cones have distinct slices; inclusion of cells is the fan's poset
    restricted to those cones (a cone above one of them is one of them).
    """
    cells, index = [], {}
    for i, ac in enumerate(fan.all_cones):
        cell = ac.slice()
        if cell is not None:
            index[i] = len(cells)
            cells.append(cell)
    poset = tuple((index[i], index[j]) for i, j in fan.poset if i in index)
    verts = set()
    for cell in cells:
        verts.update(cell.vertices)
    return SliceComplex(fan.n, tuple(cells), poset, tuple(sorted(verts)))


@dataclass(frozen=True)
class RationalFan:
    """A finite fan of pointed rational cones in R^n: face-closed cone list
    sorted canonically, plus the strict-inclusion poset."""

    n: int
    cones: tuple
    poset: tuple

    def __eq__(self, other):
        return isinstance(other, RationalFan) and (
            self.n == other.n
            and [c.key() for c in self.cones] == [c.key() for c in other.cones]
        )

    def __hash__(self):
        return hash((self.n, tuple(c.key() for c in self.cones)))


def rational_fan_from_cones(n, cones) -> RationalFan:
    """Validate and face-close a list of pointed rational cones in R^n.

    Accepts kernel cones or iterables of integer ray generators.
    """
    norm = []
    for c in cones:
        if not isinstance(c, Cone):
            c = Cone.from_rays(n, [vec(r) for r in c])
        if c.dim != n:
            raise DimensionMismatch(f"cone of dimension {c.dim}, expected {n}")
        if c.lineality:
            raise ValueError("fan cones must be pointed")
        for r in c.rays:
            primitive_int_vector(r)  # raises on an irrational generator
        norm.append(c)
    if not norm:
        raise ValueError("a fan needs at least one cone")
    _check_pairs(norm, lambda c: c)
    _, out, poset = _closure(norm, lambda c: c, lambda c: c.face_lattice()[0])
    return RationalFan(n, tuple(out), poset)


def recession_fan(fan: Fan) -> RationalFan:
    """The fan of recession cones sigma ∩ {s = 0} in R^n, closed under
    faces; a fan by construction (module docstring), so left unchecked."""
    recs = []
    for ac in fan.maximal_cones:
        horiz = [r[:-1] for r in ac.cone.rays if not r[-1]]
        recs.append(Cone.from_rays(fan.n, horiz))
    _, out, poset = _closure(recs, lambda c: c, lambda c: c.face_lattice()[0])
    return RationalFan(fan.n, tuple(out), poset)


def product_fan(rf: RationalFan, gamma: ValueGroup) -> Fan:
    """The fan {sigma x R+ : sigma in rf} over gamma, all constants zero, from
    the lifts of rf's maximal cones; a fan by construction (module docstring)."""
    n = rf.n
    below = {i for i, _ in rf.poset}
    lifted = []
    for i, c in enumerate(rf.cones):
        if i in below:
            continue
        hss = [HalfSpace(primitive_int_vector(f), FE_ZERO) for f in c.facets]
        for e in c.equations:
            ue = primitive_int_vector(e)
            hss.append(HalfSpace(ue, FE_ZERO))
            hss.append(HalfSpace(tuple(-x for x in ue), FE_ZERO))
        lifted.append(make_admissible(n, hss, gamma))
    return Fan(n, gamma, *_closure(lifted, attrgetter("cone"), lambda c: c.faces()[0]))


def fan_finite_type(fan: Fan) -> bool:
    """True when every maximal cone has a finitely generated semigroup
    algebra; immediate for a discrete value group."""
    if fan.gamma.is_discrete():
        return True
    return all(is_finite_type(c) for c in fan.maximal_cones)
