"""Fans of admissible cones: the common-face gluing condition, face closure,
slice complexes at s = 1, recession fans, products with the vertical ray, and
the fan-level finite-type test.

A fan is finite by construction.  Cones are deduplicated by canonical ray
sets and assembly order is deterministic (sorted canonical forms).  Posets
are stored as the full strict-inclusion relation on indices, computed on
canonical ray sets alone: fan cones are pointed and, once the pairwise check
has passed, meet in common faces, so one fan cone lies in another iff it is
a face of it, iff its extreme rays are among the other's.

The pairwise check reads a certificate off the facets the two cones already
have, after the separation lemma (Fulton, Introduction to Toric Varieties,
§1.2): two cones meet in a common face iff some hyperplane separates them and
cuts that face out of both.  For pointed cones a and b, the cut is every
facet of a that is <= 0 on all rays of b and every facet of b that is <= 0 on
all rays of a.  Each such hyperplane is >= 0 on one cone and <= 0 on the
other, so it vanishes on a ∩ b.  The rays of a on every hyperplane of the cut
span a face F of a, those of b a face G of b, and a ∩ b lies in both.  When
the two ray sets are equal, F = G lies in a ∩ b, so a ∩ b = F is a common
face.  Only a pair whose ray sets differ costs a double description run: its
intersection is built and tested against the face lattices of both cones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissible import is_finite_type, make_admissible
from .errors import DimensionMismatch, FieldMismatch, NotAFan, shown
from .linalg import primitive_int_vector, vdot, vec
from .ordfield import FE_ZERO, ValueGroup
from .polyhedra import Cone, HalfSpace, strict_inclusions


def _cone_sort_key(c: Cone):
    return (c.intrinsic_dim(), c.key())


def _separating(a, b):
    """The facets of a that are <= 0 on every ray of b."""
    return [f for f in a.facets if all(vdot(f, r).sign() <= 0 for r in b.rays)]


def _settled(a, b):
    """True when the separating facets of a and b pick the same canonical
    rays out of both, which makes a ∩ b the cone over them, a common face."""
    cut = _separating(a, b) + _separating(b, a)

    def on_cut(c):
        return tuple(r for r in c.rays if not any(vdot(h, r) for h in cut))

    return on_cut(a) == on_cut(b)


def _checked_closure(cones, kernel, faces):
    """The pair check and face closure shared by both fan constructors.

    kernel(c) is the pointed kernel cone of input c, faces(c) its faces.
    Raises NotAFan on the first input pair, by position, whose intersection
    is not a common face.  Returns (maximal, all_cones, poset): the
    deduplicated inputs that are no face of another input, the face closure
    of those sorted by (dimension, canonical form), and its poset.

    A pair passes with no double description run when the separating facets
    of either cone (those <= 0 on the other; see the module docstring) pick
    the same canonical rays out of both cones: a ∩ b is then the cone over
    those rays, a face of both.  Any other pair falls back to building a ∩ b
    and looking it up among the faces of a and of b, which decides the pair
    and words the NotAFan message.
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

    uniq = {}
    for c in cones:
        uniq.setdefault(kernel(c).key(), c)
    items = sorted(uniq.values(), key=lambda c: _cone_sort_key(kernel(c)))
    dominated = {
        i for i, _ in strict_inclusions([kernel(c).rays for c in items])
    }
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

    maximal, all_cones, poset = _checked_closure(
        cones, lambda c: c.cone, lambda c: c.faces()[0]
    )
    return Fan(n, gamma, maximal, all_cones, poset)


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
    _, out, poset = _checked_closure(
        norm, lambda c: c, lambda c: c.face_lattice()[0]
    )
    return RationalFan(n, tuple(out), poset)


def recession_fan(fan: Fan) -> RationalFan:
    """The fan of recession cones: sigma ∩ {s = 0} in R^n for every fan cone,
    deduplicated and re-validated as a rational fan."""
    recs = []
    for ac in fan.maximal_cones:
        horiz = [r[:-1] for r in ac.cone.rays if not r[-1]]
        recs.append(Cone.from_rays(fan.n, horiz))
    return rational_fan_from_cones(fan.n, recs)


def product_fan(pi, gamma: ValueGroup) -> Fan:
    """The fan {sigma x R+ : sigma in pi} over gamma, all constants zero.

    pi is a RationalFan or a list of pointed rational cones (or ray lists).
    """
    if isinstance(pi, RationalFan):
        rf = pi
    else:
        pi = list(pi)
        if not pi:
            raise ValueError("a fan needs at least one cone")
        if isinstance(pi[0], Cone):
            n = pi[0].dim
        else:
            n = next((len(r) for c in pi for r in c), None)
        if n is None:
            raise ValueError("cannot infer the ambient dimension from pi")
        rf = rational_fan_from_cones(n, pi)
    n = rf.n
    lifted = []
    for c in rf.cones:
        hss = [HalfSpace(primitive_int_vector(f), FE_ZERO) for f in c.facets]
        for e in c.equations:
            ue = primitive_int_vector(e)
            hss.append(HalfSpace(ue, FE_ZERO))
            hss.append(HalfSpace(tuple(-x for x in ue), FE_ZERO))
        lifted.append(make_admissible(n, hss, gamma))
    return fan_from_cones(lifted)


def fan_finite_type(fan: Fan) -> bool:
    """True when every maximal cone has a finitely generated semigroup
    algebra; immediate for a discrete value group."""
    if fan.gamma.is_discrete():
        return True
    return all(is_finite_type(c) for c in fan.maximal_cones)
