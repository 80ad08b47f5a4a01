"""Exact double description kernel and the cone type built on it.

A cone is kept in both representations at once: extreme rays plus a lineality
basis on the V side, facet normals plus an equation basis on the H side, each
canonical (rays scaled to leading coefficient +-1 and sorted, subspace bases in
reduced row echelon form).  Two cones are equal iff their canonical data match.

The converter is the incremental double description method.  Constraints are
inserted one at a time; while the current lineality space meets a constraint
the cone is reduced along it, afterwards rays are partitioned by sign and
adjacent positive/negative pairs are combined.  Adjacency uses the
combinatorial criterion: rays r1, r2 of the current cone are adjacent iff no
third ray is tight on every constraint that is tight on both.  That test is
exact on minimal ray lists, which the induction maintains.

One run per cone: dd_pair also returns the inputs tight on each output ray,
and the input side is read off those incidences on first access, so a cone
whose H-side is never read costs its run alone.  Inputs tight on every ray
span the equations (or the lineality); those whose tight-ray set is maximal
by inclusion are the irredundant ones, reduced modulo that subspace at the
pivots of an echelon basis chosen from the last coordinate and scaled by
canonical_ray (the representative dd_pair's own reductions produce).  A
dual is the two sides swapped.

Faces are ray-index bitmasks: the full set closed under intersection with
the facets' masks.  face_lattice builds each face from its ray indices
alone; a face reads its H-side off the parent's constraints the same way
and takes its dimension from the graded lattice.  The containment relation
comes from per-ray bitsets of faces, never from comparing pairs of faces;
like Kaibel and Pfetsch ("Computing the face lattice of a polytope from its
vertex-facet incidences", 2002), the whole lattice is read off the
ray-facet incidences.

face_lattice's index-set routines, meet_closure and strict_inclusions, serve
the fan, slice-complex and weight-subdivision posets too.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .linalg import (
    canonical_ray,
    int_vector,
    is_zero_vec,
    rref,
    vdot,
    vec,
    vneg,
    vscale,
    vsub,
)
from .ordfield import FE_ONE, FE_ZERO, as_fe


class HalfSpace:
    """{(w, s) : <u, w> + c*s >= 0} with u integer and c a field element."""

    __slots__ = ("u", "c")

    def __init__(self, u, c):
        u = int_vector(u)
        c = as_fe(c)
        if not any(u) and not c:
            raise ValueError("half-space needs u or c nonzero")
        self.u = u
        self.c = c

    @property
    def dim(self):
        return len(self.u) + 1

    def normal(self):
        return vec(self.u) + (self.c,)

    def __eq__(self, other):
        return isinstance(other, HalfSpace) and self.u == other.u and self.c == other.c

    def __hash__(self):
        return hash((self.u, self.c))

    def __repr__(self):
        return f"HalfSpace({self.u}, {self.c})"


def dd_pair(dim, normals):
    """V-representation of {x : a . x >= 0 for a in normals}.

    Returns (rays, lineality, tight): canonical sorted extreme rays, a
    canonical basis of the lineality space, and for each ray the frozenset of
    input indices tight on it (zero inputs are never listed).
    """
    lin = [tuple(FE_ONE if i == j else FE_ZERO for j in range(dim)) for i in range(dim)]
    rays = []  # [vector, tight-index-set] pairs
    processed = []
    for idx, a in enumerate(normals):
        a = vec(a)
        if len(a) != dim:
            raise DimensionMismatch(f"constraint of length {len(a)} in dimension {dim}")
        if is_zero_vec(a):
            continue
        hit = next((j for j, l in enumerate(lin) if vdot(a, l)), None)
        if hit is not None:
            l0 = lin.pop(hit)
            if vdot(a, l0).sign() < 0:
                l0 = vneg(l0)
            al0 = vdot(a, l0)
            lin = [vsub(l, vscale(vdot(a, l) / al0, l0)) for l in lin]
            for pair in rays:
                t = vdot(a, pair[0]) / al0
                pair[0] = canonical_ray(vsub(pair[0], vscale(t, l0)))
                pair[1] = pair[1] | {idx}
            rays.append([canonical_ray(l0), set(processed)])
        else:
            pos, zero, neg = [], [], []
            for pair in rays:
                s = vdot(a, pair[0]).sign()
                (pos if s > 0 else zero if s == 0 else neg).append(pair)
            if neg:
                combos = []
                for p in pos:
                    ap = vdot(a, p[0])
                    for m in neg:
                        meet = p[1] & m[1]
                        if any(
                            meet <= r[1]
                            for r in rays
                            if r is not p and r is not m
                        ):
                            continue
                        am = vdot(a, m[0])
                        w = vsub(vscale(ap, m[0]), vscale(am, p[0]))
                        combos.append([canonical_ray(w), meet | {idx}])
                for pair in zero:
                    pair[1].add(idx)
                rays = pos + zero + combos
            else:
                for pair in zero:
                    pair[1].add(idx)
        processed.append(idx)

    rays.sort(key=lambda pair: pair[0])
    out_lin, _ = rref(lin, dim)
    return (
        tuple(pair[0] for pair in rays),
        tuple(out_lin),
        tuple(frozenset(pair[1]) for pair in rays),
    )


def _other_side(dim, inputs, tight):
    """The irredundant inputs and the input subspace, read off incidences.

    inputs are one side of a cone (constraint normals, or generators with a
    lineality basis and its negation); tight holds, for each extreme ray of
    the other side, the indices of the inputs vanishing on it.  Returns
    (irredundant, subspace) canonical as dd_pair would return them.
    """
    implicit = frozenset(range(len(inputs))).intersection(*tight)
    subspace, _ = rref([inputs[i] for i in implicit], dim)
    live = [i for i, v in enumerate(inputs) if i not in implicit and not is_zero_vec(v)]
    zero_sets = [frozenset(k for k, t in enumerate(tight) if i in t) for i in live]
    dominated = {live[a] for a, _ in strict_inclusions(zero_sets)}
    rev, pivots = rref([v[::-1] for v in subspace], dim)
    basis = [(row[::-1], dim - 1 - p) for row, p in zip(rev, pivots)]
    kept = set()
    for i in live:
        if i in dominated:
            continue
        v = inputs[i]
        for row, p in basis:
            if v[p]:
                v = vsub(v, vscale(v[p], row))
        kept.add(canonical_ray(v))
    return tuple(sorted(kept)), tuple(subspace)


def meet_closure(seeds, cuts):
    """The seeds and every set reached from one of them by intersecting with
    cuts, one cut after another; frozensets and int bitmasks alike."""
    found = set(seeds)
    todo = list(found)
    while todo:
        cur = todo.pop()
        for z in cuts:
            meet = cur & z
            if meet not in found:
                found.add(meet)
                todo.append(meet)
    return found


def strict_inclusions(sets):
    """Every (i, j) with sets[i] a proper subset of sets[j], in index order.

    sets are collections of distinct hashable items, such as frozensets or
    tuples without repeats.  No two sets are compared: each item gets the
    bitmask of the sets holding it, and the sets above sets[i] are the AND
    of its items' masks over the sets of another size (a superset of
    another size is larger), so the work is the total size plus the pairs
    returned.
    """
    ids = {}
    members = [[ids.setdefault(x, len(ids)) for x in s] for s in sets]
    holders = [0] * len(ids)
    same_size = {}
    bit = 1
    for items in members:
        for k in items:
            holders[k] |= bit
        same_size[len(items)] = same_size.get(len(items), 0) | bit
        bit <<= 1
    everyone = bit - 1
    pairs = []
    for i, items in enumerate(members):
        above = everyone ^ same_size[len(items)]
        for k in items:
            above &= holders[k]
        if above:
            pairs += [(i, j) for j in _bit_indices(above)]
    return pairs


def _bit_indices(mask):
    """The positions of the set bits of mask, ascending."""
    bits = bin(mask)[:1:-1]  # bit j is character j
    out = []
    j = bits.find("1")
    while j >= 0:
        out.append(j)
        j = bits.find("1", j + 1)
    return out


class Cone:
    """Polyhedral cone with canonical V- and H-representations.

    A cone built by a double description run, or a face from face_lattice,
    computes its H-side (facets, equations) on first access, from its
    inputs and its rays' tight sets, and keeps it; a face's intrinsic
    dimension comes from the graded lattice.
    """

    __slots__ = ("dim", "rays", "lineality", "_hside", "_pending", "_idim", "_faces")

    def __init__(self, dim, rays, lineality, facets, equations):
        self.dim = dim
        self.rays = tuple(rays)
        self.lineality = tuple(lineality)
        self._hside = (tuple(facets), tuple(equations))
        self._pending = None
        self._idim = None
        self._faces = None

    @staticmethod
    def _from_incidences(dim, rays, lineality, inputs, tight, idim=None):
        """The cone with these rays and lineality; its H-side is read off the
        inputs and tight, the inputs' indices tight on each ray, when first
        asked for.  idim is its intrinsic dimension when known."""
        cone = Cone(dim, rays, lineality, (), ())
        cone._hside, cone._pending, cone._idim = None, (inputs, tight), idim
        return cone

    def _sides(self):
        if self._hside is None:
            self._hside = _other_side(self.dim, *self._pending)
            self._pending = None
        return self._hside

    @property
    def facets(self):
        return self._sides()[0]

    @property
    def equations(self):
        return self._sides()[1]

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_constraints(dim, normals):
        normals = [vec(a) for a in normals]
        rays, lin, tight = dd_pair(dim, normals)
        return Cone._from_incidences(dim, rays, lin, normals, tight)

    @staticmethod
    def from_rays(dim, rays, lineality=()):
        lineality = [vec(l) for l in lineality]
        gens = [vec(r) for r in rays] + lineality + [vneg(l) for l in lineality]
        return Cone.from_constraints(dim, gens).dual()

    # -- basic queries --------------------------------------------------------

    def all_constraints(self):
        return list(self.facets) + list(self.equations) + [vneg(e) for e in self.equations]

    def key(self):
        return (self.dim, self.rays, self.lineality)

    def intrinsic_dim(self):
        """A face's grade in its parent's lattice, or else dim minus the
        equations (an echelon basis of span(C)^perp), computed once."""
        if self._idim is None:
            self._idim = self.dim - len(self.equations)
        return self._idim

    def is_trivial(self):
        return not self.rays and not self.lineality

    def contains_point(self, x):
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"point of length {len(x)} in dimension {self.dim}")
        return all(vdot(f, x).sign() >= 0 for f in self.facets) and all(
            not vdot(e, x) for e in self.equations
        )

    def intersect(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("intersecting cones of different ambient dimension")
        return Cone.from_constraints(
            self.dim, self.all_constraints() + other.all_constraints()
        )

    def dual(self):
        """Dual cone: the sides swapped.  Both are canonical, so a run from the
        V-side would return these very tuples."""
        return Cone(self.dim, self.facets, self.equations, self.rays, self.lineality)

    # -- faces ----------------------------------------------------------------

    def face_lattice(self):
        """All faces (including {0}-or-lineality and the cone itself) and the
        full containment relation as (sub, super) index pairs.

        Faces are ray-index bitmasks, the full set closed under intersection
        with the facets' masks; no face runs linear algebra.  The lattice is
        graded: the minimal face has dimension len(lineality), every other
        face one more than its largest proper subface.
        """
        if self._faces is not None:
            return self._faces
        constraints = self.all_constraints()
        tight = [
            frozenset(i for i, c in enumerate(constraints) if not vdot(c, r))
            for r in self.rays
        ]
        # facets come first in all_constraints, so facet j is constraint j
        facet_masks = [
            sum(1 << k for k, t in enumerate(tight) if j in t)
            for j in range(len(self.facets))
        ]
        found = meet_closure([(1 << len(self.rays)) - 1], facet_masks)
        keys = sorted(map(_bit_indices, found), key=lambda idx: (-len(idx), idx))
        edges = strict_inclusions(keys)
        # a subface comes later in keys, so reversed edges finish it first
        grade = [len(self.lineality)] * len(keys)
        for i, j in reversed(edges):
            if grade[j] <= grade[i]:
                grade[j] = grade[i] + 1
        faces = [
            Cone._from_incidences(
                self.dim,
                tuple(self.rays[i] for i in idx),
                self.lineality,
                constraints,
                [tight[i] for i in idx],
                g,
            )
            for idx, g in zip(keys, grade)
        ]
        self._faces = (faces, edges)
        return self._faces

    def rays_on(self, hyperplanes):
        """The rays on which every one of the hyperplanes vanishes."""
        return tuple(r for r in self.rays if not any(vdot(h, r) for h in hyperplanes))

    def is_face_of(self, other):
        """The least-face test: the facets of other vanishing on self's rays
        cut out a face of other, and self is a face iff it is that face."""
        if (self.dim, self.lineality) != (other.dim, other.lineality):
            return False
        cut = [f for f in other.facets if not any(vdot(f, r) for r in self.rays)]
        return other.rays_on(cut) == self.rays

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"Cone(dim={self.dim}, rays={[tuple(map(str, r)) for r in self.rays]}, "
            f"lineality={len(self.lineality)})"
        )


def vertical_normal(n):
    return tuple([FE_ZERO] * n) + (FE_ONE,)
