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

Sign questions about a cone that is already built never touch field
elements.  A built cone turns its rays and its constraints (facets, then
equations and their negations) into integer rows once and keeps them: a
row is the vector scaled by a positive integer into integer tuples (P, R)
with v proportional to P + R*sqrt(d), R absent over Q, and the sign of a
dot product is ordfield.pair_sign of two integer sums.  Each constraint's
zero set over the rays is one bitmask, shared by the face lattice, the
least-face test, the fan pair certificate (separating_cut) and the face at
x_last = 0; a face takes its rays' rows from its parent.  Rows stay inside
this module; vdot is left to dd_pair, the kernel.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .errors import DimensionMismatch, FieldMismatch
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
from .ordfield import FE_ONE, FE_ZERO, as_fe, pair_sign


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


def _row(v):
    """(P, R, d): v scaled by a positive integer, v ~ P + R*sqrt(d) with P
    and R integer tuples; R and d are None when v is rational."""
    d = None
    dens = []
    for x in v:
        dens.append(x.p.denominator)
        if x.d is not None:
            d = x.d
            dens.append(x.q.denominator)
    den = lcm(*dens)
    P = tuple(x.p.numerator * den // x.p.denominator for x in v)
    if d is None:
        return P, None, None
    return P, tuple(x.q.numerator * den // x.q.denominator for x in v), d


def _row_sign(f, r):
    """The sign of <f, r> for rows f and r."""
    fp, fq, d = f
    rp, rq, e = r
    a = sum(map(mul, fp, rp))
    if fq is None:
        if rq is None:
            return (a > 0) - (a < 0)
        return pair_sign(a, sum(map(mul, fp, rq)), e)
    if rq is None:
        return pair_sign(a, sum(map(mul, fq, rp)), d)
    if d != e:
        raise FieldMismatch(f"cannot mix sqrt({d}) and sqrt({e}) elements")
    return pair_sign(a + d * sum(map(mul, fq, rq)),
                     sum(map(mul, fp, rq)) + sum(map(mul, fq, rp)), d)


def _zero_mask(row, rows):
    """The bitmask of the rows on which row vanishes."""
    mask = 0
    bit = 1
    for r in rows:
        if not _row_sign(row, r):
            mask |= bit
        bit <<= 1
    return mask


class Cone:
    """Polyhedral cone with canonical V- and H-representations.

    A cone built by a double description run, or a face from face_lattice,
    computes its H-side (facets, equations) on first access, from its
    inputs and its rays' tight sets, and keeps it; a face's intrinsic
    dimension comes from the graded lattice.  Integer rows of the rays and
    constraints, and each constraint's zero mask over the rays, are made on
    first use and kept (module docstring).
    """

    __slots__ = ("dim", "rays", "lineality", "_hside", "_inputs", "_idim",
                 "_faces", "_rrows", "_crows", "_masks")

    def __init__(self, dim, rays, lineality, facets, equations):
        self.dim = dim
        self.rays = tuple(rays)
        self.lineality = tuple(lineality)
        self._hside = (tuple(facets), tuple(equations))
        self._inputs = None
        self._idim = None
        self._faces = None
        self._rrows = None
        self._crows = None
        self._masks = None

    @staticmethod
    def _from_incidences(dim, rays, lineality, inputs, tight, idim=None):
        """The cone with these rays and lineality; its H-side is read off the
        inputs and tight, the inputs' indices tight on each ray, when first
        asked for.  idim is its intrinsic dimension when known."""
        cone = Cone(dim, rays, lineality, (), ())
        cone._hside, cone._inputs, cone._idim = None, (inputs, tight), idim
        return cone

    def _sides(self):
        if self._hside is None:
            self._hside = _other_side(self.dim, *self._inputs)
        return self._hside

    @property
    def facets(self):
        return self._sides()[0]

    @property
    def equations(self):
        return self._sides()[1]

    def incidences(self):
        """For each ray of a cone from from_constraints, the indices of the
        inputs tight on it: the run's incidence sets."""
        return self._inputs[1]

    # -- integer rows ---------------------------------------------------------

    def _ray_rows(self):
        if self._rrows is None:
            self._rrows = tuple(map(_row, self.rays))
        return self._rrows

    def _constraint_rows(self):
        """Rows of all_constraints(), in its order."""
        if self._crows is None:
            self._crows = tuple(map(_row, self.all_constraints()))
        return self._crows

    def _zero_masks(self):
        """For each constraint, in all_constraints() order, the bitmask of
        the rays it vanishes on."""
        if self._masks is None:
            rays = self._ray_rows()
            self._masks = tuple(_zero_mask(c, rays) for c in self._constraint_rows())
        return self._masks

    def _tight(self, k):
        """The indices of the constraints vanishing on ray k."""
        return frozenset(j for j, m in enumerate(self._zero_masks()) if m >> k & 1)

    def _rays_in(self, mask):
        return tuple(self.rays[k] for k in _bit_indices(mask))

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

    def horizontal_face(self):
        """The face on x_last = 0 of a cone in {x_last >= 0}, as a cone in
        R^(dim - 1), with no run: its rays are the rays with last coordinate
        0, its inputs the constraints, that coordinate dropped from both,
        and its rays' tight sets are read off the zero masks."""
        keep = [k for k, r in enumerate(self.rays) if not r[-1]]
        return Cone._from_incidences(
            self.dim - 1,
            tuple(self.rays[k][:-1] for k in keep),
            tuple(l[:-1] for l in self.lineality),
            [c[:-1] for c in self.all_constraints()],
            [self._tight(k) for k in keep],
        )

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
        x = _row(x)
        rows = self._constraint_rows()
        nf, ne = len(self.facets), len(self.equations)
        return all(_row_sign(f, x) >= 0 for f in rows[:nf]) and not any(
            _row_sign(e, x) for e in rows[nf:nf + ne]
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
        if self._faces is None:
            self._faces = self._build_lattice()
        return self._faces[:2]

    def _build_lattice(self):
        """(faces, edges, masks): face_lattice's pair and each face's ray mask."""
        constraints = self.all_constraints()
        tight = [self._tight(k) for k in range(len(self.rays))]
        # facets come first in all_constraints, so facet j is constraint j
        found = meet_closure([(1 << len(self.rays)) - 1],
                             self._zero_masks()[:len(self.facets)])
        items = sorted(((_bit_indices(m), m) for m in found),
                       key=lambda item: (-len(item[0]), item[0]))
        keys = [idx for idx, _ in items]
        edges = strict_inclusions(keys)
        # a subface comes later in keys, so reversed edges finish it first
        grade = [len(self.lineality)] * len(keys)
        for i, j in reversed(edges):
            if grade[j] <= grade[i]:
                grade[j] = grade[i] + 1
        rows = self._ray_rows()
        faces = []
        for idx, g in zip(keys, grade):
            face = Cone._from_incidences(
                self.dim,
                tuple(self.rays[i] for i in idx),
                self.lineality,
                constraints,
                [tight[i] for i in idx],
                g,
            )
            face._rrows = tuple(rows[i] for i in idx)
            faces.append(face)
        return faces, edges, [m for _, m in items]

    def tight_on_faces(self, normals):
        """For each face of face_lattice(), in its order, the indices of the
        normals that vanish on the whole face (its rays and the lineality)."""
        if self._faces is None:
            self.face_lattice()
        rays = self._ray_rows()
        lin = [_row(l) for l in self.lineality]
        zero = []
        for i, a in enumerate(normals):
            h = _row(vec(a))
            if not any(_row_sign(h, l) for l in lin):
                zero.append((i, _zero_mask(h, rays)))
        return [tuple(i for i, z in zero if z & m == m) for m in self._faces[2]]

    def rays_on(self, hyperplanes):
        """The rays on which every one of the hyperplanes vanishes."""
        mask = (1 << len(self.rays)) - 1
        for h in hyperplanes:
            h = vec(h)
            if len(h) != self.dim:
                raise DimensionMismatch(f"hyperplane of length {len(h)} in dimension {self.dim}")
            mask &= _zero_mask(_row(h), self._ray_rows())
        return self._rays_in(mask)

    def is_face_of(self, other):
        """The least-face test: the facets of other vanishing on self's rays
        cut out a face of other, and self is a face iff it is that face."""
        if (self.dim, self.lineality) != (other.dim, other.lineality):
            return False
        rays = self._ray_rows()
        nf = len(other.facets)
        mask = (1 << len(other.rays)) - 1
        for f, own in zip(other._constraint_rows()[:nf], other._zero_masks()):
            if not any(_row_sign(f, r) for r in rays):
                mask &= own
        return other._rays_in(mask) == self.rays

    def _cut_masks(self, other):
        """(here, there): the rays of self, and those of other, on every
        constraint of self that is <= 0 on all rays of other, as masks."""
        here = (1 << len(self.rays)) - 1
        there = (1 << len(other.rays)) - 1
        rays = other._ray_rows()
        for c, own in zip(self._constraint_rows(), self._zero_masks()):
            zero = 0
            bit = 1
            for r in rays:
                s = _row_sign(c, r)
                if s > 0:
                    break
                if not s:
                    zero |= bit
                bit <<= 1
            else:
                here &= own
                there &= zero
        return here, there

    def separating_cut(self, other):
        """The rays of self and the rays of other on every hyperplane of the
        cut: the constraints of either cone (facets, and either sign of each
        equation) that are <= 0 on all rays of the other cone."""
        a_here, b_there = self._cut_masks(other)
        b_here, a_there = other._cut_masks(self)
        return self._rays_in(a_here & a_there), other._rays_in(b_here & b_there)

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
