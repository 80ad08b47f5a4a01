"""Cone reconstruction from semigroup generators and the classification
round trip, plus rational representation certificates and the bounded
saturation check.

The reconstruction direction: a generator set G with full-rank exponents
determines the admissible cone cut out by the half-spaces (u_i, g_i); the
round trip checks that reconstructing from algebra_generators lands back on
the original cone, literally (canonical ray sets, no lattice automorphism).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from ._rational import Q
from .admissible import (
    AdmissibleCone,
    GeneratorSet,
    SemigroupElement,
    algebra_generators,
    make_admissible,
)
from .errors import DimensionMismatch, HeightUnboundedBelow, NotInCone, RankDeficient
from .lp import INFEASIBLE, UNBOUNDED, solve_min
from .linalg import rank, vdot, vec
from .ordfield import FE_ZERO, FieldElement, pair_sign
from .polyhedra import HalfSpace


def cone_from_generators(gens: GeneratorSet) -> AdmissibleCone:
    """The admissible cone whose dual is generated by the vertical ray and G.

    Each generator (u, g) becomes the half-space <u, w> + g*s >= 0.  The
    exponents must span the character space, otherwise the cone would contain
    a line (RankDeficient).
    """
    urows = [vec(e.u) for e in gens]
    if rank(urows, gens.n) < gens.n:
        raise RankDeficient(f"rank {rank(urows, gens.n)} < {gens.n}")
    hss = [HalfSpace(e.u, e.g) for e in gens]
    return make_admissible(gens.n, hss, gens.gamma)


@dataclass(frozen=True)
class RationalRepresentation:
    """(u, g) = sum lambda_hat[i] * (u_i, g_i) + kappa * (0, 1), with the
    multipliers nonnegative rationals and kappa >= 0 in the field."""

    target: SemigroupElement
    lambda_hat: tuple
    kappa: FieldElement

    def check(self, gens: GeneratorSet) -> bool:
        n = gens.n
        acc_u = [Q(0)] * n
        acc_g = FE_ZERO
        for lam, e in zip(self.lambda_hat, gens):
            if lam < 0:
                return False
            for i in range(n):
                acc_u[i] += lam * e.u[i]
            acc_g = acc_g + lam * e.g
        if self.kappa.sign() < 0:
            return False
        acc_g = acc_g + self.kappa
        return (
            tuple(acc_u) == tuple(Q(x) for x in self.target.u)
            and acc_g == self.target.g
        )


def rationalize(target, gens: GeneratorSet) -> RationalRepresentation:
    """Nonnegative rational multipliers expressing target over G + vertical.

    The LP minimizes the height spent on G subject to matching the exponent,
    and it alone decides membership in cone({(0,1)} union G): the target is
    outside exactly when the LP is infeasible or kappa = target.g - optimum
    is negative, and an unbounded LP puts (0, -1), hence the whole vertical
    line and the target, in the cone.  The optimum is a basic solution of a
    rational system, hence rational; RationalRepresentation.check verifies
    the result.
    """
    if not isinstance(target, SemigroupElement):
        target = SemigroupElement(*target)
    n = gens.n
    if len(target.u) != n:
        raise DimensionMismatch(f"u has length {len(target.u)}, expected {n}")
    glist = list(gens)
    A = [[e.u[i] for e in glist] for i in range(n)]
    b = [target.u[i] for i in range(n)]
    costs = [e.g for e in glist]
    status, lam, value = solve_min(A, b, costs)
    if status == INFEASIBLE:
        raise NotInCone((target.u, target.g))
    if status == UNBOUNDED:
        raise HeightUnboundedBelow()
    kappa = target.g - value
    if kappa.sign() < 0:
        raise NotInCone((target.u, target.g))
    out = []
    for x in lam:
        if x.d is not None:
            raise AssertionError("basic solution of a rational system must be rational")
        out.append(x.p)
    rep = RationalRepresentation(target, tuple(out), kappa)
    if not rep.check(gens):
        raise AssertionError(
            f"rational representation of ({target.u}, {target.g}) fails its check")
    return rep


@dataclass(frozen=True)
class Witness:
    """k*(u, g) is a natural combination of the generators but (u, g) is not."""

    u: tuple
    g: FieldElement
    k: int


def _gamma_grid(gamma, bound):
    """All group elements sum n_i * gen_i with |n_i| <= bound, deduplicated."""
    vals = {FE_ZERO}
    for coeffs in itertools.product(
        range(-bound, bound + 1), repeat=len(gamma.generators)
    ):
        total = FE_ZERO
        for c, g in zip(coeffs, gamma.generators):
            if c:
                total = total + c * g
        vals.add(total)
    return sorted(vals)


class _MembershipSearch:
    """Bounded membership in the semigroup generated by G and the vertical
    elements (0, v), v > 0 from a grid, for exponents in the box
    ||t||_inf <= box.

    A query (t, g) asks for c in [0, hcap]^|G| with sum c_i u_i = t and
    g - sum c_i g_i a natural combination of the vertical coins.  The
    reachable set, built once from the generators in order, maps each t in
    the box to every Gamma-sum sum c_i g_i of such a c, in the group's
    integer coordinates (ValueGroup.coords).  A partial sum is dropped when
    some coordinate lies further than the remaining generators can move it
    (hcap * |u_i| summed over the rest) from every point of the box, a
    necessary condition for reaching the box, so the state count is at most
    the number of (t, Gamma-sum) pairs reachable inside that widened box.
    Soundness is one-way: "found" is a certificate, "not found" means not
    found within the caps.
    """

    def __init__(self, gens: GeneratorSet, verts, hcap, box):
        self.gamma = gens.gamma
        self.d = gens.gamma.field.d
        self.box = box
        self.coins = [self.gamma.coords(v) for v in
                      sorted((v for v in verts if v.sign() > 0), reverse=True)]
        elems = [(e.u, self.gamma.coords(e.g)) for e in gens]
        # per coordinate, the largest |t| after generator i from which the
        # generators after it can still reach the box
        rest = [0] * gens.n
        limits = []
        for gu, _ in reversed(elems):
            limits.append(tuple(box + r for r in rest))
            rest = [r + hcap * abs(x) for r, x in zip(rest, gu)]
        limits.reverse()
        states = {tuple([0] * gens.n): {(0, 0)}}
        for (gu, (gx, gy)), lim in zip(elems, limits):
            nxt = {}
            for t, sums in states.items():
                for c in range(hcap + 1):
                    nt = tuple(a + c * x for a, x in zip(t, gu))
                    if any(abs(a) > m for a, m in zip(nt, lim)):
                        continue
                    dx, dy = c * gx, c * gy
                    nxt.setdefault(nt, set()).update(
                        (x + dx, y + dy) for x, y in sums)
            states = nxt
        self.reach = states
        self._residual_cache = {}

    def _residual_ok(self, x, y, i=0):
        """Is x + y*sqrt(d) (group coordinates) a natural combination of the
        coins from index i on?  Coins are tried largest first, each from its
        largest count down."""
        s = pair_sign(x, y, self.d)
        if s == 0:
            return True
        if s < 0 or i >= len(self.coins):
            return False
        key = (x, y, i)
        hit = self._residual_cache.get(key)
        if hit is not None:
            return hit
        cx, cy = self.coins[i]
        count = 0
        while pair_sign(x - (count + 1) * cx, y - (count + 1) * cy, self.d) >= 0:
            count += 1
        ok = any(self._residual_ok(x - c * cx, y - c * cy, i + 1)
                 for c in range(count, -1, -1))
        self._residual_cache[key] = ok
        return ok

    def member(self, u, g):
        """Is (u, g) found?  g is a group element or its integer coordinates
        (X, Y) as ValueGroup.coords gives them."""
        if any(abs(x) > self.box for x in u):
            raise AssertionError(f"exponent {u} lies outside the search box {self.box}")
        x, y = g if type(g) is tuple else self.gamma.coords(g)
        return any(self._residual_ok(x - a, y - b)
                   for a, b in self.reach.get(u, ()))


def _grid_start(hull, grid):
    """A function u -> the least index i with (u, grid[i]) in the hull, or
    len(grid) when no grid value qualifies; grid must be sorted.

    The vertical ray (0, 1) lies in the hull, so every facet (f_u, f_g) has
    f_g >= 0 and every equation has height coefficient 0.  A facet with
    f_g > 0 holds at (u, g) iff g >= -<f_u, u> / f_g, so (u, g) is in the
    hull iff the equations and the facets with f_g = 0 hold at u and g is at
    least t(u), the largest of those bounds: exact, with one bound per facet
    instead of one test per grid value.
    """
    lower = [(f[:-1], f[-1]) for f in hull.facets if f[-1]]
    level = [f[:-1] for f in hull.facets if not f[-1]]
    flat = [e[:-1] for e in hull.equations]

    def start(u):
        uv = vec(u)
        if any(vdot(f, uv).sign() < 0 for f in level) or any(vdot(e, uv) for e in flat):
            return len(grid)
        if not lower:
            return 0
        return bisect_left(grid, max(-vdot(f, uv) / c for f, c in lower))

    return start


def saturation_check(gens: GeneratorSet, bounds):
    """Bounded saturation test of the semigroup generated by G and the
    vertical elements (0, gamma >= 0).

    bounds is (B_u, k_max) or (B_u, k_max, grid_bound); the vertical grid is
    every group value sum n_i*gen_i with |n_i| <= grid_bound (default 3).
    Membership is answered from one reachable set (_MembershipSearch) built
    for the box ||t||_inf <= k_max * B_u, which holds every exponent u and
    k*u the scan asks about: each generator coefficient is capped at
    2*(B_u + k_max), and the leftover height must be a natural combination
    of the positive grid values.  Returns the first Witness(u, g, k) in
    lexicographic scan order (u, then g in the grid, then k) with k*(u, g)
    representable but (u, g) not, or None when the semigroup is saturated
    within the bounds.

    Only (u, g) in the hull of G are tried.  For each u the hull's facets
    give one exact threshold t(u) (_grid_start): the grid, sorted, is
    scanned from its first value >= t(u), and u is skipped outright when a
    facet or equation that does not involve the height fails at u.  Queries
    pass the grid's integer coordinates, computed once.
    """
    if len(bounds) == 2:
        b_u, k_max = bounds
        grid_bound = 3
    else:
        b_u, k_max, grid_bound = bounds
    if b_u < 1 or k_max < 2 or grid_bound < 1:
        raise ValueError(f"bounds must satisfy B_u >= 1, k_max >= 2, grid >= 1: {bounds}")

    grid = _gamma_grid(gens.gamma, grid_bound)
    coords = [gens.gamma.coords(g) for g in grid]
    search = _MembershipSearch(gens, grid, 2 * (b_u + k_max), k_max * b_u)
    start = _grid_start(gens.hull(), grid)

    for u in itertools.product(range(-b_u, b_u + 1), repeat=gens.n):
        for i in range(start(u), len(grid)):
            x, y = coords[i]
            for k in range(2, k_max + 1):
                ku = tuple(k * a for a in u)
                if search.member(ku, (k * x, k * y)) and not search.member(u, (x, y)):
                    return Witness(u, grid[i], k)
    return None


@dataclass(frozen=True)
class RoundTripReport:
    ok: bool
    generators: GeneratorSet
    reconstructed: AdmissibleCone
    detail: str = ""


def round_trip(ac: AdmissibleCone, bound: int) -> RoundTripReport:
    """algebra_generators then cone_from_generators; Ok iff the canonical ray
    sets coincide."""
    gens = algebra_generators(ac, bound)
    recon = cone_from_generators(gens)
    if recon.cone == ac.cone:
        return RoundTripReport(True, gens, recon)
    detail = (
        f"reconstructed rays {[tuple(map(str, r)) for r in recon.cone.rays]} "
        f"!= original {[tuple(map(str, r)) for r in ac.cone.rays]}"
    )
    return RoundTripReport(False, gens, recon, detail)
