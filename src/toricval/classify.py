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
from dataclasses import dataclass

from ._rational import Q
from .admissible import (
    AdmissibleCone,
    GeneratorSet,
    SemigroupElement,
    algebra_generators,
    make_admissible,
)
from .errors import HeightUnboundedBelow, NotInCone, RankDeficient
from .lp import INFEASIBLE, UNBOUNDED, solve_min
from .linalg import rank, vec
from .ordfield import FE_ZERO, FieldElement
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

    Membership in cone({(0,1)} union G) is checked up front by contains_point;
    the LP then minimizes the height spent on G subject to matching the
    exponent.  The optimum is a basic solution of a rational system, hence
    rational, and kappa = target.g - optimum >= 0 whenever membership held,
    which the LP route re-verifies independently.
    """
    if not isinstance(target, SemigroupElement):
        target = SemigroupElement(*target)
    n = gens.n
    glist = list(gens)
    if not gens.hull().contains_point(target.pair_vector()):
        raise NotInCone((target.u, target.g))
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
    """Bounded search for natural-number combinations of G plus vertical
    grid elements.  Soundness is one-way: "found" is a certificate, "not
    found" means not found within the caps."""

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
        acc = FE_ZERO
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
        ok = self._search(0, tuple([0] * self.n), FE_ZERO, u, g)
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


def saturation_check(gens: GeneratorSet, bounds):
    """Bounded saturation test of the semigroup generated by G and the
    vertical elements (0, gamma >= 0).

    bounds is (B_u, k_max) or (B_u, k_max, grid_bound); the vertical grid is
    every group value sum n_i*gen_i with |n_i| <= grid_bound (default 3), and
    the combination search caps each generator coefficient at
    2*(B_u + k_max).  Returns the first Witness(u, g, k) in lexicographic
    scan order with k*(u,g) representable but (u,g) not, or None when the
    semigroup is saturated within the bounds.
    """
    if len(bounds) == 2:
        b_u, k_max = bounds
        grid_bound = 3
    else:
        b_u, k_max, grid_bound = bounds
    if b_u < 1 or k_max < 2 or grid_bound < 1:
        raise ValueError(f"bounds must satisfy B_u >= 1, k_max >= 2, grid >= 1: {bounds}")

    grid = _gamma_grid(gens.gamma, grid_bound)
    search = _MembershipSearch(gens, grid, 2 * (b_u + k_max))
    hull = gens.hull()

    for u in itertools.product(range(-b_u, b_u + 1), repeat=gens.n):
        for g in grid:
            if not hull.contains_point(vec(u) + (g,)):
                continue
            for k in range(2, k_max + 1):
                ku = tuple(k * x for x in u)
                kg = k * g
                if search.member(ku, kg) and not search.member(u, g):
                    return Witness(u, g, k)
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
