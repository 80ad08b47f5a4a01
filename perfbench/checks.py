"""Exact output checks, one per command.

The checks read the JSON a job printed and verify it with the benchmark's own
arithmetic (``exact``) against what the generator knows by construction.
They never call the timed code path; the one borrowed routine is
``tests/oracles.py::brute_member``, imported read-only, which itself uses
only the toolkit's scalar type.

``check`` returns None for a correct output, or (kind, reason) where kind is
"wrong" for a wrong answer and "incomplete" for a generator set that misses
a semigroup member inside the checked box (a known open defect of the
discrete-group generator search).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction as F

from exact import QS, dot, rank
from workloads import vec_parse


class Wrong(Exception):
    pass


def expect(cond, reason):
    if not cond:
        raise Wrong(reason)


def pvec(strs):
    return tuple(QS.parse(s) for s in strs)


def normalized(v):
    """Positive rescaling with the first nonzero coordinate equal to +-1."""
    lead = next(x for x in v if x.sign())
    lead = lead if lead.sign() > 0 else -lead
    return tuple(x / lead for x in v)


def in_gamma(x, unit):
    x = QS.of(x)
    if unit is None:  # <1, sqrt(2)>
        return x.p.denominator == 1 and x.q.denominator == 1
    return x.q == 0 and (x.p / unit).denominator == 1


def halfspaces_of(expect_hs):
    return [(tuple(u), vec_parse([c])[0]) for u, c in expect_hs]


def vertex_ok(v, hs, n):
    """v satisfies every half-space and is tight on n independent ones."""
    vals = [dot(u, v) + c for u, c in hs]
    if any(x.sign() < 0 for x in vals):
        return False
    tight = [u for (u, _), x in zip(hs, vals) if x.sign() == 0]
    return len(tight) >= n and rank(tight) == n


# -- cones ----------------------------------------------------------------------


def check_cone(job, out):
    e = job["expect"]
    n, hs = e["n"], halfspaces_of(e["halfspaces"])
    verts = {tuple(vec_parse(v)) for v in e["vertices"]}
    expect(out.get("admissible") is True and out.get("n") == n, "not reported admissible")
    got = [pvec(v) for v in out["slice_vertices"]]
    expect(len(got) == len(set(got)) and set(got) == verts, "slice vertices differ")
    expect(all(vertex_ok(v, hs, n) for v in got), "a slice vertex is not a vertex")
    expect(out["recession_rays"] == [] and len(out["rays"]) == len(verts), "wrong ray count")
    bad = {v for v in verts if not all(in_gamma(x, None) for x in v)} if e["bad"] else set()
    expect(out["finite_type"] is (not bad), "wrong finite-type verdict")
    if bad:
        expect({pvec(v) for v in out["bad_vertex"]} == bad, "wrong bad vertices")


def check_dual(job, out):
    e = job["expect"]
    n, hs = e["n"], halfspaces_of(e["halfspaces"])
    points = [tuple(vec_parse(v)) + (QS(1),) for v in e["vertices"]]
    facets = set()
    for u, c in hs:
        tight = [p for p in points if (dot(u, p[:n]) + c).sign() == 0]
        if tight and rank(tight) == n:
            facets.add(normalized(tuple(QS(x) for x in u) + (c,)))
    expect(out["lineality"] == [] and out["n"] == n, "dual has lineality")
    rays = [pvec(r) for r in out["rays"]]
    expect({normalized(r) for r in rays} == facets and len(rays) == len(facets),
           "dual rays are not the facet normals")


# -- fans -------------------------------------------------------------------------


def check_fan_validate(job, out):
    e = job["expect"]
    if e["pair"] is None:
        expect(out == {"valid": True, "n": 2, "maximal_cones": e["maximal"],
                       "total_cones": e["total"]}, "wrong fan summary")
    else:
        expect(out["valid"] is False and [out["i"], out["j"]] == e["pair"], "wrong offending pair")


def check_slice(job, out):
    e = job["expect"]
    if e["pair"] is not None:
        expect(out.get("kind") == "NotAFan", "overlap not reported as NotAFan")
        return
    points = {tuple(vec_parse(p)) for p in e["points"]}
    cones = [halfspaces_of(c) for c in e["cones"]]
    got = [pvec(v) for v in out["vertices"]]
    expect(set(got) == points and out["components"] == len(points), "slice vertices differ")
    expect(all(any(vertex_ok(v, hs, 2) for hs in cones) for v in got),
           "a slice vertex is not a vertex of any cone")
    expect(len(out["cells"]) == e["cells"] and len(out["poset"]) == e["poset"], "wrong cell count")
    for cell in out["cells"]:
        expect(cell["recession_rays"] == [] and {pvec(v) for v in cell["vertices"]} <= points,
               "a cell has a vertex off the grid")


# -- weight subdivisions ------------------------------------------------------------


def _hull_area2(pts):
    """Twice the area of the convex hull of integer points (monotone chain)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        hull.extend(part[:-1])
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])))


def check_weightsub(job, out):
    e = job["expect"]
    pts = [tuple(p) for p in e["points"]]
    heights = [vec_parse([h])[0] for h in e["heights"]]
    cells = [tuple(c) for c in out["cells"]]
    certs = out["certificates"]
    expect(sorted(certs) == sorted(",".join(map(str, c)) for c in cells), "cells and certificates differ")
    for cell in cells:
        cert = certs[",".join(map(str, cell))]
        phi, beta = pvec(cert["phi"]), QS.parse(cert["beta"])
        tight = set(cert["tight"])
        for j, (u, a) in enumerate(zip(pts, heights)):
            gap = a - (dot(phi, u) + beta)
            expect(gap.sign() >= 0, "certificate exceeds a height")
            expect((gap.sign() == 0) == (j in tight), "certificate tight set is wrong")
        expect(tight <= set(cell), "tight point outside its cell")
    expect(sum(_hull_area2([pts[j] for j in c]) for c in cells) == _hull_area2(pts),
           "cells do not tile the weight polygon")
    faces = [tuple(f) for f in out["faces"]]
    expect(all(any(set(f) <= set(c) for c in cells) for f in faces), "a face lies in no cell")
    expect(all((c in faces) for c in cells), "a cell is not a face")
    if e["flat_k"]:
        k = e["flat_k"]
        expect(cells == [tuple(range(k))], "flat polygon is not one cell")
        expect(sorted(out["face_dims"]) == [0] * k + [1] * k + [2], "wrong faces of a flat polygon")


def check_orbits(job, out, outputs):
    e = job["expect"]
    orbits = out["orbits"]
    expect(all(o["nonzero_coords"] == o["face"] for o in orbits), "coordinates differ from face")
    if e["flat_k"]:
        k = e["flat_k"]
        expect(sorted(o["dim"] for o in orbits) == [0] * k + [1] * k + [2], "wrong orbits of a flat polygon")
    sib = json.loads(outputs[e["sibling"]])
    expect([o["face"] for o in orbits] == sib["faces"]
           and [o["dim"] for o in orbits] == sib["face_dims"], "orbits differ from the subdivision faces")


# -- semigroups ----------------------------------------------------------------------


def _psi(p, u, g):
    return sum((F(a) * b for a, b in zip(u, p)), F(0)) + g


BRUTE_LIMIT = 20000  # largest coefficient box handed to brute_member


def member(gens, unit, p, u, g):
    """Is (u, g) a natural combination of gens plus a vertical (0, v), v >= 0
    in Gamma?  psi = <., p> + g is positive on every generator, so only
    generators with psi <= psi(target) occur, each at most psi(target) /
    psi(gen) times.  brute_member searches that coefficient box when it is
    small; a larger box goes to an exhaustive reachable-set search over the
    same region, which keeps the least height reached at each exponent."""
    pt = _psi(p, u, g)
    rel = [(gu, gg) for gu, gg in gens if _psi(p, gu, gg) <= pt]
    if not rel:
        return not any(u) and g >= 0
    cap = max(math.floor(pt / _psi(p, gu, gg)) for gu, gg in rel)
    if (cap + 1) ** len(rel) <= BRUTE_LIMIT:
        from oracles import brute_member
        from toricval import SemigroupElement, fe

        span = g + cap * sum(abs(gg) for _, gg in rel)
        verticals = [fe(j * unit) for j in range(int(span / unit) + 2)]
        elems = [SemigroupElement(gu, fe(gg)) for gu, gg in rel]
        return brute_member(elems, verticals, tuple(u), fe(g), cap)
    zero = tuple(0 for _ in u)
    best = {zero: F(0)}
    todo = [zero]
    while todo:
        cur = todo.pop()
        for gu, gg in rel:
            nu = tuple(a + b for a, b in zip(cur, gu))
            ng = best[cur] + gg
            if _psi(p, nu, ng) <= pt and (nu not in best or ng < best[nu]):
                best[nu] = ng
                todo.append(nu)
    return tuple(u) in best and best[tuple(u)] <= g


def _height(verts, u):
    return max(-sum((F(a) * x.p for a, x in zip(u, v)), F(0)) for v in verts)


def _parse_gens(items):
    gens = []
    for item in items:
        g = QS.from_json(item["g"])
        expect(g.q == 0, "irrational height over Q")
        gens.append((tuple(item["u"]), g.p))
    return gens


def check_generator_soundness(e, gens):
    verts = [vec_parse(v) for v in e["vertices"]]
    unit = F(e["unit"])
    expect(gens, "no generators")
    for u, g in gens:
        expect((g / unit).denominator == 1, f"height {g} not in Gamma")
        expect(g >= _height(verts, u), f"generator ({u}, {g}) is not in S")


def check_generators(job, out):
    e = job["expect"]
    gens = _parse_gens(out["gens"])
    expect(out["bound"] == e["bound"], "bound not echoed")
    check_generator_soundness(e, gens)
    verts = [vec_parse(v) for v in e["vertices"]]
    unit = F(e["unit"])
    for u in itertools.product((-1, 0, 1), repeat=e["n"]):
        if not any(u):
            continue
        g = unit * math.ceil(_height(verts, u) / unit)
        if not member(gens, unit, e["p"], u, g):
            return ("incomplete", f"({list(u)}, {g}) is in S but not generated")
    return None


def check_round_trip(job, out):
    e = job["expect"]
    expect(out["status"] == "ok", "round trip mismatch")
    check_generator_soundness(e, _parse_gens(out["generators"]))
    verts = {tuple(vec_parse(v)) for v in e["vertices"]}
    got = set()
    for r in out["reconstructed_rays"]:
        r = pvec(r)
        expect(r[-1].sign() > 0, "reconstructed cone has a horizontal ray")
        got.add(tuple(x / r[-1] for x in r[:-1]))
    expect(got == verts, "reconstructed rays differ")


def _set_of(e):
    return [(tuple(u), F(g)) for u, g in e["gens"]], F(e["unit"]), [F(x) for x in e["p"]]


def check_saturation(job, out):
    e = job["expect"]
    if job["exit"] == 0:
        expect(out == {"status": "saturated", "bu": e["bu"], "kmax": e["kmax"]}, "wrong verdict")
        return
    gens, unit, p = _set_of(e)
    expect(out["status"] == "witness", "no witness")
    u, k = tuple(out["u"]), out["k"]
    g = QS.from_json(out["g"])
    expect(g.q == 0 and (g.p / unit).denominator == 1, "witness height not in Gamma")
    expect(max(map(abs, u)) <= e["bu"] and 2 <= k <= e["kmax"], "witness outside the bounds")
    expect(not member(gens, unit, p, u, g.p), "witness is in the semigroup")
    expect(member(gens, unit, p, tuple(k * x for x in u), k * g.p), "k * witness is not in the semigroup")


def check_rationalize(job, out):
    e = job["expect"]
    gens, _, _ = _set_of(e)
    reps = out["reps"]
    expect(len(reps) == len(e["targets"]), "missing representations")
    for (tu, tg), rep in zip(e["targets"], reps):
        lam = [F(x) for x in rep["lambda"]]
        kappa = QS.from_json(rep["kappa"])
        expect(kappa.q == 0 and kappa.p >= 0 and all(x >= 0 for x in lam), "negative multiplier")
        for i in range(e["n"]):
            expect(sum(x * gu[i] for x, (gu, _) in zip(lam, gens)) == tu[i], "exponent mismatch")
        expect(sum(x * gg for x, (_, gg) in zip(lam, gens)) + kappa.p == F(tg), "height mismatch")


_CHECKS = {
    "check-cone": check_cone,
    "dual": check_dual,
    "fan-validate": check_fan_validate,
    "slice": check_slice,
    "weightsub": check_weightsub,
    "generators": check_generators,
    "round-trip": check_round_trip,
    "saturation": check_saturation,
    "rationalize": check_rationalize,
}


def check(job, text, outputs):
    """None when the output of job is right, else (kind, reason)."""
    try:
        out = json.loads(text)
        if job["cmd"] == "orbits":
            return check_orbits(job, out, outputs)
        return _CHECKS[job["cmd"]](job, out)
    except Wrong as exc:
        return ("wrong", str(exc))
    except (KeyError, TypeError, ValueError, StopIteration, ZeroDivisionError) as exc:
        return ("wrong", f"unreadable output: {type(exc).__name__}: {exc}")
