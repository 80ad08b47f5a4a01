"""Seeded inputs and the job manifest of each workload.

A job is one CLI call on a generated JSON file, or for ``rationalize``, which
has no CLI command, one library call per target of a batch.  The expected
exit code of every job follows from its construction; ``expect`` carries the
data the checker needs to verify the output exactly.  The program sees only
the generated files.

Sizes are fixed per job slot and only the contents vary with the seed, so
the cost of a job list changes little from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction as F

from exact import QS, dot, qstr, rank, solve

WORKLOADS = ("faces", "semigroup", "quadratic")

# value groups by short name: (wire document, unit for constants and heights)
_Z = {"field": {"kind": "rational"}, "generators": [{"p": "1/1", "q": "0/1"}]}
_HALF = {"field": {"kind": "rational"}, "generators": [{"p": "1/2", "q": "0/1"}]}
_SIXTH = {"field": {"kind": "rational"},
          "generators": [{"p": "1/2", "q": "0/1"}, {"p": "1/3", "q": "0/1"}]}
_S2 = {"field": {"kind": "quadratic", "d": 2},
       "generators": [{"p": "1/1", "q": "0/1"}, {"p": "0/1", "q": "1/1"}]}
GAMMAS = {"Z": (_Z, F(1)), "half": (_HALF, F(1, 2)), "sixth": (_SIXTH, F(1, 6))}


def fe_json(x):
    return QS.of(x).to_json()


def vec_str(v):
    return [[qstr(x.p), qstr(x.q)] for x in map(QS.of, v)]


def vec_parse(v):
    return tuple(QS(F(p), F(q)) for p, q in v)


def cone_doc(n, halfspaces):
    return {"n": n, "halfspaces": [{"u": list(u), "c": fe_json(c)}
                                   for u, c in halfspaces]}


def vertices(n, halfspaces):
    """Vertices of {w : <u, w> + c >= 0} by trying every n-subset of the
    constraints; independent of the toolkit's double description."""
    found = set()
    for sub in itertools.combinations(halfspaces, n):
        w = solve([u for u, _ in sub], [-QS.of(c) for _, c in sub])
        if w is not None and all((dot(u, w) + c).sign() >= 0 for u, c in halfspaces):
            found.add(w)
    return sorted(found, key=lambda w: [(x.p, x.q) for x in w])


# -- polygons, boxes and grids --------------------------------------------------


def lattice_polygon(rng, k):
    """A convex lattice k-gon, counterclockwise: k integer edge vectors with
    distinct directions summing to zero, sorted by angle."""
    while True:
        edges = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k - 1)]
        if any(e == (0, 0) for e in edges):
            continue
        edges.append((-sum(e[0] for e in edges), -sum(e[1] for e in edges)))
        if edges[-1] == (0, 0):
            continue
        dirs = {(e[0] // math.gcd(*e), e[1] // math.gcd(*e)) for e in edges}
        if len(dirs) < k:
            continue
        edges.sort(key=lambda e: math.atan2(e[1], e[0]))
        pts = [(0, 0)]
        for e in edges[:-1]:
            pts.append((pts[-1][0] + e[0], pts[-1][1] + e[1]))
        return pts


def polygon_halfspaces(pts):
    """Inward primitive edge normals u and constants c = -<u, v>."""
    out = []
    for a, b in zip(pts, pts[1:] + pts[:1]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = math.gcd(dx, dy)
        u = (-dy // g, dx // g)
        out.append((u, F(-(u[0] * a[0] + u[1] * a[1]))))
    return out


def shift(halfspaces, t):
    """The half-spaces of the region translated by t."""
    return [(u, QS.of(c) - dot(u, t)) for u, c in halfspaces]


def scale(halfspaces, s):
    return [(u, QS.of(c) * s) for u, c in halfspaces]


def bad_polygon(rng, k):
    """A k-gon with integer normals and integer constants and at least one
    vertex outside Z^2: a lattice k-gon with one edge moved inward by one
    level, kept when the k edges stay facets."""
    while True:
        hs = polygon_halfspaces(lattice_polygon(rng, k))
        j = rng.randrange(k)
        hs[j] = (hs[j][0], hs[j][1] - 1)
        verts = vertices(2, hs)
        if len(verts) != k:
            continue
        if any(x.p.denominator != 1 for v in verts for x in v):
            return hs


def box_halfspaces(lo, hi):
    d = len(lo)
    out = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        out.append((e, -F(lo[i])))
        out.append((tuple(-x for x in e), F(hi[i])))
    return out


def grid_boxes(rng, m):
    """Boxes of an m x m grid with seeded even breakpoints, so that a box
    shifted by 1 still has integer constants."""
    xs, ys = [0], [0]
    for _ in range(m):
        xs.append(xs[-1] + 2 * rng.randint(1, 3))
        ys.append(ys[-1] + 2 * rng.randint(1, 3))
    return [((xs[i], ys[j]), (xs[i + 1], ys[j + 1]))
            for i in range(m) for j in range(m)]


def _box_face_of(inter, box):
    lo, hi = box
    for a in range(2):
        ilo, ihi = inter[0][a], inter[1][a]
        if (ilo, ihi) != (lo[a], hi[a]) and not (ilo == ihi and ilo in (lo[a], hi[a])):
            return False
    return True


def boxes_meet_in_face(a, b):
    lo = tuple(max(a[0][i], b[0][i]) for i in range(2))
    hi = tuple(min(a[1][i], b[1][i]) for i in range(2))
    if any(l > h for l, h in zip(lo, hi)):
        return True  # the cones meet in the apex only
    return _box_face_of((lo, hi), a) and _box_face_of((lo, hi), b)


def first_bad_pair(boxes):
    for i, j in itertools.combinations(range(len(boxes)), 2):
        if not boxes_meet_in_face(boxes[i], boxes[j]):
            return [i, j]
    return None


# -- jobs ------------------------------------------------------------------------


class JobSet:
    """Collects jobs and writes their input files."""

    def __init__(self, workload, seed, indir):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.indir = indir
        self.jobs = []

    def write(self, doc):
        name = f"in{len(self.jobs):03d}.json"
        with open(self.indir / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        return name

    def add(self, cmd, family, exit_code, expect, doc=None, flags=(), infile=None):
        if infile is None:
            infile = self.write(doc)
        job = {"id": f"{self.workload}-{len(self.jobs):03d}", "cmd": cmd,
               "family": family, "input": infile, "flags": list(flags),
               "exit": exit_code, "expect": expect}
        self.jobs.append(job)
        return job

    def gamma(self, names):
        name = self.rng.choice(names)
        return name, GAMMAS[name]

    # -- cones ----------------------------------------------------------------

    def cone_jobs(self, family, n, hs, gamma_doc, count_check, count_dual, bad_expected):
        verts = vertices(n, hs)
        doc = {"gamma": gamma_doc, "cone": cone_doc(n, hs)}
        expect = {"n": n, "halfspaces": [[list(u), vec_str([c])[0]] for u, c in hs],
                  "vertices": [vec_str(v) for v in verts], "bad": bad_expected}
        for _ in range(count_check):
            self.add("check-cone", family, 2 if bad_expected else 0, expect, doc)
        for _ in range(count_dual):
            self.add("dual", family, 0, expect, doc)

    def rational_scale(self, gname):
        # over <1/2, 1/3> shrink the geometry so constants use the whole group
        return F(1) if gname == "Z" else self.rng.choice([F(1, 2), F(1, 3), F(1, 6)])

    def quad_shift(self, normals, d):
        """A translation a*sqrt(2) with no normal orthogonal to it, so every
        constant gets an irrational part."""
        while True:
            a = [self.rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(d)]
            if all(sum(x * y for x, y in zip(u, a)) for u in normals):
                return [QS(0, x) for x in a]

    def place(self, hs, d, quadratic):
        """Half-spaces and value group: shifted by a*sqrt(2) over <1, sqrt(2)>,
        else scaled over Z or <1/2, 1/3>."""
        if quadratic:
            return shift(hs, self.quad_shift([u for u, _ in hs], d)), _S2
        gname, (gdoc, _) = self.gamma(["Z", "sixth"])
        return scale(hs, self.rational_scale(gname)), gdoc

    def kgon(self, k, quadratic, bad=False):
        if bad:
            hs = bad_polygon(self.rng, k)
        else:
            hs = polygon_halfspaces(lattice_polygon(self.rng, k))
        return self.place(hs, 2, quadratic)

    def cube(self, d, quadratic):
        lo = [self.rng.randint(-3, 3) for _ in range(d)]
        hi = [x + self.rng.randint(1, 4) for x in lo]
        return self.place(box_halfspaces(lo, hi), d, quadratic)

    # -- fans -----------------------------------------------------------------

    def fan(self, cmd, m, overlap, quadratic):
        boxes = grid_boxes(self.rng, m)
        self.rng.shuffle(boxes)
        if overlap:
            # the overlapping cone goes last, so every valid pair is checked first
            (x0, y0), (x1, y1) = self.rng.choice(boxes)
            dx, dy = self.rng.choice([(1, 0), (0, 1), (1, 1)])
            boxes.append(((x0 + dx, y0 + dy), (x1 + dx, y1 + dy)))
        if quadratic:
            t, gdoc, s = [QS(0, self.rng.choice([-2, -1, 1, 2])) for _ in range(2)], _S2, F(1)
        else:
            gname, (gdoc, _) = self.gamma(["Z", "sixth"])
            t, s = [QS(), QS()], self.rational_scale(gname)
        cones = [scale(shift(box_halfspaces(*b), t), s) for b in boxes]
        pair = first_bad_pair(boxes)
        grid_pts = sorted({(x, y) for b in boxes[:m * m]
                           for x in (b[0][0], b[1][0]) for y in (b[0][1], b[1][1])})
        pts = [vec_str([(QS(x) + t[0]) * s, (QS(y) + t[1]) * s]) for x, y in grid_pts]
        nv, ne, nf = (m + 1) ** 2, 2 * m * (m + 1), m * m
        expect = {"pair": pair, "maximal": nf, "total": 1 + nv + ne + nf,
                  "cells": nv + ne + nf, "poset": 8 * nf + 2 * ne, "points": pts,
                  "cones": [[[list(u), vec_str([c])[0]] for u, c in hs] for hs in cones]}
        doc = {"gamma": gdoc, "cones": [cone_doc(2, hs) for hs in cones]}
        self.add(cmd, f"fan-{m}x{m}" + ("-overlap" if overlap else ""),
                 2 if pair else 0, expect, doc)

    # -- heighted configurations ------------------------------------------------

    def height(self, quadratic):
        if quadratic:
            return QS(self.rng.randint(-3, 3), self.rng.choice([-2, -1, 1, 2]))
        return F(self.rng.randint(0, 24), 6)

    def config(self, cmds, points, heights, family, flat_k=None):
        doc = {"n": 2, "A": [list(p) for p in points], "a": [fe_json(h) for h in heights]}
        if any(QS.of(h).q for h in heights):
            doc["gamma"] = _S2
        expect = {"points": [list(p) for p in points],
                  "heights": [vec_str([h])[0] for h in heights], "flat_k": flat_k}
        first = None
        for cmd in cmds:
            if first is None:
                first = self.add(cmd, family, 0, expect, doc)
            else:
                self.add(cmd, family, 0, dict(expect, sibling=first["id"]),
                         infile=first["input"])

    def grid_config(self, cmds, m, quadratic):
        pts = [(i, j) for i in range(m) for j in range(m)]
        self.config(cmds, pts, [self.height(quadratic) for _ in pts], f"grid-{m}x{m}")

    def flat_config(self, cmds, k, quadratic):
        pts = lattice_polygon(self.rng, k)
        h = self.height(quadratic)
        self.config(cmds, pts, [h] * k, f"flat-{k}gon", flat_k=k)

    # -- semigroups -------------------------------------------------------------

    def semigroup_cone(self, cmd, n, bound):
        """A bounded n-dimensional slice: e_i, -(1,..,1) and seeded extra
        normals with entries in [-2, 2], with an interior integer point p.
        Vertices outside Gamma are kept on purpose."""
        gname, (gdoc, unit) = self.gamma(["Z", "half", "sixth"])
        normals = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        normals.append(tuple([-1] * n))
        while len(normals) < n + 1 + (2 if n == 2 else 1):
            u = tuple(self.rng.randint(-2, 2) for _ in range(n))
            if any(u) and u not in normals:
                normals.append(u)
        p = [self.rng.randint(-1, 1) for _ in range(n)]
        steps = [unit] if gname != "sixth" else [F(1, 6), F(1, 3), F(1, 2)]
        hs = [(u, F(-sum(a * b for a, b in zip(u, p))) + self.rng.randint(1, 3) * self.rng.choice(steps))
              for u in normals]
        verts = vertices(n, hs)
        expect = {"n": n, "unit": qstr(unit), "p": p, "bound": bound,
                  "vertices": [vec_str(v) for v in verts]}
        doc = {"gamma": gdoc, "cone": cone_doc(n, hs)}
        self.add(cmd, f"cone-n{n}", 0, expect, doc, flags=["--bound", str(bound)])

    def generator_set(self, n, extras, witness):
        """Unimodular family {(e_i, a_i), (-(1,..,1), b)}: saturated.  With
        2*e_1 in place of e_1 the simplex has determinant 2 and (e_1, 0) is a
        witness for k = 2.  Each extra member is the sum of the base members
        at the given positions plus a vertical shift, which leaves the
        semigroup unchanged.  The positions are fixed per job slot because the
        cost of the saturation search depends strongly on them."""
        _, (gdoc, unit) = self.gamma(["Z", "half"])
        base = []
        for i in range(n):
            e = [0] * n
            e[i] = 2 if (witness and i == 0) else 1
            base.append((tuple(e), F(0) if i == 0 else self.rng.randint(0, 1) * unit))
        b = self.rng.randint(1, 2) * unit
        base.append((tuple([-1] * n), b))
        gens = dict(base)
        for i, j in extras:
            u = tuple(x + y for x, y in zip(base[i][0], base[j][0]))
            gens[u] = base[i][1] + base[j][1] + self.rng.randint(0, 1) * unit
        members = sorted(gens.items())
        doc = {"gamma": gdoc, "gens": [{"u": list(u), "g": fe_json(g)} for u, g in members]}
        eps = F(b) / (2 * n)  # psi(u, g) = <u, (eps,..,eps)> + g is positive on the cone
        return doc, {"n": n, "unit": qstr(unit), "p": [qstr(eps)] * n,
                     "gens": [[list(u), qstr(g)] for u, g in members]}

    def saturation(self, n, extras, bu, kmax, witness):
        doc, info = self.generator_set(n, extras, witness)
        expect = dict(info, bu=bu, kmax=kmax)
        family = f"sat-{len(info['gens'])}gens-{bu}-{kmax}"
        first = self.add("saturation", family, 2 if witness else 0, expect, doc,
                         flags=["--bu", str(bu), "--kmax", str(kmax)])
        return first, info

    def rationalize(self, first, info, batch):
        targets = []
        for _ in range(batch):
            coeffs = [self.rng.randint(0, 2) for _ in info["gens"]]
            if not any(coeffs):
                coeffs[0] = 1
            u = [sum(c * g[0][i] for c, g in zip(coeffs, info["gens"])) for i in range(info["n"])]
            g = sum((c * F(g[1]) for c, g in zip(coeffs, info["gens"])), F(0))
            g += self.rng.randint(0, 2) * F(info["unit"])
            targets.append([u, qstr(g)])
        self.add("rationalize", first["family"].replace("sat", "rat"), 0,
                 dict(info, targets=targets), infile=first["input"])


def build(workload, seed, indir):
    """Write the inputs of one workload into indir and return its job list.

    Each workload has at least 100 jobs.  The slowest tenth is a handful of
    large instances plus one tier of same-sized jobs, so that job_p90_s falls
    inside a tier whose cost varies little with the seed."""
    b = JobSet(workload, seed, indir)
    if workload == "faces":
        for k in range(6, 11):
            for _ in range(6):
                hs, g = b.kgon(k, False)
                b.cone_jobs(f"kgon-{k}", 2, hs, g, 1, 1, False)
        for d in (3, 4):
            for _ in range(5):
                hs, g = b.cube(d, False)
                b.cone_jobs(f"cube-{d}", d, hs, g, 1, 1, False)
        for cmd in ("fan-validate", "slice"):
            for m, overlap in ((2, False),) * 5 + ((2, True), (3, False), (3, True)):
                b.fan(cmd, m, overlap, False)
        for m in (3, 4, 5):
            b.grid_config(("weightsub", "orbits") if m == 3 else ("weightsub",), m, False)
        for k in (8, 9, 10):
            b.flat_config(("weightsub", "orbits") if k == 8 else ("weightsub",), k, False)
    elif workload == "quadratic":
        for k in range(5, 9):
            for i in range(10):
                hs, g = b.kgon(k, True, bad=i % 2 == 1)
                b.cone_jobs(f"kgon-{k}", 2, hs, g, 1, 1 if i < 8 else 0, i % 2 == 1)
        for _ in range(8):
            hs, g = b.cube(3, True)
            b.cone_jobs("cube-3", 3, hs, g, 1, 1, False)
        for cmd in ("fan-validate", "slice"):
            for overlap in (False, True):
                b.fan(cmd, 2, overlap, True)
        for m in (3, 4):
            b.grid_config(("weightsub", "orbits") if m == 3 else ("weightsub",), m, True)
        for k in (7, 8):
            b.flat_config(("weightsub",), k, True)
        for _ in range(6):  # the tier that job_p90_s falls in
            b.flat_config(("weightsub", "orbits"), 6, True)
    elif workload == "semigroup":
        for n, bound, count in ((2, 2, 6), (2, 3, 6), (2, 4, 6), (3, 2, 10), (3, 3, 1)):
            for _ in range(count):
                b.semigroup_cone("generators", n, bound)
        for n, bound, count in ((2, 2, 4), (2, 3, 4), (2, 4, 4), (3, 2, 6)):
            for _ in range(count):
                b.semigroup_cone("round-trip", n, bound)
        # (n, extra members, --bu, --kmax, sets, rationalize batches per set)
        for n, extras, bu, kmax, count, rats in (
                (2, (), 1, 2, 4, 2), (2, (), 1, 3, 4, 2), (2, (), 2, 2, 4, 2),
                (2, (), 2, 3, 2, 1), (3, (), 1, 2, 4, 1), (3, (), 1, 3, 2, 1),
                (2, ((0, 2),), 1, 2, 2, 1), (2, ((0, 2), (1, 2)), 1, 2, 1, 1)):
            for i in range(count):
                first, info = b.saturation(n, extras, bu, kmax, witness=i % 2 == 1)
                for _ in range(rats):
                    b.rationalize(first, info, 4)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.jobs
