"""End-to-end acceptance gate.

Each test exercises one numbered acceptance criterion in full and emits a
single ``criterion N: PASS``/``FAIL`` line (run pytest with ``-s`` or ``-rA``
to see them).  The criteria, in order:

1. biduality on the whole catalog and on 200 random pointed admissible
   cones: a fresh double description run on the V-side gives the swapped
   dual, and a second run gives the cone back,
2. reconstruction round trip for every finite-type catalog cone over all
   four value groups,
3. the finite-type dichotomy (discrete groups always pass; over a dense
   group it depends on the slice vertices),
4. saturation of every catalog semigroup within the default bounds, plus a
   deliberately non-saturated set with an exhaustively cross-checked witness,
5. rationalization of 500 random in-cone targets per catalog generator set,
6. the fan pipeline: validation, a located non-fan witness, slice vertex
   counts, and the product/recession round trip,
7. weight subdivisions: frozen cell counts, covering, common faces, exact
   regularity certificates, and the order-preserving orbit bijection,
8. agreement of exact sign evaluation with interval arithmetic on 10^4
   random quadratic field elements,
9. byte-identical CLI output across repeated runs on every fixture and the
   full exit-code matrix.
"""

import itertools
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction as Fr

import pytest

from toricval import (
    Cone,
    HeightedConfig,
    NotAFan,
    Witness,
    bad_slice_vertices,
    fan_from_cones,
    fe,
    is_finite_type,
    orbit_correspondence,
    product_fan,
    rational_fan_from_cones,
    rationalize,
    recession_fan,
    round_trip,
    saturation_check,
    slice_complex,
    weight_subdivision,
)

from catalog import (
    BY_NAME,
    CONES,
    CONFIGS,
    G_S2,
    G_SIXTH,
    G_TRIV,
    G_Z,
    PI1_RAYS,
    PI2_RAYS,
    PI4_RAYS,
    SQRT2,
    catalog_gensets,
    fan_f1_cones,
    fan_f2_cones,
    nonfan_cones,
    random_admissible_cone,
    random_in_cone_targets,
)
from oracles import (
    assert_biduality,
    brute_member,
    faces_of_cells_1d,
    interval_sign,
    lower_cells_1d,
)
from test_classify import _gs
from test_cli import FIXTURES, MATRIX, fx, run_cli


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL ({label})")
        raise
    print(f"criterion {n}: PASS ({label})")


def test_criterion_1_biduality():
    with criterion(1, "biduality"):
        assert len(CONES) >= 10
        assert all(len(c.halfspaces[0].u) <= 3 for c in CONES)
        for c in CONES:
            assert_biduality(c.build().cone, c.name)

        rng = random.Random(1001)
        done = attempts = 0
        while done < 200:
            attempts += 1
            assert attempts < 20000
            ac = random_admissible_cone(rng)
            if ac is None:
                continue
            assert_biduality(ac.cone)
            done += 1


def test_criterion_2_round_trip():
    with criterion(2, "finite-type reconstruction round trip"):
        groups_seen = set()
        for c in CONES:
            if not c.finite_type:
                continue
            assert c.rt_bound is not None, c.name
            ac = c.build()
            report = round_trip(ac, c.rt_bound)
            assert report.ok, (c.name, report.detail)
            assert report.reconstructed == ac, c.name
            assert set(report.reconstructed.cone.rays) == set(ac.cone.rays)
            groups_seen.add(id(c.gamma))
        assert groups_seen == {id(G_Z), id(G_S2), id(G_SIXTH), id(G_TRIV)}
        # the irrational-vertex case is genuinely exercised
        c1s = BY_NAME["C1S"]
        assert c1s.gamma is G_S2
        assert (SQRT2,) in c1s.build().slice().vertices


def test_criterion_3_finite_type_dichotomy():
    with criterion(3, "finite-type dichotomy"):
        z_cones = [c for c in CONES if c.gamma is G_Z]
        assert len(z_cones) >= 5
        for c in CONES:
            if c.gamma.is_discrete():
                assert is_finite_type(c.build()), c.name
        assert is_finite_type(BY_NAME["C1S"].build())
        c2 = BY_NAME["C2"].build()
        assert not is_finite_type(c2)
        assert bad_slice_vertices(c2) == [(fe(0, Fr(1, 3), 2),)]


def test_criterion_4_saturation():
    with criterion(4, "semigroup saturation"):
        gensets = catalog_gensets()
        assert len(gensets) == 13
        for name, gens in gensets.items():
            assert saturation_check(gens, (3, 3)) is None, name

        numerical = _gs(1, G_Z, [((2,), 0), ((3,), 0)])
        w = saturation_check(numerical, (3, 3))
        assert w == Witness((1,), fe(0), 2)
        grid = [fe(v) for v in range(-3, 4)]
        ku = tuple(w.k * x for x in w.u)
        assert brute_member(numerical, grid, ku, fe(w.k) * w.g, cap=12)
        assert not brute_member(numerical, grid, w.u, w.g, cap=12)


def test_criterion_5_rationalization():
    with criterion(5, "rationalization of random targets"):
        rng = random.Random(5005)
        for name, gens in catalog_gensets().items():
            for target in random_in_cone_targets(rng, gens, 500):
                rep = rationalize(target, gens)
                for lam in rep.lambda_hat:
                    assert lam.denominator >= 1 and lam >= 0, name
                assert rep.kappa.sign() >= 0, name
                assert rep.check(gens), name


def test_criterion_6_fan_pipeline():
    with criterion(6, "fan pipeline"):
        f1 = fan_from_cones(fan_f1_cones())
        f2 = fan_from_cones(fan_f2_cones())

        with pytest.raises(NotAFan) as exc:
            fan_from_cones(nonfan_cones())
        assert (exc.value.i, exc.value.j) == (0, 1)

        assert len(slice_complex(f1).vertices) == 1
        assert len(slice_complex(f2).vertices) == 2

        for n, rays, gamma in (
            (1, PI1_RAYS, G_Z),
            (2, PI2_RAYS, G_Z),
            (2, PI4_RAYS, G_S2),
            (2, PI4_RAYS, G_SIXTH),
        ):
            pi = rational_fan_from_cones(n, rays)
            lifted = product_fan(pi, gamma)
            assert len(slice_complex(lifted).vertices) == 1
            assert recession_fan(lifted) == pi


def test_criterion_7_weight_subdivisions():
    with criterion(7, "weight subdivisions and orbits"):
        assert weight_subdivision(CONFIGS["P1"]()).cells == ((0, 1), (1, 2))
        assert weight_subdivision(CONFIGS["P1mid"]()).cells == ((0, 1, 2),)

        for name in sorted(CONFIGS):
            cfg = CONFIGS[name]()
            sub = weight_subdivision(cfg)
            _check_certificates(cfg, sub, name)
            _check_covering(cfg, sub, name)
            _check_common_faces(cfg, sub, name)
            _check_orbits(sub, name)

        for name, count in (("P1", 5), ("P1mid", 3)):
            cfg = CONFIGS[name]()
            cells = lower_cells_1d(cfg.points, cfg.heights)
            brute_faces = faces_of_cells_1d(cells, cfg.points)
            assert len(brute_faces) == count
            sub = weight_subdivision(cfg)
            assert list(sub.faces) == brute_faces
            assert len(orbit_correspondence(sub)) == count


def _check_certificates(cfg, sub, name):
    for cell, cert in sub.certificates.items():
        for j in cfg.finite_indices():
            val = cert.beta
            for c, x in zip(cert.phi, cfg.points[j]):
                val = val + c * fe(x)
            diff = cfg.heights[j] - val
            assert diff.sign() >= 0, (name, cell, j)
            assert (diff.sign() == 0) == (j in cert.tight), (name, cell, j)


def _check_covering(cfg, sub, name):
    n = cfg.n
    fin = cfg.finite_indices()
    samples = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(fin, min(r, len(fin))):
            samples.append(tuple(
                sum(Fr(cfg.points[j][i]) for j in combo) / len(combo)
                for i in range(n)
            ))
    hulls = [Cone.from_rays(n + 1, [tuple(cfg.points[j]) + (1,) for j in cell])
             for cell in sub.cells]
    for pt in samples:
        assert any(h.contains_point(pt + (Fr(1),)) for h in hulls), (name, pt)


def _check_common_faces(cfg, sub, name):
    n = cfg.n
    cones = {f: Cone.from_rays(n + 1, [tuple(cfg.points[j]) + (1,) for j in f])
             for f in sub.faces}
    for a, b in itertools.combinations(sub.cells, 2):
        inter = cones[a].intersect(cones[b])
        if inter.is_trivial():
            continue
        match = [f for f in sub.faces if cones[f] == inter]
        assert match, (name, a, b)
        assert inter.is_face_of(cones[a]) and inter.is_face_of(cones[b])
        assert set(match[0]) <= set(a) and set(match[0]) <= set(b)


def _check_orbits(sub, name):
    orbits = orbit_correspondence(sub)
    assert len(orbits) == len(sub.faces), name
    assert len({o.nonzero_coords for o in orbits}) == len(orbits), name
    by_face = {o.face: o for o in orbits}
    for f1, f2 in itertools.product(sub.faces, repeat=2):
        face_le = set(f1) <= set(f2)
        orbit_le = by_face[f1].nonzero_coords <= by_face[f2].nonzero_coords
        assert face_le == orbit_le, (name, f1, f2)


def test_criterion_8_exact_sign_vs_intervals():
    with criterion(8, "exact signs vs interval arithmetic"):
        rng = random.Random(808)
        for _ in range(10 ** 4):
            d = rng.choice([2, 3, 5, 7, 11])
            p = Fr(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            q = Fr(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            assert fe(p, q, d).sign() == interval_sign(p, q, d, prec=128)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism and exit codes"):
        fixture_files = {p.name for p in FIXTURES.glob("*.json")}
        covered = {argv[1] for _, argv in MATRIX}
        assert fixture_files <= covered

        for expected, argv in MATRIX:
            full = [argv[0], fx(argv[1])] + argv[2:]
            runs = [run_cli(*full) for _ in range(3)]
            assert {code for code, _ in runs} == {expected}, argv
            assert len({out for _, out in runs}) == 1, argv

        svg = tmp_path / "render.svg"
        for cmd, fixture in (
            ("slice", "F1.json"),
            ("slice", "F2.json"),
            ("weightsub", "P1.json"),
            ("weightsub", "P2s.json"),
        ):
            blobs = set()
            for _ in range(3):
                code, _ = run_cli(cmd, fx(fixture), "--svg", str(svg))
                assert code == 0, (cmd, fixture)
                blobs.add(svg.read_bytes())
            assert len(blobs) == 1, (cmd, fixture)

        proc = subprocess.run(
            [sys.executable, "-m", "toricval", "check-cone", fx("C1.json")],
            capture_output=True, text=True,
        )
        code, out = run_cli("check-cone", fx("C1.json"))
        assert proc.returncode == code == 0
        assert proc.stdout == out
