"""Command-line interface: exit-code contract, determinism, output routing.

Most invocations run in-process for speed; a few go through a real
subprocess to cover the console entry point end to end.
"""

import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricval import polyhedra
from toricval.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def fx(name):
    return str(FIXTURES / name)


# exit codes: 0 = yes, 1 = input/usage problem, 2 = valid input, negative answer
MATRIX = [
    (0, ["check-cone", "C1.json"]),
    (0, ["check-cone", "C1s.json"]),
    (2, ["check-cone", "C2.json"]),
    (0, ["check-cone", "Quad23.json"]),
    (0, ["check-cone", "Vray2.json"]),
    (2, ["check-cone", "cone-notadmissible.json"]),
    (2, ["check-cone", "cone-line.json"]),
    (1, ["check-cone", "bad-decimal.json"]),
    (1, ["check-cone", "bad-unknown-key.json"]),
    (1, ["check-cone", "missing.json"]),
    (0, ["dual", "C1.json"]),
    (0, ["generators", "C1.json", "--bound", "2"]),
    (0, ["generators", "C1s.json", "--bound", "2"]),
    (0, ["round-trip", "C1.json", "--bound", "2"]),
    (0, ["round-trip", "C1s.json", "--bound", "2"]),
    (0, ["fan-validate", "F1.json"]),
    (0, ["fan-validate", "F2.json"]),
    (0, ["fan-validate", "Fbad.json"]),
    (2, ["fan-validate", "nonfan.json"]),
    (0, ["slice", "F1.json"]),
    (0, ["slice", "F2.json"]),
    (0, ["recession", "F2.json"]),
    (0, ["product-fan", "prodfan1.json"]),
    (0, ["product-fan", "prodfan2.json"]),
    (0, ["product-fan", "prodfan3.json"]),
    (0, ["weightsub", "P1.json"]),
    (0, ["weightsub", "P1flat.json"]),
    (0, ["weightsub", "P1mid.json"]),
    (0, ["weightsub", "P1inf.json"]),
    (0, ["weightsub", "P2.json"]),
    (0, ["weightsub", "P2s.json"]),
    (0, ["orbits", "P1.json"]),
    (0, ["orbits", "P1mid.json"]),
    (0, ["saturation", "gens-sat.json", "--bu", "3", "--kmax", "3"]),
    (2, ["saturation", "gens-witness.json", "--bu", "3", "--kmax", "3"]),
]


@pytest.mark.parametrize(
    "expected,argv", MATRIX,
    ids=["-".join(a[:2]) + f"={e}" for e, a in MATRIX],
)
def test_exit_code_matrix(expected, argv):
    argv = [argv[0], fx(argv[1])] + argv[2:]
    code, out = run_cli(*argv)
    assert code == expected, out
    payload = json.loads(out)
    assert isinstance(payload, dict)


# sha256 of every matrix report, run from the fixture directory so that no
# absolute path reaches a message: a change that moves one byte of a report
# fails here, and a change meant to move it re-records the hash
REPORT_SHA256 = {
    ("check-cone", "C1.json"):
        "9d08edcce761a0cc8c3f4c152ba34a35eebc1fed09e019cdff765ffa37b9a221",
    ("check-cone", "C1s.json"):
        "9582c023a9bf8986affdf26eccaa2d447a3e623a3e1955f4e3a0361a7f57fc3a",
    ("check-cone", "C2.json"):
        "e32665b28dbabf0739af3c1dce1f0e415100adba81541fa489a00556d76acbfa",
    ("check-cone", "Quad23.json"):
        "a460857492de5a054fcd97986881b5f712e7f5e4d9004ccf0cccaf286846ae2c",
    ("check-cone", "Vray2.json"):
        "8fb4a2faab689ef051739e6629f1092f4b551a793e8be2a4a7b9f4bf29ad588e",
    ("check-cone", "cone-notadmissible.json"):
        "faf7e280a8ea8f083d44f1beb2c45061a26f918ec49251cb974ab4e82030992f",
    ("check-cone", "cone-line.json"):
        "6d4545bf660e550b8ab7b0441fefe473e8e2402edd60a3cbfee55b0ffa95e6b6",
    ("check-cone", "bad-decimal.json"):
        "c5ed43e58def3a5c16d95d64ca15570ca134a4efb4d337ec040e298c6009204e",
    ("check-cone", "bad-unknown-key.json"):
        "1bfcbe0b204fd0cc8678b6319c2af26fc7bc4bb222611b42022058e1741e9640",
    ("check-cone", "missing.json"):
        "7244a7418c8b5bf162cfb59d18b21a81ce2fb48919859f7e83b5e978640a3bc4",
    ("dual", "C1.json"):
        "f8caf0dfa8143591dc5cb6b61d44cf6aea348214bada900b4307375b992d482a",
    ("generators", "C1.json", "--bound", "2"):
        "5b0d39e38d3ed2c04eb8f26325ebd88003e7348115567402b95184b2721e96a3",
    ("generators", "C1s.json", "--bound", "2"):
        "6d7924128b13c5fb73b42e7508f8168ce1781f3d64a81da309dffd4b0a8435ba",
    ("round-trip", "C1.json", "--bound", "2"):
        "056b42711ba945fc77c59af9d3f9d41426ae52fc24ce4f4130772b88ed4f55c2",
    ("round-trip", "C1s.json", "--bound", "2"):
        "ccc0138ea13ae338d39705b45008161a1c443e4037b90259796a6292d89110e7",
    ("fan-validate", "F1.json"):
        "52a6772aea8185b2047adbc35a3b3529c3cf2a2ce6c11d43c4a5acb17dc7cddc",
    ("fan-validate", "F2.json"):
        "a8cd0ce7bfb31eb78aaa08f9a2b44293f6a0e6883ded3c933dc9534d0d67fef7",
    ("fan-validate", "Fbad.json"):
        "58223d9d89452cdcb5884c7bfb103bf34012a0bd344a57747d323d57f68e5ad2",
    ("fan-validate", "nonfan.json"):
        "f31b257b52445a3a56f15b4002e55efe70080105b2297de013820c1549335396",
    ("slice", "F1.json"):
        "3d69d52133ea5f34c3ea3a8e40ba93b661bc58ad88e1f8a1b827b2b9e4ced61c",
    ("slice", "F2.json"):
        "3c5775c8c4564443aafebb7ddb4ffbde9b8eca9279e63e72216649a7e1d2b150",
    ("recession", "F2.json"):
        "66ddb88a42a0b20ca6c8fa76a07e874260890a719aa3ef766855956995c52a60",
    ("product-fan", "prodfan1.json"):
        "c5549649a6478a93226a35ad490a9498fdc79e6e1c8cd211fc4d37f28879ac7e",
    ("product-fan", "prodfan2.json"):
        "a4b1d388269e97e95c7d7a767e7dc002be8e69637f96cdd16f240fa699b8f4e2",
    ("product-fan", "prodfan3.json"):
        "161474ae4cd5c97780b9f9c324a9bc0dbf21ebb345c3f5f8357e0f530cd9f939",
    ("weightsub", "P1.json"):
        "1d818ad2435e98dde49945cf6f4129fbe980631d151cb383933c96a45cf377ab",
    ("weightsub", "P1flat.json"):
        "32437c250e1b547f088bdb65b44dc37de1bfd8217d9c10822351897b9ab2dd99",
    ("weightsub", "P1mid.json"):
        "3446439f89f297b64b34336c080e1e1c6ba64407a2386021ddfa3872660ffd7a",
    ("weightsub", "P1inf.json"):
        "554f1d661c99a32d628534d710034f1de8a3b455a186123e60aef20a7c632481",
    ("weightsub", "P2.json"):
        "0671ba25e3a0241fccfc9bb9d004e704bc7452af91113fb07e82014c7fa9941d",
    ("weightsub", "P2s.json"):
        "d50abecfdffe4aafb3f9f6b8c1476d93b0a0de965db8d846723835b46a8309cf",
    ("orbits", "P1.json"):
        "28dcee17e8cdfac83cb372ced7e7674f874a73a85a6278f4e557c294e5e1ea1b",
    ("orbits", "P1mid.json"):
        "efe1a1731f8cff6db1be9324d4e26651d7bfd812e853cd567fc0f84bac3907c3",
    ("saturation", "gens-sat.json", "--bu", "3", "--kmax", "3"):
        "add6ca946bac13cb650ad9427bc1a663c82eb8d57e138699789b8546cee2a38d",
    ("saturation", "gens-witness.json", "--bu", "3", "--kmax", "3"):
        "f05ddef00751e9aea58384801e97bb998d56d15d495df4516c04bcab8da3905d",
}


@pytest.mark.parametrize(
    "argv", [a for _, a in MATRIX], ids=["-".join(a[:2]) for _, a in MATRIX],
)
def test_matrix_report_bytes_pinned(monkeypatch, argv):
    monkeypatch.chdir(FIXTURES)
    _, out = run_cli(*argv)
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[tuple(argv)]


def test_output_is_valid_sorted_json():
    code, out = run_cli("weightsub", fx("P1.json"))
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_check_cone_payload_c2():
    code, out = run_cli("check-cone", fx("C2.json"))
    payload = json.loads(out)
    assert code == 2
    assert payload["finite_type"] is False
    assert payload["bad_vertex"] == [["1/3*sqrt(2)"]]


def test_witness_payload():
    code, out = run_cli("saturation", fx("gens-witness.json"),
                        "--bu", "3", "--kmax", "3")
    payload = json.loads(out)
    assert code == 2
    assert payload["status"] == "witness"
    assert payload["u"] == [1]
    assert payload["k"] == 2


def test_saturated_payload():
    code, out = run_cli("saturation", fx("gens-sat.json"),
                        "--bu", "3", "--kmax", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "saturated"


# double description runs per command, one per cone built (parsed cones,
# generator hulls, rebuilt cones, recession and lifted cones, and the
# intersection of each fan pair that no separating facet settles); duals
# and faces cost none
DD_RUNS = [
    (1, ["check-cone", "C1.json"]),
    (1, ["check-cone", "C2.json"]),
    (1, ["dual", "C1.json"]),
    (1, ["dual", "Quad23.json"]),
    (2, ["generators", "C1.json", "--bound", "2"]),
    (3, ["round-trip", "C1.json", "--bound", "2"]),
    (2, ["fan-validate", "F1.json"]),
    (3, ["fan-validate", "F2.json"]),
    (3, ["fan-validate", "nonfan.json"]),
    (3, ["slice", "F2.json"]),
    (6, ["recession", "F2.json"]),
    (4, ["product-fan", "prodfan1.json"]),
    (2, ["product-fan", "prodfan2.json"]),
    (16, ["product-fan", "prodfan3.json"]),
    (1, ["weightsub", "P2.json"]),
    (1, ["orbits", "P1.json"]),
    (1, ["saturation", "gens-witness.json", "--bu", "3", "--kmax", "3"]),
]


@pytest.mark.parametrize(
    "runs,argv", DD_RUNS, ids=["-".join(a[:2]) for _, a in DD_RUNS],
)
def test_dd_runs_per_command(monkeypatch, runs, argv):
    calls = []
    real = polyhedra.dd_pair
    monkeypatch.setattr(polyhedra, "dd_pair",
                        lambda *args: calls.append(args) or real(*args))
    code, _ = run_cli(argv[0], fx(argv[1]), *argv[2:])
    assert code in (0, 2)
    assert len(calls) == runs


# H-sides read per command: a cone's facets and equations are computed on
# first access, so parsed cones only sliced (check-cone), fan pair
# intersections (compared by key) and rebuilt cones (compared by key) cost
# none; duals, face lattices, separating facets and lifted facets cost one
# per cone
H_SIDES = [
    (0, ["check-cone", "C1.json"]),
    (0, ["check-cone", "C2.json"]),
    (1, ["dual", "C1.json"]),
    (1, ["generators", "C1.json", "--bound", "2"]),
    (1, ["round-trip", "C1.json", "--bound", "2"]),
    (2, ["fan-validate", "F1.json"]),
    (3, ["fan-validate", "F2.json"]),
    (2, ["fan-validate", "nonfan.json"]),
    (3, ["slice", "F2.json"]),
    (6, ["recession", "F2.json"]),
    (6, ["product-fan", "prodfan1.json"]),
    (3, ["product-fan", "prodfan2.json"]),
    (24, ["product-fan", "prodfan3.json"]),
]


@pytest.mark.parametrize(
    "reads,argv", H_SIDES, ids=["-".join(a[:2]) for _, a in H_SIDES],
)
def test_h_sides_per_command(monkeypatch, reads, argv):
    calls = []
    real = polyhedra._other_side
    monkeypatch.setattr(polyhedra, "_other_side",
                        lambda *args: calls.append(args) or real(*args))
    code, _ = run_cli(argv[0], fx(argv[1]), *argv[2:])
    assert code in (0, 2)
    assert len(calls) == reads


@pytest.mark.parametrize("argv", [
    ["weightsub", "P2s.json"],
    ["slice", "F2.json"],
    ["check-cone", "C2.json"],
    ["recession", "F2.json"],
    ["orbits", "P1mid.json"],
])
def test_byte_determinism_three_runs(argv):
    argv = [argv[0], fx(argv[1])] + argv[2:]
    outs = {run_cli(*argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_svg_deterministic_and_written(tmp_path):
    svg_path = tmp_path / "out.svg"
    blobs = set()
    for _ in range(3):
        code, _ = run_cli("slice", fx("F2.json"), "--svg", str(svg_path))
        assert code == 0
        blobs.add(svg_path.read_bytes())
    assert len(blobs) == 1
    assert blobs.pop().startswith(b"<svg ")


def test_out_file_matches_stdout(tmp_path):
    out_path = tmp_path / "dual.json"
    code, out = run_cli("dual", fx("C1.json"), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_unwritable_out_path_is_io_error(tmp_path):
    missing = tmp_path / "missing" / "x.json"
    code, out = run_cli("dual", fx("C1.json"), "--out", str(missing))
    assert code == 1
    assert json.loads(out) == {
        "error": f"[Errno 2] No such file or directory: '{missing}'",
        "kind": "IOError",
    }
    assert not missing.exists()


def test_unwritable_out_path_subprocess(tmp_path):
    missing = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "toricval", "dual", fx("C1.json"), "--out", str(missing)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["kind"] == "IOError"  # one document only


def test_usage_error_missing_bound():
    code, out = run_cli("generators", fx("C1.json"))
    assert code == 1
    assert json.loads(out)["kind"] == "UsageError"


def test_usage_error_bad_saturation_bounds():
    code, out = run_cli("saturation", fx("gens-sat.json"),
                        "--bu", "0", "--kmax", "3")
    assert code == 1


def test_unknown_command():
    code, out = run_cli("frobnicate", fx("C1.json"))
    assert code == 1


def test_svg_rejected_for_high_dimension(tmp_path):
    # build a 3-d config on the fly; SVG only covers n <= 2
    doc = {
        "n": 3,
        "A": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "a": [{"p": "0/1", "q": "0/1"}] * 4,
    }
    p = tmp_path / "cfg3.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli("weightsub", str(p), "--svg", str(tmp_path / "x.svg"))
    assert code == 1
    assert json.loads(out)["kind"] == "DimensionTooHigh"


# -- malformed input never escapes as a traceback ---------------------------------


ZERO_HALFSPACE = {"u": [0], "c": {"p": "0/1", "q": "0/1"}}


@pytest.mark.parametrize("argv", [
    ["check-cone"], ["dual"], ["generators", "--bound", "2"],
    ["round-trip", "--bound", "2"], ["fan-validate"], ["slice"], ["recession"],
])
def test_zero_halfspace_is_schema_error(tmp_path, argv):
    # the half-space 0*w + 0*s >= 0 is rejected at its location, exit 1
    if argv[0] in ("fan-validate", "slice", "recession"):
        doc = json.loads(Path(fx("F1.json")).read_text())
        doc["cones"][1]["halfspaces"].append(ZERO_HALFSPACE)
        loc = "cones[1].halfspaces[1]"
    else:
        doc = json.loads(Path(fx("C1.json")).read_text())
        doc["cone"]["halfspaces"].insert(0, ZERO_HALFSPACE)
        loc = "cone.halfspaces[0]"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(argv[0], path, *argv[1:])
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "SchemaError"
    assert payload["error"].startswith(loc + ":")


def _set(obj, key, value):
    obj[key] = value


# inputs that once ended in an untyped ValueError; each must be a typed
# report with exit 1
BAD_INPUTS = {
    "bound-0": (["generators", "--bound", "0"], "C1.json", None,
                "UsageError", "--bound must be >= 1"),
    "bound-neg": (["round-trip", "--bound", "-1"], "C1.json", None,
                  "UsageError", "--bound must be >= 1"),
    "cone-n0": (["check-cone"], "C1.json",
                lambda d: _set(d, "cone", {"n": 0, "halfspaces": []}),
                "SchemaError", "cone.n: lattice rank must be >= 1, got 0"),
    "cone-nneg": (["generators", "--bound", "2"], "C1.json",
                  lambda d: _set(d, "cone", {"n": -1, "halfspaces": []}),
                  "SchemaError", "cone.n: lattice rank must be >= 1, got -1"),
    "fan-cone-n0": (["slice"], "F1.json",
                    lambda d: _set(d["cones"], 1, {"n": 0, "halfspaces": []}),
                    "SchemaError", "cones[1].n: lattice rank must be >= 1, got 0"),
    "product-n0": (["product-fan"], "prodfan1.json",
                   lambda d: d.update(n=0, cones=[[]]),
                   "SchemaError", "n: lattice rank must be >= 1, got 0"),
    "product-line": (["product-fan"], "prodfan1.json",
                     lambda d: _set(d, "cones", [[[1], [-1]]]),
                     "SchemaError", "cones: fan cones must be pointed"),
}


def _bad_input_argv(tmp_path, case):
    argv, name, edit, _, _ = BAD_INPUTS[case]
    path = fx(name)
    if edit is not None:
        doc = json.loads(Path(path).read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
    return [argv[0], str(path), *argv[1:]]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_typed_report(tmp_path, case):
    code, out = run_cli(*_bad_input_argv(tmp_path, case))
    assert code == 1
    assert json.loads(out) == {"kind": BAD_INPUTS[case][3], "error": BAD_INPUTS[case][4]}


def test_bad_input_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "toricval", *_bad_input_argv(tmp_path, "product-line")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["kind"] == "SchemaError"


# the matrix commands of each fixture file, and the leaves of its JSON
FIXTURE_ARGV = {}
for _, _argv in MATRIX:
    if (FIXTURES / _argv[1]).exists():
        FIXTURE_ARGV.setdefault(_argv[1], []).append(_argv)


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict) and obj:
        for k, v in obj.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


# small integers half the time: most leaves are exponents, counts or degrees
LEAF_VALUES = st.one_of(st.integers(-2, 2), st.sampled_from([
    2**70, True, None, 1.5, "0/1", "1/1", "-1/2", "1/0", "x", "inf", [], {},
]))


@st.composite
def mutated_fixture(draw):
    """(argv, doc): a matrix command on its fixture with one JSON leaf
    replaced, and its integer flags (--bound, --bu, --kmax) redrawn."""
    name = draw(st.sampled_from(sorted(FIXTURE_ARGV)))
    argv = list(draw(st.sampled_from(FIXTURE_ARGV[name])))
    for k in range(3, len(argv), 2):
        argv[k] = str(draw(st.integers(-1, 3)))
    doc = json.loads((FIXTURES / name).read_text())
    path = draw(st.sampled_from(list(_leaf_paths(doc))))
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = draw(LEAF_VALUES)
    return argv, doc


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_fixture())
def test_mutated_fixtures_exit_cleanly(tmp_path_factory, case):
    argv, doc = case
    path = tmp_path_factory.mktemp("mut") / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(argv[0], path, *argv[2:])
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out), dict)


# -- true subprocess coverage ----------------------------------------------------


_RUN_ALL = """\
import io, json, sys
from contextlib import redirect_stdout
from toricval.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
sys.stdout.write(json.dumps(out))
"""


def test_reused_parser_matches_fresh_process():
    # one fresh process runs a usage error, a schema error, then the whole
    # matrix backwards through one main; parser state left behind by an
    # error or by an earlier command would show against the in-process runs
    argvs = [[a[0], fx(a[1])] + a[2:] for _, a in MATRIX]
    expected = [list(run_cli(*argv)) for argv in argvs]
    lead = [["generators", fx("C1.json")], ["check-cone", fx("bad-unknown-key.json")]]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps(lead + argvs[::-1])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert [(code, json.loads(out)["kind"]) for code, out in got[:2]] == [
        (1, "UsageError"), (1, "SchemaError")]
    assert got[2:][::-1] == expected


def test_matrix_bytes_independent_of_hash_seed_and_optimize():
    # string hashing and assert statements must not reach the output: the
    # whole matrix gives the same stdout and exit codes under two fixed hash
    # seeds and under python -O, and the same as in this process
    argvs = [[a[0], fx(a[1])] + a[2:] for _, a in MATRIX]
    expected = [list(run_cli(*argv)) for argv in argvs]
    for flags, seed in (([], "0"), ([], "12345"), (["-O"], None)):
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        if seed is not None:
            env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _RUN_ALL, json.dumps(argvs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected, (flags, seed)


def test_module_entry_point_ok():
    proc = subprocess.run(
        [sys.executable, "-m", "toricval", "check-cone", fx("C1.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["finite_type"] is True


def test_module_entry_point_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "toricval"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
