"""Command-line interface: exit-code contract, determinism, output routing.

Most invocations run in-process for speed; a few go through a real
subprocess to cover the console entry point end to end.
"""

import copy
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
# generator hulls, rebuilt cones, fan pair intersections, recession and
# lifted cones); duals and faces cost none
DD_RUNS = [
    (1, ["check-cone", "C1.json"]),
    (1, ["check-cone", "C2.json"]),
    (1, ["dual", "C1.json"]),
    (1, ["dual", "Quad23.json"]),
    (2, ["generators", "C1.json", "--bound", "2"]),
    (3, ["round-trip", "C1.json", "--bound", "2"]),
    (3, ["fan-validate", "F1.json"]),
    (6, ["fan-validate", "F2.json"]),
    (3, ["fan-validate", "nonfan.json"]),
    (6, ["slice", "F2.json"]),
    (12, ["recession", "F2.json"]),
    (12, ["product-fan", "prodfan1.json"]),
    (15, ["product-fan", "prodfan2.json"]),
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
# none; duals, face lattices and lifted facets cost one per cone
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
    (11, ["product-fan", "prodfan1.json"]),
    (13, ["product-fan", "prodfan2.json"]),
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
