"""Error messages that format field elements.

Each message goes through errors.shown, which writes a numeral past
Python's int-to-text limit (4300 digits) as a placeholder instead of
raising ValueError while the error is built.  Shorter numerals keep the
bytes of plain str/repr formatting.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as Fr

import pytest

from toricval import (
    ConstantNotInGamma,
    ContainsLine,
    NotAFan,
    NotFiniteType,
    NotInCone,
    ValueNotInGamma,
    fe,
    rational_fan_from_cones,
)
from toricval.cli import main
from toricval.errors import TOO_LONG, shown

LONG = fe(Fr(10 ** 5000 + 1, 3))
SHORT = fe(Fr(-7, 3), Fr(1, 2), 2)


def test_shown_matches_str_and_repr_on_short_numerals():
    samples = [SHORT, fe(5), Fr(2, 9), 12, (), (SHORT,), ((1, -2), SHORT),
               [], [(SHORT, fe(0)), (fe(1),)], ["a", ("b",)]]
    for x in samples:
        assert shown(x) == str(x)
        assert shown(x, repr) == repr(x)


def test_shown_never_raises_on_long_numerals():
    assert shown(LONG) == TOO_LONG
    assert shown([(SHORT, LONG)]) == f"[({SHORT!r}, {TOO_LONG})]"
    assert shown(10 ** 5000) == TOO_LONG


def test_constant_not_in_gamma_long():
    assert str(ConstantNotInGamma(3, SHORT)) == (
        f"half-space 3: constant {SHORT} not in the value group")
    assert TOO_LONG in str(ConstantNotInGamma(3, LONG))


def test_contains_line_long():
    assert str(ContainsLine((fe(1), SHORT))) == f"cone contains a line: (1, {SHORT})"
    assert str(ContainsLine((fe(1), LONG))) == f"cone contains a line: (1, {TOO_LONG})"


def test_not_finite_type_long():
    verts = [(SHORT, fe(1))]
    assert str(NotFiniteType(verts)).endswith(f"value group: {verts}")
    err = NotFiniteType([(LONG, fe(1))])
    assert str(err).endswith(f"value group: [({TOO_LONG}, {fe(1)!r})]")
    assert err.bad_vertices == [(LONG, fe(1))]


def test_not_in_cone_long():
    assert str(NotInCone(((1, -2), SHORT))) == (
        f"target {((1, -2), SHORT)} is not in the generated cone")
    assert str(NotInCone(((1, -2), LONG))) == (
        f"target ((1, -2), {TOO_LONG}) is not in the generated cone")


def test_value_not_in_gamma_long():
    assert str(ValueNotInGamma(1, SHORT)) == (
        f"coordinate 1: valuation {SHORT} not in the value group")
    assert TOO_LONG in str(ValueNotInGamma(1, LONG))


def test_not_a_fan_detail_long():
    """cone((1, 0), (1, N)) meets cone((1, 1), (0, 1)) in cone((1, 1), (1, N)),
    which is no face of the first: the detail names the ray (1, N)."""
    for big, text in ((10 ** 30, str(10 ** 30)), (10 ** 5000, TOO_LONG)):
        with pytest.raises(NotAFan) as info:
            rational_fan_from_cones(2, [[(1, 0), (1, big)], [(1, 1), (0, 1)]])
        assert (info.value.i, info.value.j) == (0, 1)
        assert f"('1', '{text}')" in str(info.value)


def test_generators_with_long_slice_vertex_reports(tmp_path):
    """A non-Gamma slice vertex with a numeral past 4300 digits: exit 2 and
    a NotFiniteType report, no traceback; the vertex list, which cannot be
    written as numerals, is left out of the report."""
    def elem(p, q=0):
        return {"p": f"{p}/1", "q": f"{q}/1"}

    doc = {
        "gamma": {"field": {"kind": "quadratic", "d": 2},
                  "generators": [elem(1), elem(0, 1)]},
        "cone": {"n": 2, "halfspaces": [
            {"u": [10 ** 4000 - 1, 1], "c": elem(0, 1)},
            {"u": [1, int("7" * 4000)], "c": elem(1)},
            {"u": [-1, -1], "c": elem(5)},
        ]},
    }
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["generators", str(path), "--bound", "2"])
    report = json.loads(buf.getvalue())
    assert code == 2
    assert report["kind"] == "NotFiniteType"
    assert TOO_LONG in report["error"]
    assert "bad_vertex" not in report
