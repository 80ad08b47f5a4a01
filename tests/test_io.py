"""JSON schema strictness and serialization round trips.

Every reader must reject decimals, duplicate keys, unknown keys, and
malformed rational strings; every writer must be byte-deterministic and
round-trip through its reader.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from catalog import BY_NAME, G_S2, G_SIXTH, G_TRIV, G_Z, SQRT2, config_p1_inf
from toricval import NumeralTooLong, SchemaError, fe
from toricval._io import (
    MAX_DIGITS,
    _deepest_bracket,
    cone_file_from_json,
    cone_file_to_json,
    config_from_json,
    config_to_json,
    dumps,
    fan_from_json,
    fan_to_json,
    fe_from_json,
    fe_to_json,
    gamma_from_json,
    gamma_to_json,
    genset_from_json,
    genset_to_json,
    int_list,
    loads,
    numeral,
    parse_rational,
    rational_fan_from_json,
)
from toricval.cli import main


# -- rational strings -----------------------------------------------------------


def test_parse_rational_accepts_canonical():
    assert parse_rational("3/4", "x") == Fr(3, 4)
    assert parse_rational("-3/4", "x") == Fr(-3, 4)
    assert parse_rational("0/1", "x") == 0


@pytest.mark.parametrize("bad", [
    "3", "3/0", "3/-4", "3/04", "+3/4", "3.5", "a/b", "1/1/1", "",
    " 1/2", "1/2 ",
])
def test_parse_rational_rejects_malformed(bad):
    with pytest.raises(SchemaError):
        parse_rational(bad, "x")


def test_parse_rational_rejects_decimals_and_numbers():
    with pytest.raises(SchemaError):
        parse_rational(0.5, "x")
    with pytest.raises(SchemaError):
        parse_rational(2, "x")


# -- document-level strictness -----------------------------------------------------


def test_duplicate_keys_rejected():
    with pytest.raises(SchemaError):
        loads('{"a": 1, "a": 2}')


def test_nan_and_infinity_rejected():
    with pytest.raises(SchemaError):
        loads('{"x": NaN}')
    with pytest.raises(SchemaError):
        loads('{"x": Infinity}')


def test_unknown_keys_rejected():
    doc = loads('{"p": "1/1", "q": "0/1", "zz": 1}')
    with pytest.raises(SchemaError) as exc:
        fe_from_json(doc, None, "root")
    assert "zz" in str(exc.value)


# -- faults below the JSON grammar, through the CLI ------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def _check_cone_report(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check-cone", str(path)])
    return code, json.loads(buf.getvalue())


def _c1_with(edit):
    doc = json.loads((FIXTURES / "C1.json").read_text(encoding="utf-8"))
    edit(doc["cone"]["halfspaces"][0])
    return doc


def test_non_utf8_file_is_schema_error(tmp_path):
    code, report = _check_cone_report(tmp_path, b"\xff\xfe{}")
    assert code == 1
    assert report == {"error": "byte 0: not UTF-8 text: invalid start byte",
                      "kind": "SchemaError"}


def _offset_report(tmp_path, text, marker):
    """The report on text, and the character offset of marker in it."""
    code, report = _check_cone_report(tmp_path, text.encode())
    assert code == 1
    assert report["kind"] == "SchemaError"
    return report["error"], text.index(marker)


def test_long_rational_numerator_is_schema_error(tmp_path):
    text = json.dumps(_c1_with(lambda h: h["c"].update(p="7" * 5000 + "/1")))
    error, at = _offset_report(tmp_path, text, "777")
    assert error == f"char {at}: numeral of more than 4300 digits"


def test_long_json_integer_is_schema_error(tmp_path):
    text = json.dumps(_c1_with(lambda h: h.update(u=["@"])))
    text = text.replace('"@"', "7" * 5000)
    error, at = _offset_report(tmp_path, text, "777")
    assert error == f"char {at}: numeral of more than 4300 digits"


def test_deep_nesting_is_schema_error(tmp_path):
    error, _ = _offset_report(tmp_path, "[" * 100_000, "[")
    assert error == "char 99999: nested too deep for the parser"


def test_deepest_bracket_skips_strings():
    text = '{"a": ["\\"[[[", [{"b": "]"}]], "c": [[]]}'
    assert _deepest_bracket(text) == text.index('{"b"')


def test_numeral_limit_is_inclusive():
    edge = "9" * MAX_DIGITS
    assert loads(f'[-{edge}, "-{edge}/{edge}"]') == [-int(edge), f"-{edge}/{edge}"]
    assert parse_rational(f"-{edge}/{edge}", "x") == -1
    for text, at in ((f"[{edge}1]", 1), (f'["1/{edge}1"]', 4)):
        with pytest.raises(SchemaError, match=f"char {at}: numeral of more than 4300"):
            loads(text)


def test_long_numeral_in_memory_is_schema_error():
    long = "1" * (MAX_DIGITS + 1)
    for doc, at in (({"p": long + "/1", "q": "0/1"}, "x.p"),
                    ({"p": "0/1", "q": "-1/" + long}, "x.q")):
        with pytest.raises(SchemaError, match=f"^{at}: numeral of more than 4300"):
            fe_from_json(doc, 2, "x")


def _long_output_cone():
    """A valid cone file whose every numeral has at most 3001 digits, while
    its slice vertex (-a, a + e) has a denominator of about 6000 digits."""
    big = 10 ** 3000

    def rat(num, den=1):
        return {"p": f"{num}/{den}", "q": "0/1"}

    a, e = rat(1, big + 1), rat(1, big + 3)
    return {
        "gamma": {"field": {"kind": "rational"}, "generators": [a, e]},
        "cone": {"n": 2, "halfspaces": [
            {"u": [1, 0], "c": a},
            {"u": [0, 1], "c": rat(0)},
            {"u": [-1, -1], "c": e},
        ]},
    }


def test_long_output_numeral_is_reported(tmp_path):
    code, report = _check_cone_report(
        tmp_path, json.dumps(_long_output_cone()).encode()
    )
    assert code == 1
    assert report == {"error": "output numeral of more than 4300 digits",
                      "kind": "NumeralTooLong"}


def test_long_output_json_integer_is_reported(tmp_path):
    """The recession ray (1, -a, ab) of a fan cone cut out by (a, 1, 0),
    (0, b, 1) and (1, 0, b), with a and b of 3001 digits."""
    a, b = 10 ** 3000 + 7, 10 ** 3000 + 9
    zero = {"p": "0/1", "q": "0/1"}
    doc = {
        "gamma": {"field": {"kind": "rational"},
                  "generators": [{"p": "1/1", "q": "0/1"}]},
        "cones": [{"n": 3, "halfspaces": [
            {"u": u, "c": zero} for u in ([a, 1, 0], [0, b, 1], [1, 0, b])
        ]}],
    }
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["recession", str(path)])
    assert code == 1
    assert json.loads(buf.getvalue())["kind"] == "NumeralTooLong"


def test_output_numeral_limit_is_inclusive():
    edge = 10 ** MAX_DIGITS - 1
    ok = fe(Fr(-edge, edge - 1), Fr(1, edge), 2)
    assert numeral(ok) == str(ok)
    assert fe_to_json(ok)["q"] == f"1/{edge}"
    assert int_list([edge, -edge]) == [edge, -edge]
    for call, arg in ((numeral, fe(Fr(1, edge + 1))),
                      (numeral, fe(0, -edge - 1, 2)),
                      (numeral, edge + 1),
                      (fe_to_json, fe(edge + 1)),
                      (int_list, [0, -edge - 1])):
        with pytest.raises(NumeralTooLong, match="more than 4300 digits"):
            call(arg)


def test_decimal_rejected_in_field_element():
    with pytest.raises(SchemaError):
        fe_from_json({"p": 0.5, "q": "0/1"}, None, "c")


# -- element and group round trips ---------------------------------------------------


def test_fe_round_trip():
    for x in (fe(0), fe(Fr(-7, 3)), fe(Fr(1, 2), Fr(-5, 4), 2)):
        doc = fe_to_json(x)
        back = fe_from_json(loads(dumps(doc)), 2, "x")
        assert back == x


def test_fe_irrational_needs_quadratic_context():
    doc = {"p": "0/1", "q": "1/1"}
    with pytest.raises(SchemaError):
        fe_from_json(doc, None, "x")


@pytest.mark.parametrize("gamma", [G_TRIV, G_Z, G_SIXTH, G_S2])
def test_gamma_round_trip(gamma):
    doc = loads(dumps(gamma_to_json(gamma)))
    assert gamma_from_json(doc, "gamma") == gamma


def test_gamma_rejects_non_square_free():
    with pytest.raises(SchemaError):
        gamma_from_json(
            {"field": {"kind": "quadratic", "d": 4}, "generators": []}, "g"
        )


def test_gamma_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        gamma_from_json({"field": {"kind": "real"}, "generators": []}, "g")


# -- cones, fans, gensets, configs ---------------------------------------------------


@pytest.mark.parametrize("name", ["C1", "C1S", "C2", "BOXS2", "QUAD23"])
def test_cone_file_round_trip(name):
    ac = BY_NAME[name].build()
    doc = loads(dumps(cone_file_to_json(ac)))
    back = cone_file_from_json(doc)
    assert back == ac


def test_fan_round_trip():
    from catalog import fan_f2_cones
    from toricval import fan_from_cones

    fan = fan_from_cones(fan_f2_cones())
    doc = loads(dumps(fan_to_json(fan)))
    assert fan_from_json(doc) == fan


def test_genset_round_trip():
    from catalog import catalog_gensets

    gens = catalog_gensets()["C1S"]
    doc = loads(dumps(genset_to_json(gens)))
    assert genset_from_json(doc) == gens


def test_config_round_trip_with_infinite_height():
    cfg = config_p1_inf()
    doc = loads(dumps(config_to_json(cfg)))
    back = config_from_json(doc)
    assert back.points == cfg.points
    assert back.heights == cfg.heights


def test_config_round_trip_irrational():
    from catalog import config_square_s2

    cfg = config_square_s2()
    doc = loads(dumps(config_to_json(cfg)))
    back = config_from_json(doc)
    assert back.heights == cfg.heights


def test_rational_fan_parse():
    doc = {
        "n": 1,
        "gamma": {"field": {"kind": "rational"}, "generators": [
            {"p": "1/1", "q": "0/1"}]},
        "cones": [[[1]], [[-1]]],
    }
    pi, gamma = rational_fan_from_json(loads(dumps(doc)))
    assert gamma == G_Z
    assert len(pi.cones) == 3


# -- determinism ----------------------------------------------------------------------


def test_dumps_sorted_and_newline_terminated():
    s = dumps({"b": 1, "a": [2, 3]})
    assert s == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_dumps_idempotent_across_key_order():
    a = dumps(json.loads('{"x": 1, "y": 2}'))
    b = dumps(json.loads('{"y": 2, "x": 1}'))
    assert a == b
