"""Strict JSON encoding and decoding for the wire formats.

All numbers on the wire are exact: rationals are "num/den" strings, lattice
data is JSON integers, infinity is the string "inf".  Decimals, unknown keys,
and duplicate keys are rejected with a SchemaError carrying the location of
the offending value.  So are, at a byte or character offset, a file that is
not UTF-8, nesting too deep for the parser and any digit run longer than
MAX_DIGITS (Python's default int-string bound, kept whatever
sys.set_int_max_str_digits says).  The writers hold output to the same bound:
numeral and int_list raise NumeralTooLong on a longer integer.
"""

from __future__ import annotations

import json
import re

from ._rational import Q, qstr
from .admissible import AdmissibleCone, GeneratorSet, SemigroupElement, make_admissible
from .errors import NumeralTooLong, SchemaError
from .fans import Fan, fan_from_cones, rational_fan_from_cones
from .ordfield import (
    RATIONALS,
    FieldDescriptor,
    FieldElement,
    ValueGroup,
)
from .polyhedra import HalfSpace
from .projtoric import HeightedConfig

_RATIONAL_RE = re.compile(r"^-?[0-9]+/[1-9][0-9]*$")
MAX_DIGITS = 4300
_LONG_NUMERAL = re.compile(r"(?<![0-9])[0-9]{%d}" % (MAX_DIGITS + 1))
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


def _reject_dupes(pairs):
    seen = set()
    out = {}
    for k, v in pairs:
        if k in seen:
            raise SchemaError(f"duplicate key {k!r}")
        seen.add(k)
        out[k] = v
    return out


def _reject_constant(token):
    raise SchemaError(f"non-finite float literal {token!r} is not allowed")


def _deepest_bracket(text):
    """Offset of the first bracket at the greatest nesting depth; brackets
    inside strings do not count."""
    depth, deepest, at = 0, 0, 0
    for m in _STRING_OR_BRACKET.finditer(text):
        if m.group() in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, at = depth, m.start()
        elif m.group() in ("]", "}"):
            depth -= 1
    return at


def loads(text: str):
    long = _LONG_NUMERAL.search(text)
    if long:
        raise SchemaError(
            f"numeral of more than {MAX_DIGITS} digits", f"char {long.start()}"
        )
    try:
        return json.loads(
            text,
            object_pairs_hook=_reject_dupes,
            parse_constant=_reject_constant,
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(
            "nested too deep for the parser", f"char {_deepest_bracket(text)}"
        ) from None


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"not UTF-8 text: {exc.reason}", f"byte {exc.start}"
            ) from None
    return loads(text)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect_object(obj, keys, loc):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", loc)
    unknown = set(obj) - set(keys)
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}", loc)


def _require(obj, key, loc):
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", loc)
    return obj[key]


def parse_rational(s, loc) -> Q:
    if isinstance(s, float):
        raise SchemaError("decimals are forbidden; use exact \"num/den\"", loc)
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise SchemaError(f"expected an exact \"num/den\" string, got {s!r}", loc)
    num, den = s.split("/")
    if max(len(num.lstrip("-")), len(den)) > MAX_DIGITS:
        raise SchemaError(f"numeral of more than {MAX_DIGITS} digits", loc)
    return Q(int(num), int(den))


def parse_int(x, loc) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"expected an integer, got {x!r}", loc)
    return x


def _checked(x):
    """x, an int or a rational, once its numerator and denominator are known
    to have at most MAX_DIGITS digits."""
    for k in (x.numerator, x.denominator):
        # |k| < 2^(3 * MAX_DIGITS) < 10^MAX_DIGITS needs no power
        if k.bit_length() > 3 * MAX_DIGITS and abs(k) >= 10 ** MAX_DIGITS:
            raise NumeralTooLong(f"output numeral of more than {MAX_DIGITS} digits")
    return x


def numeral(x) -> str:
    """str(x) for a field element, rational or int on the wire."""
    for part in (x.p, x.q) if isinstance(x, FieldElement) else (x,):
        _checked(part)
    return str(x)


def int_list(v):
    """An integer vector on the wire, each entry checked like numeral's."""
    return [_checked(k) for k in v]


def fe_to_json(x: FieldElement):
    return {"p": qstr(_checked(x.p)), "q": qstr(_checked(x.q))}


def fe_from_json(obj, d, loc) -> FieldElement:
    _expect_object(obj, ("p", "q"), loc)
    p = parse_rational(_require(obj, "p", loc), f"{loc}.p")
    q = parse_rational(_require(obj, "q", loc), f"{loc}.q")
    if q != 0 and d is None:
        raise SchemaError("nonzero q needs a quadratic field", f"{loc}.q")
    return FieldElement(p, q, d)


def gamma_to_json(gamma: ValueGroup):
    if gamma.field.d is None:
        field = {"kind": "rational"}
    else:
        field = {"kind": "quadratic", "d": gamma.field.d}
    return {"field": field, "generators": [fe_to_json(g) for g in gamma.generators]}


def gamma_from_json(obj, loc="gamma") -> ValueGroup:
    _expect_object(obj, ("field", "generators"), loc)
    fobj = _require(obj, "field", loc)
    floc = f"{loc}.field"
    kind = _require(fobj, "kind", floc) if isinstance(fobj, dict) else None
    if kind == "rational":
        _expect_object(fobj, ("kind",), floc)
        field = RATIONALS
    elif kind == "quadratic":
        _expect_object(fobj, ("kind", "d"), floc)
        d = parse_int(_require(fobj, "d", floc), f"{floc}.d")
        try:
            field = FieldDescriptor(d)
        except ValueError as exc:
            raise SchemaError(str(exc), f"{floc}.d") from exc
    else:
        raise SchemaError(f"field kind must be \"rational\" or \"quadratic\", got {kind!r}", floc)
    gens_obj = _require(obj, "generators", loc)
    if not isinstance(gens_obj, list):
        raise SchemaError("generators must be a list", f"{loc}.generators")
    gens = [
        fe_from_json(g, field.d, f"{loc}.generators[{i}]")
        for i, g in enumerate(gens_obj)
    ]
    return ValueGroup(field, gens)


def _parse_rank(x, loc) -> int:
    n = parse_int(x, loc)
    if n < 1:
        raise SchemaError(f"lattice rank must be >= 1, got {n}", loc)
    return n


def _parse_uvec(obj, n, loc):
    if not isinstance(obj, list):
        raise SchemaError("expected a list of integers", loc)
    u = tuple(parse_int(x, f"{loc}[{k}]") for k, x in enumerate(obj))
    if n is not None and len(u) != n:
        raise SchemaError(f"expected length {n}, got {len(u)}", loc)
    return u


def cone_to_json(ac: AdmissibleCone):
    return {
        "n": ac.n,
        "halfspaces": [
            {"u": int_list(h.u), "c": fe_to_json(h.c)} for h in ac.halfspaces
        ],
    }


def cone_from_json(obj, gamma: ValueGroup, loc="cone") -> AdmissibleCone:
    _expect_object(obj, ("n", "halfspaces"), loc)
    n = _parse_rank(_require(obj, "n", loc), f"{loc}.n")
    hs_obj = _require(obj, "halfspaces", loc)
    if not isinstance(hs_obj, list):
        raise SchemaError("halfspaces must be a list", f"{loc}.halfspaces")
    hss = []
    for i, h in enumerate(hs_obj):
        hloc = f"{loc}.halfspaces[{i}]"
        _expect_object(h, ("u", "c"), hloc)
        u = _parse_uvec(_require(h, "u", hloc), n, f"{hloc}.u")
        c = fe_from_json(_require(h, "c", hloc), gamma.field.d, f"{hloc}.c")
        try:
            hss.append(HalfSpace(u, c))
        except ValueError as exc:  # the zero half-space
            raise SchemaError(str(exc), hloc) from exc
    return make_admissible(n, hss, gamma)


def cone_file_from_json(obj) -> AdmissibleCone:
    _expect_object(obj, ("gamma", "cone"), "")
    gamma = gamma_from_json(_require(obj, "gamma", ""))
    return cone_from_json(_require(obj, "cone", ""), gamma)


def cone_file_to_json(ac: AdmissibleCone):
    return {"gamma": gamma_to_json(ac.gamma), "cone": cone_to_json(ac)}


def fan_from_json(obj) -> Fan:
    _expect_object(obj, ("gamma", "cones"), "")
    gamma = gamma_from_json(_require(obj, "gamma", ""))
    cones_obj = _require(obj, "cones", "")
    if not isinstance(cones_obj, list) or not cones_obj:
        raise SchemaError("cones must be a nonempty list", "cones")
    cones = [
        cone_from_json(c, gamma, f"cones[{i}]") for i, c in enumerate(cones_obj)
    ]
    return fan_from_cones(cones)


def fan_to_json(fan: Fan):
    return {
        "gamma": gamma_to_json(fan.gamma),
        "cones": [cone_to_json(c) for c in fan.maximal_cones],
    }


def genset_from_json(obj) -> GeneratorSet:
    _expect_object(obj, ("gamma", "gens"), "")
    gamma = gamma_from_json(_require(obj, "gamma", ""))
    gens_obj = _require(obj, "gens", "")
    if not isinstance(gens_obj, list) or not gens_obj:
        raise SchemaError("gens must be a nonempty list", "gens")
    elems = []
    n = None
    for i, g in enumerate(gens_obj):
        gloc = f"gens[{i}]"
        _expect_object(g, ("u", "g"), gloc)
        u = _parse_uvec(_require(g, "u", gloc), n, f"{gloc}.u")
        if n is None:
            n = len(u)
            if n == 0:
                raise SchemaError("u must be nonempty", f"{gloc}.u")
        height = fe_from_json(_require(g, "g", gloc), gamma.field.d, f"{gloc}.g")
        elems.append(SemigroupElement(u, height))
    try:
        return GeneratorSet(n, gamma, elems)
    except ValueError as exc:
        raise SchemaError(str(exc), "gens") from exc


def genset_to_json(gens: GeneratorSet):
    return {
        "gamma": gamma_to_json(gens.gamma),
        "gens": [{"u": int_list(e.u), "g": fe_to_json(e.g)} for e in gens],
    }


def config_from_json(obj) -> HeightedConfig:
    _expect_object(obj, ("n", "A", "a", "gamma"), "")
    n = parse_int(_require(obj, "n", ""), "n")
    a_obj = _require(obj, "A", "")
    if not isinstance(a_obj, list):
        raise SchemaError("A must be a list of integer vectors", "A")
    points = [_parse_uvec(u, n, f"A[{j}]") for j, u in enumerate(a_obj)]
    d = None
    if "gamma" in obj:
        d = gamma_from_json(obj["gamma"]).field.d
    h_obj = _require(obj, "a", "")
    if not isinstance(h_obj, list):
        raise SchemaError("a must be a list of heights", "a")
    heights = []
    for j, h in enumerate(h_obj):
        hloc = f"a[{j}]"
        if h == "inf":
            heights.append(None)
        elif isinstance(h, dict):
            heights.append(fe_from_json(h, d, hloc))
        else:
            raise SchemaError(
                f"height must be a field element object or \"inf\", got {h!r}", hloc
            )
    try:
        return HeightedConfig(n, points, heights)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def config_to_json(cfg: HeightedConfig, gamma=None):
    out = {
        "n": cfg.n,
        "A": [list(u) for u in cfg.points],
        "a": [
            "inf" if h is None else fe_to_json(h) for h in cfg.heights
        ],
    }
    if gamma is None:
        # irrational heights need a quadratic field context to parse back
        ds = {h.d for h in cfg.heights if h is not None and h.d is not None}
        if ds:
            out["gamma"] = {
                "field": {"kind": "quadratic", "d": ds.pop()},
                "generators": [],
            }
    else:
        out["gamma"] = gamma_to_json(gamma)
    return out


def rational_fan_from_json(obj):
    """Input for the product construction: {"n", "gamma", "cones": [[ray...]]}."""
    _expect_object(obj, ("n", "gamma", "cones"), "")
    n = _parse_rank(_require(obj, "n", ""), "n")
    gamma = gamma_from_json(_require(obj, "gamma", ""))
    cones_obj = _require(obj, "cones", "")
    if not isinstance(cones_obj, list) or not cones_obj:
        raise SchemaError("cones must be a nonempty list", "cones")
    cones = []
    for i, c in enumerate(cones_obj):
        if not isinstance(c, list):
            raise SchemaError("a cone is a list of integer rays", f"cones[{i}]")
        cones.append(
            [_parse_uvec(r, n, f"cones[{i}][{k}]") for k, r in enumerate(c)]
        )
    try:
        return rational_fan_from_cones(n, cones), gamma
    except ValueError as exc:  # a cone that is not pointed
        raise SchemaError(str(exc), "cones") from exc
