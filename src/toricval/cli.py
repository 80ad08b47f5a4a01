"""Command-line front end.

Exit codes: 0 for a positive result, 1 for broken input (schema, I/O, bad
flags), 2 for a well-formed input whose mathematical answer is negative
(not admissible, not finite type, not a fan, saturation witness, round-trip
mismatch).  All reports are JSON with sorted keys; identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import _io
from .admissible import algebra_generators, bad_slice_vertices, is_finite_type
from .classify import round_trip, saturation_check
from .errors import MathematicalNo, NotAFan, NumeralTooLong, ToricValError
from .fans import product_fan, recession_fan, slice_complex
from .linalg import primitive_int_vector
from .projtoric import orbit_correspondence, weight_subdivision
from .svg import render_slice_complex, render_subdivision


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process."""
    p = _Parser(
        prog="toricval",
        description="Exact polyhedral toolkit for toric geometry over a "
        "rank-one valuation ring.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, bound=False, sat=False, svg=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", help="path to the input JSON document")
        if bound:
            sp.add_argument("--bound", type=int, required=True,
                            help="degree bound for the generator search")
        if sat:
            sp.add_argument("--bu", type=int, required=True,
                            help="sup-norm bound for witness exponents")
            sp.add_argument("--kmax", type=int, required=True,
                            help="largest multiplier k to test")
        if svg:
            sp.add_argument("--svg", help="also write an SVG rendering here")
        sp.add_argument("--out", help="also write the JSON report here")
        return sp

    add("check-cone", "validate a cone file and test finite type")
    add("dual", "dual cone of a cone file")
    add("generators", "degree-bounded semigroup generators", bound=True)
    add("round-trip", "reconstruct the cone from its generators", bound=True)
    add("fan-validate", "check the common-face condition of a fan file")
    add("slice", "slice complex of a fan at s = 1", svg=True)
    add("recession", "recession fan of a fan file")
    add("product-fan", "lift a rational fan to a product fan")
    add("weightsub", "weight subdivision of a heighted configuration", svg=True)
    add("orbits", "orbit descriptors of a weight subdivision")
    add("saturation", "bounded saturation check of a generator set", sat=True)
    return p


def _vec_str(v):
    return [_io.numeral(x) for x in v]


def _slice_report(ac):
    cell = ac.slice()
    if cell is None:
        return [], []
    return (
        [_vec_str(v) for v in cell.vertices],
        [_io.int_list(r) for r in cell.recession_rays],
    )


def _cmd_check_cone(ns):
    ac = _io.cone_file_from_json(_io.load_path(ns.input))
    verts, recs = _slice_report(ac)
    report = {
        "admissible": True,
        "n": ac.n,
        "rays": [_vec_str(r) for r in ac.cone.rays],
        "slice_vertices": verts,
        "recession_rays": recs,
    }
    if is_finite_type(ac):
        report["finite_type"] = True
        return report, 0
    report["finite_type"] = False
    report["bad_vertex"] = [_vec_str(v) for v in bad_slice_vertices(ac)]
    return report, 2


def _cmd_dual(ns):
    ac = _io.cone_file_from_json(_io.load_path(ns.input))
    dual = ac.dual()
    report = {
        "n": ac.n,
        "rays": [_vec_str(r) for r in dual.rays],
        "lineality": [_vec_str(l) for l in dual.lineality],
    }
    return report, 0


def _cmd_generators(ns):
    ac = _io.cone_file_from_json(_io.load_path(ns.input))
    gens = algebra_generators(ac, ns.bound)
    report = _io.genset_to_json(gens)
    report["bound"] = ns.bound
    return report, 0


def _cmd_round_trip(ns):
    ac = _io.cone_file_from_json(_io.load_path(ns.input))
    rep = round_trip(ac, ns.bound)
    report = {
        "status": "ok" if rep.ok else "mismatch",
        "generators": _io.genset_to_json(rep.generators)["gens"],
        "reconstructed_rays": [_vec_str(r) for r in rep.reconstructed.cone.rays],
    }
    if not rep.ok:
        report["detail"] = rep.detail
    return report, 0 if rep.ok else 2


def _cmd_fan_validate(ns):
    try:
        fan = _io.fan_from_json(_io.load_path(ns.input))
    except NotAFan as exc:
        return {"valid": False, "i": exc.i, "j": exc.j, "detail": str(exc)}, 2
    return {
        "valid": True,
        "n": fan.n,
        "maximal_cones": len(fan.maximal_cones),
        "total_cones": len(fan.all_cones),
    }, 0


def _cmd_slice(ns):
    fan = _io.fan_from_json(_io.load_path(ns.input))
    sc = slice_complex(fan)
    report = {
        "n": sc.n,
        "components": sc.component_count(),
        "vertices": [_vec_str(v) for v in sc.vertices],
        "cells": [
            {
                "vertices": [_vec_str(v) for v in cell.vertices],
                "recession_rays": [_io.int_list(r) for r in cell.recession_rays],
            }
            for cell in sc.cells
        ],
        "poset": [list(e) for e in sc.poset],
    }
    if ns.svg:
        _write_text(ns.svg, render_slice_complex(sc))
    return report, 0


def _cmd_recession(ns):
    fan = _io.fan_from_json(_io.load_path(ns.input))
    rf = recession_fan(fan)
    report = {
        "n": rf.n,
        "cones": [
            [_io.int_list(primitive_int_vector(r)) for r in c.rays] for c in rf.cones
        ],
        "poset": [list(e) for e in rf.poset],
    }
    return report, 0


def _cmd_product_fan(ns):
    rf, gamma = _io.rational_fan_from_json(_io.load_path(ns.input))
    fan = product_fan(rf, gamma)
    return _io.fan_to_json(fan), 0


def _cmd_weightsub(ns):
    cfg = _io.config_from_json(_io.load_path(ns.input))
    sub = weight_subdivision(cfg)
    certs = {}
    for cell in sorted(sub.certificates):
        cert = sub.certificates[cell]
        certs[",".join(str(j) for j in cell)] = {
            "phi": _vec_str(cert.phi),
            "beta": _io.numeral(cert.beta),
            "tight": list(cert.tight),
        }
    report = {
        "n": sub.n,
        "support_vertices": [_vec_str(v) for v in sub.support_vertices],
        "cells": [list(c) for c in sub.cells],
        "faces": [list(f) for f in sub.faces],
        "face_dims": list(sub.face_dims),
        "poset": [list(e) for e in sub.poset],
        "certificates": certs,
    }
    if ns.svg:
        _write_text(ns.svg, render_subdivision(sub, cfg))
    return report, 0


def _cmd_orbits(ns):
    cfg = _io.config_from_json(_io.load_path(ns.input))
    sub = weight_subdivision(cfg)
    orbs = orbit_correspondence(sub)
    report = {
        "orbits": [
            {
                "face": list(o.face),
                "dim": o.dim,
                "nonzero_coords": sorted(o.nonzero_coords),
            }
            for o in orbs
        ]
    }
    return report, 0


def _cmd_saturation(ns):
    gens = _io.genset_from_json(_io.load_path(ns.input))
    if ns.bu < 1 or ns.kmax < 2:
        raise _UsageError("--bu must be >= 1 and --kmax >= 2")
    witness = saturation_check(gens, (ns.bu, ns.kmax))
    if witness is None:
        return {"status": "saturated", "bu": ns.bu, "kmax": ns.kmax}, 0
    return {
        "status": "witness",
        "u": list(witness.u),
        "g": _io.fe_to_json(witness.g),
        "k": witness.k,
    }, 2


_HANDLERS = {
    "check-cone": _cmd_check_cone,
    "dual": _cmd_dual,
    "generators": _cmd_generators,
    "round-trip": _cmd_round_trip,
    "fan-validate": _cmd_fan_validate,
    "slice": _cmd_slice,
    "recession": _cmd_recession,
    "product-fan": _cmd_product_fan,
    "weightsub": _cmd_weightsub,
    "orbits": _cmd_orbits,
    "saturation": _cmd_saturation,
}


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    """Run one command; returns its exit code, the JSON report on stdout.

    The argument parser is built once per process, on the first call, and
    reused: parsing keeps no state between calls, so main may be called
    repeatedly in one process (a usage error included) with the same
    output and exit codes as in a fresh one.
    """
    try:
        ns = _build_parser().parse_args(argv)
        if getattr(ns, "bound", 1) < 1:
            raise _UsageError("--bound must be >= 1")
        report, code = _HANDLERS[ns.command](ns)
        text = _io.dumps(report)
        if ns.out:
            _write_text(ns.out, text)
    except _UsageError as exc:
        sys.stdout.write(_io.dumps({"error": str(exc), "kind": "UsageError"}))
        return 1
    except OSError as exc:
        sys.stdout.write(_io.dumps({"error": str(exc), "kind": "IOError"}))
        return 1
    except MathematicalNo as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__}
        if hasattr(exc, "bad_vertices"):
            try:
                payload["bad_vertex"] = [_vec_str(v) for v in exc.bad_vertices]
            except NumeralTooLong:
                pass  # the message names them, a long numeral elided
        if hasattr(exc, "bound"):
            payload["bound"] = exc.bound
        if hasattr(exc, "index"):
            payload["index"] = exc.index
        sys.stdout.write(_io.dumps(payload))
        return 2
    except ToricValError as exc:
        sys.stdout.write(_io.dumps({"error": str(exc), "kind": type(exc).__name__}))
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
