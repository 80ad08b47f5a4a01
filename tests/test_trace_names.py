"""The benchmark tracer finds every name it wraps.

``perfbench/tracing.py`` looks each traced function up by name in the
``toricval`` modules and classes; a renamed or deleted name makes
``Tracer.installed()`` fail, which this test turns into a test failure.
A refactor that routes around a traced name leaves its counter at 0, which
the live-counter test turns into a failure as well.
"""

import importlib.util
from pathlib import Path

from catalog import build
from toricval import _io, admissible, classify

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores():
    originals = (admissible.minimal_height, classify._MembershipSearch.member)
    tracer = _tracing().Tracer()
    with tracer.installed():
        admissible.minimal_height(build("C1"), (1,))
    assert tracer.counts["admissible.minimal_height_calls"] == 1
    assert (admissible.minimal_height, classify._MembershipSearch.member) == originals


def test_traced_counters_stay_live():
    gens = _io.genset_from_json(
        _io.load_path(ROOT / "tests" / "fixtures" / "gens-witness.json"))
    ac = build("C1")
    tracer = _tracing().Tracer()
    with tracer.installed():
        classify.saturation_check(gens, (3, 3))
    assert tracer.counts["classify.member_calls"] > 0
    tracer = _tracing().Tracer()
    with tracer.installed():
        admissible.algebra_generators(ac, 2)
    assert tracer.counts["polyhedra.dd_pair_calls"] == 1
