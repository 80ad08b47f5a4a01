"""The benchmark tracer finds every name it wraps.

``perfbench/tracing.py`` looks each traced function up by name in the
``toricval`` modules and classes; a renamed or deleted name makes
``Tracer.installed()`` fail, which this test turns into a test failure.
"""

import importlib.util
from pathlib import Path

from catalog import build
from toricval import admissible, classify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
