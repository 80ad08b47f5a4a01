"""Spans and counters around the toolkit's public functions, from outside.

``Tracer.installed()`` wraps each traced function where its callers look it
up: every ``toricval`` module namespace that holds the function object gets
the wrapper (so ``classify.solve_min`` is traced, not only ``lp.solve_min``),
and ``Cone`` methods are wrapped on the class.  A span records (name, start,
end, parent, job id); self time is a span minus its child spans.  Nothing is
wrapped outside ``installed()``, so untraced passes run the original code.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter


def _face_lattice_hooks():
    def before(args):
        cone = args[0]
        return cone._faces is None, len(cone.facets)

    def after(counts, state, out):
        fresh, nfacets = state
        if fresh:
            counts["polyhedra.facet_subsets_tried"] += 1 << nfacets
            counts["polyhedra.faces_found"] += len(out[0])

    return before, after


def _targets():
    """(span name, owner, attribute, timed, before, after) for each wrapped name."""
    from toricval import _io, admissible, classify, fans, lp, polyhedra, projtoric
    from toricval.polyhedra import Cone

    fl_before, fl_after = _face_lattice_hooks()

    def count(key, f):
        return lambda counts, state, out: counts.update({key: f(out)})

    return [
        ("polyhedra.dd_pair", polyhedra, "dd_pair", True, None,
         count("polyhedra.dd_rays_out", lambda out: len(out[0]))),
        ("polyhedra.face_lattice", Cone, "face_lattice", True, fl_before, fl_after),
        ("polyhedra.from_rays", Cone, "from_rays", True, None, None),
        ("polyhedra.from_constraints", Cone, "from_constraints", True, None, None),
        ("polyhedra.intersect", Cone, "intersect", True, None, None),
        ("lp.solve_min", lp, "solve_min", True, None, None),
        ("admissible.make_admissible", admissible, "make_admissible", True, None, None),
        ("admissible.algebra_generators", admissible, "algebra_generators", True, None, None),
        ("admissible.minimal_height", admissible, "minimal_height", False, None, None),
        ("classify.saturation_check", classify, "saturation_check", True, None, None),
        ("classify.rationalize", classify, "rationalize", True, None, None),
        ("classify.round_trip", classify, "round_trip", True, None, None),
        ("classify.member", classify._MembershipSearch, "member", False, None, None),
        ("fans.fan_from_cones", fans, "fan_from_cones", True, None, None),
        ("fans.slice_complex", fans, "slice_complex", True, None, None),
        ("projtoric.weight_subdivision", projtoric, "weight_subdivision", True, None,
         count("projtoric.cells", lambda out: len(out.cells))),
        ("io.load", _io, "load_path", True, None, None),
        ("io.load", _io, "cone_file_from_json", True, None, None),
        ("io.load", _io, "fan_from_json", True, None, None),
        ("io.load", _io, "genset_from_json", True, None, None),
        ("io.load", _io, "config_from_json", True, None, None),
        ("io.dump", _io, "dumps", True, None, None),
    ]


class Tracer:
    """In-memory spans and call counts for one traced pass at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.stack = []
        self.counts = Counter()
        self.job = None

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, timed, before, after):
        tracer = self

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name + "_calls"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            tracer.counts[name + "_calls"] += 1
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after:
                after(tracer.counts, state, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "toricval" or k.startswith("toricval."))]
        undo = []
        try:
            for name, owner, attr, timed, before, after in _targets():
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__, timed, before, after)))
                    undo.append((owner, attr, raw))
                    continue
                wrapper = self._wrap(name, raw, timed, before, after)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, raw))
                    continue
                for mod in modules:
                    if mod.__dict__.get(attr) is raw:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def self_times(self):
        """Total self time per span name: each span minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out


@contextlib.contextmanager
def counting_constructions():
    """Count FieldElement constructions; the count lands in the yielded list."""
    from toricval.ordfield import FieldElement

    orig = FieldElement.__init__
    box = [0]

    def counting_init(self, *args, **kwargs):
        box[0] += 1
        orig(self, *args, **kwargs)

    FieldElement.__init__ = counting_init
    try:
        yield box
    finally:
        FieldElement.__init__ = orig
