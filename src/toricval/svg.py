"""Deterministic SVG rendering of slice complexes, weight subdivisions, and
single slice polyhedra for ambient rank n <= 2.

Fixed 800x600 canvas, fixed palette, uniform scale.  Geometry coordinates are
emitted with three decimals; vertex labels carry the exact coordinate strings,
so the picture is approximate but the annotations are not.  Identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import math

from .admissible import SlicePolyhedron
from .errors import DimensionTooHigh
from .fans import SliceComplex
from .projtoric import Subdivision, ccw_hull

WIDTH, HEIGHT = 800, 600
MARGIN = 70.0
PALETTE = ("#bfdbf7", "#f7d6bf", "#c8e6c9", "#f2e2b8", "#dcc8e6", "#f4c2d7")
INK = "#1a1a1a"
EDGE = "#333333"


def _fmt(x: float) -> str:
    v = x if abs(x) > 5e-4 else 0.0
    return f"{v:.3f}"


def _to_float_pt(p):
    if len(p) == 1:
        return (float(p[0]), 0.0)
    return (float(p[0]), float(p[1]))


class _Scene:
    """Collects exact-labeled primitives in mathematical coordinates, then
    emits them through one uniform canvas transform."""

    def __init__(self):
        self.cells = []  # (points, rays_from) rays_from: list of (base, dir)
        self.vertices = []  # (point, label)
        self.notes = []  # (point, text, dy)

    def all_points(self):
        pts = []
        for points, rays in self.cells:
            pts.extend(points)
            pts.extend(b for b, _ in rays)
        pts.extend(p for p, _ in self.vertices)
        pts.extend(p for p, _, _ in self.notes)
        return pts

    def emit(self) -> str:
        pts = self.all_points()
        xs = [p[0] for p in pts] or [0.0]
        ys = [p[1] for p in pts] or [0.0]
        lo = (min(xs), min(ys))
        hi = (max(xs), max(ys))
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        ray_len = max(0.35 * span, 1.0)

        def tip(base, d):
            norm = math.hypot(d[0], d[1]) or 1.0
            return (base[0] + ray_len * d[0] / norm, base[1] + ray_len * d[1] / norm)

        # rays extend the bounding box
        ends = [tip(base, d) for _, rays in self.cells for base, d in rays]
        if ends:
            xs += [e[0] for e in ends]
            ys += [e[1] for e in ends]
            lo = (min(xs), min(ys))
            hi = (max(xs), max(ys))

        w = max(hi[0] - lo[0], 1e-9)
        h = max(hi[1] - lo[1], 1e-9)
        scale = min((WIDTH - 2 * MARGIN) / w, (HEIGHT - 2 * MARGIN) / h)
        cx, cy = (lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0

        def T(p):
            return (
                WIDTH / 2.0 + (p[0] - cx) * scale,
                HEIGHT / 2.0 - (p[1] - cy) * scale,
            )

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]

        for i, (points, rays) in enumerate(self.cells):
            drawn = [T(p) for p in points] + [T(tip(base, d)) for base, d in rays]
            hull = ccw_hull(drawn)
            if len(hull) < 3:
                hull = sorted(set(drawn))
            color = PALETTE[i % len(PALETTE)]
            if len(hull) >= 3:
                body = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in hull)
                out.append(
                    f'<polygon points="{body}" fill="{color}" '
                    f'fill-opacity="0.55" stroke="{EDGE}" stroke-width="1"/>'
                )
            elif len(hull) == 2:
                (x1, y1), (x2, y2) = hull
                out.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                    f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="6" '
                    f'stroke-linecap="round"/>'
                )
            for base, d in rays:
                (x1, y1), (x2, y2) = T(base), T(tip(base, d))
                out.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                    f'y2="{_fmt(y2)}" stroke="{EDGE}" stroke-width="1.5" '
                    f'stroke-dasharray="6 4"/>'
                )
                ux, uy = (x2 - x1), (y2 - y1)
                un = math.hypot(ux, uy) or 1.0
                ux, uy = ux / un, uy / un
                px, py = -uy, ux
                a = (x2 - 10 * ux + 4 * px, y2 - 10 * uy + 4 * py)
                b = (x2 - 10 * ux - 4 * px, y2 - 10 * uy - 4 * py)
                out.append(
                    f'<polygon points="{_fmt(x2)},{_fmt(y2)} '
                    f'{_fmt(a[0])},{_fmt(a[1])} {_fmt(b[0])},{_fmt(b[1])}" '
                    f'fill="{EDGE}"/>'
                )

        for p, text, dy in self.notes:
            x, y = T(p)
            out.append(
                f'<text x="{_fmt(x + 7)}" y="{_fmt(y + dy)}" '
                f'font-family="monospace" font-size="11" '
                f'fill="#555555">{_esc(text)}</text>'
            )

        for p, label in self.vertices:
            x, y = T(p)
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{INK}"/>')
            out.append(
                f'<text x="{_fmt(x + 7)}" y="{_fmt(y - 7)}" '
                f'font-family="monospace" font-size="12" '
                f'fill="{INK}">{_esc(label)}</text>'
            )

        out.append("</svg>")
        return "\n".join(out) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _label(point) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"


def _cell_dim_guard(n):
    if n > 2:
        raise DimensionTooHigh(f"SVG rendering supports n <= 2, got n = {n}")


def _add_slice_cell(scene, cell: SlicePolyhedron):
    pts = [_to_float_pt(v) for v in cell.vertices]
    rays = []
    for r in cell.recession_rays:
        d = _to_float_pt(r)
        for v in pts:
            rays.append((v, d))
    scene.cells.append((pts, rays))


def render_slice_polyhedron(cell: SlicePolyhedron) -> str:
    n = len(cell.vertices[0]) if cell.vertices else len(cell.recession_rays[0])
    _cell_dim_guard(n)
    scene = _Scene()
    _add_slice_cell(scene, cell)
    for v in cell.vertices:
        scene.vertices.append((_to_float_pt(v), _label(v)))
    return scene.emit()


def render_slice_complex(sc: SliceComplex) -> str:
    _cell_dim_guard(sc.n)
    scene = _Scene()
    proper = {i for i, _ in sc.poset}
    for i, cell in enumerate(sc.cells):
        if i in proper:
            continue
        _add_slice_cell(scene, cell)
    for v in sc.vertices:
        scene.vertices.append((_to_float_pt(v), _label(v)))
    return scene.emit()


def render_subdivision(sub: Subdivision, cfg) -> str:
    _cell_dim_guard(sub.n)
    scene = _Scene()
    for cell in sub.cells:
        pts = [_to_float_pt(cfg.points[j]) for j in cell]
        scene.cells.append((pts, []))
    for j in cfg.finite_indices():
        p = _to_float_pt(cfg.points[j])
        scene.notes.append((p, f"a={cfg.heights[j]}", 16.0))
    for v in sub.support_vertices:
        scene.vertices.append((_to_float_pt(v), _label(v)))
    return scene.emit()


def render_svg(obj, cfg=None) -> str:
    """Render a SliceComplex, Subdivision (pass its HeightedConfig), or a
    single SlicePolyhedron."""
    if isinstance(obj, SliceComplex):
        return render_slice_complex(obj)
    if isinstance(obj, Subdivision):
        if cfg is None:
            raise ValueError("rendering a Subdivision needs its HeightedConfig")
        return render_subdivision(obj, cfg)
    if isinstance(obj, SlicePolyhedron):
        return render_slice_polyhedron(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
