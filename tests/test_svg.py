"""SVG rendering: structure, determinism, exact labels, dimension guard,
and the pinned bytes of every fixture rendering."""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from catalog import CONFIGS, build, fan_f2_cones
from toricval import DimensionTooHigh, fan_from_cones, slice_complex, weight_subdivision
from toricval.cli import main
from toricval.svg import render_slice_complex, render_slice_polyhedron, render_subdivision, render_svg


def test_header_and_size():
    svg = render_slice_polyhedron(build("C1").slice())
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600"')
    assert svg.rstrip().endswith("</svg>")


def test_vertex_labels_exact():
    svg = render_slice_polyhedron(build("C1").slice())
    assert ">(0)<" in svg
    assert ">(1)<" in svg


def test_irrational_label_exact():
    svg = render_slice_polyhedron(build("C1S").slice())
    assert ">(sqrt(2))<" in svg


def test_two_dim_box_labels():
    svg = render_slice_polyhedron(build("BOXS2").slice())
    assert ">(1, sqrt(2))<" in svg
    assert "<polygon" in svg


def test_recession_rays_drawn_dashed():
    svg = render_slice_polyhedron(build("QUADZ").slice())
    assert "stroke-dasharray" in svg


def test_dimension_guard():
    with pytest.raises(DimensionTooHigh):
        render_slice_polyhedron(build("SIMP3").slice())


def test_slice_complex_render():
    sc = slice_complex(fan_from_cones(fan_f2_cones()))
    svg = render_slice_complex(sc)
    assert svg.count("<line") >= 1
    assert ">(0)<" in svg and ">(1)<" in svg


def test_subdivision_render_heights_noted():
    cfg = CONFIGS["square"]()
    svg = render_subdivision(weight_subdivision(cfg), cfg)
    assert svg.count("<polygon") == 2
    assert "a=1" in svg and "a=0" in svg


def test_render_dispatch():
    cfg = CONFIGS["P1"]()
    assert render_svg(weight_subdivision(cfg), cfg) == render_subdivision(
        weight_subdivision(cfg), cfg
    )
    sl = build("C1").slice()
    assert render_svg(sl) == render_slice_polyhedron(sl)


def test_render_deterministic():
    sc = slice_complex(fan_from_cones(fan_f2_cones()))
    assert render_slice_complex(sc) == render_slice_complex(sc)
    cfg = CONFIGS["squareS2"]()
    assert render_subdivision(weight_subdivision(cfg), cfg) == render_subdivision(
        weight_subdivision(cfg), cfg
    )


# -- golden bytes -------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"

# sha256 of every SVG the CLI writes for a fixture: a change that moves one
# byte of a picture fails here, and a change meant to move it re-records the
# hash
SVG_SHA256 = {
    ("slice", "F1"): "445292fe4d13dff6a46e2dffb83dd30b211f371918467709a3743e57416b56a9",
    ("slice", "F2"): "f6858cf227b8246330e0e41a8573e75f41eec7ea3b2e22c1c44d5ad0038d4f5d",
    ("slice", "Fbad"): "6220612dc903d82446bc61ea95d23c4ca24dd71d94ce36863230f008bf69653a",
    ("weightsub", "P1"): "0f475e28690a6675731223de4c314afb0332ca6fa7bd7ddcfe396e5ea589c0ce",
    ("weightsub", "P1flat"): "20f4dbe51c55a7dd3591151154d63c8be8270cf033417b12e26ee082a714bba4",
    ("weightsub", "P1inf"): "20061aaf093d7f8e414939b335f96dd61a907bca66b6d391de34cae739f72282",
    ("weightsub", "P1mid"): "36a8290778237433c3c17bccd6a189065c60ae9cf318a01c81a6c82002306d9d",
    ("weightsub", "P2"): "bfbc45b629f00ffd1b3394ce1b911ab7386e7fbc8a7eebc580e466c5a3d041f4",
    ("weightsub", "P2s"): "9e293b34fa8fa6f9211c06b2d209b44b296e8c41aab84aada6bdf7275888a820",
}


def _svg_fixtures():
    """(command, stem) for every fixture the command renders with exit 0."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        for command in ("slice", "weightsub"):
            with redirect_stdout(io.StringIO()):
                if main([command, str(path)]) == 0:
                    out.append((command, path.stem))
    return out


def test_svg_pins_cover_every_rendering_fixture():
    assert sorted(_svg_fixtures()) == sorted(SVG_SHA256)


@pytest.mark.parametrize("command, stem", sorted(SVG_SHA256))
def test_cli_svg_bytes_pinned(tmp_path, command, stem):
    target = tmp_path / "out.svg"
    with redirect_stdout(io.StringIO()):
        code = main([command, str(FIXTURES / f"{stem}.json"), "--svg", str(target)])
    assert code == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == SVG_SHA256[command, stem]
