"""Scenario gate: the refined pair beats the standard decode off the
bundled scene.

Each case renders a variant of the bundled scene (other sizes, steps, the
JPEG table, an off-grid box, a thin pole), codes both views, refines them
for 10 iterations with eps = 0 and requires Q_our >= Q_std. Both scores
are taken on maps rounded to 8-bit levels, as report.csv prints them.
"""

import dataclasses

import pytest

from depthpocs.codec import decode_map, encode_map, flat_table, jpeg_table
from depthpocs.metrics import quality_g
from depthpocs.pocs import RefineOptions, refine
from depthpocs.scene import Box, demo_scene, generate_scene


def with_box(spec, box):
    """spec with its box replaced by box."""
    planes = [p for p in spec.primitives if not isinstance(p, Box)]
    return dataclasses.replace(spec, primitives=[*planes, box])


def offgrid_scene():
    """The off-grid benchmark geometry: 501x373, focal 235, and a box whose
    edges and disparity (45.70 px) are off the 8-pixel grid."""
    spec = dataclasses.replace(demo_scene(501, 373), focal=235.0)
    return with_box(spec, Box(x0=-20.3, x1=52.7, y0=-40.1, y1=30.3, depth=61.7))


def pole_scene():
    """The bundled planes with a pole 3 world units wide in place of the box."""
    return with_box(demo_scene(), Box(x0=10.3, x1=13.3, y0=-60.0, y1=50.0, depth=58.3))


CASES = {
    "256-d24": (demo_scene, flat_table(24.0)),
    "256-q50": (demo_scene, jpeg_table(50)),
    "255-d24": (lambda: demo_scene(255, 255), flat_table(24.0)),
    "255-q50": (lambda: demo_scene(255, 255), jpeg_table(50)),
    "104x80-d24": (lambda: demo_scene(104, 80), flat_table(24.0)),
    "100-d48": (lambda: demo_scene(100, 100), flat_table(48.0)),
    "offgrid-q50": (offgrid_scene, jpeg_table(50)),
    "256-d64": (demo_scene, flat_table(64.0)),
    "pole-d24": (pole_scene, flat_table(24.0)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_refined_beats_standard_decode(name):
    make_spec, table = CASES[name]
    gen = generate_scene(make_spec())
    truth = (gen.left, gen.right)
    descs = [encode_map(m, table) for m in truth]
    q_std = quality_g(*(decode_map(d) for d in descs), *truth, round_to_int=True).g
    left, right, _ = refine(
        *descs, gen.cameras.left, gen.cameras.right, RefineOptions(max_iters=10, eps=0.0)
    )
    q_our = quality_g(left, right, *truth, round_to_int=True).g
    assert q_our >= q_std, f"{name}: Q_our {q_our:.2f} dB < Q_std {q_std:.2f} dB"
