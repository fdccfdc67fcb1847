"""Scenario gate: the refined pair beats the standard decode off the
bundled scene.

Each case renders a variant of the bundled scene (other sizes, steps, the
JPEG table, an off-grid box, a thin pole), codes both views, refines them
for 10 iterations with eps = 0 and requires Q_our >= Q_std. Both scores
are taken on maps rounded to 8-bit levels, as report.csv prints them.

A seeded family of scenes the code was not tuned for takes the same gate:
each of the seeds in FAMILY_SEEDS, fixed before any run, draws planes,
boxes with a pole among them, a size off the block grid and a step table
(see family_case).
"""

import dataclasses

import numpy as np
import pytest

from depthpocs.codec import decode_map, encode_map, flat_table, jpeg_table
from depthpocs.metrics import quality_g
from depthpocs.pocs import RefineOptions, refine
from depthpocs.scene import Box, Plane, SceneSpec, demo_scene, generate_scene


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


def family_case(seed):
    """The scene and step table of family seed `seed`.

    numpy's default_rng(seed) draws, in this order: a width in [80, 200) and
    a height in [64, width], neither a multiple of 8; a focal length of
    0.9-1.3 widths and a baseline of 6-14 units; 2-3 planes, slopes up to
    0.35 across and 0.15 down, offsets 100-170; 1-3 boxes at depths 40-70,
    each placed by the left-view columns of its edges, the first a pole 1-6
    units wide and the full height, the others 10-40 units wide and tall;
    a ripple of amplitude 0-2; and either a flat step in [16, 96] or a JPEG
    quality in [30, 90]. Every ray meets the nearest plane at a depth of
    about 72 to 245, behind every box.
    """
    rng = np.random.default_rng(seed)

    def off_grid(lo, hi):
        return int(rng.choice([n for n in range(lo, hi) if n % 8]))

    width = off_grid(80, 200)
    height = off_grid(64, width + 1)
    focal = width * rng.uniform(0.9, 1.3)
    baseline = rng.uniform(6.0, 14.0)
    prims = [Plane(a=rng.uniform(-0.35, 0.35), b=rng.uniform(-0.15, 0.15),
                   c=rng.uniform(100.0, 170.0)) for _ in range(rng.integers(2, 4))]
    for i in range(rng.integers(1, 4)):
        depth = rng.uniform(40.0, 70.0)
        # World x of a left-view column at this depth (the left camera is at x = 0).
        x0 = (rng.uniform(0.1, 0.8) * width - (width - 1) / 2.0) * depth / focal
        if i == 0:
            prims.append(Box(x0=x0, x1=x0 + rng.uniform(1.0, 6.0), y0=-1e3, y1=1e3, depth=depth))
        else:
            y0 = rng.uniform(-0.5, 0.3) * height * depth / focal
            prims.append(Box(x0=x0, x1=x0 + rng.uniform(10.0, 40.0), y0=y0,
                             y1=y0 + rng.uniform(10.0, 40.0), depth=depth))
    spec = SceneSpec(width, height, prims, focal=focal, baseline=baseline, seed=seed,
                     noise_amp=rng.uniform(0.0, 2.0))
    table = flat_table(rng.uniform(16.0, 96.0)) if rng.integers(2) else jpeg_table(
        int(rng.integers(30, 91)))
    return spec, table


# Fixed before any run. A seed that fails is a finding: it stays, marked
# xfail(strict=True), and is never replaced.
FAMILY_SEEDS = range(16)


def gate(spec, table):
    """Q_std and Q_our of spec coded with table, refined 10 iterations with eps = 0."""
    gen = generate_scene(spec)
    truth = (gen.left, gen.right)
    descs = [encode_map(m, table) for m in truth]
    q_std = quality_g(*(decode_map(d) for d in descs), *truth, round_to_int=True).g
    left, right, _ = refine(
        *descs, gen.cameras.left, gen.cameras.right, RefineOptions(max_iters=10, eps=0.0)
    )
    return q_std, quality_g(left, right, *truth, round_to_int=True).g


@pytest.mark.parametrize("name", list(CASES))
def test_refined_beats_standard_decode(name):
    make_spec, table = CASES[name]
    q_std, q_our = gate(make_spec(), table)
    assert q_our >= q_std, f"{name}: Q_our {q_our:.2f} dB < Q_std {q_std:.2f} dB"


@pytest.mark.parametrize("seed", FAMILY_SEEDS)
def test_family_refined_beats_standard_decode(seed):
    q_std, q_our = gate(*family_case(seed))
    assert q_our >= q_std, f"seed {seed}: Q_our {q_our:.2f} dB < Q_std {q_std:.2f} dB"
