"""Scene generator tests: closed-form surface oracles, cross-view
consistency of the rendered pair, disocclusion structure, and errors."""

import numpy as np
import pytest

from depthpocs.errors import InvalidSceneError
from depthpocs.geometry import is_rectified
from depthpocs.scene import Box, Plane, SceneSpec, demo_scene, generate_scene
from depthpocs.warp import project_view


def spec_with(primitives, width=64, height=64, baseline=8.0, noise_amp=0.0, seed=0):
    return SceneSpec(
        width=width,
        height=height,
        primitives=primitives,
        focal=120.0,
        baseline=baseline,
        seed=seed,
        noise_amp=noise_amp,
    )


class TestRendering:
    def test_fronto_parallel_plane_constant(self):
        gen = generate_scene(spec_with([Plane(0.0, 0.0, 100.0, ripple=False)]))
        assert np.array_equal(gen.left, np.full((64, 64), 100.0))
        assert np.array_equal(gen.right, np.full((64, 64), 100.0))
        # masked off only where the projection leaves the other view's frame
        # (disparity here is 120 * 8 / 100 = 9.6 columns)
        assert gen.mask_left[:, :50].all() and not gen.mask_left[:, -1].any()
        assert gen.mask_right[:, 14:].all() and not gen.mask_right[:, 0].any()

    def test_slanted_plane_satisfies_surface_equation(self):
        # Implicit oracle: at every pixel the rendered depth, lifted to its
        # world point along the pixel ray, must sit on the plane.
        a, b, c0 = 0.25, -0.1, 150.0
        spec = spec_with([Plane(a, b, c0, ripple=False)])
        gen = generate_scene(spec)
        cx, cy = spec.principal_point()
        for tx, depth in ((0.0, gen.left), (spec.baseline, gen.right)):
            cols = (np.arange(64) - cx) / spec.focal
            rows = (np.arange(64) - cy) / spec.focal
            u, v = np.meshgrid(cols, rows)
            x = u * depth - tx
            y = v * depth
            assert np.max(np.abs(depth - (a * x + b * y + c0))) < 1e-9

    def test_slanted_plane_views_are_disparity_shifted(self):
        # d_left(r, c) equals the right view's closed-form surface depth at
        # column c + f*b/d, derived from the same plane-ray intersection.
        a, b, c0 = 0.25, -0.1, 150.0
        spec = spec_with([Plane(a, b, c0, ripple=False)])
        gen = generate_scene(spec)
        cx, cy = spec.principal_point()
        f = spec.focal
        rng = np.random.default_rng(91)
        for _ in range(200):
            r = int(rng.integers(0, 64))
            c = int(rng.integers(0, 64))
            d = gen.left[r, c]
            col_r = c + f * spec.baseline / d
            u = (col_r - cx) / f
            v = (r - cy) / f
            d_right = (c0 - a * spec.baseline) / (1.0 - a * u - b * v)
            assert d_right == pytest.approx(d, abs=1e-9)

    def test_box_in_front_and_disocclusion_band(self):
        d_box, d_plane = 60.0, 150.0
        spec = spec_with(
            [Plane(0.0, 0.0, d_plane, ripple=False), Box(-8.0, 8.0, -10.0, 10.0, d_box)],
            width=96,
            height=96,
        )
        gen = generate_scene(spec)
        assert np.min(gen.right) == d_box and np.max(gen.right) == d_plane
        # expected band: background visible in the right view but hidden
        # behind the box in the left view, at the box's left edge
        expected = spec.focal * spec.baseline * (1.0 / d_box - 1.0 / d_plane)
        r = 48
        box_cols = np.flatnonzero(gen.right[r] == d_box)
        left_edge = box_cols[0]
        run = 0
        c = left_edge - 1
        while c >= 0 and not gen.mask_right[r, c]:
            run += 1
            c -= 1
        assert abs(run - expected) <= 4.0

    def test_every_pixel_covered_or_error(self):
        with pytest.raises(InvalidSceneError):
            generate_scene(spec_with([Box(-5.0, 5.0, -5.0, 5.0, 50.0)]))

    def test_depth_range_enforced(self):
        with pytest.raises(InvalidSceneError):
            generate_scene(spec_with([Plane(0.0, 0.0, 300.0, ripple=False)]))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSceneError, match="seed"):
            generate_scene(demo_scene(seed=-1))

    def test_needs_primitives(self):
        with pytest.raises(InvalidSceneError):
            generate_scene(spec_with([]))

    def test_unknown_primitive_type(self):
        with pytest.raises(InvalidSceneError):
            generate_scene(spec_with(["sphere"]))


class TestConsistency:
    def test_warped_left_truth_matches_right_truth(self):
        gen = generate_scene(demo_scene())
        warped = project_view(
            gen.left, gen.cameras.left, gen.cameras.right, gen.right, radius=0
        )
        err = np.abs(warped - gen.right)[gen.mask_right]
        assert float(err.max()) <= 0.5

    def test_reverse_direction_consistent(self):
        gen = generate_scene(demo_scene())
        warped = project_view(
            gen.right, gen.cameras.right, gen.cameras.left, gen.left, radius=0
        )
        err = np.abs(warped - gen.left)[gen.mask_left]
        assert float(err.max()) <= 0.5


class TestSclight:
    def test_cameras_follow_spec(self):
        spec = demo_scene()
        gen = generate_scene(spec)
        pair = gen.cameras
        assert is_rectified(pair.left, pair.right)
        assert pair.right.t[0] - pair.left.t[0] == spec.baseline
        assert pair.left.k[0, 0] == spec.focal
        assert pair.left.t[0] == 0.0 and pair.right.t[0] == spec.baseline

    def test_masks_are_boolean_and_sane(self):
        gen = generate_scene(demo_scene())
        assert gen.mask_left.dtype == bool and gen.mask_right.dtype == bool
        assert 0.5 < gen.mask_left.mean() <= 1.0
        assert 0.5 < gen.mask_right.mean() <= 1.0

    def test_deterministic_per_seed(self):
        a = generate_scene(demo_scene(seed=9))
        b = generate_scene(demo_scene(seed=9))
        assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)

    def test_seed_changes_ripple(self):
        a = generate_scene(demo_scene(seed=1))
        b = generate_scene(demo_scene(seed=2))
        assert not np.array_equal(a.left, b.left)

    def test_demo_scene_in_range(self):
        gen = generate_scene(demo_scene())
        for m in (gen.left, gen.right):
            assert np.min(m) > 0.0 and np.max(m) <= 255.0
