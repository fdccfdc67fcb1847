"""Camera model tests: the scalar back-projection and projection oracle
(round trips, the disparity law), rectified-pair validation and the
vectorized scale grid against the oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpocs.errors import InvalidConfigurationError, InvalidInputError
from depthpocs.geometry import (
    CameraParams,
    RectifiedPair,
    projective_scale_grid,
    require_rectified,
    simple_camera,
    stereo_pair,
)
from geometry_oracle import (
    BehindCameraError,
    NoSolutionError,
    WorldPoint,
    back_project,
    cramer_scale_grid,
    project,
    solve_pixel,
)


def identity_camera():
    return CameraParams(np.eye(3), np.hstack([np.eye(3), np.zeros((3, 1))]))


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def small_rotation(rng, scale=0.05):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-scale, scale)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


class TestBackProject:
    def test_identity_camera_example(self):
        p = back_project(3, 4, 2.0, identity_camera())
        assert p == WorldPoint(8.0, 6.0, 2.0)

    def test_identity_camera_unit_depth(self):
        cam = identity_camera()
        for r, c in ((0, 0), (5, 9), (100, 3)):
            p = back_project(r, c, 1.0, cam)
            assert p.x == pytest.approx(c, abs=1e-12)
            assert p.y == pytest.approx(r, abs=1e-12)
            assert p.d == 1.0

    def test_depth_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            back_project(1, 1, 0.0, identity_camera())
        with pytest.raises(InvalidInputError):
            back_project(1, 1, -3.0, identity_camera())

    def test_degenerate_ray(self):
        # Rotating the view axis by 90 degrees about x makes the ray through
        # the principal row parallel to the constant-depth plane.
        rot = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        cam = CameraParams(np.eye(3), np.hstack([rot, np.zeros((3, 1))]))
        with pytest.raises(NoSolutionError):
            back_project(0, 5, 10.0, cam)

    def test_negative_scale(self):
        # A view looking down the negative axis puts every positive depth
        # behind the camera.
        rot = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
        cam = CameraParams(np.eye(3), np.hstack([rot, np.zeros((3, 1))]))
        with pytest.raises(NoSolutionError):
            back_project(2, 3, 5.0, cam)


class TestProject:
    def test_identity_example(self):
        r, c, d = project(WorldPoint(8.0, 6.0, 2.0), identity_camera())
        assert (r, c, d) == (3.0, 4.0, 2.0)

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project(WorldPoint(0.0, 0.0, -5.0), identity_camera())

    def test_self_consistency(self):
        cam = simple_camera(200.0, 320.5, 240.5, 3.0)
        for r, c, d in ((10.0, 20.0, 50.0), (100.25, 3.75, 7.5)):
            rr, cc, dd = project(back_project(r, c, d, cam), cam)
            assert abs(rr - r) < 1e-9 and abs(cc - c) < 1e-9 and dd == d


class TestRoundTrip:
    def test_random_axis_aligned_cameras(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            f = rng.uniform(50.0, 500.0)
            cam = CameraParams(
                np.array([[f, 0, rng.uniform(10, 500)], [0, rng.uniform(50, 500), rng.uniform(10, 500)], [0, 0, 1.0]]),
                np.hstack([rot_z(rng.uniform(-np.pi, np.pi)), rng.uniform(-20, 20, (3, 1)) * np.array([[1.0], [1.0], [0.0]])]),
            )
            r = rng.uniform(0.0, 512.0)
            c = rng.uniform(0.0, 512.0)
            d = rng.uniform(1.0, 255.0)
            rr, cc, dd = project(back_project(r, c, d, cam), cam)
            assert abs(rr - r) < 1e-6 and abs(cc - c) < 1e-6 and dd == d

    def test_random_general_rotations(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            f = rng.uniform(100.0, 400.0)
            cam = CameraParams(
                np.array([[f, 0, 256.0], [0, f, 256.0], [0, 0, 1.0]]),
                np.hstack([small_rotation(rng), rng.uniform(-5, 5, (3, 1))]),
            )
            r = rng.uniform(100.0, 400.0)
            c = rng.uniform(100.0, 400.0)
            d = rng.uniform(50.0, 255.0)
            rr, cc, dd = project(back_project(r, c, d, cam), cam)
            assert abs(rr - r) < 1e-6 and abs(cc - c) < 1e-6 and dd == d


class TestRectifiedPair:
    def test_disparity_law_and_row_preservation(self):
        rng = np.random.default_rng(63)
        for _ in range(300):
            f = rng.uniform(50.0, 500.0)
            k = np.array([[f, 0, rng.uniform(10, 500)], [0, rng.uniform(50, 500), rng.uniform(10, 500)], [0, 0, 1.0]])
            rot = rot_z(rng.uniform(-np.pi, np.pi))
            tx = rng.uniform(-20.0, 20.0)
            ty = rng.uniform(-20.0, 20.0)
            b = rng.uniform(1.0, 50.0) * rng.choice([-1.0, 1.0])
            left = CameraParams(k, np.hstack([rot, np.array([[tx], [ty], [0.0]])]))
            right = CameraParams(k, np.hstack([rot, np.array([[tx + b], [ty], [0.0]])]))
            pair = RectifiedPair(left, right)
            assert pair.right.t[0] - pair.left.t[0] == pytest.approx(b)
            r = rng.uniform(0.0, 512.0)
            c = rng.uniform(0.0, 512.0)
            d = rng.uniform(1.0, 255.0)
            rr, cc, dd = project(back_project(r, c, d, left), right)
            assert abs(rr - r) < 1e-6
            assert abs((cc - c) - f * b / d) < 1e-6
            assert dd == d

    def test_textbook_disparity_case(self):
        # focal 100, baseline 10, depth 50: the column moves by 20, the row
        # stays put
        left = simple_camera(100.0, 64.0, 64.0, 0.0)
        right = simple_camera(100.0, 64.0, 64.0, 10.0)
        r, c, d = project(back_project(30.0, 40.0, 50.0, left), right)
        assert r == pytest.approx(30.0, abs=1e-9)
        assert c - 40.0 == pytest.approx(20.0, abs=1e-9)
        assert d == 50.0

    def test_not_rectified_detected(self):
        a = simple_camera(100.0, 5.0, 5.0, 0.0)
        b_other_k = simple_camera(120.0, 5.0, 5.0, 1.0)
        with pytest.raises(InvalidConfigurationError):
            require_rectified(a, b_other_k)
        with pytest.raises(InvalidConfigurationError):
            RectifiedPair(a, b_other_k)
        for t in ([0.0], [2.0], [0.0]), ([1.0], [0.0], [2.0]):  # a y or a z offset
            b_off_axis = CameraParams(a.k.copy(), np.hstack([np.eye(3), np.array(t)]))
            with pytest.raises(InvalidConfigurationError):
                RectifiedPair(a, b_off_axis)
        b_turned = CameraParams(a.k.copy(), np.hstack([rot_z(0.1), np.zeros((3, 1))]))
        with pytest.raises(InvalidConfigurationError):
            require_rectified(a, b_turned)

    def test_rectified_accepts_pure_baseline(self):
        a = simple_camera(100.0, 5.0, 5.0, 0.0)
        b = simple_camera(100.0, 5.0, 5.0, -7.5)
        require_rectified(a, b)
        pair = RectifiedPair(a, b)
        assert pair.right.t[0] - pair.left.t[0] == -7.5

    def test_stereo_pair(self):
        # 5 rows, 8 columns: the default principal point is the centre (3.5, 2).
        pair = stereo_pair((5, 8), 117.3, -4.5)
        want = simple_camera(117.3, 3.5, 2.0)
        assert np.array_equal(pair.left.k, want.k) and np.array_equal(pair.left.e, want.e)
        assert np.array_equal(pair.right.e, simple_camera(117.3, 3.5, 2.0, -4.5).e)
        assert np.array_equal(pair.right.k, want.k)
        pair = stereo_pair((5, 8), 117.3, 6.0, cx=21.7)
        assert pair.left.k[0, 2] == 21.7 and pair.right.k[1, 2] == 2.0
        assert stereo_pair((5, 8), 117.3, 6.0, cy=-1.25).left.k[:2, 2].tolist() == [3.5, -1.25]


class TestCameraValidation:
    def test_k_must_be_upper_triangular(self):
        k = np.eye(3)
        k[1, 0] = 0.5
        with pytest.raises(InvalidConfigurationError):
            CameraParams(k, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_k22_must_be_one(self):
        k = np.diag([100.0, 100.0, 2.0])
        with pytest.raises(InvalidConfigurationError):
            CameraParams(k, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_rotation_must_be_orthonormal(self):
        e = np.hstack([np.eye(3) * 1.001, np.zeros((3, 1))])
        with pytest.raises(InvalidConfigurationError):
            CameraParams(np.eye(3), e)

    def test_shapes(self):
        with pytest.raises(InvalidConfigurationError):
            CameraParams(np.eye(2), np.zeros((3, 4)))
        with pytest.raises(InvalidConfigurationError):
            CameraParams(np.eye(3), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "k",
        [
            np.eye(3) * (1 + 1j),  # cast to its real part, with a ComplexWarning
            "K",  # numpy's raw ValueError
            [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],  # numpy's raw ValueError
            np.diag([math.nan, 1.0, 1.0]),
        ],
        ids=["complex", "string", "ragged", "nan"],
    )
    def test_entries_must_be_finite_real_numbers(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigurationError, match="K "):
                CameraParams(k, np.hstack([np.eye(3), np.zeros((3, 1))]))


class TestScaleGrid:
    def test_matches_scalar_solver(self):
        # The closed form must agree with the per-pixel 3x3 linear solve
        # used by back_project.
        rng = np.random.default_rng(64)
        cam = CameraParams(
            np.array([[150.0, 0, 31.5], [0, 140.0, 23.5], [0, 0, 1.0]]),
            np.hstack([rot_z(0.3), np.array([[2.0], [-1.0], [0.0]])]),
        )
        depth = rng.uniform(5.0, 250.0, (48, 64))
        grid = projective_scale_grid(cam, depth)
        for _ in range(50):
            r = int(rng.integers(0, 48))
            c = int(rng.integers(0, 64))
            p = back_project(r, c, depth[r, c], cam)
            s = float((cam.r @ [p.x, p.y, p.d] + cam.t)[2])
            assert grid[r, c] == pytest.approx(s, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        row0=st.integers(0, 500),
        tilt=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_affine_form_matches_cramer(self, h, w, row0, tilt, seed):
        # The closed form equals the direct Cramer solve bit for bit on
        # unrotated rigs (every bundled and benchmark rig), where both give
        # d + t_z; within A5's relative 1e-9 on tilted ones.
        rng = np.random.default_rng(seed)
        k = np.array(
            [
                [rng.uniform(50, 500), rng.uniform(-2, 2), rng.uniform(-50, 550)],
                [0.0, rng.uniform(50, 500), rng.uniform(-50, 550)],
                [0.0, 0.0, 1.0],
            ]
        )
        rot = small_rotation(rng) if tilt else np.eye(3)
        cam = CameraParams(k, np.hstack([rot, rng.uniform(-30, 30, (3, 1))]))
        depth = rng.uniform(0.5, 255.0, (h, w))
        depth[rng.random((h, w)) < 0.1] = 0.0
        depth[rng.random((h, w)) < 0.05] *= -1.0
        # Another slab start and another K: the denominator depends on both.
        other = CameraParams(k * [[1.01], [1.0], [1.0]], cam.e)
        for camera, start in ((cam, row0), (cam, row0 + 1), (other, row0)):
            got = projective_scale_grid(camera, depth, start)
            want = cramer_scale_grid(camera, depth, start)
            assert np.array_equal(np.isnan(got), depth <= 0)
            if tilt:
                assert np.allclose(got, want, rtol=1e-9, atol=0.0, equal_nan=True)
            else:
                assert np.array_equal(got, want, equal_nan=True)

    def test_mirrored_and_tilted_rigs(self):
        # Tilts up to 0.4 rad, half the rigs with a mirrored x axis
        # (det R = -1), t_z away from 0 and a slab that does not start at row 0.
        rng = np.random.default_rng(417)
        for i in range(40):
            k = np.array(
                [
                    [rng.uniform(80, 400), rng.uniform(-2, 2), rng.uniform(0, 40)],
                    [0.0, rng.uniform(80, 400), rng.uniform(0, 30)],
                    [0.0, 0.0, 1.0],
                ]
            )
            rot = small_rotation(rng, scale=0.4)
            if i % 2:
                rot = np.diag([-1.0, 1.0, 1.0]) @ rot
            t = rng.uniform(-30, 30, 3)
            t[2] = rng.choice([-1.0, 1.0]) * rng.uniform(1, 30)
            cam = CameraParams(k, np.hstack([rot, t.reshape(3, 1)]))
            assert np.linalg.det(cam.r) == pytest.approx(-1.0 if i % 2 else 1.0)
            row0 = int(rng.integers(1, 50))
            depth = rng.uniform(60.0, 255.0, (12, 16))
            depth[rng.random(depth.shape) < 0.1] = 0.0
            grid = projective_scale_grid(cam, depth, row0)
            want = cramer_scale_grid(cam, depth, row0)
            assert np.array_equal(np.isnan(grid), depth <= 0)
            assert np.allclose(grid, want, rtol=1e-9, atol=0.0, equal_nan=True)
            for r, c in zip(*np.nonzero(depth > 0)):
                _, _, s = solve_pixel(row0 + r, c, depth[r, c], cam)
                assert grid[r, c] == pytest.approx(s, rel=1e-9)

    def test_nonpositive_depth_is_nan(self):
        cam = simple_camera(100.0, 10.0, 10.0)
        depth = np.array([[5.0, 0.0], [-3.0, 7.0]])
        grid = projective_scale_grid(cam, depth)
        assert np.isnan(grid[0, 1]) and np.isnan(grid[1, 0])
        assert grid[0, 0] == 5.0 and grid[1, 1] == 7.0
