"""View warping tests: forward warp geometry, the two-pick interpolation
rule (the grid path must agree bit for bit with the scalar oracle in
warp_oracle), and the bilateral filter against a hand-evaluated oracle and
bit for bit against the per-offset reference."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpocs import warp
from depthpocs.geometry import simple_camera
from depthpocs.warp import _interpolate_grid, bilateral_filter, forward_warp, project_view
from warp_oracle import ProjectedSample, bilateral_reference, interpolate_at, interpolate_reference


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal float64 bit patterns; unlike ==, this tells -0.0 from 0.0."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# project_view's interpolation tolerance and bilateral weights, the defaults of RefineOptions.
FILTER = {"tau": 8.0, "sigma_s": 2.0, "sigma_r": 10.0}


def cam_pair(focal=100.0, cx=32.0, cy=32.0, baseline=10.0):
    return simple_camera(focal, cx, cy, 0.0), simple_camera(focal, cx, cy, baseline)


OFF = -2.0  # forward_warp's column for a pixel that serves no target pixel


class TestForwardWarp:
    def test_identity_lands_on_own_grid(self):
        rng = np.random.default_rng(71)
        m = rng.uniform(1.0, 255.0, (24, 24))
        cam = simple_camera(120.0, 11.5, 11.5)
        cols = forward_warp(m, cam, cam)
        assert np.array_equal(cols, np.tile(np.arange(24.0), (24, 1)))

    def test_constant_depth_exact_disparity(self):
        left, right = cam_pair(focal=100.0, baseline=10.0)
        m = np.full((64, 64), 50.0)
        cols = forward_warp(m, left, right)
        x = np.arange(64.0)
        # Columns 0-44 land at 20-64; the rest pass the right margin.
        assert np.array_equal(cols, np.tile(np.where(x <= 44, x + 20.0, OFF), (64, 1)))

    def test_empty_map(self):
        left, right = cam_pair()
        assert forward_warp(np.zeros((0, 0)), left, right).shape == (0, 0)

    def test_out_of_range_columns_discarded(self):
        left, right = cam_pair(focal=100.0, baseline=10.0)
        m = np.full((8, 32), 10.0)  # disparity 100, everything lands far right
        assert np.all(forward_warp(m, left, right) == OFF)

    def test_keeps_margin_columns(self):
        # disparity -1.0 exactly: source column 0 lands at -1 and is kept
        left, right = cam_pair(focal=100.0, baseline=-0.5)
        m = np.full((4, 8), 50.0)
        assert np.all(forward_warp(m, left, right)[:, 0] == -1.0)

    def test_zero_depth_pixels_skipped(self):
        left, right = cam_pair(baseline=1.0)  # disparity 2.5 at depth 40
        m = np.full((4, 32), 40.0)
        m[1, 2] = 0.0
        m[3, 4] = -2.0
        cols = forward_warp(m, left, right)
        off = np.zeros((4, 32), bool)
        off[:, 30:] = True  # 29 + 2.5 is the last column within the width
        off[1, 2] = off[3, 4] = True
        assert np.array_equal(cols == OFF, off)

    def test_row_major_source_order(self):
        # Entry (y, x) is source pixel (y, x)'s own landing column: with
        # R = I and no z offset, x + f b / d in 1/256 steps, or OFF.
        left, right = cam_pair(focal=90.0, cx=15.5, cy=15.5, baseline=7.0)
        m = np.random.default_rng(79).uniform(20.0, 250.0, (16, 32))
        cols = forward_warp(m, left, right)
        for y in range(16):
            for x in range(32):
                col = round((x + 90.0 * 7.0 / m[y, x]) * 256.0) / 256.0
                assert cols[y, x] == (col if col <= 32.0 else OFF), (y, x)


def sample(row, col, depth, src_col=0):
    return ProjectedSample(row, col, depth, row, src_col)


class TestInterpolateAt:
    """The scalar oracle's own rules."""

    def test_exact_hit(self):
        assert interpolate_at(5, 10, [sample(5, 10.0, 40.0)], 35.0, 8.0) == 40.0

    def test_equidistant_blend(self):
        cands = [sample(5, 9.5, 10.0, 1), sample(5, 10.5, 20.0, 2)]
        assert interpolate_at(5, 10, cands, 12.0, 8.0) == 15.0

    def test_hole_returns_current(self):
        assert interpolate_at(5, 10, [], 77.5, 8.0) == 77.5
        far = [sample(5, 8.9, 1.0), sample(5, 11.1, 2.0)]
        assert interpolate_at(5, 10, far, 77.5, 8.0) == 77.5

    def test_tau_filter_beats_min_depth(self):
        # Both in the left interval: 30 fails the tolerance band around the
        # current value, 90 passes, so 90 wins despite larger depth.
        cands = [sample(5, 9.3, 30.0, 1), sample(5, 9.6, 90.0, 2)]
        assert interpolate_at(5, 10, cands, 85.0, 8.0) == 90.0

    def test_keeps_current_when_none_pass(self):
        # A sample beyond tau is no candidate, so the pixel is a hole.
        cands = [sample(5, 9.3, 30.0, 1), sample(5, 10.6, 90.0, 2)]
        assert interpolate_at(5, 10, cands, 500.0, 8.0) == 500.0

    def test_huge_tau_takes_min_depth(self):
        cands = [sample(5, 9.3, 30.0, 1), sample(5, 9.6, 90.0, 2)]
        assert interpolate_at(5, 10, cands, 500.0, 1e9) == 30.0

    def test_tie_break_smallest_source_column(self):
        cands = [sample(5, 9.4, 30.0, 7), sample(5, 9.6, 30.0, 2)]
        # equal depth, both pass: src_col 2 wins, and it sits at 9.6
        out = interpolate_at(5, 10, cands, 30.0, 8.0)
        assert out == 30.0

    def test_single_side_returns_its_depth(self):
        assert interpolate_at(5, 10, [sample(5, 9.25, 33.0)], 40.0, 8.0) == 33.0
        assert interpolate_at(5, 10, [sample(5, 10.75, 44.0)], 40.0, 8.0) == 44.0

    def test_open_outer_endpoints(self):
        # candidates exactly one column away serve the neighboring pixel only
        cands = [sample(5, 9.0, 11.0), sample(5, 11.0, 22.0)]
        assert interpolate_at(5, 10, cands, 77.0, 8.0) == 77.0

    def test_candidate_at_center_serves_both_sides(self):
        cands = [sample(5, 10.0, 50.0, 3), sample(5, 9.5, 60.0, 1)]
        assert interpolate_at(5, 10, cands, 50.0, 8.0) == 50.0


def group_sizes(cols):
    """Number of samples serving each served pixel, per side."""
    h, w = cols.shape
    rows = np.arange(h)[:, None]
    sizes = []
    for targets in (np.ceil(cols), np.floor(cols)):
        ok = (targets >= 0) & (targets < w)
        counts = np.bincount((rows * w + targets)[ok].astype(np.int64))
        sizes.append(counts[counts > 0])
    return sizes


@st.composite
def flat_samples(draw):
    """Random landing-column grids as forward_warp returns them, with their
    source maps: each column within [-1, width] or OFF. Columns on a
    quarter-pixel lattice and depths from a few levels force shared
    targets, exact hits and depth ties."""
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.integers(-4, 4 * w + 1, (h, w)) / 4.0
    cols[rng.random((h, w)) >= draw(st.floats(0.0, 1.0))] = OFF
    src = rng.choice([20.0, 30.0, 30.5, 60.0, 90.0], (h, w))
    current = rng.choice([20.0, 33.0, 61.0, 500.0], (h, w))
    return cols, src, current


class TestGridMatchesScalar:
    def test_bit_identical_on_random_warps(self):
        rng = np.random.default_rng(72)
        left, right = cam_pair(focal=90.0, cx=15.5, cy=15.5, baseline=7.0)
        for trial in range(4):
            m = np.clip(
                np.cumsum(rng.uniform(-3.0, 3.0, (32, 32)), axis=1) + 100.0, 10.0, 250.0
            )
            cur = np.clip(m + rng.normal(0.0, 4.0, m.shape), 1.0, 255.0)
            src_cam, dst_cam = (left, right) if trial % 2 == 0 else (right, left)
            cols = forward_warp(m, src_cam, dst_cam)
            grid = _interpolate_grid(cols, m, cur, 8.0)
            want = interpolate_reference(cols, m, cur, 8.0)
            for r in range(32):
                for c in range(32):
                    assert grid[r, c] == want[r, c], (trial, r, c)

    def test_all_singletons(self):
        # identity cameras: every pixel is served by exactly its own sample,
        # which it takes where that lies within tau of its current value
        rng = np.random.default_rng(80)
        m = rng.uniform(1.0, 255.0, (16, 20))
        cur = rng.uniform(1.0, 255.0, (16, 20))
        cam = simple_camera(120.0, 9.5, 7.5)
        cols = forward_warp(m, cam, cam)
        assert all(np.all(s == 1) for s in group_sizes(cols))
        grid = _interpolate_grid(cols, m, cur, 8.0)
        assert np.array_equal(grid, interpolate_reference(cols, m, cur, 8.0))
        assert np.array_equal(grid, np.where(np.abs(m - cur) <= 8.0, m, cur))

    def test_only_multi_candidate_groups(self):
        # source j lands at j // 2 + 0.25 or + 0.5: each served pixel gets
        # exactly two candidates from each side
        rng = np.random.default_rng(81)
        h, w = 6, 10
        j = np.arange(w)
        cols = np.tile(j // 2 + np.where(j % 2 == 0, 0.25, 0.5), (h, 1))
        m = rng.choice([40.0, 45.0, 50.0, 80.0], (h, w))
        cur = rng.choice([42.0, 52.0, 200.0], (h, w))
        assert all(np.all(s == 2) for s in group_sizes(cols))
        grid = _interpolate_grid(cols, m, cur, 8.0)
        assert np.array_equal(grid, interpolate_reference(cols, m, cur, 8.0))

    def test_groups_beyond_tau_keep_current(self):
        # Where the current value is 1000, every sample lies beyond tau of
        # it: those pixels have no candidate and keep the value exactly.
        rng = np.random.default_rng(82)
        left, right = cam_pair(focal=90.0, cx=15.5, cy=15.5, baseline=7.0)
        m = np.clip(np.cumsum(rng.uniform(-6.0, 6.0, (24, 32)), axis=1) + 90.0, 10.0, 200.0)
        far = rng.random(m.shape) < 0.5
        cur = np.where(far, 1000.0, m)
        cols = forward_warp(m, left, right)
        assert any(np.any(s > 1) for s in group_sizes(cols))
        grid = _interpolate_grid(cols, m, cur, 8.0)
        assert np.array_equal(grid[far], cur[far])
        assert not np.array_equal(grid[~far], cur[~far])
        assert np.array_equal(grid, interpolate_reference(cols, m, cur, 8.0))

    def test_equal_depths_pick_smallest_source_column(self):
        # Even sources 0-78 land in (3, 4) and odd ones in (20, 21), all at
        # one depth, in reverse column order. So sources 0 and 1, at 3.625
        # and 20.625, must serve pixels 4 and 21 from the left and pixels 3
        # and 20 from the right. Pixels 10 and 11 each get a group whose
        # depths interleave with the other's, so both sort keys matter.
        cols = np.full((1, 96), OFF)
        src = np.full((1, 96), 30.0)
        x = np.arange(80)
        cols[0, :80] = np.where(x % 2 == 0, 3.0, 20.0) + (40 - x // 2) / 64.0
        cols[0, 80:88] = 4.5, 21.5, 2.5, 19.5, 9.5, 9.75, 10.5, 10.75
        src[0, 80:88] = 40.0, 40.0, 36.0, 36.0, 50.0, 60.0, 55.0, 65.0
        cur = np.full((1, 96), 35.0)
        grid = _interpolate_grid(cols, src, cur, 1e9)
        # 0.375 from each tie's winner to pixel 4 or 21, 0.625 to pixel 3 or 20.
        assert grid[0, 4] == grid[0, 21] == (30.0 * 0.5 + 40.0 * 0.375) / 0.875
        assert grid[0, 3] == grid[0, 20] == (36.0 * 0.625 + 30.0 * 0.5) / 1.125
        # Pixels 9-11 take the shallower sample of each group: 50 and 55.
        assert grid[0, 9:12].tolist() == [50.0, 52.5, 55.0]
        assert np.array_equal(grid, interpolate_reference(cols, src, cur, 1e9))

    @settings(max_examples=300, deadline=None)
    @given(flat_samples())
    def test_random_samples_match_oracle(self, case):
        cols, src, cur = case
        # tau = 1e9 makes every sample a candidate: the nearest surface wins.
        for tau in (0.0, 8.0, 1e9):
            grid = _interpolate_grid(cols, src, cur, tau)
            assert np.array_equal(grid, interpolate_reference(cols, src, cur, tau))

    def test_no_buckets_returns_current_copy(self):
        cur = np.random.default_rng(0).uniform(0, 255, (5, 5))
        out = _interpolate_grid(np.full((5, 5), OFF), cur + 1.0, cur, 8.0)
        assert np.array_equal(out, cur)
        assert out is not cur


class TestBilateral:
    def test_constant_unchanged_bitwise(self):
        m = np.full((9, 9), 42.0)
        assert np.array_equal(bilateral_filter(m, 2.0, 10.0, 3), m)

    def test_huge_constant_unchanged_without_warning(self):
        # A pad beside a sample beyond 1e154 squares past the float range
        # and weighs exp(-inf) = +0, without an overflow warning.
        m = np.full((9, 9), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(bilateral_filter(m, 2.0, 10.0, 3), m)

    def test_tiny_range_sigma_is_identity(self):
        rng = np.random.default_rng(73)
        m = rng.permutation(81).astype(float).reshape(9, 9) * 3.0 + 1.0
        out = bilateral_filter(m, 1.5, 1e-9, 2)
        assert np.array_equal(out, m)

    def test_hand_computed_center_cross(self):
        m = np.zeros((3, 3))
        m[1, 1] = 100.0
        sigma_s, sigma_r = 1.0, 50.0
        out = bilateral_filter(m, sigma_s, sigma_r, 1)
        num = den = 0.0
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ws = math.exp(-(dy * dy + dx * dx) / (2 * sigma_s**2))
                diff = m[1 + dy, 1 + dx] - m[1, 1]
                w = ws * math.exp(-(diff**2) / (2 * sigma_r**2))
                num += w * m[1 + dy, 1 + dx]
                den += w
        # The filter sums in float32: its relative error is a few float32 ulps.
        assert out[1, 1] == pytest.approx(num / den, rel=1e-6)

    def test_convex_combination_of_window(self):
        rng = np.random.default_rng(74)
        m = rng.uniform(0.0, 255.0, (16, 16))
        radius = 2
        out = bilateral_filter(m, 1.5, 20.0, radius)
        h, w = m.shape
        for r in range(h):
            for c in range(w):
                win = m[max(0, r - radius) : r + radius + 1, max(0, c - radius) : c + radius + 1]
                assert win.min() - 1e-9 <= out[r, c] <= win.max() + 1e-9

    def test_near_flat_window_within_one_float32_spacing(self):
        # The filter's terms are float32, so where neighbours differ by less
        # than a float32 spacing an output may leave its window's range by
        # up to one spacing of the window's largest magnitude (the bound the
        # docstring states). Most of these maps go past 1e-9.
        rng = np.random.default_rng(76)
        radius = 2
        past_1e_9 = 0
        for _ in range(50):
            m = rng.uniform(200.0, 255.0) + rng.uniform(-1e-5, 1e-5, (16, 16))
            out = bilateral_filter(m, 1.5, 20.0, radius)
            beyond = 0.0
            for r in range(16):
                for c in range(16):
                    win = m[max(0, r - radius) : r + radius + 1, max(0, c - radius) : c + radius + 1]
                    spacing = float(np.spacing(np.float32(np.abs(win).max())))
                    assert win.min() - spacing <= out[r, c] <= win.max() + spacing
                    beyond = max(beyond, win.min() - out[r, c], out[r, c] - win.max())
            past_1e_9 += beyond > 1e-9
        assert past_1e_9 > 25

    def test_radius_zero_disables(self):
        rng = np.random.default_rng(75)
        m = rng.uniform(0, 255, (6, 6))
        out = bilateral_filter(m, 2.0, 10.0, 0)
        assert np.array_equal(out, m)
        assert out is not m

    @pytest.mark.parametrize("shape", [(4, 4), (9, 23), (30, 5)])
    def test_radius_past_the_map_changes_no_bit(self, shape):
        # No offset of max(h, w) or more pairs two pixels of the map, so a
        # radius of 10**9 (about 2e18 offsets) gives radius max(h, w) - 1's bits.
        m = np.random.default_rng(sum(shape)).uniform(0.0, 255.0, shape)
        out = bilateral_filter(m, 2.0, 10.0, 10**9)
        assert_same_bits(out, bilateral_filter(m, 2.0, 10.0, max(shape)))
        assert_same_bits(out, bilateral_reference(m, 2.0, 10.0, max(shape) - 1))
        assert_same_bits(bilateral_filter(m, 2.0, 10.0, 10**9, (1, 3)), out[1:3])

    @pytest.mark.parametrize("h", [1, 2, 31, 32, 33, 63, 64, 65])
    def test_band_edges_match_reference(self, monkeypatch, h):
        # Bands of 32 rows of 23 + 2 * 3 padded columns.
        monkeypatch.setattr(warp, "_BAND_PIXELS", 32 * 29)
        m = np.random.default_rng(83 + h).uniform(0.0, 255.0, (h, 23))
        out = bilateral_filter(m, 2.0, 10.0, 3)
        assert_same_bits(out, bilateral_reference(m, 2.0, 10.0, 3))

    @pytest.mark.parametrize(
        "band_pixels", [1, warp._BAND_PIXELS, 10**9], ids=["row", "default", "map"]
    )
    def test_any_band_gives_the_same_bits(self, monkeypatch, band_pixels):
        # One-row bands, the default and one band spanning the whole map, on
        # a map of two default bands of 61 + 2 * 3 padded columns and a row.
        # Every pixel sums in pair order whatever its band, so each equals
        # the oracle, and any run of output rows equals the whole map's rows.
        k = warp._BAND_PIXELS // 67
        monkeypatch.setattr(warp, "_BAND_PIXELS", band_pixels)
        h = 2 * k + 1
        m = np.random.default_rng(131).uniform(0.0, 255.0, (h, 61))
        out = bilateral_filter(m, 2.0, 10.0, 3)
        assert_same_bits(out, bilateral_reference(m, 2.0, 10.0, 3))
        for a, b in [(0, 1), (0, k), (k - 3, k + 3), (k - 1, k + 1), (k, 2 * k), (h - 1, h)]:
            assert_same_bits(bilateral_filter(m, 2.0, 10.0, 3, (a, b)), out[a:b])

    def test_wide_map_traces_under_3_5_mib(self):
        # The float64 output takes 1.4 MiB, the float32 copy of the rows
        # read 0.7 MiB, and one offset's terms with a band's sums 0.5 MiB.
        # A buffer of every offset's terms for a band would not fit.
        m = np.random.default_rng(132).uniform(0.0, 255.0, (373, 501))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            bilateral_filter(m, 2.0, 10.0, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 3.5 * 2**20

    # Widths 1, at most the radius, 2 radius + 1, and two wider ones.
    @pytest.mark.parametrize("w", [1, 2, 7, 23, 61])
    @pytest.mark.parametrize("k, extra", [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)])
    def test_default_band_edges_match_reference(self, w, k, extra):
        # A band has _BAND_PIXELS // (w + 2 radius) rows; the heights are a
        # row short of, equal to and a row past one and two whole bands.
        h = k * (warp._BAND_PIXELS // (w + 2 * 3)) + extra
        m = np.random.default_rng(97 + h + w).uniform(0.0, 255.0, (h, w))
        out = bilateral_filter(m, 2.0, 10.0, 3)
        assert_same_bits(out, bilateral_reference(m, 2.0, 10.0, 3))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sigma_s", [0.3, 2.0])
    def test_floored_weights_match_reference(self, sigma_s, seed):
        # At sigma_r 10 a deviation of 132-144 has a range exponent of about
        # -87 to -104, whose exp is a subnormal float32 unless floored; at
        # sigma_s 0.3 so are most spatial weights times exp(-80).
        # A zero beside such values moves off zero by those weights alone, so
        # the floor shows in its output bits. Values by the border pair with
        # the pad too.
        rng = np.random.default_rng(110 + seed)
        m = np.where(rng.random((20, 23)) < 0.3, rng.uniform(132.0, 144.0, (20, 23)), 0.0)
        out = bilateral_filter(m, sigma_s, 10.0, 3)
        assert_same_bits(out, bilateral_reference(m, sigma_s, 10.0, 3))
        assert out[m == 0.0].max() > 1e-34  # 140 exp(-80) is 2.5e-33

    @pytest.mark.parametrize("sigma_r", [1e-20, 0.5, 10.0, 1e20, 1e150])
    @pytest.mark.parametrize("sigma_s", [1e-20, 2.0, 1e150])
    @pytest.mark.parametrize("kind", ["uniform", "huge", "mixed", "tiny"])
    def test_extreme_maps_and_sigmas_stay_finite_in_window(self, kind, sigma_s, sigma_r):
        # Maps beyond float32's range (clipped in the filter's buffer), huge
        # beside small values, and deviations whose squares underflow in
        # float32; sigmas whose 1 / (2 sigma^2) is beyond float32's range,
        # subnormal or 0 in it.
        rng = np.random.default_rng(120)
        m = {
            "uniform": rng.uniform(0.0, 255.0, (23, 19)),
            "huge": rng.uniform(-1e300, 1e300, (23, 19)),
            "mixed": rng.choice([1e200, 3.0], (23, 19)),
            "tiny": rng.uniform(0.0, 1e-30, (23, 19)),
        }[kind]
        r = 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bilateral_filter(m, sigma_s, sigma_r, r)
            rows = bilateral_filter(m, sigma_s, sigma_r, r, (5, 17))
        assert np.all(np.isfinite(out))
        win = np.lib.stride_tricks.sliding_window_view(np.pad(m, r, mode="edge"), (2 * r + 1,) * 2)
        lo, hi = win.min(axis=(2, 3)), win.max(axis=(2, 3))
        # The deviations are float32: an output may pass its window's range
        # by up to the float32 spacing of the window's values, 2^-23 of them.
        slack = np.maximum(np.abs(lo), np.abs(hi)) * 2.0**-23
        assert np.all((lo - slack <= out) & (out <= hi + slack))
        assert_same_bits(rows, out[5:17])

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.integers(1, 80),
        w=st.integers(1, 40),
        radius=st.integers(1, 5),
        sigma_s=st.floats(0.2, 10.0),
        sigma_r=st.floats(0.05, 200.0),
        quantized=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_matches_reference_bitwise(
        self, h, w, radius, sigma_s, sigma_r, quantized, seed, cuts
    ):
        rng = np.random.default_rng(seed)
        if quantized:  # few levels: many exactly equal neighbors
            m = rng.integers(0, 4, (h, w)) * 20.0 + 40.0
        else:
            m = rng.uniform(0.0, 255.0, (h, w))
        # a constant patch: pixels whose whole window lies inside it must
        # come out exactly unchanged
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        y1, x1 = rng.integers(y0, h) + 1, rng.integers(x0, w) + 1
        m[y0:y1, x0:x1] = 77.25
        out = bilateral_filter(m, sigma_s, sigma_r, radius)
        assert_same_bits(out, bilateral_reference(m, sigma_s, sigma_r, radius))
        # Any run of output rows alone, as a stripe of a half-iteration asks.
        a, b = sorted(round(c * h) for c in cuts)
        assert_same_bits(bilateral_filter(m, sigma_s, sigma_r, radius, (a, b)), out[a:b])
        r0, r1 = (0 if y0 == 0 else y0 + radius), (h if y1 == h else y1 - radius)
        c0, c1 = (0 if x0 == 0 else x0 + radius), (w if x1 == w else x1 - radius)
        assert np.all(out[r0 : max(r0, r1), c0 : max(c0, c1)] == 77.25)


class TestProjectView:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(76)
        cam = simple_camera(150.0, 15.5, 15.5)
        m = rng.uniform(0.0, 255.0, (32, 32))
        out = project_view(m, cam, cam, m, **FILTER, radius=0)
        assert np.array_equal(out, m)

    def test_constant_map_stays_constant(self):
        left, right = cam_pair(focal=120.0, cx=23.5, cy=23.5, baseline=6.0)
        m = np.full((48, 48), 90.0)
        out = project_view(m, left, right, m, **FILTER, radius=3)
        assert np.array_equal(out, m)

    def test_hole_stability_before_filtering(self):
        # pixels receiving no candidates keep the current value bit for bit
        left, right = cam_pair(focal=100.0, cx=15.5, cy=15.5, baseline=10.0)
        src = np.full((8, 32), 50.0)  # disparity 20: target cols 0..19 are holes
        cur = np.random.default_rng(77).uniform(0, 255, (8, 32))
        out = _interpolate_grid(forward_warp(src, left, right), src, cur, 8.0)
        assert np.array_equal(out[:, :19], cur[:, :19])

    def test_deterministic(self):
        rng = np.random.default_rng(78)
        left, right = cam_pair(focal=90.0, cx=15.5, cy=15.5, baseline=5.0)
        m = np.clip(rng.normal(120, 25, (32, 32)), 20, 240)
        cur = np.clip(rng.normal(120, 25, (32, 32)), 20, 240)
        a = project_view(m, left, right, cur, **FILTER, radius=3)
        b = project_view(m, left, right, cur, **FILTER, radius=3)
        assert np.array_equal(a, b)
