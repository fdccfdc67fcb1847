"""Refinement loop tests: half-iteration contract (feasibility, fixed
points, the flat scripted oracle), stopping rules, determinism, and the
block-row stripes with their worker processes, and in_processes, which
maps one-shot work over forked processes."""

import contextlib
import dataclasses
import errno
import math
import os
import platform
import signal
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from depthpocs.codec import (
    BLOCK,
    QuantizedDescription,
    bin_bounds,
    clip_to_bins,
    dct_blocks,
    decode_map,
    encode_map,
    flat_table,
    idct_blocks,
    jpeg_table,
    merge_blocks,
    pad_to_blocks,
    split_blocks,
)
from depthpocs import pocs, warp
from depthpocs._common import Forked, fork_cpus, in_processes
from depthpocs.errors import (
    CorruptDescriptionError,
    DepthPocsError,
    InvalidConfigurationError,
    InvalidInputError,
    InvalidParameterError,
)
from depthpocs.geometry import CameraParams, simple_camera
from depthpocs.metrics import psnr
from depthpocs.pocs import (
    RefineOptions,
    ReportEntry,
    half_iteration,
    refine,
)
from depthpocs.scene import Box, Plane, SceneSpec, demo_scene, generate_scene
from depthpocs.warp import bilateral_filter, forward_warp
from warp_oracle import interpolate_reference


def small_scene(width=48, height=48):
    return SceneSpec(
        width=width,
        height=height,
        primitives=[
            Plane(a=0.3, b=-0.1, c=140.0),
            Box(x0=0.0, x1=10.0, y0=-8.0, y1=6.0, depth=70.0),
        ],
        focal=120.0,
        baseline=6.0,
        seed=3,
        noise_amp=1.0,
    )


def coeff_violations(map_, desc, slack=1e-9):
    coeffs = dct_blocks(split_blocks(pad_to_blocks(np.asarray(map_, float))))
    lo, hi = bin_bounds(desc.indices, desc.table)
    return int(np.count_nonzero((coeffs < lo - slack) | (coeffs > hi + slack)))


class TestHalfIteration:
    def test_fixed_point_on_own_decode(self):
        gen = generate_scene(small_scene())
        desc = encode_map(gen.left, flat_table(16.0))
        dec = decode_map(desc)
        cam = gen.cameras.left
        opts = RefineOptions(radius=0)
        out, stats = half_iteration(dec, cam, cam, desc, dec, opts)
        assert stats.clip_fraction == 0.0
        assert np.max(np.abs(out - dec)) < 1e-9

    def test_truth_lies_in_its_own_bins(self):
        gen = generate_scene(small_scene())
        desc = encode_map(gen.left, flat_table(24.0))
        cam = gen.cameras.left
        opts = RefineOptions(radius=0)
        out, stats = half_iteration(gen.left, cam, cam, desc, gen.left, opts)
        assert stats.clip_fraction == 0.0
        assert np.max(np.abs(out - gen.left)) <= 1e-9

    def test_output_always_feasible(self):
        gen = generate_scene(small_scene())
        table = flat_table(24.0)
        desc_r = encode_map(gen.right, table)
        noisy_src = np.clip(
            gen.left + np.random.default_rng(5).normal(0, 6.0, gen.left.shape), 1, 254
        )
        opts = RefineOptions()
        out, stats = half_iteration(
            noisy_src, gen.cameras.left, gen.cameras.right, desc_r, decode_map(desc_r), opts
        )
        assert coeff_violations(out, desc_r) == 0
        assert 0.0 <= stats.clip_fraction <= 1.0
        assert stats.mean_change >= 0.0

    def test_matches_flat_scripted_oracle(self):
        # Recompose the half-iteration out of the public pieces, with the
        # interpolation done pixel by pixel, and require bit equality.
        gen = generate_scene(small_scene())
        table = flat_table(24.0)
        desc_r = encode_map(gen.right, table)
        left0 = decode_map(encode_map(gen.left, table))
        right0 = decode_map(desc_r)
        opts = RefineOptions()

        got, stats = half_iteration(
            left0, gen.cameras.left, gen.cameras.right, desc_r, right0, opts
        )
        # The record refine completes: no iteration or view yet.
        assert isinstance(stats, ReportEntry) and (stats.iteration, stats.view) == (None, None)

        cols = forward_warp(left0, gen.cameras.left, gen.cameras.right)
        interp = interpolate_reference(cols, left0, right0, opts.tau)
        smooth = bilateral_filter(interp, opts.sigma_s, opts.sigma_r, opts.radius)
        padded = pad_to_blocks(smooth)
        coeffs = dct_blocks(split_blocks(padded))
        bounds = bin_bounds(desc_r.indices, desc_r.table)
        n_out = int(np.count_nonzero((coeffs < bounds.lo) | (coeffs > bounds.hi)))
        rebuilt = merge_blocks(
            idct_blocks(clip_to_bins(coeffs, bounds)), desc_r.height, desc_r.width
        )
        want = rebuilt[: desc_r.orig_height, : desc_r.orig_width]

        assert np.array_equal(got, want)
        assert stats.mean_change == float(np.mean(np.abs(want - right0)))
        assert stats.clip_fraction == n_out / coeffs.size

    @pytest.mark.parametrize(
        "case",
        [
            "target-vs-description",
            "source-vs-target",
            "source-3d",
            "not-rectified",
            "description-one-block-short",
        ],
    )
    def test_shape_mismatch_rejected(self, case):
        # half_iteration is where its inputs are checked; the warp and clip
        # stages below it check nothing.
        gen = generate_scene(small_scene())
        desc = encode_map(gen.right, flat_table(16.0))
        src, cur = gen.left, gen.right
        cam_l, cam_r = gen.cameras.left, gen.cameras.right
        error, code = InvalidParameterError, 2
        if case == "target-vs-description":
            src, cur = src[:-8], cur[:-8]
        elif case == "source-vs-target":
            src = src[:, :-1]
        elif case == "source-3d":  # a wrong number of dimensions breaks the shape rule too
            src = src[None]
        elif case == "not-rectified":
            cam_r = simple_camera(130.0, 23.5, 23.5, 5.0)
            error = InvalidConfigurationError
        else:
            indices = desc.indices[:-1]
            desc = QuantizedDescription(desc.orig_width, desc.orig_height, desc.table, indices)
            error, code = CorruptDescriptionError, 4
        with pytest.raises(error) as info:
            half_iteration(src, cam_l, cam_r, desc, cur, RefineOptions())
        assert info.value.exit_code == code


class TestRefine:
    def test_huge_eps_single_iteration(self):
        gen = generate_scene(small_scene())
        table = flat_table(16.0)
        dl, dr = encode_map(gen.left, table), encode_map(gen.right, table)
        opts = RefineOptions(eps=1e9)
        _, _, report = refine(dl, dr, gen.cameras.left, gen.cameras.right, opts)
        assert report.iterations == 1
        assert report.converged
        assert len(report.entries) == 2
        # eps = 0 stops only on an exact fixed point, which this scene never reaches.
        opts = RefineOptions(eps=0.0, max_iters=2)
        _, _, report = refine(dl, dr, gen.cameras.left, gen.cameras.right, opts)
        assert report.iterations == 2
        assert not report.converged
        assert min(e.mean_change for e in report.entries) > 0.0

    def test_constant_scene_is_fixed_point(self):
        const = np.full((32, 32), 128.0)
        table = flat_table(16.0)
        dl, dr = encode_map(const, table), encode_map(const, table)
        cam = simple_camera(100.0, 15.5, 15.5)
        left, right, report = refine(dl, dr, cam, cam, RefineOptions())
        std = decode_map(dl)
        assert report.converged
        assert report.iterations == 1
        assert np.max(np.abs(left - std)) < 1e-9
        assert np.max(np.abs(right - std)) < 1e-9
        assert report.entries[0].mean_change < 1e-9

    def test_outputs_clamped_and_feasibility_traced(self):
        gen = generate_scene(small_scene())
        table = flat_table(24.0)
        dl, dr = encode_map(gen.left, table), encode_map(gen.right, table)
        left, right, report = refine(dl, dr, gen.cameras.left, gen.cameras.right)
        assert np.all(left >= 0.0) and np.all(left <= 255.0)
        assert np.all(right >= 0.0) and np.all(right <= 255.0)
        assert len(report.entries) == 2 * report.iterations
        for e in report.entries:
            assert 0.0 <= e.clip_fraction <= 1.0
            assert e.mean_change >= 0.0
            assert e.psnr_left is None  # no ground truth supplied

    @pytest.mark.parametrize("start", ["left", "right"])
    def test_trace_recorded_with_truth(self, monkeypatch, start):
        gen = generate_scene(small_scene())
        table = flat_table(24.0)
        descs = {"left": encode_map(gen.left, table), "right": encode_map(gen.right, table)}
        truths = {"left": gen.left, "right": gen.right}
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return psnr(*args, **kwargs)

        monkeypatch.setattr(pocs, "psnr", counted)
        opts = RefineOptions(max_iters=3, start=start)
        left, right, report = refine(
            descs["left"], descs["right"], gen.cameras.left, gen.cameras.right, opts,
            (gen.left, gen.right),
        )
        other = "right" if start == "left" else "left"
        assert [e.view for e in report.entries] == [other, start] * report.iterations
        for e in report.entries:
            assert e.psnr_left is not None and e.psnr_right is not None
            assert e.g == pytest.approx((e.psnr_left + e.psnr_right) / 2.0)
        # One PSNR per half-iteration, of the view it updated, and the start
        # view's once, of its centroid decode, which the first entry carries.
        assert len(calls) == len(report.entries) + 1
        start_psnr = psnr(decode_map(descs[start]), truths[start], round_to_int=True)
        assert getattr(report.entries[0], f"psnr_{start}") == start_psnr
        # The carried values are the final maps'.
        assert report.entries[-1].psnr_left == psnr(left, gen.left, round_to_int=True)
        assert report.entries[-1].psnr_right == psnr(right, gen.right, round_to_int=True)

    def test_start_order_flag(self):
        gen = generate_scene(small_scene())
        table = flat_table(24.0)
        dl, dr = encode_map(gen.left, table), encode_map(gen.right, table)
        _, _, rep_l = refine(dl, dr, gen.cameras.left, gen.cameras.right, RefineOptions(max_iters=1))
        _, _, rep_r = refine(
            dl, dr, gen.cameras.left, gen.cameras.right, RefineOptions(max_iters=1, start="right")
        )
        assert [e.view for e in rep_l.entries] == ["right", "left"]
        assert [e.view for e in rep_r.entries] == ["left", "right"]

    def test_deterministic(self):
        gen = generate_scene(small_scene())
        table = flat_table(24.0)
        dl, dr = encode_map(gen.left, table), encode_map(gen.right, table)
        opts = RefineOptions(max_iters=3)
        l1, r1, _ = refine(dl, dr, gen.cameras.left, gen.cameras.right, opts)
        l2, r2, _ = refine(dl, dr, gen.cameras.left, gen.cameras.right, opts)
        assert np.array_equal(l1, l2) and np.array_equal(r1, r2)

    def test_non_rectified_rejected(self):
        const = np.full((16, 16), 100.0)
        table = flat_table(16.0)
        dl, dr = encode_map(const, table), encode_map(const, table)
        a = simple_camera(100.0, 8.0, 8.0, 0.0)
        b = simple_camera(130.0, 8.0, 8.0, 5.0)
        with pytest.raises(InvalidConfigurationError):
            refine(dl, dr, a, b)

    def test_truth_must_be_a_finite_map(self):
        const = np.full((16, 16), 100.0)
        dl = encode_map(const, flat_table(16.0))
        cam = simple_camera(100.0, 7.5, 7.5)
        nan = const.copy()
        nan[3, 4] = np.nan
        for truth, message in ((nan, "left truth contains non-finite"),
                               (const[None], "left truth must be 16x16")):
            with pytest.raises(InvalidInputError, match=message):
                refine(dl, dl, cam, cam, RefineOptions(), (truth, const))

    @pytest.mark.parametrize("count", [1, 3])
    def test_truth_must_be_two_maps(self, count):
        const = np.full((16, 16), 100.0)
        dl = encode_map(const, flat_table(16.0))
        cam = simple_camera(100.0, 7.5, 7.5)
        with pytest.raises(InvalidParameterError, match="two maps") as info:
            refine(dl, dl, cam, cam, RefineOptions(), (const,) * count)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("options", [{"max_iters": 2}, "fast", 3],
                             ids=["dict", "str", "int"])
    def test_options_must_be_refine_options(self, options):
        # Both entry points refuse options of another type before reading them.
        const = np.full((16, 16), 100.0)
        dl = encode_map(const, flat_table(16.0))
        cam = simple_camera(100.0, 7.5, 7.5)
        name = type(options).__name__
        for call in (lambda: refine(dl, dl, cam, cam, options),
                     lambda: half_iteration(const, cam, cam, dl, const, options)):
            with pytest.raises(InvalidParameterError, match=f"RefineOptions, got {name}$") as info:
                call()
            assert info.value.exit_code == 2

    def test_option_validation(self):
        with pytest.raises(InvalidParameterError):
            RefineOptions(max_iters=0)
        with pytest.raises(InvalidParameterError):
            RefineOptions(eps=-1.0)
        with pytest.raises(InvalidParameterError):
            RefineOptions(start="middle")
        for bad in ({"max_iters": 2.5}, {"max_iters": True}, {"eps": float("nan")}):
            with pytest.raises(InvalidParameterError):
                RefineOptions(**bad)
        # Real parameters take a number that is not a bool, as the integer
        # ones take an integer that is not a bool.
        for bad in ({"eps": "0.1"}, {"tau": None}, {"sigma_s": "2"}, {"sigma_r": True}):
            with pytest.raises(InvalidParameterError, match="must be a real number"):
                RefineOptions(**bad)
        # Past the float range: sigma_s raised a raw OverflowError, and tau was accepted.
        for bad in ({"sigma_s": 10**400}, {"tau": 10**400}, {"radius": 10**400}):
            with pytest.raises(InvalidParameterError, match=f"{next(iter(bad))} must be finite"):
                RefineOptions(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"radius": -1},
            {"radius": 2.7},
            {"radius": True},
            {"sigma_s": 0.0},
            {"sigma_r": -1.0},
            {"sigma_r": float("nan")},
            # 1 / (2 sigma^2) must be finite: 2 sigma^2 underflows to zero,
            # or its inverse overflows.
            {"sigma_s": 1e-200},
            {"sigma_s": 1e-160},
            {"sigma_r": 1e-200},
            {"sigma_r": 1e-170},
            {"sigma_r": 1e-160},
            {"tau": -0.5},
            {"tau": float("inf")},
            {"tau": float("nan")},
        ],
    )
    def test_filter_option_validation(self, bad):
        with pytest.raises(InvalidParameterError):
            RefineOptions(**bad)

    def test_filter_options_accepted(self):
        opts = RefineOptions(radius=np.int64(2), tau=0.0, sigma_s=0.5, sigma_r=1e-9)
        assert opts.radius == 2

    def test_numpy_options_held_as_python_numbers(self):
        # In their own types, the filter's 1/(2 sigma_r^2) overflowed float32
        # with a RuntimeWarning, and a uint8 max_iters overflowed the stripe count.
        opts = RefineOptions(max_iters=np.uint8(2), radius=np.int8(1), sigma_r=np.float32(1e-20))
        assert [type(getattr(opts, f)) for f in ("max_iters", "radius", "sigma_r")] == [int, int, float]
        gen, dl, dr = coded_pair(32, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refine(dl, dr, gen.cameras.left, gen.cameras.right, opts)

    def test_options_are_frozen(self):
        # The values __post_init__ checked are the values the stages receive.
        opts = RefineOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.sigma_r = 0.0
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(opts, sigma_r=0.0)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def coded_pair(width, height):
    gen = generate_scene(small_scene(width, height))
    table = flat_table(24.0)
    return gen, encode_map(gen.left, table), encode_map(gen.right, table)


def refine_with_stripes(monkeypatch, count, gen, dl, dr, opts):
    with monkeypatch.context() as m:
        m.setattr(pocs, "_stripe_count", lambda height, width, max_iters: count)
        return refine(dl, dr, gen.cameras.left, gen.cameras.right, opts, (gen.left, gen.right))


def tilted_pair(rng, h, w):
    """A rectified pair whose shared tilt of the optical axis makes the scale
    grid depend on the absolute row, which a stripe must therefore know."""
    th = rng.uniform(-0.3, 0.3)
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    k = np.array(
        [[rng.uniform(40, 150), 0, rng.uniform(0, w)], [0, 90.0, rng.uniform(0, h)], [0, 0, 1]]
    )
    tx = rng.uniform(-6, 6)
    src_cam = CameraParams(k, np.hstack([rot, [[0.0], [1.0], [0.0]]]))
    dst_cam = CameraParams(k, np.hstack([rot, [[tx], [1.0], [0.0]]]))
    return src_cam, dst_cam


def random_table(rng):
    if rng.random() < 0.5:
        return jpeg_table(int(rng.integers(1, 101)))
    return flat_table(rng.uniform(2, 40))


# The highest level the PGM reader returns, from a 16-bit sample of 65535.
TOP_LEVEL = 65535 / 256


def pushed_to_the_bound(rng, desc):
    """desc with the DC index of about a third of its blocks moved as far up
    or down as decode_map admits: to within one DC step of
    [-4 * delta_max, 256 + 4 * delta_max]."""
    slack = 4.0 * desc.table.max()
    unit = desc.table[0, 0] / BLOCK  # one DC index moves each sample of its block by this
    blocks = idct_blocks(desc.indices * desc.table)  # the padded centroid decode
    indices = desc.indices.copy()
    for b in np.flatnonzero(rng.random(len(blocks)) < 0.3):
        # 1 - 1e-9 keeps the transform's round-off from crossing the bound.
        if rng.random() < 0.5:
            indices[b, 0, 0] += int((256.0 + slack - blocks[b].max()) / unit * (1 - 1e-9))
        else:
            indices[b, 0, 0] -= int((blocks[b].min() + slack) / unit * (1 - 1e-9))
    return QuantizedDescription(desc.orig_width, desc.orig_height, desc.table, indices)


class TestRange:
    """decode_map admits a description only if its padded centroid decode lies
    in [-4 * delta_max, 256 + 4 * delta_max]; every half-iteration then stays
    in [-8 * delta_max, 256 + 8 * delta_max], with no check of its own."""

    @pytest.mark.parametrize("step", [0.1, 0.2, 2.0**-20])
    def test_pair_up_to_the_readers_top_level_refines(self, step):
        gen = generate_scene(small_scene())
        lo = min(gen.left.min(), gen.right.min())
        hi = max(gen.left.max(), gen.right.max())
        pair = [(m - lo) * (TOP_LEVEL / (hi - lo)) for m in (gen.left, gen.right)]
        descs = [encode_map(m, flat_table(step)) for m in pair]
        opts = RefineOptions(max_iters=2, eps=0.0)
        left, right, report = refine(*descs, gen.cameras.left, gen.cameras.right, opts)
        assert report.iterations == 2
        # Clamped to the reader's domain, not to [0, 255]: the top level comes back.
        top = max(left.max(), right.max())
        assert 255.0 < top and TOP_LEVEL - step <= top <= TOP_LEVEL
        assert min(left.min(), right.min()) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        push=st.booleans(),
        radius=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_half_iteration_stays_in_range(self, h, w, push, radius, seed):
        rng = np.random.default_rng(seed)
        cams = tilted_pair(rng, h, w)
        table = random_table(rng)
        descs = []
        for _ in range(2):
            m = rng.uniform(0.0, TOP_LEVEL, (h, w))
            m[rng.random((h, w)) < 0.2] = TOP_LEVEL
            m[rng.random((h, w)) < 0.1] = 0.0  # pixels the warp skips
            desc = encode_map(m, table)
            descs.append(pushed_to_the_bound(rng, desc) if push else desc)
        outputs = []

        def recorded(*args, **kwargs):
            out, stats = half_iteration(*args, **kwargs)
            outputs.append(out)
            return out, stats

        opts = RefineOptions(max_iters=3, eps=0.0, radius=radius, sigma_r=rng.uniform(1, 40))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pocs, "half_iteration", recorded)
            refine(*descs, *cams, opts)
        delta_max = table.max()
        assert outputs
        for out in outputs:
            assert -8.0 * delta_max <= out.min() and out.max() <= 256.0 + 8.0 * delta_max


class TestStripes:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(1, 80),
        w=st.integers(1, 24),
        radius=st.integers(0, 5),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_striped_equals_one_stripe_bitwise(self, h, w, radius, count, seed):
        rng = np.random.default_rng(seed)
        src_cam, dst_cam = tilted_pair(rng, h, w)
        desc = encode_map(rng.uniform(30, 250, (h, w)), random_table(rng))
        maps = [rng.uniform(30, 250, (h, w)) for _ in range(4)]
        maps[0][rng.random((h, w)) < 0.1] = 0.0  # pixels the warp skips
        opts = RefineOptions(radius=radius, sigma_r=rng.uniform(1, 40))
        with pocs._Stripes((desc,), (h, w), count) as stripes:
            assert len(stripes.workers) == len(stripes.rows) - 1
            # Two calls on one context: each must use its own arguments.
            for src, cur in (maps[:2], maps[2:]):
                want, want_stats = half_iteration(src, src_cam, dst_cam, desc, cur, opts)
                got, stats = half_iteration(src, src_cam, dst_cam, desc, cur, opts, stripes=stripes)
                assert np.array_equal(got, want)
                assert stats == want_stats
        assert no_child_left()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(1, 80),
        w=st.integers(1, 24),
        radii=st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True),
        band_pixels=st.integers(1, 400),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reused_workspace_leaks_nothing(
        self, monkeypatch, h, w, radii, band_pixels, count, seed
    ):
        # One context serves call after call, and its worker processes keep
        # their state between them. Input B after input A, with another
        # radius, other cameras and options, and filter bands of at most
        # `band_pixels` padded pixels, that is 1 to about 130 rows (so that
        # the last band of a stripe is often short), must give what a fresh
        # context gives for B, bit for bit.
        monkeypatch.setattr(warp, "_BAND_PIXELS", band_pixels)
        rng = np.random.default_rng(seed)
        desc = encode_map(rng.uniform(30, 250, (h, w)), random_table(rng))
        inputs = []
        for radius in radii:
            src, cur = rng.uniform(30, 250, (2, h, w))
            src[rng.random((h, w)) < 0.1] = 0.0
            opts = RefineOptions(radius=radius, tau=rng.uniform(0, 20), sigma_r=rng.uniform(1, 40))
            inputs.append((src, *tilted_pair(rng, h, w), desc, cur, opts))
        results = []
        with pocs._Stripes((desc,), (h, w), count) as stripes:
            for args in inputs:
                src, cur = args[0].copy(), args[4].copy()
                out, stats = half_iteration(*args, stripes=stripes)
                # The call neither writes into its inputs nor hands out memory
                # that a later call writes into.
                assert np.array_equal(args[0], src) and np.array_equal(args[4], cur)
                results.append((out, out.copy(), stats))
        (a_out, a_copy, _), (b_out, _, b_stats) = results
        assert np.array_equal(a_out, a_copy)
        want, want_stats = half_iteration(*inputs[1])
        assert np.array_equal(b_out, want) and b_stats == want_stats
        assert no_child_left()

    def test_context_serves_only_its_descriptions(self):
        gen, dl, dr = coded_pair(16, 16)
        cams = gen.cameras
        with pocs._Stripes((dr,), gen.left.shape) as stripes:
            with pytest.raises(InvalidInputError):
                half_iteration(
                    gen.right, cams.right, cams.left, dl, gen.left, RefineOptions(),
                    stripes=stripes,
                )

    @pytest.mark.parametrize("ended", ["closed", "worker-killed"])
    def test_ended_context_runs_one_stripe(self, monkeypatch, no_fd_leaked, ended):
        # A context whose workers have ended, closed on leaving it or after a
        # call that met a dead worker, runs the map here as one stripe.
        gen, dl, dr = coded_pair(16, 24)
        cams = gen.cameras
        args = (gen.left, cams.left, cams.right, dr, gen.right, RefineOptions())
        want, want_entry = half_iteration(*args, stripes=pocs._Stripes((dr,), gen.left.shape))
        with pocs._Stripes((dr,), gen.left.shape, 2) as stripes:
            assert len(stripes.workers) == 1 and len(stripes.rows) == 2
            if ended == "worker-killed":
                pid = stripes.workers[0].pid
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
                with pytest.raises(DepthPocsError, match="stripe worker exited early"):
                    half_iteration(*args, stripes=stripes)
        assert stripes.workers == [] and stripes.rows == [(0, 24)] and no_child_left()

        def no_fork():
            raise AssertionError("an ended stripe context forked")

        monkeypatch.setattr(os, "fork", no_fork)
        got, entry = half_iteration(*args, stripes=stripes)
        assert np.array_equal(got, want) and entry == want_entry

    @pytest.mark.parametrize("height", [1, 8, 9, 64, 65, 80])
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_stripe_rows_cut_at_block_rows(self, height, count):
        rows = pocs._stripe_rows(height, count)
        assert len(rows) == min(count, math.ceil(height / 8))
        assert rows[0][0] == 0 and rows[-1][1] == height
        for (a, b), (c, _) in zip(rows, rows[1:]):
            assert b == c and a % 8 == 0 and b % 8 == 0 and b > a

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_refine_independent_of_stripe_count(self, monkeypatch, count):
        gen, dl, dr = coded_pair(40, 72)
        opts = RefineOptions(max_iters=2)
        one = refine_with_stripes(monkeypatch, 1, gen, dl, dr, opts)
        many = refine_with_stripes(monkeypatch, count, gen, dl, dr, opts)
        assert np.array_equal(many[0], one[0]) and np.array_equal(many[1], one[1])
        assert many[2].entries == one[2].entries

    def test_stripe_count_follows_cpus_and_work(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert pocs._stripe_count(1000, 1000, 10) == 3
        # Each stripe carries at least _MIN_STRIPE_WORK pixel-iterations.
        work = 2 * pocs._MIN_STRIPE_WORK
        assert pocs._stripe_count(work // 8, 4, 2) == 2
        assert pocs._stripe_count(work // 8 - 1, 4, 2) == 1
        assert pocs._stripe_count(256, 256, 1) == 1  # a one-iteration preview
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert pocs._stripe_count(1000, 1000, 10) == 1
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert pocs._stripe_count(1000, 1000, 10) == 1

    def test_one_cpu_forks_nothing(self, monkeypatch):
        gen, dl, dr = coded_pair(24, 32)
        monkeypatch.setattr(pocs, "_MIN_STRIPE_WORK", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def no_fork():
            raise AssertionError("refine forked on one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        opts = RefineOptions(max_iters=1)
        left, _, report = refine(dl, dr, gen.cameras.left, gen.cameras.right, opts)
        assert report.iterations == 1 and left.shape == gen.left.shape

    def test_worker_failure_raised_in_parent(self, monkeypatch):
        gen, dl, dr = coded_pair(32, 48)
        opts = RefineOptions(max_iters=2)
        parent = os.getpid()
        project_view = pocs.project_view

        def fails_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("injected worker fault")
            return project_view(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(pocs, "project_view", fails_in_worker)
            with pytest.raises(DepthPocsError, match="injected worker fault"):
                refine_with_stripes(monkeypatch, 2, gen, dl, dr, opts)
        assert no_child_left()
        # The next refine forks afresh and matches one stripe.
        two = refine_with_stripes(monkeypatch, 2, gen, dl, dr, opts)
        one = refine_with_stripes(monkeypatch, 1, gen, dl, dr, opts)
        assert np.array_equal(two[0], one[0]) and np.array_equal(two[1], one[1])

    @pytest.mark.parametrize("error", [InvalidParameterError, MemoryError])
    def test_worker_error_keeps_its_class(self, monkeypatch, error):
        gen, dl, dr = coded_pair(32, 48)
        parent = os.getpid()
        project_view = pocs.project_view
        raised = []
        for count in (1, 2):

            def fails(*args, **kwargs):
                if count == 1 or os.getpid() != parent:
                    raise error("injected worker fault")
                return project_view(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(pocs, "project_view", fails)
                with pytest.raises(error) as info:
                    refine_with_stripes(monkeypatch, count, gen, dl, dr, RefineOptions(max_iters=2))
            raised.append(info.value)
        one, two = raised
        assert type(two) is type(one) and str(two) == str(one)

    def test_worker_os_error_keeps_its_errno(self, monkeypatch, no_fd_leaked):
        gen, dl, dr = coded_pair(32, 48)
        parent = os.getpid()
        project_view = pocs.project_view
        raised = []
        for count in (1, 2):

            def fails(*args, **kwargs):
                if count == 1 or os.getpid() != parent:
                    raise PermissionError(errno.EACCES, "injected worker fault")
                return project_view(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(pocs, "project_view", fails)
                with pytest.raises(PermissionError) as info:
                    refine_with_stripes(monkeypatch, count, gen, dl, dr, RefineOptions(max_iters=2))
            raised.append(info.value)
        one, two = raised
        assert type(two) is type(one) and two.errno == one.errno == errno.EACCES
        assert str(two) == str(one)

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_fork_runs_one_stripe(self, monkeypatch, no_fd_leaked, failing):
        # The failing-th fork fails as it does when no process is left to spare;
        # the workers forked before it end, and refine runs one stripe.
        gen, dl, dr = coded_pair(40, 72)
        opts = RefineOptions(max_iters=2)
        one = refine_with_stripes(monkeypatch, 1, gen, dl, dr, opts)
        forks = []
        fork = os.fork

        def fork_or_fail():
            forks.append(1)
            if len(forks) == failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_or_fail)
        got = refine_with_stripes(monkeypatch, 3, gen, dl, dr, opts)
        assert len(forks) == failing and no_child_left()
        assert np.array_equal(got[0], one[0]) and np.array_equal(got[1], one[1])
        assert got[2].entries == one[2].entries

    def test_dead_worker_raises(self, no_fd_leaked):
        gen, dl, dr = coded_pair(16, 24)
        cams = gen.cameras
        with pocs._Stripes((dr,), gen.left.shape, 2) as stripes:
            pid = stripes.workers[0].pid
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
            with pytest.raises(DepthPocsError, match="stripe worker exited early"):
                half_iteration(
                    gen.left, cams.left, cams.right, dr, gen.right, RefineOptions(),
                    stripes=stripes,
                )
        assert stripes.workers == [] and no_child_left()

    def test_interrupted_fork_reaps_started_workers(self, monkeypatch, no_fd_leaked):
        # An interrupt while the context forks its second worker ends the
        # first one, and closes its pipes, before it propagates.
        gen, dl, dr = coded_pair(16, 24)
        made = []

        def fork_or_interrupt(*args):
            if made:
                raise KeyboardInterrupt
            made.append(Forked(*args))
            return made[-1]

        monkeypatch.setattr(pocs, "Forked", fork_or_interrupt)
        with pytest.raises(KeyboardInterrupt):
            pocs._Stripes((dr,), gen.left.shape, 3)
        assert len(made) == 1 and no_child_left()

    def test_interrupt_in_parent_reaps_workers(self, monkeypatch):
        # The interrupt comes in this process between two half-iterations.
        gen, dl, dr = coded_pair(32, 48)
        calls = []

        def interrupt(*args, **kwargs):
            if calls:
                raise KeyboardInterrupt
            calls.append(1)
            return half_iteration(*args, **kwargs)

        monkeypatch.setattr(pocs, "half_iteration", interrupt)
        with pytest.raises(KeyboardInterrupt):
            refine_with_stripes(monkeypatch, 3, gen, dl, dr, RefineOptions())
        assert no_child_left()


def thread_count() -> int:
    """This process's num_threads, field 20 of /proc/self/stat."""
    with open("/proc/self/stat") as f:
        # Field 2, the command name in parentheses, may itself hold spaces.
        return int(f.read().rsplit(")", 1)[1].split()[17])


class TestForked:
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/self/stat")
    def test_fork_leaves_one_thread_in_each_process(self):
        # A fork while numpy's BLAS pool runs could leave the child a lock
        # that a pool thread held; OpenBLAS stops the pool before the fork.
        a = np.ones((256, 256))
        a @ a  # start the pool, should an earlier fork have stopped it
        child = Forked(thread_count, "thread counter")
        try:
            in_parent = thread_count()
            child.send()
            in_child = child.receive()
        finally:
            child.close()
        assert (in_child, in_parent) == (1, 1)


    def test_cpu_budget(self, monkeypatch, no_fd_leaked):
        # A child counts one CPU, and its parent one less while the child lives.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert fork_cpus() == 3
        child = Forked(fork_cpus, "CPU counter")
        try:
            assert fork_cpus() == 2
            child.send()
            assert child.receive() == 1
        finally:
            child.close()
        assert fork_cpus() == 3


def index_and_pid(i: int) -> tuple[int, int]:
    return i, os.getpid()


class TestInProcesses:
    """in_processes yields compute(0), ..., compute(count - 1) in order, index i
    computed in process i % P, P = min(CPUs, count)."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_order_and_process_of_each_index(self, monkeypatch, no_fd_leaked, cpus, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        got = list(in_processes(index_and_pid, count, "test worker"))
        assert [i for i, _ in got] == list(range(count))
        procs = min(cpus, count)
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid() and len(set(pids[:procs])) == procs
        assert pids == [pids[i % procs] for i in range(count)]
        assert no_child_left() and fork_cpus() == cpus

    def test_failed_fork_runs_every_index_here(self, monkeypatch, no_fd_leaked):
        # The second fork fails as it does when no process is left to spare;
        # the child forked before it ends.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forks = []
        fork = os.fork

        def fork_or_fail():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_or_fail)
        got = list(in_processes(index_and_pid, 5, "test worker"))
        assert got == [(i, os.getpid()) for i in range(5)]
        assert len(forks) == 2 and no_child_left()

    @pytest.mark.parametrize("failing", [3, 2], ids=["in-child", "in-parent"])
    def test_error_raised_at_its_turn(self, monkeypatch, no_fd_leaked, failing):
        # On two CPUs odd indices run in the child, even ones here.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def compute(i):
            if i == failing:
                raise InvalidInputError("injected")
            return index_and_pid(i)

        got = []
        with pytest.raises(InvalidInputError, match="^injected$"):
            for item in in_processes(compute, 5, "test worker"):
                got.append(item)
        assert [i for i, _ in got] == list(range(failing))
        assert got[0][1] == os.getpid() != got[1][1]
        assert no_child_left() and fork_cpus() == 2

    @pytest.mark.parametrize("leave", ["break", "raise"])
    def test_consumer_leaving_early_ends_children(self, monkeypatch, no_fd_leaked, leave):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(KeyError) if leave == "raise" else contextlib.nullcontext():
            for _ in in_processes(index_and_pid, 5, "test worker"):
                if leave == "raise":
                    raise KeyError("consumer")
                break
        assert no_child_left() and fork_cpus() == 3

    def test_many_replies_fill_no_pipe(self, monkeypatch, no_fd_leaked):
        # 20000 replies of 1000 bytes each, half of them from one child: a
        # child sent all its indices at once fills its reply pipe and blocks,
        # and this process then blocks on the full request pipe. The alarm
        # turns such a hang into a failure.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def hung(signum, frame):
            raise TimeoutError("in_processes hung")

        count = 20000
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            replies = in_processes(lambda i: f"{i:<1000}", count, "test worker")
            got = [int(reply) for reply in replies]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert got == list(range(count))
        assert no_child_left() and fork_cpus() == 2


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
    def test_warm_half_iterations_fault_in_no_pages(self):
        # Every half-iteration allocates its arrays afresh. With the policy
        # _Stripes sets, the third and fourth reuse the heap pages the first
        # two freed; without it each faults thousands of pages in again.
        resource = pytest.importorskip("resource")
        gen = generate_scene(demo_scene(501, 373))
        table = jpeg_table(50)
        dl, dr = encode_map(gen.left, table), encode_map(gen.right, table)
        left, right = decode_map(dl), decode_map(dr)
        cl, cr = gen.cameras.left, gen.cameras.right
        opts = RefineOptions()
        faults = []
        with pocs._Stripes((dl, dr), left.shape) as stripes:
            for _ in range(2):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                right, _ = half_iteration(left, cl, cr, dr, right, opts, stripes=stripes)
                middle = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                left, _ = half_iteration(right, cr, cl, dl, left, opts, stripes=stripes)
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                faults += [middle - before, after - middle]
        assert faults[2] < 100 and faults[3] < 100, faults

    @pytest.mark.parametrize("cdll", ["no mallopt", "no library"])
    def test_policy_is_skipped_without_mallopt(self, monkeypatch, cdll):
        import ctypes

        def load(name):
            if cdll == "no library":
                raise OSError("cannot load the C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", load)
        assert pocs._keep_freed_memory() is None
