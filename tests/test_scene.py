"""Scene generator tests: closed-form surface oracles, cross-view
consistency of the rendered pair, disocclusion structure, errors, the
culled render against the full-grid one, and the forked render of the
right view against one view at a time."""

import functools
import math
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthpocs import scene
from depthpocs.errors import DepthPocsError, InvalidSceneError
from depthpocs.geometry import require_rectified, stereo_pair
from depthpocs.scene import Box, Plane, SceneSpec, demo_scene, generate_scene
from depthpocs.warp import project_view
from scene_oracle import render_full_grid


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
        cx = cy = 31.5  # the centre of the 64x64 views
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
        cx = cy = 31.5  # the centre of the 64x64 views
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
        # A seed that is not an integer fails as a bad scene, not in the draw.
        for seed in (-1, 7.5, "7", True):
            with pytest.raises(InvalidSceneError, match="seed"):
                generate_scene(demo_scene(seed=seed))

    def test_numpy_integer_seed_accepted(self):
        spec = spec_with([Plane(0.1, 0.0, 120.0)], noise_amp=1.5, seed=9)
        want = generate_scene(spec)
        spec.seed = np.int64(9)
        got = generate_scene(spec)
        assert np.array_equal(got.left, want.left) and np.array_equal(got.right, want.right)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("width", 64.5),  # np.arange(64.5) would render 65 columns
            ("width", True),
            ("width", "64"),
            ("width", 0),
            ("height", 64.5),
            ("height", False),
            ("height", None),
            ("noise_amp", "1.5"),
            ("noise_amp", True),
            ("noise_amp", None),
            ("focal", "120"),
            ("focal", math.nan),
            ("focal", 10**400),
            ("baseline", "12"),
            ("baseline", -math.inf),
            ("baseline", None),
            ("cx", "31.5"),
            ("cx", math.inf),
            ("cy", 1 + 0j),
            ("cy", math.nan),
        ],
    )
    def test_bad_field_rejected_before_rendering(self, monkeypatch, name, value):
        # Sizes are integers >= 1, not bools; the others are finite real
        # numbers. Each is checked where it enters, before any view renders.
        rendered = []
        monkeypatch.setattr(scene, "_render_view", lambda *args: rendered.append(args))
        spec = demo_scene(64, 64)
        setattr(spec, name, value)
        with pytest.raises(InvalidSceneError, match=name) as got:
            generate_scene(spec)
        assert got.value.exit_code == 2
        assert not rendered

    def test_numpy_numbers_accepted(self):
        want = generate_scene(demo_scene(64, 48))
        spec = demo_scene(np.int64(64), np.int32(48))
        spec.focal, spec.baseline, spec.noise_amp = np.float64(120.0), np.int64(12), np.float32(1.5)
        spec.cx, spec.cy = np.float64(31.5), np.int16(23) + 0.5
        got = generate_scene(spec)
        assert np.array_equal(got.left, want.left) and np.array_equal(got.right, want.right)

    def test_needs_primitives(self):
        with pytest.raises(InvalidSceneError):
            generate_scene(spec_with([]))

    def test_unknown_primitive_type(self):
        with pytest.raises(InvalidSceneError):
            generate_scene(spec_with(["sphere"]))

    @pytest.mark.parametrize("cx, cy", [(1e300, None), (None, -1e300), (1e6, None)])
    def test_views_sharing_no_visible_pixel_rejected(self, cx, cy):
        # A principal point far off the image sends every pixel ray far to
        # one side: both visibility masks are empty (with cx = 1e6 every
        # depth is about 0.185, inside the allowed range).
        spec = demo_scene(64, 64)
        spec.cx, spec.cy = cx, cy
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidSceneError, match="no pixel cleanly"):
                generate_scene(spec)

    def test_huge_baseline_rejected_without_numpy_warnings(self):
        # focal * baseline / depth overflows to inf: no pixel lands in the other view.
        spec = spec_with([Plane(0.0, 0.0, 100.0, ripple=False)], baseline=1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidSceneError, match="no pixel cleanly"):
                generate_scene(spec)


class TestConsistency:
    def test_warped_left_truth_matches_right_truth(self):
        gen = generate_scene(demo_scene())
        warped = project_view(
            gen.left, gen.cameras.left, gen.cameras.right, gen.right,
            tau=8.0, sigma_s=2.0, sigma_r=10.0, radius=0,
        )
        err = np.abs(warped - gen.right)[gen.mask_right]
        assert float(err.max()) <= 0.5

    def test_reverse_direction_consistent(self):
        gen = generate_scene(demo_scene())
        warped = project_view(
            gen.right, gen.cameras.right, gen.cameras.left, gen.left,
            tau=8.0, sigma_s=2.0, sigma_r=10.0, radius=0,
        )
        err = np.abs(warped - gen.left)[gen.mask_left]
        assert float(err.max()) <= 0.5


class TestSclight:
    def test_cameras_follow_spec(self):
        spec = demo_scene()
        gen = generate_scene(spec)
        pair = gen.cameras
        require_rectified(pair.left, pair.right)
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


def offgrid_scene() -> SceneSpec:
    """The bundled scene at 501x373 with focal 235 and its box at depth 61.7."""
    spec = demo_scene(501, 373)
    spec.focal = 235.0
    spec.primitives[2] = Box(x0=-20.3, x1=52.7, y0=-40.1, y1=30.3, depth=61.7)
    return spec


def off_centre_scene() -> SceneSpec:
    spec = demo_scene()
    spec.cx, spec.cy = 96.5, 160.25
    return spec


def flat_scene() -> SceneSpec:
    spec = demo_scene()
    spec.noise_amp = 0.0
    return spec


def one_view_at_a_time(spec: SceneSpec) -> tuple[np.ndarray, ...]:
    """Oracle: left then right view in this process, then both masks."""
    ripple = scene._Ripple(spec.seed, spec.noise_amp) if spec.noise_amp else None
    cams = stereo_pair((spec.height, spec.width), spec.focal, spec.baseline, spec.cx, spec.cy)
    left, prim_l = scene._render_view(spec, cams.left, ripple)
    right, prim_r = scene._render_view(spec, cams.right, ripple)
    return (
        left,
        right,
        scene._visibility_mask(left, prim_l, prim_r, cams.left, cams.right),
        scene._visibility_mask(right, prim_r, prim_l, cams.right, cams.left),
    )


SCENES = {
    "demo": demo_scene,
    "offgrid": offgrid_scene,
    "off-centre": off_centre_scene,
    "flat": flat_scene,
}


@functools.lru_cache(maxsize=None)
def oracle_for(name: str) -> tuple[np.ndarray, ...]:
    return one_view_at_a_time(SCENES[name]())


def render_outcome(render, spec, cam, ripple):
    """The depth and primitive-id bytes a render returns, or the class and
    message of what it raises, with RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            depth, prim_id = render(spec, cam, ripple)
        except (DepthPocsError, RuntimeWarning) as exc:
            return type(exc), str(exc)
    return depth.dtype, depth.tobytes(), prim_id.dtype, prim_id.tobytes()


def assert_render_equals_full_grid(spec, ripple):
    cams = stereo_pair((spec.height, spec.width), spec.focal, spec.baseline, spec.cx, spec.cy)
    for cam in (cams.left, cams.right):
        got = render_outcome(scene._render_view, spec, cam, ripple)
        assert got == render_outcome(render_full_grid, spec, cam, ripple)


planes = st.builds(
    Plane,
    a=st.floats(-0.5, 0.5),
    b=st.floats(-0.5, 0.5),
    c=st.floats(20.0, 250.0),
    ripple=st.booleans(),
)
boxes = st.builds(
    lambda x0, y0, w, h, depth: Box(x0, x0 + w, y0, y0 + h, depth),
    st.floats(-80.0, 40.0),
    st.floats(-80.0, 40.0),
    st.floats(1.0, 80.0),
    st.floats(1.0, 80.0),
    st.floats(10.0, 250.0),
)


@st.composite
def fuzzed_scenes(draw):
    """A scene of 1-3 planes, each rippled or flat, and 0-2 boxes, with its
    ripple: sizes 8-120, principal points off centre, any of six noise
    amplitudes, and now and then cx = 1e300 or a plane with a = 1e308."""
    width, height = draw(st.integers(8, 120)), draw(st.integers(8, 120))
    prims = draw(st.lists(planes, min_size=1, max_size=3))
    prims += draw(st.lists(boxes, max_size=2))
    spec = SceneSpec(
        width=width,
        height=height,
        primitives=draw(st.permutations(prims)),
        focal=draw(st.floats(40.0, 300.0)),
        baseline=draw(st.floats(0.5, 20.0)),
        cx=draw(st.none() | st.floats(-0.5 * width, 1.5 * width)),
        cy=draw(st.none() | st.floats(-0.5 * height, 1.5 * height)),
        seed=draw(st.integers(0, 2**32 - 1)),
        noise_amp=draw(st.sampled_from([0.0, 1e-12, 1.5, -2.0, 8.0, 40.0])),
    )
    extreme = draw(st.sampled_from([None, None, None, None, "cx", "a"]))
    if extreme == "cx":
        spec.cx = 1e300
    elif extreme == "a":
        draw(st.sampled_from([p for p in spec.primitives if isinstance(p, Plane)])).a = 1e308
    # generate_scene passes no ripple at noise_amp 0; a zero-amplitude one
    # must render the same.
    zero_ripple = draw(st.booleans())
    ripple = scene._Ripple(spec.seed, spec.noise_amp) if spec.noise_amp or zero_ripple else None
    return spec, ripple


class TestCulledRender:
    """_render_view solves a rippled plane only where its nearest possible
    hit is not behind some surface's farthest one; it must equal the
    full-grid render of tests/scene_oracle.py bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(fuzzed_scenes())
    def test_equals_full_grid_render(self, drawn):
        assert_render_equals_full_grid(*drawn)

    @pytest.mark.parametrize("name", SCENES)
    def test_bundled_scenes_equal_full_grid_render(self, name):
        spec = SCENES[name]()
        ripple = scene._Ripple(spec.seed, spec.noise_amp) if spec.noise_amp else None
        assert_render_equals_full_grid(spec, ripple)

    @pytest.mark.parametrize("amp", [1.5, -1.5])
    def test_ripple_at_its_bound_equals_full_grid_render(self, monkeypatch, amp):
        # A ripple of exactly +-amp puts the rippled wall (c = 103) at 101.5
        # on some pixels, just in front of the flat wall at 101.5007. Any
        # bound tighter than |ripple| <= |amp| would cull it there.
        monkeypatch.setattr(
            scene._Ripple, "__call__", lambda self, x, y: self.amp * np.sign(np.sin(x + 2 * y))
        )
        spec = spec_with(
            [Plane(0.0, 0.0, 101.5007, ripple=False), Plane(0.0, 0.0, 103.0)], noise_amp=amp
        )
        ripple = scene._Ripple(spec.seed, spec.noise_amp)
        cam = stereo_pair((64, 64), spec.focal, spec.baseline).left
        assert (scene._render_view(spec, cam, ripple)[1] == 1).any()
        assert_render_equals_full_grid(spec, ripple)

    def test_demo_solves_rippled_planes_on_under_half_the_pixels(self, monkeypatch):
        solved = []
        plane_hits = scene._plane_hits

        def counted(prim, u, v, tx, ripple):
            solved.append(u.size)
            return plane_hits(prim, u, v, tx, ripple)

        monkeypatch.setattr(scene, "_plane_hits", counted)
        spec = demo_scene()
        cam = stereo_pair((spec.height, spec.width), spec.focal, spec.baseline).left
        scene._render_view(spec, cam, scene._Ripple(spec.seed, spec.noise_amp))
        # Two rippled planes: under half of their 2 * 256 * 256 hits.
        assert sum(solved) < spec.width * spec.height

    def test_broken_bound_solves_every_rippled_plane_there(self, monkeypatch):
        # The ripple is NaN where |x| < 10, and a NaN leaves a plane no hit.
        # The near plane (c = 100) thus has none for |u| < 0.1, but its
        # bound says it has one there that culls the far plane (c = 150).
        # The far plane has a hit for |u| > 10 / 148.5, so between the two
        # it, not the box behind, is the nearest surface.
        ripple_at = scene._Ripple.__call__

        def holed(self, x, y):
            return np.where(np.abs(x) < 10.0, np.nan, ripple_at(self, x, y))

        monkeypatch.setattr(scene._Ripple, "__call__", holed)
        spec = spec_with(
            [Plane(0.0, 0.0, 100.0), Plane(0.0, 0.0, 150.0), Box(-1e3, 1e3, -1e3, 1e3, 200.0)],
            noise_amp=1.5,
        )
        ripple = scene._Ripple(spec.seed, spec.noise_amp)
        cam = stereo_pair((64, 64), spec.focal, spec.baseline).left
        prim_id = scene._render_view(spec, cam, ripple)[1]
        u = np.abs(np.arange(64) - 31.5) / spec.focal
        between = (u > 10 / 148.5) & (u < 0.1)
        assert between.any() and (prim_id[:, between] == 1).all()
        assert_render_equals_full_grid(spec, ripple)


def default_rng_ripple(seed):
    """The ripple's parameters as numpy's generator draws them: the oracle."""
    rng = np.random.default_rng(seed)
    kx = rng.uniform(0.03, 0.10, scene._RIPPLE_WAVES)
    ky = rng.uniform(0.03, 0.10, scene._RIPPLE_WAVES)
    px = rng.uniform(0.0, 2.0 * np.pi, scene._RIPPLE_WAVES)
    py = rng.uniform(0.0, 2.0 * np.pi, scene._RIPPLE_WAVES)
    w = rng.uniform(0.5, 1.0, scene._RIPPLE_WAVES)
    return kx, ky, px, py, w / np.sum(w)


class TestRipple:
    # Entropy of one to nineteen 32-bit words; the examples sit on the
    # boundaries of one, two, four (SeedSequence's pool) and five words.
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**600))
    @example(seed=0)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**64)
    @example(seed=2**128 - 1)
    @example(seed=2**128)
    @example(seed=2**128 + 1)
    @example(seed=np.int64(2**63 - 25))
    def test_draws_equal_default_rng(self, seed):
        ripple = scene._Ripple(seed, 1.5)
        got = (ripple.kx, ripple.ky, ripple.px, ripple.py, ripple.w)
        for name, mine, want in zip(("kx", "ky", "px", "py", "w"), got, default_rng_ripple(seed)):
            assert mine.dtype == want.dtype and np.array_equal(mine, want), name

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        amp=st.floats(allow_nan=False, allow_infinity=False),
        xy=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @example(seed=7, amp=-2.0, xy=[(1e308, -1e308), (-1.7e308, 3.0), (0.0, 5e307)])
    def test_bounded_by_amplitude(self, seed, amp, xy):
        # The render's cull rests on this bound, for either sign of amp.
        x, y = np.array(xy).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = scene._Ripple(seed, amp)(x, y)
        assert (np.abs(values) <= abs(amp) * (1.0 + 1e-9)).all()


@pytest.fixture(params=["fork", "no-fork", "one-cpu"])
def render_mode(request, monkeypatch):
    """How generate_scene may render; yields the forks it must make per call.

    "fork" grants two CPUs, so the right view renders in a child; "no-fork"
    removes os.fork; "one-cpu" grants one CPU, where calling os.fork fails
    the test.
    """
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def no_fork():
        raise AssertionError("forked on one CPU")

    if request.param == "no-fork":
        monkeypatch.delattr(os, "fork")
        yield forks, 0
        return
    cpus = {0, 1} if request.param == "fork" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", counted_fork if request.param == "fork" else no_fork)
    yield forks, 1 if request.param == "fork" else 0


def fault_in_render(monkeypatch, fault, in_child=True):
    """Grant two CPUs and make the forked child's render (or the parent's) call fault()."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    render_view = scene._render_view

    def render(*args):
        if (os.getpid() != parent) == in_child:
            fault()
        return render_view(*args)

    monkeypatch.setattr(scene, "_render_view", render)


class TestForkedRender:
    @pytest.mark.parametrize("name", SCENES)
    def test_byte_identical_to_one_view_at_a_time(self, render_mode, name):
        expected = oracle_for(name)
        forks, per_call = render_mode
        gen = generate_scene(SCENES[name]())
        assert len(forks) == per_call
        got = (gen.left, gen.right, gen.mask_left, gen.mask_right)
        for what, a, b in zip(("left", "right", "mask_left", "mask_right"), got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape, what
            assert a.tobytes() == b.tobytes(), what

    def test_failure_in_forked_view_has_serial_message(self, render_mode, no_fd_leaked):
        # The box covers the left view's every ray; shifted by the baseline,
        # the right view's first 18 columns miss it.
        spec = spec_with([Box(-14.0, 100.0, -50.0, 50.0, 50.0)])
        left = stereo_pair((64, 64), spec.focal, spec.baseline).left
        assert np.isfinite(scene._render_view(spec, left, None)[0]).all()
        with pytest.raises(InvalidSceneError) as serial:
            one_view_at_a_time(spec)
        assert str(serial.value) == "1152 pixels not covered by any primitive"
        forks, per_call = render_mode
        with pytest.raises(InvalidSceneError) as got:
            generate_scene(spec)
        assert len(forks) == per_call
        assert str(got.value) == str(serial.value)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("a", 1e308, None),
            ("baseline", 1e308, None),
            ("noise_amp", 1e308, None),
            ("noise_amp", math.nan, "noise_amp must be finite"),
            ("noise_amp", math.inf, "noise_amp must be finite"),
        ],
    )
    def test_extreme_value_raises_without_numpy_warnings(
        self, render_mode, no_fd_leaked, key, value, message
    ):
        # The bundled scene's size: at 64x64 the huge ripple overflows nowhere.
        spec = demo_scene()
        if key == "a":
            spec.primitives[0].a = value
        else:
            setattr(spec, key, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidSceneError, match=message):
                generate_scene(spec)

    def test_child_dying_without_reply_raises(self, monkeypatch, no_fd_leaked):
        fault_in_render(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(DepthPocsError, match="without a reply"):
            generate_scene(demo_scene(64, 64))

    def test_memory_error_in_child_raised_as_memory_error(self, monkeypatch, no_fd_leaked):
        def fail():
            raise MemoryError("injected")

        fault_in_render(monkeypatch, fail)
        with pytest.raises(MemoryError, match="^injected$"):
            generate_scene(demo_scene(64, 64))

    def test_other_error_in_child_raised_as_depthpocs_error(self, monkeypatch, no_fd_leaked):
        def fail():
            raise RuntimeError("injected")

        fault_in_render(monkeypatch, fail)
        with pytest.raises(DepthPocsError, match="RuntimeError: injected"):
            generate_scene(demo_scene(64, 64))

    def test_interrupt_in_parent_ends_child(self, monkeypatch, no_fd_leaked):
        def interrupt():
            raise KeyboardInterrupt

        fault_in_render(monkeypatch, interrupt, in_child=False)
        with pytest.raises(KeyboardInterrupt):
            generate_scene(demo_scene(64, 64))

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_no_memory_or_process_to_spare_renders_in_turn(
        self, monkeypatch, no_fd_leaked, failing
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def fail(*args):
            raise OSError(f"no {failing} to spare")

        monkeypatch.setattr(os, failing, fail)
        spec = demo_scene(64, 64)
        gen = generate_scene(spec)
        got = (gen.left, gen.right, gen.mask_left, gen.mask_right)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, one_view_at_a_time(spec)))
