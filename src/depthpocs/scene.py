"""Synthetic rectified stereo scenes with exact ground truth.

A scene is a list of world-space primitives, slanted planes (optionally
carrying a smooth seeded ripple so the maps are not trivially flat) and
axis-aligned boxes whose front face is fronto-parallel. Each view renders
the nearest primitive along every pixel ray of the shared rectified
camera model, so the two depth maps describe one consistent 3D scene by
construction. A rippled plane is solved only where it may be the nearest
surface: 35-41% of the bundled scene's pixels. The maps stay byte for
byte; the scene renders in about 80 ms instead of 150 ms on 2 vCPUs.

The generator also emits per-view validity masks flagging pixels whose
surface point is cleanly visible in the other view (same primitive in a
one-pixel guard band around the projected position). The masks exist for
verification only; the refinement never sees them. A scene whose views
share no cleanly visible pixel is rejected.

The two views render at once where the process may run on two CPUs:
_common.in_processes renders the right view in a forked child, which
returns it in its reply, while the calling process renders the left view.
With one CPU, on a platform that cannot fork, or where a pipe or the
child cannot be had, the views render one after the other here. Either
way each view runs the same operations on the same arrays, so the maps
and masks are the same, byte for byte.

The ripple draws its parameters from a private pure-Python PCG64 that
reproduces numpy's default_rng(seed).uniform exactly, so the maps are
unchanged, without importing numpy.random: that import maps OpenSSL's
libcrypto and cost a run about 6 MiB of resident memory.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from ._common import in_processes, require_kind, require_number, shown
from .errors import InvalidSceneError
from .geometry import CameraParams, RectifiedPair, stereo_pair

_RIPPLE_WAVES = 3
_PLANE_SOLVE_ITERS = 8


@dataclass
class Plane:
    """Surface d = a*x + b*y + c in world coordinates, plus optional ripple."""

    a: float
    b: float
    c: float
    ripple: bool = True


@dataclass
class Box:
    """Fronto-parallel front face at constant depth over a world rectangle."""

    x0: float
    x1: float
    y0: float
    y1: float
    depth: float


_FIELDS = {Plane: ("a", "b", "c"), Box: ("x0", "x1", "y0", "y1", "depth")}  # the numeric ones


@dataclass
class SceneSpec:
    width: int
    height: int
    primitives: list = field(default_factory=list)
    focal: float = 120.0
    baseline: float = 12.0
    cx: float | None = None
    cy: float | None = None
    seed: int = 0
    noise_amp: float = 0.0


@dataclass
class GeneratedScene:
    """Ground-truth pair, its cameras and the visibility masks (None for imported maps)."""

    left: np.ndarray
    right: np.ndarray
    mask_left: np.ndarray | None
    mask_right: np.ndarray | None
    cameras: RectifiedPair


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_doubles(seed: int) -> Iterator[float]:
    """The doubles of numpy's default_rng(seed).random(): PCG64 seeded by SeedSequence."""
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(dst: int, value: int) -> None:
        value = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _MASK32
        pool[dst] = value ^ value >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        mix(dst, pool[src])
    for word, dst in product(words[4:], range(4)):
        mix(dst, word)
    const, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64)
    half = [hashmix(pool[i % 4]) for i in range(8)]
    w = [half[i] | half[i + 1] << 32 for i in (0, 2, 4, 6)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128  # pcg64_set_seed(w[:2], w[2:])
    state = ((inc + (w[0] << 64 | w[1])) * _PCG64_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        low, rot = (state >> 64 ^ state) & _MASK64, state >> 122  # XSL-RR output
        yield (((low >> rot | low << (64 - rot)) & _MASK64) >> 11) * 2.0**-53


class _Ripple:
    """Smooth deterministic perturbation field built from seeded sinusoids.

    Its 15 parameters equal numpy's default_rng(seed).uniform draws bit for
    bit, lo + (hi - lo) * u on _pcg64_doubles, so numpy.random is not needed.
    """

    def __init__(self, seed: int, amp: float):
        doubles = _pcg64_doubles(operator.index(seed))
        self.amp = amp
        self.kx, self.ky, self.px, self.py, w = (
            np.array([lo + (hi - lo) * next(doubles) for _ in range(_RIPPLE_WAVES)])
            for lo, hi in [(0.03, 0.10)] * 2 + [(0.0, 2.0 * np.pi)] * 2 + [(0.5, 1.0)]
        )
        self.w = w / np.sum(w)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x)
        for i in range(_RIPPLE_WAVES):
            acc += self.w[i] * np.sin(self.kx[i] * x + self.px[i]) * np.sin(
                self.ky[i] * y + self.py[i]
            )
        return self.amp * acc


def _plane_hits(
    prim: Plane, u: np.ndarray, v: np.ndarray, tx: float, ripple: _Ripple | None
) -> np.ndarray:
    # Ray through pixel: x(d) = u*d - tx, y(d) = v*d. Intersection with the
    # base plane is closed-form; the ripple term is folded in by fixed-point
    # iteration, which contracts for the gentle slopes used here. An extreme
    # value overflows to inf or nan, which _render_view then rejects.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = 1.0 - prim.a * u - prim.b * v
        base = prim.c - prim.a * tx
        d = np.where(denom > 1e-9, base / denom, np.inf)
        if ripple is not None and prim.ripple and ripple.amp != 0.0:
            for _ in range(_PLANE_SOLVE_ITERS):
                x = u * d - tx
                y = v * d
                d = np.where(
                    np.isfinite(d) & (denom > 1e-9), (base + ripple(x, y)) / denom, np.inf
                )
        return np.where(d > 0, d, np.inf)


def _ripple_bounds(prim: Plane, u: np.ndarray, v: np.ndarray, tx: float, amp: float) -> tuple:
    # |ripple| <= amp puts the hit in [lo, hi]; hi is inf where it may vanish.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = 1.0 - prim.a * u - prim.b * v
        base = prim.c - prim.a * tx
        lo = np.where(denom > 1e-9, (base - amp) / denom, np.inf)
        return lo, np.where((lo > 0) & (denom > 1e-9), (base + amp) / denom, np.inf)


def _box_hits(prim: Box, u: np.ndarray, v: np.ndarray, tx: float) -> np.ndarray:
    x = u * prim.depth - tx
    y = v * prim.depth
    inside = (x >= prim.x0) & (x <= prim.x1) & (y >= prim.y0) & (y <= prim.y1)
    return np.where(inside, float(prim.depth), np.inf)


def _render_view(
    spec: SceneSpec, cam: CameraParams, ripple: _Ripple | None
) -> tuple[np.ndarray, np.ndarray]:
    k, tx = cam.k, cam.t[0]
    cols = (np.arange(spec.width, dtype=np.float64) - k[0, 2]) / k[0, 0]
    rows = (np.arange(spec.height, dtype=np.float64) - k[1, 2]) / k[1, 1]
    u, v = np.broadcast_arrays(cols[np.newaxis, :], rows[:, np.newaxis])
    layers, rippled = [], []
    front = np.full(u.shape, np.inf)
    for i, prim in enumerate(spec.primitives):
        if isinstance(prim, Plane) and prim.ripple and ripple is not None and ripple.amp != 0.0:
            lo, hi = _ripple_bounds(prim, u, v, tx, abs(ripple.amp) * (1.0 + 1e-9))
            rippled.append(i)
        elif isinstance(prim, Plane):
            lo = hi = _plane_hits(prim, u, v, tx, ripple)
        else:
            lo = hi = _box_hits(prim, u, v, tx)
        layers.append(lo)
        np.minimum(front, hi, out=front)
    stack = np.stack(layers)
    del layers, lo, hi  # their memory goes to the solves
    # A rippled plane is solved where lo <= front, the least hi; elsewhere its
    # hit lies behind one that min and argmin pick, unless a bound broke.
    for i in rippled:
        need = ~(stack[i] > front)
        stack[i] = np.inf
        stack[i][need] = _plane_hits(spec.primitives[i], u[need], v[need], tx, ripple)
    broke = ~(np.min(stack, axis=0) <= front)  # by overflow or NaN
    for i in rippled:
        stack[i][broke] = _plane_hits(spec.primitives[i], u[broke], v[broke], tx, ripple)
    prim_id = np.argmin(stack, axis=0)
    depth = np.min(stack, axis=0)
    if not np.all(np.isfinite(depth)):
        n = int(np.count_nonzero(~np.isfinite(depth)))
        raise InvalidSceneError(f"{n} pixels not covered by any primitive")
    if np.any(depth <= 0) or np.any(depth > 255):
        raise InvalidSceneError("scene depths must stay inside (0, 255]")
    return depth, prim_id


def _visibility_mask(
    depth: np.ndarray,
    prim_id: np.ndarray,
    other_prim: np.ndarray,
    cam: CameraParams,
    other: CameraParams,
) -> np.ndarray:
    # A pixel is flagged visible when its projection into the other view
    # lands inside the image and a one-pixel guard band around the landing
    # column sees the same primitive there. Clipped to [-2, w], every band
    # that leaves the image still does, and the cast stays inside int64.
    h, w = depth.shape
    cols = np.arange(w, dtype=np.float64)[np.newaxis, :]
    # An extreme baseline overflows to +-inf or NaN, which the clip below
    # and the caller's empty-mask check handle.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        other_col = cols + cam.k[0, 0] * (other.t[0] - cam.t[0]) / depth
    base = np.floor(np.clip(other_col, -2, w, out=other_col)).astype(np.int64)
    mask = np.ones(depth.shape, dtype=bool)
    for off in (-1, 0, 1, 2):
        n = base + off
        inb = (n >= 0) & (n < w)
        mask &= inb
        n_safe = np.clip(n, 0, w - 1)
        same = other_prim[np.arange(h)[:, np.newaxis], n_safe] == prim_id
        mask &= same
    return mask


def generate_scene(spec: SceneSpec) -> GeneratedScene:
    """Render both views, cameras, and visibility masks for a scene spec.

    The two maps are geometrically consistent: warping the left truth with
    the true cameras reproduces the right truth on masked pixels (up to
    interpolation error on curved surfaces). A field of the wrong type or
    value, a primitive's included, raises InvalidSceneError before anything
    is rendered.
    """
    require_kind(spec, SceneSpec, "spec", InvalidSceneError)
    # The seed may be any integer >= 0: it seeds the ripple's PCG64 whole.
    for name, least in (("width", 1), ("height", 1), ("seed", 0)):
        require_number(getattr(spec, name), name, InvalidSceneError,
                       integer=True, least=least, finite=name != "seed")
    for name in ("noise_amp", "focal", "baseline", "cx", "cy"):
        if getattr(spec, name) is not None or name not in ("cx", "cy"):  # None: the centre
            require_number(getattr(spec, name), name, InvalidSceneError)
    prims = spec.primitives
    if type(prims) not in (list, tuple) or not prims:
        raise InvalidSceneError(f"primitives must be a non-empty list, got {shown(prims)}")
    for i, prim in enumerate(prims):
        if type(prim) not in _FIELDS:
            raise InvalidSceneError(f"primitives[{i}] must be a Plane or a Box, got {shown(prim)}")
        for name in _FIELDS[type(prim)]:
            require_number(getattr(prim, name), f"primitives[{i}].{name}", InvalidSceneError)
        if type(prim) is Plane and type(prim.ripple) not in (bool, np.bool_):
            ripple = shown(prim.ripple)
            raise InvalidSceneError(f"primitives[{i}].ripple must be a bool, got {ripple}")
    # First, so that a focal length that is not positive fails before rendering.
    cameras = stereo_pair((spec.height, spec.width), spec.focal, spec.baseline, spec.cx, spec.cy)
    cams = (cameras.left, cameras.right)
    ripple = _Ripple(spec.seed, spec.noise_amp) if spec.noise_amp else None
    (left, prim_l), (right, prim_r) = in_processes(
        lambda i: _render_view(spec, cams[i], ripple), 2, "scene render process"
    )
    mask_l = _visibility_mask(left, prim_l, prim_r, cameras.left, cameras.right)
    mask_r = _visibility_mask(right, prim_r, prim_l, cameras.right, cameras.left)
    for view, mask in (("left", mask_l), ("right", mask_r)):
        if not mask.any():
            raise InvalidSceneError(
                f"the {view} view sees no pixel cleanly in the other view; "
                "is the camera far off the scene?"
            )
    return GeneratedScene(left, right, mask_l, mask_r, cameras)


def demo_scene(width: int = 256, height: int = 256, seed: int = 7) -> SceneSpec:
    """The bundled test scene: two crossing slanted planes plus a box.

    The box depth gives a whole-column disparity and its image-space edges
    fall on 8-pixel block boundaries in both views, so the coding grid
    never straddles the depth discontinuity.
    """
    return SceneSpec(
        width=width,
        height=height,
        primitives=[
            Plane(a=0.12, b=-0.06, c=185.0),
            Plane(a=-0.45, b=0.03, c=150.0),
            Box(x0=-12.0, x1=48.0, y0=-44.0, y1=28.0, depth=60.0),
        ],
        focal=120.0,
        baseline=12.0,
        seed=seed,
        noise_amp=1.5,
    )
