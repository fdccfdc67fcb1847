"""Pinhole camera model shared by both views.

A pixel at (row, col) carrying depth value d corresponds to the world
point (x, y, d) whose homogeneous image vector (col, row, 1) is a positive
scalar multiple of K @ E @ (x, y, d, 1). The depth sample doubles as the
third world coordinate, which is what lets a rectified pair pass depth
values between views unchanged.

projective_scale_grid gives every pixel its distance s along the camera
axis in closed form: the third world coordinate of the pixel's ray, set
equal to the depth, fixes s (Hartley and Zisserman, Multiple View
Geometry, 2nd ed., section 6.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import as_map
from .errors import InvalidConfigurationError

_ORTHO_TOL = 1e-9
# Largest difference in K, R, or the y and z of t, between two rectified views.
_RECTIFIED_TOL = 1e-9


@dataclass
class CameraParams:
    """Intrinsics k (3x3) and extrinsics e = [R | t] (3x4) of one view."""

    k: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        self.k = as_map(self.k, "K", (3, 3), InvalidConfigurationError)
        self.e = as_map(self.e, "E", (3, 4), InvalidConfigurationError)
        if np.any(np.tril(self.k, -1)):
            raise InvalidConfigurationError("K must be upper triangular")
        if self.k[0, 0] <= 0 or self.k[1, 1] <= 0 or self.k[2, 2] != 1:
            raise InvalidConfigurationError(
                "K needs positive focal lengths and K[2][2] == 1"
            )
        r = self.e[:, :3]
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
            raise InvalidConfigurationError("rotation part of E is not orthonormal")

    @property
    def r(self) -> np.ndarray:
        return self.e[:, :3]

    @property
    def t(self) -> np.ndarray:
        return self.e[:, 3]


def simple_camera(focal: float, cx: float, cy: float, tx: float = 0.0) -> CameraParams:
    """Axis-aligned camera: square pixels, R = I, translation along x."""
    k = np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])
    e = np.hstack([np.eye(3), np.array([[tx], [0.0], [0.0]])])
    return CameraParams(k, e)


def require_rectified(a: CameraParams, b: CameraParams) -> None:
    """Raise unless the two views share K and R and differ only in x-translation."""
    dt = np.abs(a.t - b.t)
    if max(np.max(np.abs(a.k - b.k)), np.max(np.abs(a.r - b.r)), dt[1], dt[2]) > _RECTIFIED_TOL:
        raise InvalidConfigurationError(
            "cameras are not a rectified pair (need shared K and R, baseline along x)"
        )


@dataclass
class RectifiedPair:
    """Two views with identical K and R and a baseline along the image x-axis."""

    left: CameraParams
    right: CameraParams

    def __post_init__(self):
        require_rectified(self.left, self.right)


def stereo_pair(
    shape: tuple[int, int], focal: float, baseline: float,
    cx: float | None = None, cy: float | None = None,
) -> RectifiedPair:
    """The simple rig for maps of shape (height, width): two simple_camera
    views, the right one `baseline` along x. A cx or cy not given is the
    image centre."""
    height, width = shape
    cx = (width - 1) / 2.0 if cx is None else cx
    cy = (height - 1) / 2.0 if cy is None else cy
    return RectifiedPair(simple_camera(focal, cx, cy), simple_camera(focal, cx, cy, baseline))


def projective_scale_grid(cam: CameraParams, depth: np.ndarray, row0: int = 0) -> np.ndarray:
    """Per-pixel distance s along the camera axis for a depth map.

    A pixel's camera point is s * m with m = K^-1 @ (col, row, 1), and its
    world point is R^T @ (s * m - t), whose third coordinate is the depth d;
    so s = (d + r3 . t) / (r3 . m) with r3 = R[:, 2], for proper and
    mirrored rotations alike. With R = I this is d + t_z. Pixels with
    non-positive depth get NaN. depth may be rows row0, row0 + 1, ... of a
    larger map; each pixel's value depends only on its own row, column and
    depth.
    """
    h, w = depth.shape
    k = cam.k
    r3 = cam.r[:, 2]
    rows = np.arange(row0, row0 + h, dtype=np.float64).reshape(-1, 1)
    cols = np.arange(w, dtype=np.float64).reshape(1, -1)
    my = (rows - k[1, 2]) / k[1, 1]
    mx = (cols - k[0, 1] * my - k[0, 2]) / k[0, 0]
    # The (h, 1) terms first: one full-size pass fewer.
    axial = r3[0] * mx + (r3[1] * my + r3[2])
    s = np.empty((h, w))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.add(depth, r3 @ cam.t, out=s)
        np.divide(s, axial, out=s)
    np.copyto(s, np.nan, where=np.less_equal(depth, 0.0))
    return s
