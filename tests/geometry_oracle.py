"""Scalar reference versions of the camera model, used as test oracles.

back_project lifts one pixel with a known depth value to its world point by
solving the 3x3 linear system in (x, y, s) obtained from
K^-1 @ (col, row, 1) * s = R @ p + t; project maps a world point back into a
view. depthpocs.geometry.projective_scale_grid, the vectorized closed form
the warp runs, must agree with the scale s of this solve. cramer_scale_grid
solves the same system for every pixel at once by Cramer's rule; with R = I
it and the closed form agree bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from depthpocs.errors import InvalidInputError


class NoSolutionError(ArithmeticError):
    """Back-projection has no valid solution for the requested pixel."""


class BehindCameraError(ArithmeticError):
    """A world point projects behind the camera plane."""


class WorldPoint(NamedTuple):
    x: float
    y: float
    d: float


def _normalized_ray(row: float, col: float, cam) -> np.ndarray:
    """K^-1 @ (col, row, 1) by back substitution; third component is exactly 1."""
    k = cam.k
    my = (row - k[1, 2]) / k[1, 1]
    mx = (col - k[0, 1] * my - k[0, 2]) / k[0, 0]
    return np.array([mx, my, 1.0])


def solve_pixel(row: float, col: float, depth: float, cam) -> tuple[float, float, float]:
    """(x, y, s) of a pixel with a known depth value; s is the axial distance."""
    if not np.isfinite(depth) or depth <= 0:
        raise InvalidInputError(f"depth must be positive and finite, got {depth}")
    m = _normalized_ray(row, col, cam)
    r = cam.r
    t = cam.t
    mat = np.array(
        [
            [r[0, 0], r[0, 1], -m[0]],
            [r[1, 0], r[1, 1], -m[1]],
            [r[2, 0], r[2, 1], -m[2]],
        ]
    )
    rhs = -(r[:, 2] * depth + t)
    try:
        x, y, s = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoSolutionError(f"pixel ({row}, {col}) is degenerate for this camera") from exc
    if not np.isfinite(s) or s <= 0:
        raise NoSolutionError(
            f"pixel ({row}, {col}) at depth {depth} has non-positive projective scale"
        )
    return float(x), float(y), float(s)


def back_project(row: float, col: float, depth: float, cam) -> WorldPoint:
    """Lift a pixel with a known depth value to its world point (x, y, depth)."""
    x, y, _ = solve_pixel(row, col, depth, cam)
    return WorldPoint(x, y, float(depth))


def project(point: WorldPoint, cam) -> tuple[float, float, float]:
    """Project a world point into a view; returns (row, col, depth).

    Row and column are real-valued (sub-pixel); the depth value passes
    through unchanged because it is the third world coordinate.
    """
    p = np.array([point.x, point.y, point.d], dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("world point must be finite")
    h = cam.k @ (cam.r @ p + cam.t)
    if h[2] <= 0:
        raise BehindCameraError(f"point {tuple(p)} projects behind the camera")
    return float(h[1] / h[2]), float(h[0] / h[2]), float(point.d)


def cramer_scale_grid(cam, depth: np.ndarray, row0: int = 0) -> np.ndarray:
    """Scale s of every pixel by Cramer's rule on the 3x3 system, one expression per term."""
    h, w = depth.shape
    k = cam.k
    r = cam.r
    t = cam.t
    rows = np.arange(row0, row0 + h, dtype=np.float64).reshape(-1, 1)
    cols = np.arange(w, dtype=np.float64).reshape(1, -1)
    my = (rows - k[1, 2]) / k[1, 1]
    mx = (cols - k[0, 1] * my - k[0, 2]) / k[0, 0]

    minor = r[1, 0] * r[2, 1] - r[1, 1] * r[2, 0]
    det = (
        r[0, 0] * (-r[1, 1] + my * r[2, 1])
        - r[0, 1] * (-r[1, 0] + my * r[2, 0])
        - mx * minor
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        b0 = -(r[0, 2] * depth + t[0])
        b1 = -(r[1, 2] * depth + t[1])
        b2 = -(r[2, 2] * depth + t[2])
        det_s = (
            r[0, 0] * (r[1, 1] * b2 - b1 * r[2, 1])
            - r[0, 1] * (r[1, 0] * b2 - b1 * r[2, 0])
            + b0 * minor
        )
        s = det_s / det
    return np.where(depth > 0, s, np.nan)
