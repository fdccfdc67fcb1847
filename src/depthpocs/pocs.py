"""Alternating-projection refinement driver.

One half-iteration projects the current map of one view onto the other
view's grid (warp, interpolate, bilateral filter) and then forces every
8x8 block of the result back inside that view's quantization bins by
clipping its transform coefficients. Half-iterations alternate between
the two views until the mean absolute per-sample change drops below a
threshold or the iteration budget runs out.

The updated view always ends a half-iteration feasible: re-transforming
any of its blocks yields coefficients inside the bins the decoder knows.
The source view is read-only during its half-iteration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._common import as_map, require_same_shape
from .codec import (
    QuantizedDescription,
    bin_bounds,
    clip_to_bins,
    dct_blocks,
    decode_map,
    idct_blocks,
    merge_blocks,
    pad_to_blocks,
    split_blocks,
)
from .errors import InvalidInputError, InvalidParameterError, NumericalError
from .geometry import CameraParams, require_rectified
from .metrics import psnr
from .warp import project_view


@dataclass
class RefineOptions:
    """Stopping rule plus warp and filter parameters for refine()."""

    max_iters: int = 10
    eps: float = 0.01
    tau: float = 8.0
    sigma_s: float = 2.0
    sigma_r: float = 10.0
    radius: int = 3
    start: str = "left"
    keep_best: bool = False
    round_metrics: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.eps < 0:
            raise InvalidParameterError(f"eps must be >= 0, got {self.eps}")
        if self.start not in ("left", "right"):
            raise InvalidParameterError(f"start must be 'left' or 'right', got {self.start!r}")
        if isinstance(self.radius, bool) or not isinstance(self.radius, numbers.Integral):
            raise InvalidParameterError(f"radius must be an integer, got {self.radius!r}")
        if self.radius < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {self.radius}")
        if not (self.sigma_s > 0 and self.sigma_r > 0):
            raise InvalidParameterError(
                f"sigmas must be positive, got sigma_s={self.sigma_s} sigma_r={self.sigma_r}"
            )
        if not (0 <= self.tau < math.inf):
            raise InvalidParameterError(f"tau must be finite and >= 0, got {self.tau}")


class HalfIterationStats(NamedTuple):
    mean_change: float
    clip_fraction: float


@dataclass
class ReportEntry:
    """Record of one half-iteration; PSNRs are present when truth is known."""

    iteration: int
    view: str
    mean_change: float
    clip_fraction: float
    psnr_left: float | None = None
    psnr_right: float | None = None
    g: float | None = None


@dataclass
class IterationReport:
    entries: list[ReportEntry] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    best_g: float | None = None
    best_index: int | None = None
    best_left: np.ndarray | None = None
    best_right: np.ndarray | None = None


def half_iteration(
    src,
    src_cam: CameraParams,
    dst_cam: CameraParams,
    dst_desc: QuantizedDescription,
    dst_current,
    options: RefineOptions,
) -> tuple[np.ndarray, HalfIterationStats]:
    """Warp src onto the destination view and clip it into dst's bins.

    Returns the updated destination map (cropped to original dimensions)
    and the mean absolute change against dst_current together with the
    fraction of coefficients that had to be clipped.
    """
    s = as_map(src, "source map")
    cur = as_map(dst_current, "target map")
    require_same_shape(s, cur, "half_iteration")
    if cur.shape != (dst_desc.orig_height, dst_desc.orig_width):
        raise InvalidInputError(
            f"map shape {cur.shape} does not match description "
            f"({dst_desc.orig_height}, {dst_desc.orig_width})"
        )
    warped = project_view(
        s,
        src_cam,
        dst_cam,
        cur,
        tau=options.tau,
        sigma_s=options.sigma_s,
        sigma_r=options.sigma_r,
        radius=options.radius,
    )
    padded = pad_to_blocks(warped)
    coeffs = dct_blocks(split_blocks(padded))
    bounds = bin_bounds(dst_desc.indices, dst_desc.table)
    n_out = int(np.count_nonzero((coeffs < bounds.lo) | (coeffs > bounds.hi)))
    clipped = clip_to_bins(coeffs, bounds)
    rebuilt = merge_blocks(idct_blocks(clipped), dst_desc.height, dst_desc.width)
    out = rebuilt[: dst_desc.orig_height, : dst_desc.orig_width]
    stats = HalfIterationStats(
        mean_change=float(np.mean(np.abs(out - cur))),
        clip_fraction=n_out / coeffs.size,
    )
    return out, stats


def _sanity_bound(maps, limit_lo: float, limit_hi: float, where: str) -> None:
    for m in maps:
        lo = float(np.min(m))
        hi = float(np.max(m))
        if lo < limit_lo or hi > limit_hi:
            raise NumericalError(
                f"{where}: map range [{lo:.3f}, {hi:.3f}] escaped "
                f"[{limit_lo:.1f}, {limit_hi:.1f}]"
            )


def refine(
    left_desc: QuantizedDescription,
    right_desc: QuantizedDescription,
    left_cam: CameraParams,
    right_cam: CameraParams,
    options: RefineOptions | None = None,
    ground_truth: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, IterationReport]:
    """Alternate cross-view projection and bin clipping until convergence.

    Both views start from the centroid decode. Each iteration updates the
    second view from the first, then the first from the second; it stops
    once both half-iteration changes are <= options.eps or after
    options.max_iters iterations. Returned maps are clamped to [0, 255].

    ground_truth, when given as (left, right), enables the PSNR trace in
    the report and, with options.keep_best, retains the best iterate seen
    (the converged point is not necessarily the best one).
    """
    opts = options if options is not None else RefineOptions()
    require_rectified(left_cam, right_cam)
    left = decode_map(left_desc)
    right = decode_map(right_desc)
    require_same_shape(left, right, "decoded views")

    truth_l = truth_r = None
    if ground_truth is not None:
        truth_l = as_map(ground_truth[0], "left truth")
        truth_r = as_map(ground_truth[1], "right truth")
        require_same_shape(truth_l, left, "left truth")
        require_same_shape(truth_r, right, "right truth")

    delta_max = float(max(np.max(left_desc.table), np.max(right_desc.table)))
    limit_lo = -4.0 * delta_max
    limit_hi = 255.0 + 4.0 * delta_max

    report = IterationReport()
    order = ("right", "left") if opts.start == "left" else ("left", "right")

    for it in range(1, opts.max_iters + 1):
        changes = []
        for view in order:
            if view == "right":
                right, stats = half_iteration(
                    left, left_cam, right_cam, right_desc, right, opts
                )
            else:
                left, stats = half_iteration(
                    right, right_cam, left_cam, left_desc, left, opts
                )
            _sanity_bound((left, right), limit_lo, limit_hi, f"iteration {it} ({view})")
            entry = ReportEntry(it, view, stats.mean_change, stats.clip_fraction)
            if truth_l is not None:
                entry.psnr_left = psnr(left, truth_l, round_to_int=opts.round_metrics)
                entry.psnr_right = psnr(right, truth_r, round_to_int=opts.round_metrics)
                entry.g = (entry.psnr_left + entry.psnr_right) / 2.0
                if opts.keep_best and (report.best_g is None or entry.g > report.best_g):
                    report.best_g = entry.g
                    report.best_index = len(report.entries) + 1
                    report.best_left = np.clip(left, 0.0, 255.0)
                    report.best_right = np.clip(right, 0.0, 255.0)
            report.entries.append(entry)
            changes.append(stats.mean_change)
        report.iterations = it
        if max(changes) <= opts.eps:
            report.converged = True
            break

    return np.clip(left, 0.0, 255.0), np.clip(right, 0.0, 255.0), report

