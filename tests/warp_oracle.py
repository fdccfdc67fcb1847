"""Scalar reference versions of the warp stages, used as test oracles.

interpolate_at evaluates the edge-adaptive interpolation one pixel at a
time from a per-row candidate list; bilateral_reference is the bilateral
filter evaluated one window offset at a time over the whole map. The
vectorized production paths in depthpocs.warp must agree with them bit
for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class ProjectedSample(NamedTuple):
    """One source pixel landed in the target view (row is preserved)."""

    row: int
    col: float
    depth: float
    src_row: int
    src_col: int


class RowSamples(NamedTuple):
    """All samples landing on one target row, as parallel arrays."""

    cols: np.ndarray
    depths: np.ndarray
    src_cols: np.ndarray

    def samples(self, row: int) -> list[ProjectedSample]:
        return [
            ProjectedSample(row, float(c), float(d), row, int(sc))
            for c, d, sc in zip(self.cols, self.depths, self.src_cols)
        ]


def row_buckets(cols: np.ndarray, src: np.ndarray) -> list[RowSamples]:
    """Per-row samples from forward_warp's landing columns and the source map.

    Row r's samples are its source pixels in column order. A sample that
    serves no pixel keeps its column, which lies outside (-1, width + 1).
    """
    return [RowSamples(c, d, np.arange(len(c))) for c, d in zip(cols, src)]


def _selection_key(depth: float, src_col: int):
    # Smallest depth first, then smallest source column for determinism.
    return (depth, src_col)


def interpolate_at(
    row: int,
    col: int,
    candidates: Sequence[ProjectedSample],
    current: float,
    tau: float,
) -> float:
    """Edge-adaptive depth at one integer target pixel.

    A sample whose depth is more than tau from the current target depth
    is no candidate. One candidate is picked from (col-1, col] and one
    from [col, col+1): the minimum depth wins. The two picks are blended
    linearly by horizontal distance; with a single pick its depth is
    returned, and with none the current value is kept.
    """
    c = float(col)
    p1 = None
    p2 = None
    k1 = None
    k2 = None
    for cand in candidates:
        if abs(cand.depth - current) > tau:
            continue
        x = cand.col
        if c - 1.0 < x <= c:
            key = _selection_key(cand.depth, cand.src_col)
            if k1 is None or key < k1:
                k1, p1 = key, cand
        if c <= x < c + 1.0:
            key = _selection_key(cand.depth, cand.src_col)
            if k2 is None or key < k2:
                k2, p2 = key, cand
    if p1 is not None and p2 is not None:
        t1 = c - p1.col
        t2 = p2.col - c
        if t1 == 0.0:
            return p1.depth
        if t2 == 0.0:
            return p2.depth
        return (p1.depth * t2 + p2.depth * t1) / (t1 + t2)
    if p1 is not None:
        return p1.depth
    if p2 is not None:
        return p2.depth
    return current


def interpolate_reference(cols, src, current: np.ndarray, tau: float) -> np.ndarray:
    """interpolate_at at every pixel of the target grid."""
    h, w = current.shape
    out = np.empty_like(current)
    for r, bucket in enumerate(row_buckets(cols, src)):
        cands = bucket.samples(r)
        for c in range(w):
            out[r, c] = interpolate_at(r, c, cands, current[r, c], tau)
    return out


def bilateral_reference(m: np.ndarray, sigma_s: float, sigma_r: float, radius: int) -> np.ndarray:
    """The bilateral filter one window offset at a time, in pair order.

    Pair order is the center (0, 0) first, then each offset before the
    center in window order, each followed at once by its mirror. Every
    pixel sums its terms in that order, as depthpocs.warp.bilateral_filter
    does, so the two agree bit for bit. The terms and sums are float32,
    from the map clipped to +-1e18. The spatial exponent's magnitude is
    capped at 80, and the range exponent is floored at that cap minus 80.
    Only the final m + num / den is float64.
    """
    h, w = m.shape
    f = np.clip(m, -1e18, 1e18).astype(np.float32)
    # Accumulating weighted deviations from the center (instead of weighted
    # values) keeps flat regions exactly unchanged in floating point.
    num = np.zeros_like(f)
    den = np.zeros_like(f)
    inv2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    scale = np.float32(-min(1.0 / (2.0 * sigma_r * sigma_r), 1e30))
    window = [(dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)]
    firsts = window[: len(window) // 2]  # the offsets before the center
    offsets = [(0, 0)] + [o for dy, dx in firsts for o in ((dy, dx), (-dy, -dx))]
    with np.errstate(over="ignore"):
        for dy, dx in offsets:
            spatial_exp = min((dy * dy + dx * dx) * inv2ss, 80.0)
            ws = np.float32(math.exp(-spatial_exp))
            y0, y1 = max(0, -dy), min(h, h - dy)
            x0, x1 = max(0, -dx), min(w, w - dx)
            if y0 >= y1 or x0 >= x1:
                continue
            center = f[y0:y1, x0:x1]
            neigh = f[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
            diff = neigh - center
            wgt = np.exp(np.maximum(diff * diff * scale, np.float32(spatial_exp - 80.0))) * ws
            num[y0:y1, x0:x1] += wgt * diff
            den[y0:y1, x0:x1] += wgt
    return m + num / den
