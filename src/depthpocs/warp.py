"""Cross-view warping of depth maps for rectified pairs.

forward_warp lifts every source pixel to 3D and drops it into the target
view. Rectification keeps each sample on its source row, so the samples
come back as flat arrays in row-major source order: target row, real-valued
target column, depth and source column. _interpolate_grid then rebuilds
the target grid from two neighbors per pixel, one picked from each side,
and bilateral_filter cleans up the result.

For a rectified pair the composition of back-projection and re-projection
collapses to a pure column shift of fx * baseline / s per pixel, where s
is the distance along the shared camera axis. Using that closed form
keeps the identity warp (equal cameras) exact down to the bit.

Every stage is row-local: a sample stays on its source row, interpolation
reads only that row, and the filter reads radius rows on either side. So
project_view(rows=(a, b)) computes output rows [a, b) of a stripe of the
map from source and target rows [a - radius, b + radius) alone, clipped
to the map; windows are still truncated at the map's borders only. The
rows come out bit for bit as in the whole projection.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import as_map, require_same_shape
from .errors import InvalidParameterError
from .geometry import CameraParams, projective_scale_grid, require_rectified

# Output rows the bilateral filter finishes at a time (see bilateral_filter).
# On a 501-column map, 16 and 32 rows ran fastest; 8 rows, 64 rows and the
# whole map were slower.
_BAND_ROWS = 32


def forward_warp(
    src, src_cam: CameraParams, dst_cam: CameraParams, row0: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Warp every positive-depth source pixel into the target view.

    Returns flat arrays (rows, cols, depths, src_cols), one entry per kept
    sample in row-major source order: target row (equal to the source row),
    real-valued target column, depth and source column. Samples whose
    target column falls outside [-1, width] cannot influence any grid
    pixel and are dropped, as are pixels that end up behind the camera.
    src may be the rows row0, row0 + 1, ... of a larger map; the returned
    rows then count from row0.
    """
    require_rectified(src_cam, dst_cam)
    m = as_map(src, "source map")
    w = m.shape[1]
    scale = projective_scale_grid(src_cam, m, row0)
    shift = src_cam.k[0, 0] * (dst_cam.t[0] - src_cam.t[0])
    cols = np.arange(w, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        dst_cols = cols[np.newaxis, :] + shift / scale
        # Landing columns are kept in 1/256-pixel fixed point. Surfaces whose
        # disparity is a whole number of columns must land exactly on grid
        # columns; tiny depth perturbations (filter tails, transform
        # round-off) would otherwise flip their interval membership at depth
        # edges and the interpolation would pick across the edge.
        dst_cols = np.round(dst_cols * 256.0) / 256.0
    valid = (
        (m > 0)
        & np.isfinite(scale)
        & (scale > 0)
        & (dst_cols >= -1.0)
        & (dst_cols <= float(w))
    )
    rows, src_cols = np.nonzero(valid)
    return rows, dst_cols[valid], m[valid], src_cols


def _pick_side(tgt, cols, depths, src_cols, flat_current, tau):
    """Each target pixel's pick among the samples that serve it from one side.

    Preference is lexicographic: the depth lies within tau of the current
    target value, then smallest depth, then smallest source column. A
    pixel served by exactly one sample takes it directly; only the groups
    of two or more are sorted. Returns the picked depth and column per
    pixel, NaN where no sample serves it.
    """
    n = flat_current.size
    pick_d = np.full(n, np.nan)
    pick_c = np.full(n, np.nan)
    single = np.bincount(tgt, minlength=n)[tgt] == 1
    ts = tgt[single]
    pick_d[ts] = depths[single]
    pick_c[ts] = cols[single]
    multi = np.flatnonzero(~single)
    tm = tgt[multi]
    dm = depths[multi]
    fails = np.abs(dm - flat_current[tm]) > tau
    order = np.lexsort((src_cols[multi], dm, fails, tm))
    tm = tm[order]
    first = np.ones(len(tm), dtype=bool)
    first[1:] = tm[1:] != tm[:-1]
    won = multi[order[first]]
    pick_d[tm[first]] = depths[won]
    pick_c[tm[first]] = cols[won]
    return pick_d, pick_c


def _interpolate_grid(samples, current: np.ndarray, tau: float) -> np.ndarray:
    """Edge-adaptive depth at every integer target pixel.

    samples are forward_warp's flat arrays. Pixel c picks one sample from
    (c-1, c] and one from [c, c+1) (see _pick_side). The two picks are
    blended linearly by horizontal distance; with a single pick its depth
    is returned, and with none the current value is kept. Each sample can
    serve exactly one pixel from the left (target ceil(col)) and one from
    the right (target floor(col)).
    """
    rows, cols, depths, src_cols = samples
    h, w = current.shape
    flat_current = current.ravel()
    picked = []
    for targets in (np.ceil(cols), np.floor(cols)):
        ok = (targets >= 0) & (targets < w)
        tgt = rows[ok] * w + targets[ok].astype(np.int64)
        picked.append(
            _pick_side(tgt, cols[ok], depths[ok], src_cols[ok], flat_current, tau)
        )
    (p1d, p1c), (p2d, p2c) = picked
    cgrid = np.tile(np.arange(w, dtype=np.float64), h)
    have1 = ~np.isnan(p1d)
    have2 = ~np.isnan(p2d)
    t1 = cgrid - p1c
    t2 = p2c - cgrid
    with np.errstate(invalid="ignore", divide="ignore"):
        blend = np.where(
            t1 == 0.0, p1d, np.where(t2 == 0.0, p2d, (p1d * t2 + p2d * t1) / (t1 + t2))
        )
    out = np.where(
        have1 & have2, blend, np.where(have1, p1d, np.where(have2, p2d, flat_current))
    )
    return out.reshape(h, w)


def bilateral_filter(
    map_, sigma_s: float, sigma_r: float, radius: int, rows: tuple[int, int] | None = None
) -> np.ndarray:
    """Edge-preserving smoothing with Gaussian spatial and range kernels.

    Windows are truncated at the borders and weights renormalized per
    pixel, so every output sample is a convex combination of input samples
    in its window. radius 0 is the documented off switch and returns a
    copy of the input. rows=(a, b) returns output rows [a, b) only, each
    exactly as the whole filtered map has it.

    Offsets o and -o give a pixel pair the same weight, and weighted
    deviations that are exact negatives of each other. The output is made
    in bands of rows: for each offset before the center, weights and
    weighted deviations are computed once over the band plus |dy| rows
    below it, and the mirror offset reuses them at the shifted pixels.
    Every pixel still sums its terms in window order, so the result is the
    same, bit for bit, as evaluating each offset on its own.
    """
    m = as_map(map_)
    radius = int(radius)
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    h, w = m.shape
    a, b = (0, h) if rows is None else rows
    if radius == 0:
        return m[a:b].copy()
    if sigma_s <= 0 or sigma_r <= 0:
        raise InvalidParameterError(
            f"sigmas must be positive, got sigma_s={sigma_s} sigma_r={sigma_r}"
        )
    inv2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv2sr = 1.0 / (2.0 * sigma_r * sigma_r)
    # Offsets before the center in window order; (-dy, -dx) follow it in
    # reverse order.
    firsts = [
        (dy, dx)
        for dy in range(-radius, 1)
        for dx in range(-radius, radius + 1)
        if dy < 0 or dx < 0
    ]
    # The center offset has zero deviation and weight exp(0) = 1, or NaN
    # when a sigma is so small that its inverse overflows. Its weighted
    # deviation is +0.0, which leaves num unchanged.
    w_center = math.exp(-0 * inv2ss) * np.exp(-(0.0 * 0.0) * inv2sr)
    band = max(1, min(b - a, _BAND_ROWS))
    # One preallocated buffer holds a band's stored terms, each as a
    # contiguous array.
    store = np.empty((len(firsts), 2, (band + radius) * w))
    num = np.empty(band * w)
    den = np.empty(band * w)
    out = np.empty((b - a, w))
    # Accumulating weighted deviations from the center (instead of weighted
    # values) keeps flat regions exactly unchanged in floating point.
    for b0 in range(a, b, band):
        b1 = min(b, b0 + band)
        bn = (b1 - b0) * w
        num_b = num[:bn].reshape(b1 - b0, w)
        den_b = den[:bn].reshape(b1 - b0, w)
        num_b.fill(0.0)
        den_b.fill(0.0)
        shared = []
        for k, (dy, dx) in enumerate(firsts):
            # Pixels p whose neighbor p + (dy, dx) is inside the map, on the
            # band's rows and on the |dy| rows the mirror offset reads.
            y0, y1 = max(b0, -dy), min(h, b1 - dy)
            x0, x1 = max(0, -dx), min(w, w - dx)
            if y0 >= y1 or x0 >= x1:
                continue
            size = (y1 - y0) * (x1 - x0)
            wgt = store[k, 0, :size].reshape(y1 - y0, x1 - x0)
            term = store[k, 1, :size].reshape(y1 - y0, x1 - x0)
            np.subtract(m[y0 + dy : y1 + dy, x0 + dx : x1 + dx], m[y0:y1, x0:x1], out=term)
            np.multiply(term, term, out=wgt)
            wgt *= -inv2sr
            np.exp(wgt, out=wgt)
            wgt *= math.exp(-(dy * dy + dx * dx) * inv2ss)
            term *= wgt
            own = min(y1, b1) - y0
            if own > 0:
                num_b[y0 - b0 : y0 - b0 + own, x0:x1] += term[:own]
                den_b[y0 - b0 : y0 - b0 + own, x0:x1] += wgt[:own]
            shared.append((dy, dx, y0, y1, x0, x1, wgt, term))
        den_b += w_center
        for dy, dx, y0, y1, x0, x1, wgt, term in reversed(shared):
            # Mirror offset (-dy, -dx) at pixel q = p + (dy, dx): weight
            # wgt[p], weighted deviation -term[p].
            p0, p1 = max(y0, b0 - dy), min(y1, b1 - dy)
            if p0 >= p1:
                continue
            q = (slice(p0 + dy - b0, p1 + dy - b0), slice(x0 + dx, x1 + dx))
            num_b[q] -= term[p0 - y0 : p1 - y0]
            den_b[q] += wgt[p0 - y0 : p1 - y0]
        np.divide(num_b, den_b, out=num_b)
        np.add(m[b0:b1], num_b, out=out[b0 - a : b1 - a])
    return out


def project_view(
    src,
    src_cam: CameraParams,
    dst_cam: CameraParams,
    dst_current,
    *,
    tau: float = 8.0,
    sigma_s: float = 2.0,
    sigma_r: float = 10.0,
    radius: int = 3,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Full view-to-view projection: warp, interpolate, bilateral filter.

    Target pixels that receive no candidates keep their dst_current value
    (before filtering). Deterministic for fixed inputs. rows=(a, b)
    returns output rows [a, b) only, computed from the source and target
    rows within radius of them.
    """
    s = as_map(src, "source map")
    cur = as_map(dst_current, "target map")
    require_same_shape(s, cur, "project_view")
    h = s.shape[0]
    a, b = (0, h) if rows is None else rows
    halo = max(0, int(radius))
    s0, s1 = max(0, a - halo), min(h, b + halo)
    interp = _interpolate_grid(forward_warp(s[s0:s1], src_cam, dst_cam, s0), cur[s0:s1], tau)
    return bilateral_filter(interp, sigma_s, sigma_r, radius, (a - s0, b - s0))
