"""Cross-view warping of depth maps for rectified pairs.

forward_warp lifts every source pixel to 3D and drops it into the target
view. Rectification keeps each sample on its source row, so the warp
returns just a grid of landing columns; the source map holds the depths.
_interpolate_grid then rebuilds the target grid from two neighbors per
pixel, one picked from each side, and bilateral_filter cleans up the result.

bilateral_filter runs each window offset on contiguous slices of a flat
float32 copy of the rows it reads, each padded with radius zero columns on
either side, and adds each pair's term to both of its pixels at once. A
pair with a pad pixel weighs exactly +0, which changes no bit. Its terms
and sums are float32; the warp, the interpolation and the final sum with
the map are float64.

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

The stages check nothing. Their maps are finite 2D float64 arrays, source
and target of one shape, the cameras a rectified pair, and tau, the sigmas
and the radius values that RefineOptions accepts: pocs.half_iteration and
pocs.refine check the maps and cameras, RefineOptions the parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CameraParams, projective_scale_grid

# Padded pixels the bilateral filter finishes at a time (see
# bilateral_filter), in whole rows. A band's float32 buffers take 16 bytes
# per padded pixel whatever the radius, about 0.5 MiB: within a core's L2
# cache. On a 373x501 map at radius 3, 8,192 pixels took 1.4 times as long,
# and 65,536 saved up to 12% more for twice the memory (2 vCPUs).
_BAND_PIXELS = 32768


def forward_warp(src, src_cam: CameraParams, dst_cam: CameraParams, row0: int = 0) -> np.ndarray:
    """Landing column in the target view of every source pixel.

    Returns an array of src's shape in 1/256-pixel fixed point: pixel (y, x)
    lands on row y at the column it holds. A pixel behind the camera, or
    whose column is not finite or outside [-1, width], holds -2, which
    serves no grid pixel. src may be the rows row0, row0 + 1, ... of a
    larger map; row0 places them for the cameras, and the returned rows
    count from 0.
    """
    h, w = src.shape
    shift = src_cam.k[0, 0] * (dst_cam.t[0] - src_cam.t[0])
    scale = projective_scale_grid(src_cam, src, row0)
    dst_cols = np.empty((h, w))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.divide(shift, scale, out=dst_cols)
        np.add(dst_cols, np.arange(w, dtype=np.float64), out=dst_cols)
        # Landing columns are kept in 1/256-pixel fixed point. Surfaces whose
        # disparity is a whole number of columns must land exactly on grid
        # columns; tiny depth perturbations (filter tails, transform
        # round-off) would otherwise flip their interval membership at depth
        # edges and the interpolation would pick across the edge.
        np.multiply(dst_cols, 256.0, out=dst_cols)
        np.round(dst_cols, out=dst_cols)
        np.divide(dst_cols, 256.0, out=dst_cols)
    valid = np.isfinite(scale)  # a non-positive depth has a NaN scale
    test = np.empty((h, w), bool)
    valid &= np.greater(scale, 0.0, out=test)
    valid &= np.greater_equal(dst_cols, -1.0, out=test)
    valid &= np.less_equal(dst_cols, float(w), out=test)
    np.copyto(dst_cols, -2.0, where=np.logical_not(valid, out=test))
    return dst_cols


def _target_pixels(cols, side, n: int) -> np.ndarray:
    """Each pixel's target pixel y * w + side(col), flat, or n where that is off the grid."""
    h, w = cols.shape
    column = side(cols)
    tgt = column.astype(np.intp)
    tgt += np.arange(h)[:, None] * w
    np.copyto(tgt, n, where=np.less(column, 0.0))
    np.copyto(tgt, n, where=np.greater_equal(column, w))
    return tgt.ravel()


def _pick_side(tgt, cols, depths, flat_current, tau):
    """Each target pixel's pick among the samples that serve it from one side.

    The samples are the source pixels in row-major order, at columns cols
    and depths depths; tgt holds each one's target pixel, or n (the pixel
    count) where it serves none. A sample more than tau from its pixel's
    current value is no candidate. Among the candidates the smallest depth
    wins, then the smallest source column. All are written to their
    targets, so a pixel with one candidate takes it; only groups of two or
    more are sorted, and their winners written over. Returns each pixel's
    picked depth and column, NaN where it has no candidate.
    """
    n = flat_current.size
    # Entry n takes the samples that serve no pixel; tgt sends it those beyond tau too.
    np.copyto(tgt, n, where=np.abs(np.take(flat_current, tgt, mode="clip") - depths) > tau)
    pick_d = np.full(n + 1, np.nan)
    pick_c = np.full(n + 1, np.nan)
    pick_d[tgt] = depths
    pick_c[tgt] = cols
    count = np.bincount(tgt, minlength=n + 1)
    count[n] = 0  # entry n is no pixel
    multi = np.flatnonzero(np.take(count, tgt, mode="clip") > 1)
    tm = tgt[multi]
    # lexsort is stable, and the samples serving a pixel all lie on its
    # row in source order: equal depths keep the smallest source column first.
    order = np.lexsort((depths[multi], tm))
    tm = tm[order]
    first = np.ones(len(tm), dtype=bool)
    first[1:] = tm[1:] != tm[:-1]
    won = multi[order[first]]
    pick_d[tm[first]] = depths[won]
    pick_c[tm[first]] = cols[won]
    return pick_d[:n], pick_c[:n]


def _interpolate_grid(cols, src, current: np.ndarray, tau: float) -> np.ndarray:
    """Edge-adaptive depth at every integer target pixel.

    cols is forward_warp's grid of landing columns for the source map src,
    both of current's shape. Pixel c picks, among the samples on its row
    within tau of its current value, one from (c-1, c] and one from
    [c, c+1) (see _pick_side). The two picks are blended linearly by
    horizontal distance; with a single pick its depth is returned, and
    with none the current value is kept. Each sample can serve one pixel
    from the left (ceil(col)) and one from the right (floor(col)).
    """
    h, w = current.shape
    n = h * w
    flat_current = current.ravel()
    # Made before the temporaries below, so that they free one stretch of the
    # heap, large enough for the filter's buffers.
    out = flat_current.copy()
    picked = []
    for side in (np.ceil, np.floor):
        tgt = _target_pixels(cols, side, n)
        picked.append(_pick_side(tgt, cols.ravel(), src.ravel(), flat_current, tau))
    (p1d, t1), (p2d, t2) = picked
    # Distances to the picks, on the rows of the grid and in place of the
    # pick columns: t1 = column - left pick, t2 = right pick - column.
    grid = np.arange(w, dtype=np.float64)
    np.subtract(grid, t1.reshape(h, w), out=t1.reshape(h, w))
    np.subtract(t2.reshape(h, w), grid, out=t2.reshape(h, w))
    part = np.empty(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        blend = np.multiply(p1d, t2)
        np.add(blend, np.multiply(p2d, t1, out=part), out=blend)
        np.divide(blend, np.add(t1, t2, out=part), out=blend)
    mask = np.empty(n, bool)
    np.copyto(blend, p2d, where=np.equal(t2, 0.0, out=mask))
    np.copyto(blend, p1d, where=np.equal(t1, 0.0, out=mask))
    # The blend where both picks exist, else the one pick, else current.
    have1 = np.logical_not(np.isnan(p1d, out=mask), out=mask)
    have2 = np.logical_not(np.isnan(p2d))
    np.copyto(out, p2d, where=have2)
    np.copyto(out, p1d, where=have1)
    np.copyto(out, blend, where=np.logical_and(have1, have2, out=have1))
    return out.reshape(h, w)


def bilateral_filter(
    map_,
    sigma_s: float,
    sigma_r: float,
    radius: int,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Edge-preserving smoothing with Gaussian spatial and range kernels.

    Windows are truncated at the borders and weights renormalized per
    pixel, so every output sample is the pixel plus a convex combination of
    its window's deviations from it. radius 0 is the documented off switch
    and returns a copy of the input. rows=(a, b) returns output rows
    [a, b) only, each exactly as the whole filtered map has it; every row
    given is read, so project_view passes only those within radius of them.

    The deviations, weights and sums are float32; only the final pixel +
    num / den is float64. So an output stays inside its window's range up
    to the float32 spacing of the window's values. The map is copied into
    the float32 buffer clipped to +-1e18, so every deviation and its square
    are finite. An offset's spatial exponent is capped at 80 in magnitude,
    and each range exponent -d^2 / (2 sigma_r^2) is floored at that cap
    minus 80. So a pair inside the map weighs at least about exp(-80) =
    1.8e-35, and no weight is a subnormal float32, whose arithmetic runs many
    times slower. 1 / (2 sigma_r^2) is capped at 1e30, so a deviation of 0
    still weighs exp(0) = 1.

    Offsets o and -o give a pixel pair the same weight, and weighted
    deviations that are exact negatives of each other. The output is made
    in bands of rows. Each offset o before the center, in window order, is
    weighed once over the band plus |dy| rows below it, and each pair's
    term goes at once to both of its pixels: p as offset o, then p + o as
    offset -o. So every pixel sums its terms in pair order, the center and
    then each offset before it followed by its mirror, whatever the band
    or rows: bit for bit as each offset evaluated on its own in that order
    in the same float32 arithmetic.

    The map is copied into one flat buffer, each row with radius zero
    columns on either side, so that every step works on contiguous slices:
    with row stride W = w + 2 radius, neighbor (dy, dx) of flat index i is
    i + dy W + dx. A pair with a pad pixel gets weight +0 from a per-offset
    row of spatial weights, so it adds +0 and +-(d * +0) = +-0 to the sums.
    The deviations' sum starts at +0.0, so it never becomes -0.0, and
    x + +-0 and x - +-0 are x for every other x: the pad changes no bit. A
    deviation of 0 is 0 in float32 too, so flat regions stay exactly flat.
    """
    h, w = map_.shape
    # Offsets of max(h, w) or more pair no pixels and add +0, at a cost cubic in r.
    r = min(int(radius), max(h, w))
    a, b = (0, h) if rows is None else rows
    if r == 0:
        return map_[a:b].copy()
    inv2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv2sr = 1.0 / (2.0 * sigma_r * sigma_r)
    # Offsets before the center in window order; each stands for its
    # mirror (-dy, -dx) too.
    firsts = [(dy, dx) for dy in range(-r, 1) for dx in range(-r, r + 1) if dy < 0 or dx < 0]
    # Per offset, its spatial exponent's magnitude, at most 80, and the
    # floor of its range exponent: together never below -80.
    spatial_exp = [min((dy * dy + dx * dx) * inv2ss, 80.0) for dy, dx in firsts]
    floor = [np.float32(e - 80.0) for e in spatial_exp]
    # Per offset and padded column: the spatial weight where the pixel and
    # its neighbor are both inside the map, 0 where either is a pad.
    cols = np.arange(-r, w + r)
    spatial = np.array([
        ((cols >= max(0, -dx)) & (cols < min(w, w - dx))) * math.exp(-e)
        for (dy, dx), e in zip(firsts, spatial_exp)], np.float32)
    # An inv2sr past float32's range would make a deviation of 0 weigh
    # exp(-inf * 0) = NaN.
    scale = np.float32(-min(inv2sr, 1e30))
    # The map, padded; pixel (y, x) is at flat[r + y W + r + x].
    # Clipped to +-1e18, every deviation and its square are finite in float32.
    W = w + 2 * r
    flat = np.zeros(h * W + 2 * r, np.float32)
    np.clip(map_, -1e18, 1e18, out=flat[r : r + h * W].reshape(h, W)[:, r : r + w])
    band = max(1, min(b - a, _BAND_PIXELS // W))
    # One offset's weights and weighted deviations over a band plus r rows.
    wgt_buf, term_buf = np.empty((2, (band + r) * W), np.float32)
    # A band's sums, laid out as flat, with r slack elements at either end.
    num, den = np.empty((2, band * W + 2 * r), np.float32)
    out = np.empty((b - a, w))
    # Accumulating weighted deviations from the center (instead of
    # weighted values) keeps flat regions exactly unchanged in floating
    # point.
    for b0 in range(a, b, band):
        b1 = min(b, b0 + band)
        bn = (b1 - b0) * W
        # The center offset first: weight exp(0) = 1, weighted deviation +0.0.
        num.fill(0.0)
        den.fill(1.0)
        # d * d * inv2sr past the float32 range is -inf, which the floor lifts.
        with np.errstate(over="ignore"):
            for k, (dy, dx) in enumerate(firsts):
                # Pixels p whose neighbor p + (dy, dx) is in the map: the
                # band's rows, and the |dy| rows below it, whose neighbors
                # are in the band.
                y0, y1 = max(b0, -dy), min(h, b1 - dy)
                if y0 >= y1:
                    continue
                n, i = (y1 - y0) * W, r + y0 * W
                j = i + dy * W + dx
                wgt, term = wgt_buf[:n], term_buf[:n]
                np.subtract(flat[j : j + n], flat[i : i + n], out=term)
                np.multiply(term, term, out=wgt)
                wgt *= scale
                np.maximum(wgt, floor[k], out=wgt)
                np.exp(wgt, out=wgt)
                np.multiply(wgt.reshape(-1, W), spatial[k], out=wgt.reshape(-1, W))
                term *= wgt
                # Offset (dy, dx) at the pixels p in the band ...
                own, i = max(0, min(y1, b1) - y0) * W, r + (y0 - b0) * W
                num[i : i + own] += term[:own]
                den[i : i + own] += wgt[:own]
                # ... then its mirror at q = p + (dy, dx): weight wgt[p],
                # weighted deviation -term[p].
                p0 = max(y0, b0 - dy)
                if p0 >= y1:
                    continue
                n, i = (y1 - p0) * W, (p0 - y0) * W
                q = r + (p0 + dy - b0) * W + dx
                num[q : q + n] -= term[i : i + n]
                den[q : q + n] += wgt[i : i + n]
        ratio = num[r : r + bn]
        np.divide(ratio, den[r : r + bn], out=ratio)
        np.add(map_[b0:b1], ratio.reshape(b1 - b0, W)[:, r : r + w], out=out[b0 - a : b1 - a])
    return out


def project_view(
    src,
    src_cam: CameraParams,
    dst_cam: CameraParams,
    dst_current,
    *,
    tau: float,
    sigma_s: float,
    sigma_r: float,
    radius: int,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Full view-to-view projection: warp, interpolate, bilateral filter.

    Target pixels that receive no candidates keep their dst_current value
    (before filtering). Deterministic for fixed inputs. rows=(a, b)
    returns output rows [a, b) only, computed from the source and target
    rows within radius of them.
    """
    h = src.shape[0]
    a, b = (0, h) if rows is None else rows
    s0, s1 = max(0, a - radius), min(h, b + radius)
    # No name holds the landing columns, so they are freed before the filter runs.
    interp = _interpolate_grid(
        forward_warp(src[s0:s1], src_cam, dst_cam, s0), src[s0:s1], dst_current[s0:s1], tau
    )
    return bilateral_filter(interp, sigma_s, sigma_r, radius, (a - s0, b - s0))
