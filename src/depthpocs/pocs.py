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

A half-iteration is computed in block-row stripes. Rectification keeps
every warped sample on its source row and the filter reads only a few rows
around each output row, so warp.project_view computes any range of output
rows on its own and knows which input rows it reads. Stripes start and end
on block rows, so each is clipped on its own. refine splits the map into
one stripe per CPU it may use and forks a worker for every stripe after the
first, once for the whole loop (see _Stripes); where a worker cannot be
forked, it runs one stripe. Every output sample is computed by the same
operations in the same order as in a single stripe, so the result does
not depend on the number of stripes, bit for bit.

Every stage allocates its arrays afresh with numpy. By default glibc
hands each large one back to the system when it is freed, so every
half-iteration would fault thousands of pages in again; _keep_freed_memory
makes the C library keep freed memory for the next half-iteration.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from ._common import Forked, as_map, fork_cpus, require_number, require_same_shape
from .codec import BLOCK, QuantizedDescription, decode_map, project_to_bins
from .errors import InvalidInputError, InvalidParameterError
from .geometry import CameraParams, require_rectified
from .metrics import psnr
from .pgm import MAX_LEVEL
from .warp import project_view

VIEWS = ("left", "right")


@dataclass(frozen=True)
class RefineOptions:
    """Stopping rule plus warp and filter parameters for refine(). Frozen and
    held as Python numbers (not numpy float32 or uint8), so the stages compute
    with the values checked here; dataclasses.replace checks again."""

    max_iters: int = 10
    eps: float = 0.01
    tau: float = 8.0
    sigma_s: float = 2.0
    sigma_r: float = 10.0
    radius: int = 3
    start: str = "left"

    def __post_init__(self):
        for name, integer, least in (("max_iters", True, 1), ("radius", True, 0),
                                     ("eps", False, 0), ("tau", False, 0),
                                     ("sigma_s", False, 0), ("sigma_r", False, 0)):
            value = require_number(getattr(self, name), name, InvalidParameterError,
                                   integer=integer, least=least)
            object.__setattr__(self, name, int(value) if integer else float(value))
        if self.start not in VIEWS:
            raise InvalidParameterError(f"start must be 'left' or 'right', got {self.start!r}")
        for name in ("sigma_s", "sigma_r"):
            # The filter's 1/(2 sigma^2) must be finite, so sigma at least about 5e-155.
            twice_square = 2.0 * getattr(self, name) * getattr(self, name)
            require_number(1.0 / twice_square if twice_square else math.inf,
                           f"1/(2 {name}^2)", InvalidParameterError)


@dataclass
class ReportEntry:
    """One half-iteration: half_iteration fills the first two fields, refine the rest."""

    mean_change: float
    clip_fraction: float
    iteration: int | None = None
    view: str | None = None
    psnr_left: float | None = None
    psnr_right: float | None = None
    g: float | None = None


@dataclass
class IterationReport:
    entries: list[ReportEntry] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


# Least work refine gives a stripe, in pixel-iterations: rows x columns x
# max_iters. Forking and reaping the worker, and its first half-iteration,
# cost about 11 ms per refine on 2 vCPUs; a stripe saves part of every
# half-iteration. Two stripes against one, 10 iterations, radius 3 (median
# of 15 pairs): 256x64 maps took 0.86-0.87 times as long, 256x96 0.82-0.83,
# 256x128 0.71-0.85 and 501x64 0.75-0.87, but 256x64 up to 1.29 and 256x96
# up to 1.14 on a loaded machine. A one-iteration refine of a 256x256 map at
# radius 0 (65,536 pixel-iterations, a sweep preview) took 1.3 times as long.
_MIN_STRIPE_WORK = 1 << 17


def _stripe_count(height: int, width: int, max_iters: int) -> int:
    """Stripes refine splits a height x width map into for max_iters iterations.

    One per CPU fork_cpus counts (one in each process of a forked sweep),
    while each carries at least _MIN_STRIPE_WORK pixel-iterations; one
    where the platform cannot fork.
    """
    return max(1, min(fork_cpus(), height * width * max_iters // _MIN_STRIPE_WORK))


def _stripe_rows(height: int, count: int) -> list[tuple[int, int]]:
    """Up to `count` near-equal row ranges covering [0, height), cut at block rows."""
    blocks = -(-height // BLOCK)
    count = max(1, min(count, blocks))
    cuts = [BLOCK * (blocks * i // count) for i in range(count)] + [height]
    return list(zip(cuts, cuts[1:]))


def _keep_freed_memory() -> None:
    """Make the C library keep freed memory for the next allocation.

    By default glibc serves each allocation above its mmap threshold (at
    first 128 KiB) with a mapping of its own and unmaps it on free, and
    trims the heap's free top back to the system, so every half-iteration
    faults its large arrays in afresh. Raising the mmap threshold to
    32 MiB puts them in the heap, and a 1 GiB trim threshold keeps what
    they free there for the next half-iteration. The setting holds for the
    whole process and for the processes it forks. Does nothing where the C
    library has no mallopt.
    """
    import ctypes  # here, so that importing the package does not load it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


class _Stripes:
    """The stripes of refine's half-iterations and what they share.

    Holds the descriptions and the stripes of a map of `shape`. A context
    with more than one stripe forks a worker (a _common.Forked) for every
    stripe after the first when it is built; the worker computes that
    stripe for the context's whole life, while the parent computes the
    first one. The whole source and target maps travel through anonymous
    shared memory mapped before the fork, so only project_view knows which
    rows a stripe reads. Each request carries the other arguments of a
    half-iteration, and each reply a clip count or an error, by the rule of
    errors.REPORTED (see Forked). close ends the workers and leaves one
    stripe, which then runs here: where the shared memory, a pipe or a
    worker cannot be had, after a failed call and on leaving the context.
    """

    def __init__(self, descs, shape: tuple[int, int], count: int = 1):
        # Before the fork, so that the workers inherit the policy.
        _keep_freed_memory()
        self.descs = tuple(descs)
        self.rows = _stripe_rows(shape[0], count)
        self.workers: list[Forked] = []
        if len(self.rows) > 1:
            h, w = shape
            try:
                buffer = mmap.mmap(-1, 3 * h * w * 8)
                # Source, target and output maps, seen by the parent and every worker.
                self.shared = np.frombuffer(buffer, dtype=np.float64).reshape(3, h, w)
                for rows in self.rows[1:]:
                    serve = functools.partial(self._stripe, *self.shared, rows=rows)
                    self.workers.append(Forked(serve, "stripe worker"))
            except (OSError, OverflowError):  # no shared memory, pipe or process to spare
                self.close()
            except BaseException:
                self.close()
                raise

    def __enter__(self) -> "_Stripes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _stripe(self, src, cur, out, index, src_cam, dst_cam, options, *, rows) -> int:
        """Write rows [a, b) of the half-iteration's output into out; return its clip count."""
        a, b = rows
        warped = project_view(
            src, src_cam, dst_cam, cur, tau=options.tau, sigma_s=options.sigma_s,
            sigma_r=options.sigma_r, radius=options.radius, rows=rows,
        )
        out[a:b], n_out = project_to_bins(warped, self.descs[index], a)
        return n_out

    def run(self, desc, src, cur, src_cam, dst_cam, options) -> tuple[np.ndarray, int]:
        """The half-iteration's output map and its clip count, from every stripe.

        A failure ends the workers first (see close), so that no reply of
        this call is left for the next one to read; later calls run one stripe.
        """
        index = next((i for i, d in enumerate(self.descs) if d is desc), None)
        if index is None:
            raise InvalidInputError("description is not one of this refine's views")
        try:
            out = np.empty_like(cur)
            if self.workers:
                self.shared[0] = src
                self.shared[1] = cur
                for worker in self.workers:
                    worker.send(index, src_cam, dst_cam, options)
            n_out = self._stripe(src, cur, out, index, src_cam, dst_cam, options, rows=self.rows[0])
            for worker, (a, b) in zip(self.workers, self.rows[1:]):
                n_out += worker.receive()
                out[a:b] = self.shared[2, a:b]
            return out, n_out
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """End every worker and keep one stripe, so that len(workers) == len(rows) - 1 holds."""
        workers, self.workers = self.workers, []
        self.rows = [(0, self.rows[-1][1])]
        for worker in workers:
            worker.close()


def half_iteration(
    src,
    src_cam: CameraParams,
    dst_cam: CameraParams,
    dst_desc: QuantizedDescription,
    dst_current,
    options: RefineOptions,
    *,
    stripes: _Stripes | None = None,
) -> tuple[np.ndarray, ReportEntry]:
    """Warp src onto the destination view and clip it into dst's bins.

    Returns the updated destination map (cropped to original dimensions)
    and a ReportEntry of the mean absolute change against dst_current and
    the fraction of coefficients that had to be clipped; its iteration and
    view are None, for refine to set. stripes is refine's striping context;
    without one the whole map is a single stripe. The stages below check
    nothing; this checks the description, maps and cameras.
    """
    dst_desc.validate()
    s = as_map(src, "source map")
    cur = as_map(dst_current, "target map")
    require_same_shape(s, cur, "source and target maps")
    if cur.shape != dst_desc.shape:
        raise InvalidParameterError(
            f"map shape {cur.shape} does not match description {dst_desc.shape}"
        )
    require_rectified(src_cam, dst_cam)
    if stripes is None:
        stripes = _Stripes((dst_desc,), cur.shape)
    out, n_out = stripes.run(dst_desc, s, cur, src_cam, dst_cam, options)
    change = np.subtract(out, cur)
    mean_change = float(np.mean(np.abs(change, out=change)))
    return out, ReportEntry(mean_change, n_out / (dst_desc.n_blocks * BLOCK * BLOCK))


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
    view other than options.start from options.start, then options.start
    from the other; it stops once both half-iteration changes are
    <= options.eps or after options.max_iters iterations. Returned maps
    are clamped to the PGM reader's domain [0, MAX_LEVEL] = [0, 65535 / 256].

    decode_map admits a description only if its padded centroid decode lies
    in [-4 * delta_max, 256 + 4 * delta_max]. Each half-iteration ends in the
    updated view's bins, within ||step/2||_2 <= 4 * delta_max of that decode,
    so every map lies in [-8 * delta_max, 256 + 8 * delta_max]: no scan needed.

    ground_truth, when given as (left, right), enables the PSNR trace in
    the report. The trace's PSNRs are taken on maps rounded to 8-bit
    levels, as report.csv prints them.
    """
    opts = options if options is not None else RefineOptions()
    require_rectified(left_cam, right_cam)
    descs = (left_desc, right_desc)
    cams = (left_cam, right_cam)
    maps = [decode_map(desc) for desc in descs]
    require_same_shape(*maps, "left and right descriptions")

    truths = None
    if ground_truth is not None:
        truths = list(ground_truth)
        if len(truths) != 2:
            raise InvalidParameterError(f"ground_truth must be two maps, got {len(truths)}")
        truths = [as_map(t, f"{view} truth") for view, t in zip(VIEWS, truths)]
        for i, view in enumerate(VIEWS):
            require_same_shape(truths[i], maps[i], f"{view} truth")

    report = IterationReport()
    first = VIEWS.index(opts.start)  # the source of each iteration's first half
    count = _stripe_count(*maps[0].shape, opts.max_iters)

    with _Stripes(descs, maps[0].shape, count) as stripes:
        scores = [None, None]  # each view's PSNR after its last update
        for it in range(1, opts.max_iters + 1):
            for src in (first, 1 - first):
                dst = 1 - src
                maps[dst], entry = half_iteration(
                    maps[src], cams[src], cams[dst], descs[dst], maps[dst], opts, stripes=stripes
                )
                entry.iteration, entry.view = it, VIEWS[dst]
                if truths is not None:
                    # Only the updated view changed; the other keeps its PSNR.
                    for i in (0, 1):
                        if i == dst or scores[i] is None:
                            scores[i] = psnr(maps[i], truths[i], round_to_int=True)
                    entry.psnr_left, entry.psnr_right = scores
                    entry.g = (scores[0] + scores[1]) / 2.0
                report.entries.append(entry)
            report.iterations = it
            if max(e.mean_change for e in report.entries[-2:]) <= opts.eps:
                report.converged = True
                break

    left, right = (np.clip(m, 0.0, MAX_LEVEL) for m in maps)
    return left, right, report
