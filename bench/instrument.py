"""Spans around the program's own calls between layers, and half-iteration probes.

While `instrumented(tracer, probe)` is active, every call depthpocs.cli makes
into another layer, and every call depthpocs.pocs.refine makes to
half_iteration, decode_map and psnr, runs inside a span named
`<layer>.<step>`. The command itself runs unchanged: each wrapper passes its
arguments and result through. Everything is restored on exit.

With a Probe, every half_iteration call is followed by the stages it is made
of (projective scale grid, forward warp, projection without the filter, the
filter, the clip pipeline), timed on the same arguments in spans marked
`probe`. The command continues from half_iteration's own output; the probe's
result must equal it bit for bit, and that output must lie inside its bins
(acceptance test A2).
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager

import numpy as np

import depthpocs.cli
import depthpocs.pocs
from depthpocs.codec import (
    bin_bounds,
    clip_to_bins,
    dct_blocks,
    idct_blocks,
    merge_blocks,
    pad_to_blocks,
    split_blocks,
)
from depthpocs.geometry import projective_scale_grid
from depthpocs.warp import bilateral_filter, forward_warp, project_view

A2_TOL = 1e-9  # round-off allowed by the acceptance test A2

# Module-level names the program calls across layers, and the span of each.
WRAPPED = {
    depthpocs.cli: {
        "generate_scene": "scene.generate",
        "encode_map": "codec.encode",
        "decode_map": "codec.decode",
        "bilateral_filter": "warp.smooth",
        "refine": "pocs.refine",
        "write_pgm": "pgm.write",
        "read_pgm": "pgm.read",
        "error_map": "metrics.error",
        "quality_g": "metrics.quality",
    },
    depthpocs.pocs: {
        "half_iteration": "pocs.half_iter",
        "decode_map": "codec.decode",
        "psnr": "metrics.quality",
    },
}


class Probe:
    """Times half_iteration's stages beside it and checks them against its output."""

    def __init__(self, tracer):
        self.span = tracer.span
        self.clipped = 0
        self.coefficients = 0
        self.mismatches = 0
        self.a2_violations = 0

    def after(self, bound: dict, out: np.ndarray, stats) -> None:
        src, src_cam, dst_cam = bound["src"], bound["src_cam"], bound["dst_cam"]
        desc, opts = bound["dst_desc"], bound["options"]
        with self.span("geometry.scale_grid", probe=True):
            projective_scale_grid(src_cam, src)
        with self.span("warp.forward", probe=True):
            forward_warp(src, src_cam, dst_cam)
        with self.span("warp.project0", probe=True):
            interp = project_view(
                src, src_cam, dst_cam, bound["dst_current"],
                tau=opts.tau, sigma_s=opts.sigma_s, sigma_r=opts.sigma_r, radius=0,
            )
        with self.span("warp.bilateral", probe=True):
            warped = bilateral_filter(interp, opts.sigma_s, opts.sigma_r, opts.radius)
        with self.span("codec.clip", probe=True):
            coeffs = dct_blocks(split_blocks(pad_to_blocks(warped)))
            bounds = bin_bounds(desc.indices, desc.table)
            clipped = clip_to_bins(coeffs, bounds)
            rebuilt = merge_blocks(idct_blocks(clipped), desc.height, desc.width)
        n_out = int(np.count_nonzero((coeffs < bounds.lo) | (coeffs > bounds.hi)))
        self.clipped += n_out
        self.coefficients += coeffs.size
        probe_out = rebuilt[: desc.orig_height, : desc.orig_width]
        if not np.array_equal(probe_out, out) or n_out / coeffs.size != stats.clip_fraction:
            self.mismatches += 1
        # A2 on the padded map: the cropped output of an off-grid view is the
        # crop of this feasible map, not of an edge-replicated one.
        again = dct_blocks(split_blocks(rebuilt))
        self.a2_violations += int(
            np.count_nonzero((again < bounds.lo - A2_TOL) | (again > bounds.hi + A2_TOL))
        )


@contextmanager
def instrumented(tracer, probe: Probe | None = None):
    """Spans at the program's layer boundaries (and probes) while active."""
    saved = {(mod, name): getattr(mod, name) for mod, names in WRAPPED.items() for name in names}
    qdm = depthpocs.cli.QuantizedDescription
    saved_qdm = {name: qdm.__dict__[name] for name in ("save", "load")}

    def wrap(span_name, fn):
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)

        return traced

    def wrap_half(fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with tracer.span("pocs.half_iter"):
                out, stats = fn(*args, **kwargs)
            if probe is not None:
                probe.after(signature.bind(*args, **kwargs).arguments, out, stats)
            return out, stats

        return traced

    try:
        for (mod, name), fn in saved.items():
            span_name = WRAPPED[mod][name]
            setattr(mod, name, wrap_half(fn) if span_name == "pocs.half_iter" else wrap(span_name, fn))
        qdm.save = wrap("codec.qdm_io", saved_qdm["save"])
        qdm.load = classmethod(wrap("codec.qdm_io", saved_qdm["load"].__func__))
        yield
    finally:
        for (mod, name), fn in saved.items():
            setattr(mod, name, fn)
        for name, fn in saved_qdm.items():
            setattr(qdm, name, fn)
