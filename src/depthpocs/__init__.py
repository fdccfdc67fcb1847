"""Joint refinement of lossily compressed stereo depth map pairs.

Two rectified views of one scene are redundant descriptions of the same
surface. After block-DCT coding, each view's decoder only knows a
quantization interval per coefficient; this package alternates warping
one view's current reconstruction onto the other with clipping the
result back into that view's intervals, which tightens both maps beyond
the standalone centroid decode.
"""

__version__ = "0.1.0"

from .codec import (
    BinConstraints,
    QuantizedDescription,
    bin_bounds,
    clip_to_bins,
    decode_map,
    dequantize,
    encode_map,
    flat_table,
    forward_dct,
    inverse_dct,
    jpeg_table,
    quantize,
)
from .errors import DepthPocsError
from .geometry import CameraParams, RectifiedPair, WorldPoint, back_project, project
from .metrics import QualityScore, error_map, psnr, quality_g
from .pgm import read_pgm, write_pgm
from .pocs import IterationReport, RefineOptions, half_iteration, has_converged, refine
from .scene import Box, Plane, SceneSpec, demo_scene, generate_scene
from .warp import bilateral_filter, forward_warp, project_view

__all__ = [
    "BinConstraints",
    "Box",
    "CameraParams",
    "DepthPocsError",
    "IterationReport",
    "Plane",
    "QualityScore",
    "QuantizedDescription",
    "RectifiedPair",
    "RefineOptions",
    "SceneSpec",
    "WorldPoint",
    "back_project",
    "bilateral_filter",
    "bin_bounds",
    "clip_to_bins",
    "decode_map",
    "demo_scene",
    "dequantize",
    "encode_map",
    "error_map",
    "flat_table",
    "forward_dct",
    "forward_warp",
    "generate_scene",
    "half_iteration",
    "has_converged",
    "inverse_dct",
    "jpeg_table",
    "project",
    "project_view",
    "psnr",
    "quality_g",
    "quantize",
    "read_pgm",
    "refine",
    "write_pgm",
]
