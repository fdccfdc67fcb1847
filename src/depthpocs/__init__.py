"""Joint refinement of lossily compressed stereo depth map pairs.

Two rectified views of one scene are redundant descriptions of the same
surface. After block-DCT coding, each view's decoder only knows a
quantization interval per coefficient; this package alternates warping
one view's current reconstruction onto the other with clipping the
result back into that view's intervals, which tightens both maps beyond
the standalone centroid decode.
"""

__version__ = "0.1.0"

from .codec import encode_map, flat_table
from .errors import DepthPocsError
from .metrics import quality_g
from .pocs import RefineOptions, refine
from .scene import demo_scene, generate_scene

__all__ = [
    "DepthPocsError",
    "RefineOptions",
    "demo_scene",
    "encode_map",
    "flat_table",
    "generate_scene",
    "quality_g",
    "refine",
]
