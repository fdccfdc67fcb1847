"""Block transform codec for depth maps.

Simulates the lossy path of a JPEG-style coder on 8x8 blocks: orthonormal
2D DCT-II, uniform midtread scalar quantization to bin indices, and the
centroid decode. Only bin indices and the step table are kept, so the
decoder's exact knowledge about a block is the closed interval each
coefficient was quantized into. ``bin_bounds`` materializes those
intervals and ``clip_to_bins`` is the Euclidean projection onto them,
which is the constraint-enforcement step of the refinement loop.

Conventions: blocks are (8, 8) float64 arrays, row index = vertical
frequency after the transform, so the row-major flattened position of
coefficient (u, v) is k = 8*u + v. Step tables share the block shape.

quantize, dequantize and bin_bounds take a checked table: an (8, 8) float64
array of positive, finite steps. A table is checked where it enters, by
encode_map and by QuantizedDescription.validate, which from_bytes,
decode_map and pocs.half_iteration call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._common import as_map, require_kind, require_number, shown
from .errors import CorruptDescriptionError, InvalidInputError, InvalidParameterError
from .pgm import MAX_LEVEL

BLOCK = 8
QDM_MAGIC = b"QDM1"

# Base step sizes in the usual luminance layout, used by jpeg_table().
_JPEG_BASE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def _dct_matrix() -> np.ndarray:
    j = np.arange(BLOCK, dtype=np.float64)
    u = j.reshape(-1, 1)
    t = np.cos((2.0 * j + 1.0) * u * np.pi / (2.0 * BLOCK))
    t[0] *= np.sqrt(1.0 / BLOCK)
    t[1:] *= np.sqrt(2.0 / BLOCK)
    return t


_T = _dct_matrix()
_TT = _T.T.copy()


class BinConstraints(NamedTuple):
    """Per-coefficient closed intervals [lo, hi] of width equal to the step."""

    lo: np.ndarray
    hi: np.ndarray


# Least step flat_table accepts. Orthonormality bounds every coefficient of
# a map in [0, 256) by 8 * 256 = 2048, so its bin indices are at most 2**31:
# rounding half away from zero, a block whose mean is within 2**-24 of 256
# still reaches 2**31, which quantize rejects as past int32.
_MIN_STEP = 2.0**-20


def flat_table(delta: float) -> np.ndarray:
    """Step table with the same step size for all 64 coefficients."""
    require_number(delta, "step size", InvalidParameterError)
    if delta < _MIN_STEP:
        raise InvalidParameterError(
            f"step size must be at least 2**-20 ({_MIN_STEP:.3g}), got {shown(delta)}"
        )
    return np.full((BLOCK, BLOCK), float(delta))


def jpeg_table(quality: int) -> np.ndarray:
    """Luminance-style step table scaled by an integer quality factor in [1, 100]."""
    q = require_number(quality, "quality", InvalidParameterError, integer=True, least=1)
    if q > 100:
        raise InvalidParameterError(f"quality must be in [1, 100], got {shown(quality)}")
    scale = 5000.0 / q if q < 50 else 200.0 - 2.0 * q
    steps = np.floor((_JPEG_BASE * scale + 50.0) / 100.0)
    return np.clip(steps, 1.0, 255.0)


def _check_table(table) -> np.ndarray:
    t = as_map(table, "step table", (BLOCK, BLOCK))
    if np.any(t <= 0):
        raise InvalidInputError("step table entries must be positive")
    return t


def dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II of every block of a (n, 8, 8) stack.

    The transform preserves the Euclidean norm, so clipping done later in
    coefficient space is also a Euclidean projection in pixel space.
    """
    return _T @ blocks @ _TT


def idct_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of dct_blocks (the transpose). No output clamping."""
    return _TT @ coeffs @ _T


def quantize(coeffs, table) -> np.ndarray:
    """Map coefficients to signed bin indices.

    Midtread uniform quantizer with round-half-away-from-zero, so index 0
    always represents coefficients near zero and the implied centroid is
    index * step. The input is guaranteed to lie inside the closed bin of
    its own index. An index whose magnitude int32 cannot hold raises
    InvalidInputError.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coefficients contain non-finite values")
    mag = np.floor(np.abs(c) / table + 0.5)
    if mag.size and mag.max() > np.iinfo(np.int32).max:
        raise InvalidInputError(f"a bin index of {mag.max():.0f} does not fit int32")
    return np.where(c < 0, -mag, mag).astype(np.int32)


def dequantize(indices, table) -> np.ndarray:
    """Centroid decode: coefficient = index * step."""
    return np.asarray(indices).astype(np.float64) * table


def bin_bounds(indices, table) -> BinConstraints:
    """Closed interval [centroid - step/2, centroid + step/2] per coefficient."""
    centers = np.asarray(indices).astype(np.float64) * table
    half = table / 2.0
    return BinConstraints(centers - half, centers + half)


def clip_to_bins(coeffs, bounds: BinConstraints) -> np.ndarray:
    """Project coefficients onto their bins (move to the nearest boundary).

    Idempotent and non-expansive; the output always satisfies the bin
    constraints exactly.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    return np.clip(c, bounds.lo, bounds.hi)


def pad_to_blocks(map_: np.ndarray) -> np.ndarray:
    """Edge-replicate a map on the bottom/right to multiples of 8."""
    h, w = map_.shape
    return np.pad(map_, ((0, -h % BLOCK), (0, -w % BLOCK)), mode="edge")


def split_blocks(padded: np.ndarray) -> np.ndarray:
    """(H, W) map with 8-multiple dims -> (n, 8, 8) stack, blocks row-major."""
    h, w = padded.shape
    return (
        padded.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
        .swapaxes(1, 2)
        .reshape(-1, BLOCK, BLOCK)
    )


def merge_blocks(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of split_blocks."""
    bh = height // BLOCK
    bw = width // BLOCK
    return (
        blocks.reshape(bh, bw, BLOCK, BLOCK).swapaxes(1, 2).reshape(height, width)
    )


def project_to_bins(band, desc: QuantizedDescription, row: int) -> tuple[np.ndarray, int]:
    """Project rows [row, row + len(band)) of a view onto their blocks' bins.

    row is on a block row; desc is the whole view's description. The band
    is padded to blocks, transformed, clipped against the bounds of its
    blocks, transformed back and cropped to its shape. Returns the projected
    band and the count of clipped coefficients: a coefficient moves exactly
    when it lies outside its bin.
    """
    padded = pad_to_blocks(band)
    coeffs = dct_blocks(split_blocks(padded))
    first = row // BLOCK * (padded.shape[1] // BLOCK)
    bounds = bin_bounds(desc.indices[first : first + len(coeffs)], desc.table)
    clipped = clip_to_bins(coeffs, bounds)
    n_out = int(np.count_nonzero(clipped != coeffs))
    rebuilt = merge_blocks(idct_blocks(clipped), *padded.shape)
    return rebuilt[: band.shape[0], : band.shape[1]], n_out


@dataclass
class QuantizedDescription:
    """Everything the decoder knows about one coded view.

    orig_width/orig_height are the map's size; the coded (padded) size is
    the next multiple of 8 of each. indices holds one (8, 8) int32 block of
    bin indices per block, in row-major block order; table is the shared
    step table.
    """

    orig_width: int
    orig_height: int
    table: np.ndarray
    indices: np.ndarray

    @property
    def width(self) -> int:
        # int(), as a numpy size of a fixed width could overflow here.
        return -(-int(self.orig_width) // BLOCK) * BLOCK

    @property
    def height(self) -> int:
        return -(-int(self.orig_height) // BLOCK) * BLOCK

    @property
    def shape(self) -> tuple[int, int]:
        """The map's (rows, columns)."""
        return self.orig_height, self.orig_width

    @property
    def n_blocks(self) -> int:
        return (self.width // BLOCK) * (self.height // BLOCK)

    def validate(self) -> None:
        for name in ("orig_width", "orig_height"):
            require_number(getattr(self, name), name, CorruptDescriptionError, integer=True)
        require_kind(self.indices, np.ndarray, "indices", CorruptDescriptionError)
        if self.indices.dtype != np.int32:  # to_bytes would cast other kinds without a word
            raise CorruptDescriptionError(f"indices must be int32, got {self.indices.dtype}")
        if self.orig_width < 1 or self.orig_height < 1:
            raise CorruptDescriptionError(f"empty map size {self.orig_width}x{self.orig_height}")
        if self.indices.shape != (self.n_blocks, BLOCK, BLOCK):
            raise CorruptDescriptionError(
                f"expected {self.n_blocks} blocks, got indices shape {self.indices.shape}"
            )
        try:
            _check_table(self.table)
        except InvalidInputError as exc:
            raise CorruptDescriptionError(str(exc)) from exc

    def to_bytes(self) -> bytes:
        """Serialize to the QDM1 little-endian container."""
        self.validate()
        head = QDM_MAGIC + struct.pack(
            "<4I", self.width, self.height, self.orig_width, self.orig_height
        )
        steps = np.ascontiguousarray(self.table, dtype="<f8").tobytes()
        idx = np.ascontiguousarray(self.indices, dtype="<i4").tobytes()
        return head + steps + idx

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuantizedDescription":
        if len(data) < 4 + 16 or data[:4] != QDM_MAGIC:
            raise CorruptDescriptionError("not a QDM1 container")
        width, height, ow, oh = struct.unpack_from("<4I", data, 4)
        off = 4 + 16
        n_steps = BLOCK * BLOCK
        if len(data) < off + 8 * n_steps:
            raise CorruptDescriptionError("truncated step table")
        table = (
            np.frombuffer(data, dtype="<f8", count=n_steps, offset=off)
            .reshape(BLOCK, BLOCK)
            .astype(np.float64)
        )
        off += 8 * n_steps
        n_blocks = (width // BLOCK) * (height // BLOCK)
        need = n_blocks * n_steps
        if len(data) != off + 4 * need:
            raise CorruptDescriptionError(
                f"index payload is {len(data) - off} bytes, expected {4 * need}"
            )
        indices = (
            np.frombuffer(data, dtype="<i4", count=need, offset=off)
            .reshape(n_blocks, BLOCK, BLOCK)
            .astype(np.int32)
        )
        desc = cls(ow, oh, table, indices)
        if (width, height) != (desc.width, desc.height):
            raise CorruptDescriptionError(f"padded size {width}x{height} does not fit {ow}x{oh}")
        desc.validate()
        return desc

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "QuantizedDescription":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def encode_map(map_, table) -> QuantizedDescription:
    """Pad, block, transform and quantize a depth map with samples in [0, 256)."""
    m = as_map(map_)
    lo, hi = float(m.min()), float(m.max())
    if not (0.0 <= lo and hi < 256.0):
        raise InvalidInputError(f"map samples span [{lo:.6g}, {hi:.6g}], outside [0, 256)")
    t = _check_table(table)
    # quantize reports a bin index past int32, even an infinite one, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        indices = quantize(dct_blocks(split_blocks(pad_to_blocks(m))), t)
    return QuantizedDescription(
        orig_width=m.shape[1], orig_height=m.shape[0], table=t, indices=indices
    )


def decode_map(desc: QuantizedDescription) -> np.ndarray:
    """Centroid decode: dequantize, inverse transform, crop, clamp to [0, MAX_LEVEL].

    Raises CorruptDescriptionError unless the padded, unclamped decode is
    finite and in [-4 * delta_max, 256 + 4 * delta_max], delta_max the
    largest step: the transform is orthonormal, so the decode of a map in the
    reader's domain [0, 256] lies within ||step/2||_2 <= 4 * delta_max of it.
    """
    require_kind(desc, QuantizedDescription, "description", InvalidParameterError).validate()
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = idct_blocks(dequantize(desc.indices, desc.table))
        lo, hi = float(np.min(blocks)), float(np.max(blocks))
    slack = 4.0 * float(np.max(desc.table))  # a Python float: inf, with no warning, on overflow
    if not (-slack <= lo and hi <= 256.0 + slack):  # a NaN fails both tests
        raise CorruptDescriptionError(
            f"centroid decode range [{lo:.6g}, {hi:.6g}] is outside "
            f"[{-slack:.6g}, {256.0 + slack:.6g}]: no map in [0, 256] is coded to it"
        )
    out = merge_blocks(blocks, desc.height, desc.width)[: desc.orig_height, : desc.orig_width]
    return np.clip(out, 0.0, MAX_LEVEL)
