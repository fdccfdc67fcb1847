"""Binary PGM (P5) reader/writer for depth maps.

8-bit files store rounded levels directly. When sub-level precision has
to survive a round-trip, deep=True writes 16-bit samples holding
level * 256 (big-endian per the netpbm convention); the reader divides
by 256 so values come back as fractional levels.
"""

from __future__ import annotations

import re

import numpy as np

from ._common import as_map
from .errors import PgmFormatError

MAX_LEVEL = 65535 / 256  # the largest level read_pgm returns, from a 16-bit sample of 65535
# A header token, non-whitespace bytes the first not '#', after any whitespace and
# comments ('#' to the end of its line; the lookahead keeps whole one the data ends in).
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


def round8(m: np.ndarray) -> np.ndarray:
    """The levels an 8-bit file stores: floor(m + 0.5) clamped to [0, 255], as float64."""
    out = np.add(m, 0.5)
    np.floor(out, out=out)
    return np.clip(out, 0.0, 255.0, out=out)


def write_pgm(path, map_, *, deep: bool = False) -> None:
    m = as_map(map_)
    if deep:
        data = np.clip(np.floor(m * 256.0 + 0.5), 0, 65535).astype(">u2")
        maxval = 65535
    else:
        data = round8(m).astype(np.uint8)
        maxval = 255
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def _read_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` header tokens and the offset past the byte that ends the last."""
    tokens, i = [], 0
    for _ in range(count):
        token = _TOKEN.match(data, i)
        if token is None:
            raise PgmFormatError("truncated PGM header")
        tokens.append(token[1])
        i = token.end()
    return tokens, i + 1  # single whitespace byte ends the header


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float64 level map."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_tokens(data, 4)
    if tokens[0] != b"P5":
        raise PgmFormatError(f"unsupported magic {tokens[0]!r}, need binary P5")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmFormatError("non-numeric PGM header fields") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise PgmFormatError(f"bad PGM geometry {width}x{height} maxval {maxval}")
    count = width * height
    itemsize = 2 if maxval > 255 else 1
    if len(data) - offset < count * itemsize:
        raise PgmFormatError(
            f"expected {count * itemsize} payload bytes, got {len(data) - offset}"
        )
    raw = np.frombuffer(data, dtype=f">u{itemsize}", count=count, offset=offset)
    if raw.max() > maxval:
        raise PgmFormatError(f"a sample of {raw.max()} is above maxval {maxval}")
    levels = raw.reshape(height, width).astype(np.float64)
    return levels / 256.0 if itemsize == 2 else levels
