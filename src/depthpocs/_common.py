"""Small shared helpers: map validation and the scratch workspace."""

from __future__ import annotations

import contextlib
import math
import mmap

import numpy as np

from .errors import InvalidInputError

# Byte alignment of every array a Workspace hands out, and its first chunk.
_ALIGN = 64
_MIN_CHUNK = 1 << 20
# Private anonymous memory where the platform has it.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
# Cached values a Workspace keeps, oldest dropped first: one scale-grid
# denominator per view of a pair.
_CACHED = 2


def as_map(a, name: str = "map") -> np.ndarray:
    """Coerce to a 2D float64 depth map and validate finiteness."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2D, got shape {m.shape}")
    # min and max are finite exactly when every sample is (NaN propagates).
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise InvalidInputError(f"{name} contains non-finite samples")
    return m


def require_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise InvalidInputError(f"{what}: shape mismatch {a.shape} vs {b.shape}")


class Workspace:
    """Scratch memory that one process reuses from call to call.

    take() hands out arrays from the top of a stack of memory chunks, and
    leaving a frame() gives back everything taken inside it. Stages that
    run one after the other therefore share the same pages, and a call that
    takes no more than an earlier one maps no fresh memory. An array taken
    from a workspace stays valid until the frame it was taken in ends; copy
    what must outlive it. A take that does not fit in the current chunk
    moves on to the next one, and a missing chunk is mapped at least twice
    the size of the last, so chunks are never replaced and their pages stay
    in use. Chunks are anonymous mappings of their own: they never sit in,
    or reshape, the malloc heap, and their pages go back to the system with
    the workspace. cached() keeps values that depend only on the cameras and
    the map's shape, such as the scale grid's denominator.

    A workspace belongs to one process. Warp, geometry, codec and metrics
    functions take it as an optional keyword argument; without one they use
    FRESH, through the same code.
    """

    def __init__(self):
        self._chunks: list[np.ndarray] = []
        self._top = (0, 0)  # chunk index and byte offset of the next take
        self._cache: dict = {}

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized array, valid until the enclosing frame ends."""
        dtype = np.dtype(dtype)
        size = (math.prod(shape) if isinstance(shape, tuple) else shape) * dtype.itemsize
        index, offset = self._top
        while True:
            if index == len(self._chunks):
                grown = 2 * self._chunks[-1].size if self._chunks else _MIN_CHUNK
                memory = mmap.mmap(-1, max(size, grown), **_PRIVATE)
                self._chunks.append(np.frombuffer(memory, dtype=np.uint8))
            start = -(-offset // _ALIGN) * _ALIGN
            if start + size <= self._chunks[index].size:
                break
            index, offset = index + 1, 0
        self._top = (index, start + size)
        return self._chunks[index][start : start + size].view(dtype).reshape(shape)

    @contextlib.contextmanager
    def frame(self):
        """Give back, on exit, every array taken inside the block."""
        top = self._top
        try:
            yield self
        finally:
            self._top = top

    def cached(self, key, make):
        """make(), computed once per key while the key is among the _CACHED newest."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = make()
            if len(self._cache) > _CACHED:
                del self._cache[next(iter(self._cache))]
        return value


class _Fresh(Workspace):
    """A workspace that keeps nothing: every array is new, nothing is cached."""

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)

    def frame(self):
        return contextlib.nullcontext(self)

    def cached(self, key, make):
        return make()


# The workspace of a call made without one.
FRESH = _Fresh()
