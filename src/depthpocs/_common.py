"""Small shared validation helpers."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


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
