"""Small shared helpers: input validation and the CPU rule for forking."""

from __future__ import annotations

import os

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


def fork_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork does not exist.

    Scene rendering forks a process for its second view, and refine one
    per stripe after the first, only where this is above 1.
    """
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1
