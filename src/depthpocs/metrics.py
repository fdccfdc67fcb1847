"""Quality metrics: PSNR against an 8-bit peak, the averaged two-view
score, and absolute error maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import as_map
from .errors import InvalidParameterError
from .pgm import round8

PEAK = 255.0


@dataclass(frozen=True)
class QualityScore:
    """PSNR of each view against its reference and their mean g."""

    psnr_left: float
    psnr_right: float
    g: float


def psnr(a, b, *, round_to_int: bool = False) -> float:
    """10*log10(255^2 / MSE) in dB; identical inputs give math.inf.

    round_to_int snaps both maps to 8-bit levels first, mimicking a
    comparison of written 8-bit outputs.
    """
    ma = as_map(a, "a")
    mb = as_map(b, "b", ma.shape, InvalidParameterError)
    if round_to_int:
        ma = round8(ma)
        mb = round8(mb)
    err = np.subtract(ma, mb)
    mse = float(np.mean(np.multiply(err, err, out=err)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def quality_g(i1, i2, ref_l, ref_r, *, round_to_int: bool = False) -> QualityScore:
    """Mean of the two per-view PSNRs, evaluated against the references."""
    pl = psnr(i1, ref_l, round_to_int=round_to_int)
    pr = psnr(i2, ref_r, round_to_int=round_to_int)
    return QualityScore(pl, pr, (pl + pr) / 2.0)


def error_map(a, b) -> np.ndarray:
    """Per-sample absolute difference |a - b|."""
    ma = as_map(a, "a")
    mb = as_map(b, "b", ma.shape, InvalidParameterError)
    return np.abs(ma - mb)
