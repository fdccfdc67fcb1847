"""Output checks on the artifacts a command wrote.

The parsers here are the benchmark's own, written from the file formats in
the README, so a defect in the program's reader cannot hide one in its
writer. Every check raises CheckFailed; the caller counts the run as failed.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np

CSV_HEADER = "iter,view,psnr_left,psnr_right,g,mean_change,clip_fraction"
CSV_DIGITS = 1e-5  # report.csv prints six decimals

RUN_PGMS = [
    f"{kind}_{view}.pgm"
    for kind in ("truth", "mask", "std", "smo", "our", "err_std", "err_smo", "err_our")
    for view in ("left", "right")
]


_PGM_HEAD = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


class CheckFailed(Exception):
    pass


def read_pgm8(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """An 8-bit binary PGM of exactly `shape` (height, width), as uint8."""
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.name}")
    data = path.read_bytes()
    head = _PGM_HEAD.match(data)
    if head is None:
        raise CheckFailed(f"{path.name}: not a binary PGM")
    width, height, maxval = (int(g) for g in head.groups())
    if (height, width) != tuple(shape) or maxval != 255:
        raise CheckFailed(
            f"{path.name}: {width}x{height} maxval {maxval}, "
            f"expected {shape[1]}x{shape[0]} maxval 255"
        )
    payload = data[head.end() :]
    if len(payload) != width * height:
        raise CheckFailed(f"{path.name}: {len(payload)} payload bytes for {width}x{height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def check_qdm(path: Path, shape: tuple[int, int]) -> None:
    """A QDM1 container for a map of `shape`, with its full index payload."""
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.name}")
    data = path.read_bytes()
    if data[:4] != b"QDM1" or len(data) < 20 + 512:
        raise CheckFailed(f"{path.name}: not a QDM1 container")
    width, height, ow, oh = struct.unpack_from("<4I", data, 4)
    h, w = shape
    if (oh, ow) != (h, w) or (height, width) != (-(-h // 8) * 8, -(-w // 8) * 8):
        raise CheckFailed(f"{path.name}: dims {width}x{height}/{ow}x{oh} for a {w}x{h} map")
    if len(data) != 20 + 512 + 4 * width * height:
        raise CheckFailed(f"{path.name}: payload is {len(data)} bytes")


def psnr8(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)


def q_pair(out: Path, tag: str, truth: tuple[np.ndarray, np.ndarray], shape) -> float:
    """Averaged two-view PSNR of the written `<tag>_left/right.pgm` pair."""
    left = read_pgm8(out / f"{tag}_left.pgm", shape)
    right = read_pgm8(out / f"{tag}_right.pgm", shape)
    q = (psnr8(left, truth[0]) + psnr8(right, truth[1])) / 2.0
    if not math.isfinite(q):
        raise CheckFailed(f"{out.name}: Q of {tag} is {q}")
    return q


def check_report(path: Path, refine: dict, summary: bool) -> list[list[str]]:
    """Header plus two rows per iteration (plus the summary row on `run`).

    `refine` holds the config's max_iters, eps and start. Iterations run
    1..k with k == max_iters unless the eps rule stopped the loop early.
    Every row's psnr_left, psnr_right and g must be finite. Returns the
    half-iteration rows, and the summary row last.
    """
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.parent.name}/{path.name}")
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    body = rows[:-1] if summary else rows
    if summary and (not rows or rows[-1][:2] != ["summary", "all"]):
        raise CheckFailed(f"{path}: no summary row")
    k = len(body) // 2
    max_iters = refine["max_iters"]
    if len(body) % 2 or not 1 <= k <= max_iters:
        raise CheckFailed(f"{path}: {len(body)} half-iteration rows for max_iters {max_iters}")
    # The view `start` names is updated second in every iteration.
    order = ("right", "left") if refine["start"] == "left" else ("left", "right")
    for i, row in enumerate(body):
        if len(row) != 7 or row[:2] != [str(i // 2 + 1), order[i % 2]]:
            raise CheckFailed(f"{path}: row {i + 1} is {row}")
        if not all(math.isfinite(float(q)) for q in row[2:5]):
            raise CheckFailed(f"{path}: row {i + 1} has a non-finite Q: {row}")
    if k < max_iters and max(float(r[5]) for r in body[-2:]) > refine["eps"]:
        raise CheckFailed(f"{path}: stopped after {k} iterations without converging")
    return rows


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= CSV_DIGITS


def check_run_dir(out: Path, shape, refine: dict) -> tuple[float, float]:
    """All `run` artifacts; returns (Q_std, Q_our) computed from the files."""
    for name in RUN_PGMS:
        read_pgm8(out / name, shape)
    for view in ("left", "right"):
        check_qdm(out / f"{view}.qdm", shape)
    truth = (read_pgm8(out / "truth_left.pgm", shape), read_pgm8(out / "truth_right.pgm", shape))
    q_std = q_pair(out, "std", truth, shape)
    q_our = q_pair(out, "our", truth, shape)
    rows = check_report(out / "report.csv", refine, summary=True)
    if not (_near(float(rows[-1][2]), q_std) and _near(float(rows[-1][4]), q_our)):
        raise CheckFailed(f"{out.name}: report.csv summary {rows[-1]} disagrees with "
                          f"Q_std {q_std:.6f} / Q_our {q_our:.6f} of the written maps")
    return q_std, q_our


def check_refine_dir(out: Path, shape, refine: dict, truth_paths, std_paths):
    """`refine` artifacts; returns (Q_std, Q_our) against the truth the benchmark wrote."""
    truth = tuple(read_pgm8(p, shape) for p in truth_paths)
    std = tuple(read_pgm8(p, shape) for p in std_paths)
    q_std = (psnr8(std[0], truth[0]) + psnr8(std[1], truth[1])) / 2.0
    q_our = q_pair(out, "our", truth, shape)
    rows = check_report(out / "report.csv", refine, summary=False)
    if not _near(float(rows[-1][4]), q_our):
        raise CheckFailed(f"{out.name}: last report.csv g {rows[-1][4]} is not "
                          f"Q_our {q_our:.6f} of the written maps")
    return q_std, q_our


def check_sweep_dir(out: Path, shape, refine: dict, deltas) -> list[tuple[float, float]]:
    agg = out / "aggregate.csv"
    if not agg.is_file():
        raise CheckFailed("missing artifact aggregate.csv")
    lines = agg.read_text(encoding="ascii").splitlines()
    if lines[0] != "delta,q_std,q_smo,q_our" or [l.split(",")[0] for l in lines[1:]] != [
        f"{d:g}" for d in deltas
    ]:
        raise CheckFailed(f"aggregate.csv does not list deltas {deltas}")
    pairs = []
    for d, line in zip(deltas, lines[1:]):
        q_std, q_our = check_run_dir(out / f"delta_{d:g}", shape, refine)
        cols = line.split(",")
        if not (_near(float(cols[1]), q_std) and _near(float(cols[3]), q_our)):
            raise CheckFailed(f"aggregate.csv row {line} disagrees with delta_{d:g}")
        pairs.append((q_std, q_our))
    return pairs
