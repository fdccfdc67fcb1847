"""In-memory span recorder and the arithmetic the benchmark reports.

A span is (name, start, end, parent, run, probe). `parent` is the index of
the enclosing span, `run` numbers the execution of the command it belongs
to, and `probe` marks a call the benchmark makes beside the program's own
steps (it is not part of the command's work). Spans stay in memory and are
written out once, after the last run. Nothing here imports the program.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    probe: bool


class Tracer:
    """Records nested spans; `run` is set by the caller before each execution."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, math.nan, math.nan, parent, self.run, probe))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.run, probe)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        ivs = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[i]
        )
        covered = 0.0
        lo = hi = None
        for a, b in ivs:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def _rank(p: float, n: int) -> int:
    # round() first so that e.g. 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples above it."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def summary(values) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them, with the count."""
    vals = list(values)
    if not vals:
        raise ValueError("summary of no values")
    if len(vals) == 1:
        q1 = q2 = q3 = vals[0]
    else:
        q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"])


def per_call(spans, selfs, name: str, runs) -> list[float]:
    """Self times of every span called `name` in the given runs, in recording order."""
    wanted = set(runs)
    return [t for s, t in zip(spans, selfs) if s.name == name and s.run in wanted]


def per_run_totals(spans, selfs, name: str, runs) -> tuple[list, list]:
    """Per run: (total self time of `name`, number of `name` spans)."""
    totals = {r: 0.0 for r in runs}
    calls = {r: 0 for r in runs}
    for s, t in zip(spans, selfs):
        if s.name == name and s.run in totals:
            totals[s.run] += t
            calls[s.run] += 1
    return [totals[r] for r in runs], [calls[r] for r in runs]


def layer_time(spans, selfs, run: int) -> float:
    """Self time of the spans of one run, probes excluded."""
    return sum(t for s, t in zip(spans, selfs) if s.run == run and not s.probe)
