"""depthpocs benchmark: time each workload end to end, or trace it per layer.

    python3 bench/run.py --workload twoplane-run --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

Each repetition runs the workload's command in a fresh child process, one at
a time, for --seconds; outputs are checked after every repetition. With
--trace 1 a single child repeats the command plain, with spans at its
layer boundaries and with half-iteration probes (see instrument.py); the
per-layer metrics come from those spans.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json (end_to_end untraced, per_layer traced).
Inputs are generated from --seed under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans as sp
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 165.0  # a run must end within 180 s
MIN_REPS = 3
SETUP_SHARE = 0.2  # of a run's time, for set-up-only children

# Spans the traced pass records; each gives <name>_ms (per-call p50 of self
# time), <name>.total_ms (per command), <name>.calls and <name>.tail_ms.
SPAN_NAMES = (
    "scene.generate",
    "pgm.write",
    "pgm.read",
    "codec.encode",
    "codec.decode",
    "codec.qdm_io",
    "codec.clip",
    "warp.smooth",
    "warp.forward",
    "warp.project0",
    "warp.bilateral",
    "geometry.scale_grid",
    "pocs.refine",
    "pocs.half_iter",
    "metrics.quality",
    "metrics.error",
)
RENAMED = {"pocs.half_iter.calls": "pocs.half_iters"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no BENCHMARK.json)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or not (SRC / "depthpocs" / "cli.py").is_file():
        raise SetupError(f"{ROOT} holds no depthpocs sources or no BENCHMARK.json")
    return json.loads(path.read_text(encoding="utf-8"))


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        # glibc _SC_LEVEL*_CACHE_SIZE constants
        for name, code in (("l1d", 188), ("l2", 191), ("l3", 194)):
            caches[name] = int(libc.sysconf(code))
    except (OSError, AttributeError):
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "bytecode_cache": not sys.dont_write_bytecode,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in threads},
        "cache_bytes": caches,
        "machine": platform.machine(),
    }


def run_child(mode: str, seconds: float, result_dir: Path, argv: list[str], timeout: float):
    """Run child.py to completion; returns (exit code, last JSON line, ru_maxrss KiB, stderr)."""
    result_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(seconds), str(result_dir)]
    cmd += ["--", *argv]
    out_path, err_path = result_dir / "stdout.txt", result_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        # wait4 rather than Popen.wait: it returns this child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text(encoding="utf-8", errors="replace").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    stderr = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return proc.returncode, result, usage.ru_maxrss, stderr


def check_outputs(prep, outdir: Path) -> list[tuple[float, float]]:
    """(Q_std, Q_our) of every coded pair the command wrote; raises CheckFailed."""
    if prep.kind == "run":
        return [checks.check_run_dir(outdir, prep.shape, prep.refine)]
    if prep.kind == "refine":
        return [checks.check_refine_dir(outdir, prep.shape, prep.refine, prep.truth, prep.std)]
    return checks.check_sweep_dir(outdir, prep.shape, prep.refine, prep.deltas)


def measure_e2e(prep, work: Path, seconds: float, deadline: float) -> dict:
    reps = []
    durations = []
    setups = []  # set-up times of every child, set-up-only ones included
    setup_spent = 0.0
    first_pairs = None
    start = time.monotonic()
    # Start a repetition only if a typical one ends within `seconds`.
    while len(reps) < MIN_REPS or (
        time.monotonic() - start + statistics.median(durations) <= seconds
    ):
        if time.monotonic() >= deadline:
            break
        began = time.monotonic()
        rep_dir = work / f"rep{len(reps)}"
        rc, res, rss_kib, stderr = run_child(
            "e2e", 0, rep_dir, prep.argv(rep_dir / "out"), deadline - time.monotonic()
        )
        rep = {"rc": rc, "peak_rss_mb": rss_kib / 1024.0, "error": None}
        if rc != 0 or res is None or res.get("rc") != 0:
            rep["error"] = f"exit {rc}/{res and res.get('rc')}: {stderr.strip()[-300:]}"
        else:
            rep["wall_s"] = res["wall_s"]
            setups.append(res["setup_s"])
            try:
                rep["q_pairs"] = check_outputs(prep, rep_dir / "out")
            except (checks.CheckFailed, ValueError) as exc:
                rep["error"] = f"output check: {exc}"
        if rep["error"] is None:
            first_pairs = first_pairs or rep["q_pairs"]
            if rep["q_pairs"] != first_pairs:
                rep["error"] = "quality differs from the first good repetition (not deterministic)"
        reps.append(rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
        durations.append(time.monotonic() - began)
        # Set-up varies more from process to process than the command does:
        # give set-up-only children SETUP_SHARE of the time to sample it more.
        while setup_spent < SETUP_SHARE * (time.monotonic() - start):
            t = time.monotonic()
            if t >= deadline:
                break
            setup_dir = work / "setup"
            rc, res, _, stderr = run_child("setup", 0, setup_dir, prep.argv(setup_dir), deadline - t)
            if rc != 0 or res is None:
                raise RuntimeError(f"set-up child exit {rc}: {stderr.strip()[-300:]}")
            setups.append(res["setup_s"])
            setup_spent += time.monotonic() - t
    ok = [r for r in reps if r["error"] is None]
    if not ok:
        raise RuntimeError("; ".join(r["error"] for r in reps))
    metrics = {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "q_our_db": [statistics.fmean(q for _, q in first_pairs)],
        "q_gain_min_db": [min(q - s for s, q in first_pairs)],
        "ok_frac": [len(ok) / len(reps)],
    }
    return {
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "errors": [r["error"] for r in reps if r["error"]],
        "samples": metrics,
        "q_pairs": first_pairs,
    }


def measure_trace(prep, work: Path, seconds: float, deadline: float) -> dict:
    where = work / "trace"
    rc, res, _, stderr = run_child(
        "trace", seconds, where, prep.argv(where / "out"), deadline - time.monotonic()
    )
    if rc != 0 or res is None:
        raise RuntimeError(f"trace child exit {rc}: {stderr.strip()[-500:]}")
    runs = res["runs"]
    with open(where / "spans.jsonl", encoding="ascii") as fh:
        spans = [sp.Span(**json.loads(line)) for line in fh]
    errors = []
    for i, run in enumerate(runs):
        problems = [f"exit codes {run['rc']}"] if any(run["rc"]) else []
        if run["files_differ"]:
            problems.append(f"instrumented runs wrote other maps: {run['files_differ']}")
        if run["our_files_compared"] < 2:
            problems.append("the command wrote no our_* maps to compare")
        if run["probe_mismatches"]:
            problems.append(f"{run['probe_mismatches']} probed half-iterations differ")
        if run["a2_violations"]:
            problems.append(f"{run['a2_violations']} coefficients outside their bins (A2)")
        if problems:
            errors.append(f"round {i}: " + "; ".join(problems))
    return {
        "attempted": len(runs),
        "failed": len(errors),
        "errors": errors,
        "layers": layer_metrics(spans, runs),
    }


def layer_metrics(spans, runs) -> dict:
    """Per-layer values, and the percentile each tail_ms reports.

    Round i of the traced pass ran the command plain, with spans at its
    layer boundaries (span run 3i+1) and with probes too (3i+2). Program
    spans come from the 3i+1 runs, probe spans from the 3i+2 runs.
    """
    selfs = sp.self_times(spans)
    traced_ids = [3 * i + 1 for i in range(len(runs))]
    probe_ids = [3 * i + 2 for i in range(len(runs))]
    probe_names = {s.name for s in spans if s.probe}
    out = {}
    tails = {}

    def timing(name, calls_s, totals_s):
        per_call_ms = [t * 1e3 for t in calls_s]
        tail = sp.tail_percentile(len(per_call_ms))
        out[f"{name}_ms"] = sp.percentile(per_call_ms, 50) if per_call_ms else 0.0
        out[f"{name}.total_ms"] = statistics.median(totals_s) * 1e3
        out[f"{name}.tail_ms"] = sp.percentile(per_call_ms, tail or 50) if per_call_ms else 0.0
        tails[name] = tail

    for name in SPAN_NAMES:
        ids = probe_ids if name in probe_names else traced_ids
        totals, calls = sp.per_run_totals(spans, selfs, name, ids)
        timing(name, sp.per_call(spans, selfs, name, ids), totals)
        out[RENAMED.get(f"{name}.calls", f"{name}.calls")] = statistics.median(calls)
    # Derived: interpolation = projection without the filter minus the forward warp,
    # paired call by call (both probes run once per half-iteration).
    fwd = sp.per_call(spans, selfs, "warp.forward", probe_ids)
    proj = sp.per_call(spans, selfs, "warp.project0", probe_ids)
    fwd_tot, _ = sp.per_run_totals(spans, selfs, "warp.forward", probe_ids)
    proj_tot, _ = sp.per_run_totals(spans, selfs, "warp.project0", probe_ids)
    timing(
        "warp.interp",
        [p - f for p, f in zip(proj, fwd)],
        [p - f for p, f in zip(proj_tot, fwd_tot)],
    )
    out["codec.clip_fraction"] = runs[0]["clipped"] / runs[0]["coefficients"]
    out["pgm.bytes_written"] = runs[0]["bytes_written"]
    out["cli.self_ms"] = statistics.median(
        (r["traced_wall_s"] - sp.layer_time(spans, selfs, i)) * 1e3
        for i, r in zip(traced_ids, runs)
    )
    # Round 0's plain execution also pays first-call costs: leave it out if others ran.
    warm = runs[1:] or runs
    out["trace.overhead_s"] = statistics.median(
        r["traced_wall_s"] for r in warm
    ) - statistics.median(r["plain_wall_s"] for r in warm)
    return {"values": out, "tail_percentiles": tails}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and summarise one workload; the returned dict holds the JSON line."""
    # Bytecode caching (when enabled) is a one-time cost, not a per-call one:
    # fill src/'s cache before the first child times its imports.
    import depthpocs.cli  # noqa: F401

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        prep = workloads.prepare(name, seed, work / "inputs")
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        record = {"workload": name, "seed": seed, "why": why, "argv": prep.argv(Path("OUT"))}
        (work / "inputs" / "workload.json").write_text(json.dumps(record, indent=1))
        if trace:
            res = measure_trace(prep, work, seconds, deadline)
            values = res["layers"]["values"]
            wanted = spec["per_layer"]
        else:
            res = measure_e2e(prep, work, seconds, deadline)
            values = {k: statistics.median(v) for k, v in res["samples"].items()}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != {m["name"] for m in wanted}:
        differ = sorted(set(values) ^ {m["name"] for m in wanted})
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {differ}")
    res.update(record)
    res["line"] = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return res


def describe(res: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    mode = "traced" if trace else "untraced"
    lines = [f"== {res['workload']} (seed {res['seed']}, {mode}): {res['why']}"]
    lines.append(
        f"   runs attempted {res['attempted']}, failed {res['failed']}, "
        f"failed_frac {res['failed'] / res['attempted']:.3f}"
    )
    lines += [f"   FAILED: {e}" for e in res["errors"]]
    metrics = res["line"]["metrics"]
    if trace:
        tails = res["layers"]["tail_percentiles"]
        for name, m in metrics.items():
            note = ""
            if name.endswith(".tail_ms"):
                p = tails.get(name[: -len(".tail_ms")])
                note = f"  (p{p:g})" if p else "  (fewer than 20 calls: p50)"
            lines.append(f"   {name:28s} {m['value']:14.6f} {m['unit']}{note}")
        return lines
    for name, m in metrics.items():
        s = sp.summary(res["samples"][name])
        lines.append(
            f"   {name:16s} median {s['median']:.6f} {m['unit']}  q1 {s['q1']:.6f}  "
            f"q3 {s['q3']:.6f}  n {s['n']}"
        )
    return lines


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that run_child stops and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload, both for --workload all")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    chosen = names if args.workload == "all" else [args.workload]
    passes = (False, True) if args.trace is None and args.workload == "all" else (bool(args.trace),)
    plan = [(name, trace) for name in chosen for trace in passes]
    print(f"environment: {json.dumps(environment())}")
    results = []
    for name, trace in plan:
        try:
            res = run_workload(spec, name, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(res, trace)), flush=True)
        results.append((name, trace, res["line"]))
    if len(results) == 1:
        line = results[0][2]
    else:
        line = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {f"{n}/{k}": v for n, _, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
