"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 10 [--workload NAME ...] [--baseline bench/baseline.json]

Runs each workload untraced once per seed (seeds 1..N), in this process's
single child at a time, and prints per metric the median of the N run
values and the distance between their quartiles (statistics.quantiles,
n=4) as a share of the median, next to a third of the metric's bound.
With --baseline it also writes the environment, the medians and spreads,
and the traced per-layer values of one seed to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench
import spans as sp


def main(argv=None) -> int:
    spec = bench.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(bench.SRC))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"environment": bench.environment(), "seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workload or names:
        values = {m: [] for m in bounds}
        failed = 0
        for seed in range(1, args.seeds + 1):
            res = bench.run_workload(spec, name, seed, args.seconds, trace=False)
            failed += res["failed"]
            for m, v in res["line"]["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in res["line"]["metrics"].items()), flush=True)
        rows = {}
        for m, vals in values.items():
            s = sp.summary(vals)
            rows[m] = {**s, "spread": sp.spread(vals), "bound": bounds[m]}
            ok = rows[m]["spread"] < bounds[m] / 3
            steady &= ok
            print(f"  {name:15s} {m:14s} median {s['median']:.6g}  spread {rows[m]['spread']:.4f}"
                  f"  (bound/3 {bounds[m] / 3:.4f}){'' if ok else '  TOO WIDE'}")
        record["workloads"][name] = {"failed_runs": failed, "seeds": args.seeds, "end_to_end": rows}
        if args.baseline:
            traced = bench.run_workload(spec, name, 1, args.seconds, trace=True)
            record["workloads"][name]["per_layer_seed1"] = {
                "failed_runs": traced["failed"],
                "values": {k: v["value"] for k, v in traced["line"]["metrics"].items()},
                "tail_percentiles": traced["layers"]["tail_percentiles"],
            }
    if args.baseline:
        args.baseline.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
