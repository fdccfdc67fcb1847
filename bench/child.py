"""One fresh benchmark process: time a CLI command, its set-up, or trace it.

    python3 bench/child.py setup SECONDS RESULT_DIR -- ARGV...
    python3 bench/child.py e2e   SECONDS RESULT_DIR -- ARGV...
    python3 bench/child.py trace SECONDS RESULT_DIR -- ARGV...

ARGV is what `depthpocs` would receive; its `-o` directory is replaced per
call inside RESULT_DIR. Every mode first times set-up as every CLI call pays
it (importing depthpocs.cli plus load_config of the command's config);
`setup` stops there. `e2e` then runs main(argv) once. `trace` repeats, for
SECONDS, rounds of three executions of the command: plain (span run 3i),
with spans at its layer boundaries (3i+1), and with those spans plus the
half-iteration probes (3i+2); see instrument.py. It keeps the spans in
memory and writes them to RESULT_DIR/spans.jsonl at the end. The last
stdout line is a JSON summary. The parent puts the checkout's src/ first on
PYTHONPATH.
"""

import sys
import time

if __name__ == "__main__":
    _t0 = time.perf_counter()
    import depthpocs.cli as _cli

    _cli.load_config(sys.argv[sys.argv.index("--") + 2])
    _SETUP_S = time.perf_counter() - _t0


def _outdir_argv(argv, outdir):
    out = list(argv)
    out[out.index("-o") + 1] = str(outdir)
    return out


def _timed_main(argv, outdir):
    t = time.perf_counter()
    rc = _cli.main(_outdir_argv(argv, outdir))
    return rc, time.perf_counter() - t


def _e2e(argv, result_dir):
    import json

    rc, wall_s = _timed_main(argv, result_dir / "out")
    print(json.dumps({"rc": rc, "setup_s": _SETUP_S, "wall_s": wall_s}))


def _trace(seconds, argv, result_dir):
    import filecmp
    import json
    import shutil

    from instrument import Probe, instrumented
    from spans import Tracer

    tracer = Tracer()
    runs = []
    start = time.perf_counter()
    last = 0.0
    # Start another round only if one as long as the last ends within SECONDS.
    while not runs or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        plain, traced, probed = (result_dir / d for d in ("plain", "traced", "probed"))
        rc_plain, plain_wall = _timed_main(argv, plain)
        tracer.run = 3 * len(runs) + 1
        with instrumented(tracer):
            rc_traced, traced_wall = _timed_main(argv, traced)
        tracer.run = 3 * len(runs) + 2
        probe = Probe(tracer)
        with instrumented(tracer, probe):
            rc_probed, _ = _timed_main(argv, probed)
        ours = sorted(p.relative_to(plain) for p in plain.rglob("our_*.pgm"))
        runs.append({
            "rc": [rc_plain, rc_traced, rc_probed],
            "plain_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "our_files_compared": len(ours),
            "files_differ": [
                f"{d.name}/{rel}" for d in (traced, probed) for rel in ours
                if not (d / rel).is_file() or not filecmp.cmp(d / rel, plain / rel, shallow=False)
            ],
            "bytes_written": sum(p.stat().st_size for p in traced.rglob("*.pgm")),
            "clipped": probe.clipped,
            "coefficients": probe.coefficients,
            "probe_mismatches": probe.mismatches,
            "a2_violations": probe.a2_violations,
        })
        for d in (plain, traced, probed):
            shutil.rmtree(d, ignore_errors=True)
        last = time.perf_counter() - began
    with open(result_dir / "spans.jsonl", "w", encoding="ascii") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")
    print(json.dumps({"runs": runs}))


def main():
    import json
    from pathlib import Path

    import depthpocs

    mode, seconds, result_dir = sys.argv[1], float(sys.argv[2]), Path(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(depthpocs.__file__).resolve().parent.parent != src:
        print(f"depthpocs imported from {depthpocs.__file__}, not {src}", file=sys.stderr)
        return 3
    if mode == "setup":
        print(json.dumps({"setup_s": _SETUP_S}))
    elif mode == "e2e":
        _e2e(argv, result_dir)
    else:
        _trace(seconds, argv, result_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
