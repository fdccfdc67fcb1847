"""Command line pipeline around the library.

Verbs: generate (synthetic scene to PGM), compress / decode (QDM1
containers), refine (two descriptions to refined maps plus CSV trace),
evaluate (PSNR of a pair against references), run (the whole protocol:
truth, compress, standard decode, smoothed baseline, refinement,
error maps, CSV report) and sweep (run over a list of step sizes).

Each piece of the pipeline is built in one place. _read_sections reads
every config section, the camera file's too, through one table: _SECTIONS,
and _PRIMITIVES per [primitive.*] type, give each key its value reader and
say whether it is required. A section or key they do not list is a
ConfigError. Step tables come from _step_table; the config's one rig is
RunConfig.camera_pair (a map shape in, the cameras out), used by import
mode and `refine`; scene mode renders [camera] through generate_scene;
the truth pair from resolve_inputs; the protocol from run_protocol and
report.csv from write_report_csv. `sweep` renders the scene, or reads the
[inputs] maps, once and runs the protocol on those arrays for every step,
each step in a process of _common.in_processes (forked workers inherit the
arrays and reply with the step's RunResult). It prints each step's line in
delta order as it arrives; the first failing step in delta order ends the
command with its error, as in one process. `refine` needs only the two
descriptions and the config's camera sections: it takes the map shape from
the descriptions and neither renders [scene] nor reads the [inputs] maps.

run, sweep and refine report PSNRs on maps rounded to 8-bit levels, with
or without --pgm16, so the numbers match what a user would measure on
8-bit PGMs of the maps. evaluate scores the maps as read: 16-bit files
keep their fractions of a level. Exit codes: 0 ok, 2 invalid
configuration or argument, 3 I/O failure, 4 numerical failure or too
little memory: each library error carries its code (see depthpocs.errors).
"""

from __future__ import annotations

import argparse
import configparser
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._common import in_processes
from .codec import QuantizedDescription, decode_map, encode_map, flat_table, jpeg_table
from .errors import REPORTED, ConfigError, InvalidParameterError
from .geometry import CameraParams, RectifiedPair, stereo_pair
from .metrics import QualityScore, error_map, quality_g
from .pgm import read_pgm, write_pgm
from .pocs import VIEWS, IterationReport, RefineOptions, _keep_freed_memory, refine
from .scene import Box, GeneratedScene, Plane, SceneSpec, generate_scene
from .warp import bilateral_filter

CSV_HEADER = "iter,view,psnr_left,psnr_right,g,mean_change,clip_fraction"


@dataclass
class RunConfig:
    """Parsed run configuration: scene or imported maps, codec and solver."""

    scene: SceneSpec | None
    inputs: tuple[Path, Path] | None
    camera_pair: Callable[[tuple[int, int]], RectifiedPair]  # map shape in, the one rig out
    table: np.ndarray
    options: RefineOptions


# Value readers: the text of one key (never empty) in, its value out, or a
# ValueError that says what is wrong with the text.
def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None


def _integer(raw: str) -> int:
    try:
        return int(raw)  # a digit string keeps every digit
    except ValueError:
        value = _number(raw)  # a form like 3.0 or 1e3
    if not value.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


def _yes_no(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"{raw!r} is not yes or no") from None


def _path(raw: str) -> Path:
    if "\0" in raw:
        raise ValueError(f"{raw!r} holds a NUL byte")
    return Path(raw)


def _matrix(rows: int, cols: int):
    def read(raw: str) -> np.ndarray:
        values = np.array([_number(tok) for tok in raw.split()])
        if values.size != rows * cols:
            raise ValueError(f"needs {rows * cols} numbers, got {values.size}")
        return values.reshape(rows, cols)

    return read


# Every section a config may hold, as {key: (reader, required)}. A section
# or key not listed is an error. An optional key that is absent is left out,
# so the class its section builds supplies the default.
_MATRICES = {"k": (_matrix(3, 3), True), "e": (_matrix(3, 4), True)}
_SECTIONS = {
    "scene": {"width": (_integer, True), "height": (_integer, True),
              "seed": (_integer, False), "noise_amp": (_number, False)},
    "camera": {"focal": (_number, True), "baseline": (_number, True),
               "cx": (_number, False), "cy": (_number, False)},
    "inputs": {"left": (_path, True), "right": (_path, True), "camera_file": (_path, False)},
    "camera.left": _MATRICES,
    "camera.right": _MATRICES,
    "quant": {"delta": (_number, False), "quality": (_integer, False)},
    "refine": {"max_iters": (_integer, False), "eps": (_number, False),
               "tau": (_number, False), "sigma_s": (_number, False),
               "sigma_r": (_number, False), "radius": (_integer, False),
               "start": (str, False)},
}
# [primitive.<any name>]: its `type` picks the class it builds and its keys.
_PRIMITIVES = {
    "plane": (partial(Plane, a=0.0, b=0.0),
              {"type": (str.lower, True), "a": (_number, False), "b": (_number, False),
               "c": (_number, True), "ripple": (_yes_no, False)}),
    "box": (Box, {"type": (str.lower, True),
                  **dict.fromkeys(("x0", "x1", "y0", "y1", "depth"), (_number, True))}),
}
_CAMERA_FILE_SECTIONS = ("camera.left", "camera.right")


def _read_sections(path: Path, what: str, names: tuple[str, ...]) -> dict[str, dict]:
    """{section: {key: value}} of the INI file at path, read through the table.

    names: the _SECTIONS the file may hold, and "primitive.*" if it may hold
    primitives. `%` is literal; [DEFAULT] is an unknown section like any other.
    """
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sections = {}
    for name in parser.sections():
        section = parser[name]
        if name.startswith("primitive.") and "primitive.*" in names:
            kind = section.get("type", "").lower()
            if kind not in _PRIMITIVES:
                raise ConfigError(f"[{name}] has unknown type {kind!r}")
            keys = _PRIMITIVES[kind][1]
        elif name in names:
            keys = _SECTIONS[name]
        else:
            raise ConfigError(f"{what} {path} has unknown section [{name}]")
        values = sections[name] = {}
        for key, raw in section.items():
            if key not in keys:
                raise ConfigError(f"[{name}] has unknown key {key!r}")
            if not raw:
                raise ConfigError(f"[{name}] {key} has no value")
            try:
                values[key] = keys[key][0](raw)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from None
        missing = [key for key, (_, required) in keys.items() if required and key not in values]
        if missing:
            raise ConfigError(f"missing key '{missing[0]}' in section [{name}]")
    return sections


def _step_table(delta: float | None = None, quality: int | None = None) -> np.ndarray:
    """Flat table of step delta (24 when neither is given) or JPEG-style table."""
    if delta is not None and quality is not None:
        raise ConfigError("give either a step size (delta) or a quality, not both")
    if quality is not None:
        return jpeg_table(quality)
    return flat_table(24.0 if delta is None else delta)


def load_config(path) -> RunConfig:
    """Parse an INI run configuration; paths resolve against its directory."""
    path = Path(path)
    sections = _read_sections(path, "config file", (*_SECTIONS, "primitive.*"))
    base = path.parent
    inputs = sections.get("inputs")
    if inputs is not None and "scene" in sections:
        raise ConfigError("give either [scene] or [inputs], not both")
    if inputs is not None and "camera_file" in inputs:
        sections.update(
            _read_sections(base / inputs["camera_file"], "camera file", _CAMERA_FILE_SECTIONS)
        )

    rig, camera = None, sections.get("camera")
    views = [sections.get(name) for name in _CAMERA_FILE_SECTIONS]
    if any(views):
        if not all(views):
            raise ConfigError("need both [camera.left] and [camera.right]")
        if camera is not None:
            raise ConfigError("give either [camera] or [camera.left]/[camera.right], not both")
        rig = RectifiedPair(*(CameraParams(**view) for view in views))

    primitives = [name for name in sections if name.startswith("primitive.")]
    scene = maps = None
    if "scene" in sections:
        if camera is None:
            raise ConfigError("scene mode needs a [camera] section and no camera matrices")
        if not primitives:
            raise ConfigError("scene mode needs at least one [primitive.*] section")
        built = [_PRIMITIVES[sections[n].pop("type")][0](**sections[n]) for n in primitives]
        scene = SceneSpec(**sections["scene"], **camera, primitives=built)
    elif inputs is not None:
        if primitives:
            raise ConfigError(f"import mode reads no [{primitives[0]}] section")
        maps = (base / inputs["left"], base / inputs["right"])
        if rig is None and camera is None:
            raise ConfigError("import mode needs [camera.left]/[camera.right] "
                              "matrices or a [camera] section")
    else:
        raise ConfigError("config needs a [scene] or an [inputs] section")

    try:
        options = RefineOptions(**sections.get("refine", {}))
    except InvalidParameterError as exc:
        raise ConfigError(f"bad [refine] options: {exc}") from exc
    camera_pair = (lambda shape: rig) if camera is None else partial(stereo_pair, **camera)
    return RunConfig(scene, maps, camera_pair, _step_table(**sections.get("quant", {})), options)


def resolve_inputs(config: RunConfig) -> GeneratedScene:
    """Render the scene or read the [inputs] maps; done once per command."""
    if config.scene is not None:
        return generate_scene(config.scene)
    left, right = map(read_pgm, config.inputs)
    if left.shape != right.shape:
        raise ConfigError(f"input maps disagree in size: {left.shape} vs {right.shape}")
    return GeneratedScene(left, right, None, None, config.camera_pair(left.shape))


def _write_truth(outdir: Path, inputs: GeneratedScene, deep: bool) -> None:
    """truth_*.pgm, plus mask_*.pgm (always 8-bit) when the inputs have masks."""
    for view, truth in zip(VIEWS, (inputs.left, inputs.right)):
        write_pgm(outdir / f"truth_{view}.pgm", truth, deep=deep)
    if inputs.mask_left is not None:
        for view, mask in zip(VIEWS, (inputs.mask_left, inputs.mask_right)):
            write_pgm(outdir / f"mask_{view}.pgm", mask * 255.0)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{x:.6f}"


def _stop_state(report: IterationReport) -> str:
    return f"{'converged' if report.converged else 'stopped'} after {report.iterations} iterations"


def write_report_csv(
    path, report: IterationReport, scores: tuple[QualityScore, ...] = ()
) -> None:
    """One row per half-iteration, then a summary row when scores are given.

    scores is (Q_std, Q_smo, Q_our); the summary row reuses the three PSNR
    columns to carry their g values, in that order, and leaves the last
    two columns empty.
    """
    lines = [CSV_HEADER]
    lines.extend(
        f"{e.iteration},{e.view},{_fmt(e.psnr_left)},{_fmt(e.psnr_right)},"
        f"{_fmt(e.g)},{_fmt(e.mean_change)},{_fmt(e.clip_fraction)}"
        for e in report.entries
    )
    if scores:
        lines.append("summary,all," + ",".join(_fmt(q.g) for q in scores) + ",,")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunResult:
    q_std: QualityScore
    q_smo: QualityScore
    q_our: QualityScore
    report: IterationReport

    def scores(self) -> str:
        """Q_std, Q_smo and Q_our as printed by run and sweep."""
        return "Q_std={} Q_smo={} Q_our={}".format(*self.g_values())

    def g_values(self) -> list[str]:
        return [_fmt(q.g) for q in (self.q_std, self.q_smo, self.q_our)]


def run_protocol(
    inputs: GeneratedScene, table, opts: RefineOptions, outdir, *, deep: bool = False
) -> RunResult:
    """Code, decode, smooth and refine the truth pair; write every artifact.

    The std and smo pairs are written and scored as soon as they exist and
    dropped before refine, so refine's memory does not stack on theirs.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_truth(outdir, inputs, deep)
    truth = (inputs.left, inputs.right)

    def write(tag: str, pair) -> QualityScore:
        for view, m, t in zip(VIEWS, pair, truth):
            write_pgm(outdir / f"{tag}_{view}.pgm", m, deep=deep)
            write_pgm(outdir / f"err_{tag}_{view}.pgm", error_map(m, t), deep=deep)
        return quality_g(*pair, *truth, round_to_int=True)

    descs = [encode_map(t, table) for t in truth]
    for view, desc in zip(VIEWS, descs):
        desc.save(outdir / f"{view}.qdm")
    std = [decode_map(desc) for desc in descs]
    q_std = write("std", std)
    smo = [bilateral_filter(m, opts.sigma_s, opts.sigma_r, opts.radius) for m in std]
    del std
    q_smo = write("smo", smo)
    del smo
    cams = inputs.cameras
    *our, report = refine(descs[0], descs[1], cams.left, cams.right, opts, truth)
    q_our = write("our", our)
    write_report_csv(outdir / "report.csv", report, (q_std, q_smo, q_our))
    return RunResult(q_std, q_smo, q_our, report)


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    if config.scene is None:
        raise ConfigError("generate needs a config with a [scene] section")
    inputs = resolve_inputs(config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_truth(outdir, inputs, args.pgm16)
    print(f"wrote truth and mask pair to {outdir}")
    return 0


def _cmd_compress(args) -> int:
    table = _step_table(args.delta, args.quality)
    desc = encode_map(read_pgm(args.input), table)
    desc.save(args.output)
    print(f"encoded {args.input} -> {args.output} ({desc.n_blocks} blocks)")
    return 0


def _cmd_decode(args) -> int:
    desc = QuantizedDescription.load(args.input)
    write_pgm(args.output, decode_map(desc), deep=args.pgm16)
    print(f"decoded {args.input} -> {args.output}")
    return 0


def _cmd_refine(args) -> int:
    if (args.truth_left is None) != (args.truth_right is None):
        raise ConfigError("give both --truth-left and --truth-right, or neither")
    config = load_config(args.config)
    desc_l = QuantizedDescription.load(args.left_desc)
    desc_r = QuantizedDescription.load(args.right_desc)
    cameras = config.camera_pair(desc_l.shape)
    truth = None
    if args.truth_left is not None:
        truth = (read_pgm(args.truth_left), read_pgm(args.truth_right))
    *our, report = refine(desc_l, desc_r, cameras.left, cameras.right, config.options, truth)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for view, m in zip(VIEWS, our):
        write_pgm(outdir / f"our_{view}.pgm", m, deep=args.pgm16)
    write_report_csv(outdir / "report.csv", report)
    print(f"{_stop_state(report)} -> {outdir}")
    return 0


def _cmd_evaluate(args) -> int:
    left = read_pgm(args.left)
    right = read_pgm(args.right)
    ref_l = read_pgm(args.ref_left)
    ref_r = read_pgm(args.ref_right)
    for view, m, ref in zip(VIEWS, (left, right), (ref_l, ref_r)):
        if m.shape != ref.shape:
            raise ConfigError(f"--{view} is {m.shape}, --ref-{view} is {ref.shape}")
    score = quality_g(left, right, ref_l, ref_r)
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_pgm(outdir / "err_left.pgm", error_map(left, ref_l))
        write_pgm(outdir / "err_right.pgm", error_map(right, ref_r))
    print(
        f"psnr_left={_fmt(score.psnr_left)} psnr_right={_fmt(score.psnr_right)} "
        f"g={_fmt(score.g)}"
    )
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_protocol(
        resolve_inputs(config), config.table, config.options, args.outdir, deep=args.pgm16
    )
    print(f"{result.scores()} ({_stop_state(result.report)})")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    try:
        deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --deltas list {args.deltas!r}") from exc
    if not deltas:
        raise ConfigError("--deltas needs at least one value")
    names = [f"delta_{delta:g}" for delta in deltas]
    if len(set(names)) != len(names):
        raise ConfigError(f"--deltas {args.deltas!r}: two steps share a delta_<step> directory")
    tables = [_step_table(delta) for delta in deltas]
    inputs = resolve_inputs(config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def step(i: int) -> RunResult:
        return run_protocol(inputs, tables[i], config.options, outdir / names[i], deep=args.pgm16)

    rows = ["delta,q_std,q_smo,q_our"]
    for delta, result in zip(deltas, in_processes(step, len(deltas), "sweep worker")):
        rows.append(",".join([f"{delta:g}", *result.g_values()]))
        print(f"delta {delta:g}: {result.scores()}")
    with open(outdir / "aggregate.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthpocs",
        description="Refine block-DCT compressed stereo depth maps by "
        "alternating cross-view projections.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The arguments generate, refine, run and sweep share.
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("config")
    base.add_argument("-o", "--outdir", required=True)
    base.add_argument("--pgm16", action="store_true", help="write 16-bit deep PGMs")

    p = sub.add_parser("generate", parents=[base], help="render a synthetic scene to PGM files")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compress", help="encode a PGM map into a QDM1 container")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--delta", type=float, help="flat quantization step")
    p.add_argument("--quality", type=int, help="JPEG-style quality factor 1..100")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decode", help="standard centroid decode of a QDM1 file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--pgm16", action="store_true", help="write 16-bit deep PGMs")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("refine", parents=[base], help="refine two QDM1 descriptions jointly")
    p.add_argument("--left-desc", required=True)
    p.add_argument("--right-desc", required=True)
    p.add_argument("--truth-left")
    p.add_argument("--truth-right")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("evaluate", help="PSNR of a map pair against references")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--ref-left", required=True)
    p.add_argument("--ref-right", required=True)
    p.add_argument("-o", "--outdir", help="also write error maps here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", parents=[base], help="full pipeline: generate, code, refine, report")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", parents=[base], help="repeat run over a list of step sizes")
    p.add_argument("--deltas", required=True, help="comma separated step sizes")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        return args.func(args)
    except REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3 if isinstance(exc, OSError) else 4)


if __name__ == "__main__":
    sys.exit(main())
