"""Command line pipeline around the library.

Verbs: generate (synthetic scene to PGM), compress / decode (QDM1
containers), refine (two descriptions to refined maps plus CSV trace),
evaluate (PSNR of a pair against references), run (the whole protocol:
truth, compress, standard decode, smoothed baseline, refinement,
error maps, CSV report) and sweep (run over a list of step sizes).

Each piece of the pipeline is built in one place: step tables by
_step_table, cameras by RunConfig.camera_pair (from the config and a map
shape), the truth pair by resolve_inputs, the protocol by run_protocol and
report.csv by write_report_csv. `sweep` renders the scene, or reads the
[inputs] maps, once and runs the protocol on those arrays for every step.
`refine` needs only the two descriptions and the config's camera sections:
it takes the map shape from the descriptions and neither renders [scene]
nor reads the [inputs] maps.

Reported PSNRs are computed on values rounded to 8-bit levels so the
numbers match what a user would measure on the written PGM artifacts;
exit codes: 0 ok, 2 invalid configuration, 3 I/O failure, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .codec import QuantizedDescription, decode_map, encode_map, flat_table, jpeg_table
from .errors import (
    ConfigError,
    DepthPocsError,
    InvalidConfigurationError,
    InvalidInputError,
    InvalidParameterError,
)
from .geometry import CameraParams, RectifiedPair, simple_camera
from .metrics import QualityScore, error_map, quality_g
from .pgm import read_pgm, write_pgm
from .pocs import IterationReport, RefineOptions, _keep_freed_memory, refine
from .scene import Box, Plane, SceneSpec, generate_scene
from .warp import bilateral_filter

CSV_HEADER = "iter,view,psnr_left,psnr_right,g,mean_change,clip_fraction"
VIEWS = ("left", "right")


@dataclass
class RunConfig:
    """Parsed run configuration: scene or imported maps, codec and solver."""

    scene: SceneSpec | None
    input_left: Path | None
    input_right: Path | None
    cameras: RectifiedPair | None
    simple_cam: tuple | None  # (focal, baseline, cx, cy) with cx/cy possibly None
    table: np.ndarray
    options: RefineOptions

    def camera_pair(self, shape: tuple[int, int]) -> RectifiedPair:
        """The cameras for maps of `shape`; a missing cx/cy is the image centre."""
        if self.cameras is not None:
            return self.cameras
        focal, baseline, cx, cy = self.simple_cam
        height, width = shape
        cx = (width - 1) / 2.0 if cx is None else cx
        cy = (height - 1) / 2.0 if cy is None else cy
        return RectifiedPair(
            simple_camera(focal, cx, cy, 0.0), simple_camera(focal, cx, cy, baseline)
        )


def _cfg_float(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key '{key}' in section [{section.name}]")
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a number") from exc


def _cfg_int(section, key, default=None):
    value = _cfg_float(section, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"[{section.name}] {key} = {section.get(key)!r} is not an integer")
    return int(value)


def _cfg_optional(section, key, conv):
    """conv(section, key), or None when the key is absent."""
    return None if section.get(key) is None else conv(section, key)


def _read_ini(path: Path, what: str) -> configparser.ConfigParser:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _parse_matrix(section, key, count, shape):
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"missing key '{key}' in section [{section.name}]")
    try:
        vals = [float(tok) for tok in raw.split()]
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} has non-numeric entries") from exc
    if len(vals) != count:
        raise ConfigError(
            f"[{section.name}] {key} needs {count} numbers, got {len(vals)}"
        )
    return np.array(vals).reshape(shape)


def _parse_primitives(parser: configparser.ConfigParser) -> list:
    prims = []
    for name in parser.sections():
        if not name.startswith("primitive."):
            continue
        sec = parser[name]
        kind = sec.get("type", "").strip().lower()
        if kind == "plane":
            prims.append(
                Plane(
                    a=_cfg_float(sec, "a", 0.0),
                    b=_cfg_float(sec, "b", 0.0),
                    c=_cfg_float(sec, "c"),
                    ripple=sec.getboolean("ripple", fallback=True),
                )
            )
        elif kind == "box":
            prims.append(
                Box(
                    x0=_cfg_float(sec, "x0"),
                    x1=_cfg_float(sec, "x1"),
                    y0=_cfg_float(sec, "y0"),
                    y1=_cfg_float(sec, "y1"),
                    depth=_cfg_float(sec, "depth"),
                )
            )
        else:
            raise ConfigError(f"[{name}] has unknown type {kind!r}")
    return prims


def _parse_camera_matrices(parser: configparser.ConfigParser) -> RectifiedPair:
    try:
        left, right = (
            CameraParams(
                _parse_matrix(parser[f"camera.{view}"], "k", 9, (3, 3)),
                _parse_matrix(parser[f"camera.{view}"], "e", 12, (3, 4)),
            )
            for view in VIEWS
        )
        return RectifiedPair(left, right)
    except InvalidConfigurationError as exc:
        raise ConfigError(f"bad camera matrices: {exc}") from exc


def _step_table(delta: float | None, quality: int | None) -> np.ndarray:
    """Flat table of step delta (24 when neither is given) or JPEG-style table."""
    if delta is not None and quality is not None:
        raise ConfigError("give either a step size (delta) or a quality, not both")
    try:
        if quality is not None:
            return jpeg_table(quality)
        return flat_table(24.0 if delta is None else delta)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    """Parse an INI run configuration; paths resolve against its directory."""
    path = Path(path)
    parser = _read_ini(path, "config file")
    base = path.parent

    camera_parser = parser
    if parser.has_section("inputs") and parser["inputs"].get("camera_file"):
        camera_parser = _read_ini(base / parser["inputs"]["camera_file"], "camera file")

    cameras = None
    simple_cam = None
    matrix_sections = [camera_parser.has_section(f"camera.{view}") for view in VIEWS]
    if any(matrix_sections):
        if not all(matrix_sections):
            raise ConfigError("need both [camera.left] and [camera.right]")
        cameras = _parse_camera_matrices(camera_parser)
    elif parser.has_section("camera"):
        sec = parser["camera"]
        simple_cam = (
            _cfg_float(sec, "focal"),
            _cfg_float(sec, "baseline"),
            _cfg_optional(sec, "cx", _cfg_float),
            _cfg_optional(sec, "cy", _cfg_float),
        )

    scene = None
    input_left = input_right = None
    if parser.has_section("scene"):
        sec = parser["scene"]
        if simple_cam is None:
            raise ConfigError("scene mode needs a [camera] section")
        scene = SceneSpec(
            width=_cfg_int(sec, "width"),
            height=_cfg_int(sec, "height"),
            primitives=_parse_primitives(parser),
            focal=simple_cam[0],
            baseline=simple_cam[1],
            cx=simple_cam[2],
            cy=simple_cam[3],
            seed=_cfg_int(sec, "seed", 0),
            noise_amp=_cfg_float(sec, "noise_amp", 0.0),
        )
        if not scene.primitives:
            raise ConfigError("scene mode needs at least one [primitive.*] section")
    elif parser.has_section("inputs"):
        sec = parser["inputs"]
        left = sec.get("left")
        right = sec.get("right")
        if not left or not right:
            raise ConfigError("[inputs] needs 'left' and 'right' map paths")
        input_left = base / left
        input_right = base / right
        if cameras is None and simple_cam is None:
            raise ConfigError(
                "import mode needs [camera.left]/[camera.right] matrices "
                "or a [camera] section"
            )
    else:
        raise ConfigError("config needs a [scene] or an [inputs] section")

    delta = quality = None
    if parser.has_section("quant"):
        sec = parser["quant"]
        delta = _cfg_optional(sec, "delta", _cfg_float)
        quality = _cfg_optional(sec, "quality", _cfg_int)
    table = _step_table(delta, quality)

    opts_kwargs = {}
    if parser.has_section("refine"):
        sec = parser["refine"]
        for key, conv in (
            ("max_iters", _cfg_int),
            ("eps", _cfg_float),
            ("tau", _cfg_float),
            ("sigma_s", _cfg_float),
            ("sigma_r", _cfg_float),
            ("radius", _cfg_int),
        ):
            if sec.get(key) is not None:
                opts_kwargs[key] = conv(sec, key)
        if sec.get("start") is not None:
            opts_kwargs["start"] = sec.get("start").strip()
    try:
        options = RefineOptions(**opts_kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"bad [refine] options: {exc}") from exc

    return RunConfig(
        scene=scene,
        input_left=input_left,
        input_right=input_right,
        cameras=cameras,
        simple_cam=simple_cam,
        table=table,
        options=options,
    )


class Inputs(NamedTuple):
    """Ground-truth pair, its cameras and, in scene mode, the visibility masks."""

    left: np.ndarray
    right: np.ndarray
    cameras: RectifiedPair
    masks: tuple[np.ndarray, np.ndarray] | None


def resolve_inputs(config: RunConfig) -> Inputs:
    """Render the scene or read the [inputs] maps; done once per command."""
    if config.scene is not None:
        gen = generate_scene(config.scene)
        left, right, masks = gen.left, gen.right, (gen.mask_left, gen.mask_right)
    else:
        left, right, masks = read_pgm(config.input_left), read_pgm(config.input_right), None
        if left.shape != right.shape:
            raise ConfigError(
                f"input maps disagree in size: {left.shape} vs {right.shape}"
            )
    return Inputs(left, right, config.camera_pair(left.shape), masks)


def _write_truth(outdir: Path, inputs: Inputs, deep: bool) -> None:
    """truth_*.pgm, plus mask_*.pgm (always 8-bit) when the inputs have masks."""
    for view, truth in zip(VIEWS, (inputs.left, inputs.right)):
        write_pgm(outdir / f"truth_{view}.pgm", truth, deep=deep)
    if inputs.masks is not None:
        for view, mask in zip(VIEWS, inputs.masks):
            write_pgm(outdir / f"mask_{view}.pgm", mask * 255.0)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if math.isinf(x):
        return "inf"
    return f"{x:.6f}"


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
    outdir: Path

    def scores(self) -> str:
        """Q_std, Q_smo and Q_our as printed by run and sweep."""
        return "Q_std={} Q_smo={} Q_our={}".format(*self.g_values())

    def g_values(self) -> list[str]:
        return [_fmt(q.g) for q in (self.q_std, self.q_smo, self.q_our)]


def run_protocol(
    inputs: Inputs, table, opts: RefineOptions, outdir, *, deep: bool = False
) -> RunResult:
    """Code, decode, smooth and refine the truth pair; write every artifact."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_truth(outdir, inputs, deep)
    truth = (inputs.left, inputs.right)

    descs = [encode_map(t, table) for t in truth]
    for view, desc in zip(VIEWS, descs):
        desc.save(outdir / f"{view}.qdm")
    std = [decode_map(desc) for desc in descs]
    smo = [bilateral_filter(m, opts.sigma_s, opts.sigma_r, opts.radius) for m in std]
    cams = inputs.cameras
    *our, report = refine(descs[0], descs[1], cams.left, cams.right, opts, truth)

    maps = {"std": std, "smo": smo, "our": our}
    for tag, pair in maps.items():
        for view, m, t in zip(VIEWS, pair, truth):
            write_pgm(outdir / f"{tag}_{view}.pgm", m, deep=deep)
            write_pgm(outdir / f"err_{tag}_{view}.pgm", error_map(m, t), deep=deep)
    q_std, q_smo, q_our = (
        quality_g(*pair, *truth, round_to_int=True) for pair in maps.values()
    )
    write_report_csv(outdir / "report.csv", report, (q_std, q_smo, q_our))
    return RunResult(q_std, q_smo, q_our, report, outdir)


def run_pipeline(config: RunConfig, outdir, *, deep: bool = False) -> RunResult:
    """Execute the full protocol and write every artifact into outdir."""
    return run_protocol(resolve_inputs(config), config.table, config.options, outdir, deep=deep)


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
    shape = (desc_l.orig_height, desc_l.orig_width)
    if (desc_r.orig_height, desc_r.orig_width) != shape:
        raise ConfigError(
            f"descriptions disagree in size: {shape} vs "
            f"{(desc_r.orig_height, desc_r.orig_width)}"
        )
    cameras = config.camera_pair(shape)
    truth = None
    if args.truth_left is not None:
        truth = (read_pgm(args.truth_left), read_pgm(args.truth_right))
        for view, t in zip(VIEWS, truth):
            if t.shape != shape:
                raise ConfigError(
                    f"--truth-{view} is {t.shape}, the descriptions are {shape}"
                )
    our_l, our_r, report = refine(
        desc_l, desc_r, cameras.left, cameras.right, config.options, truth
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_pgm(outdir / "our_left.pgm", our_l, deep=args.pgm16)
    write_pgm(outdir / "our_right.pgm", our_r, deep=args.pgm16)
    write_report_csv(outdir / "report.csv", report)
    state = "converged" if report.converged else "stopped"
    print(f"{state} after {report.iterations} iterations -> {outdir}")
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
    result = run_pipeline(config, args.outdir, deep=args.pgm16)
    print(
        f"{result.scores()} "
        f"({'converged' if result.report.converged else 'stopped'} after "
        f"{result.report.iterations} iterations)"
    )
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
    tables = [_step_table(delta, None) for delta in deltas]
    inputs = resolve_inputs(config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = ["delta,q_std,q_smo,q_our"]
    for delta, table, name in zip(deltas, tables, names):
        result = run_protocol(inputs, table, config.options, outdir / name, deep=args.pgm16)
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

    p = sub.add_parser("generate", help="render a synthetic scene to PGM files")
    p.add_argument("config")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--pgm16", action="store_true", help="write 16-bit deep PGMs")
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
    p.add_argument("--pgm16", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("refine", help="refine two QDM1 descriptions jointly")
    p.add_argument("config")
    p.add_argument("--left-desc", required=True)
    p.add_argument("--right-desc", required=True)
    p.add_argument("--truth-left")
    p.add_argument("--truth-right")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--pgm16", action="store_true")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("evaluate", help="PSNR of a map pair against references")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--ref-left", required=True)
    p.add_argument("--ref-right", required=True)
    p.add_argument("-o", "--outdir", help="also write error maps here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline: generate, code, refine, report")
    p.add_argument("config")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--pgm16", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="repeat run over a list of step sizes")
    p.add_argument("config")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--deltas", required=True, help="comma separated step sizes")
    p.add_argument("--pgm16", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        return args.func(args)
    except DepthPocsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
