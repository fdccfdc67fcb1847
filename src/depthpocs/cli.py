"""Command line pipeline around the library.

Verbs: generate (synthetic scene to PGM), compress / decode (QDM1
containers), refine (two descriptions to refined maps plus CSV trace),
evaluate (PSNR of a pair against references), run (the whole protocol:
truth, compress, standard decode, smoothed baseline, refinement,
error maps, CSV report) and sweep (run over a list of step sizes).

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

import numpy as np

from . import __version__
from .codec import QuantizedDescription, decode_map, encode_map, flat_table, jpeg_table
from .errors import (
    ConfigError,
    DepthPocsError,
    InvalidConfigurationError,
    InvalidParameterError,
    InvalidSceneError,
    PgmFormatError,
)
from .geometry import CameraParams, RectifiedPair, simple_camera
from .metrics import QualityScore, error_map, quality_g
from .pgm import read_pgm, write_pgm
from .pocs import IterationReport, RefineOptions, refine
from .scene import Box, GeneratedScene, Plane, SceneSpec, generate_scene
from .warp import bilateral_filter

CSV_HEADER = "iter,view,psnr_left,psnr_right,g,mean_change,clip_fraction"


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
        left = CameraParams(
            _parse_matrix(parser["camera.left"], "k", 9, (3, 3)),
            _parse_matrix(parser["camera.left"], "e", 12, (3, 4)),
        )
        right = CameraParams(
            _parse_matrix(parser["camera.right"], "k", 9, (3, 3)),
            _parse_matrix(parser["camera.right"], "e", 12, (3, 4)),
        )
        return RectifiedPair(left, right)
    except InvalidConfigurationError as exc:
        raise ConfigError(f"bad camera matrices: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse an INI run configuration; paths resolve against its directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    base = path.parent

    camera_parser = parser
    if parser.has_section("inputs") and parser["inputs"].get("camera_file"):
        cam_path = base / parser["inputs"]["camera_file"]
        if not cam_path.is_file():
            raise ConfigError(f"camera file not found: {cam_path}")
        camera_parser = configparser.ConfigParser()
        try:
            with open(cam_path, "r", encoding="utf-8") as fh:
                camera_parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {cam_path}: {exc}") from exc

    cameras = None
    simple_cam = None
    if camera_parser.has_section("camera.left") or camera_parser.has_section(
        "camera.right"
    ):
        if not (
            camera_parser.has_section("camera.left")
            and camera_parser.has_section("camera.right")
        ):
            raise ConfigError("need both [camera.left] and [camera.right]")
        cameras = _parse_camera_matrices(camera_parser)
    elif parser.has_section("camera"):
        sec = parser["camera"]
        cx = _cfg_float(sec, "cx", math.nan)
        cy = _cfg_float(sec, "cy", math.nan)
        simple_cam = (
            _cfg_float(sec, "focal"),
            _cfg_float(sec, "baseline"),
            None if math.isnan(cx) else cx,
            None if math.isnan(cy) else cy,
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

    table = flat_table(24.0)
    if parser.has_section("quant"):
        sec = parser["quant"]
        if sec.get("delta") is not None and sec.get("quality") is not None:
            raise ConfigError("[quant] takes either 'delta' or 'quality', not both")
        if sec.get("quality") is not None:
            table = jpeg_table(_cfg_int(sec, "quality"))
        elif sec.get("delta") is not None:
            table = flat_table(_cfg_float(sec, "delta"))

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
        options = RefineOptions(round_metrics=True, **opts_kwargs)
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


def _resolve_inputs(
    config: RunConfig,
) -> tuple[np.ndarray, np.ndarray, RectifiedPair, GeneratedScene | None]:
    """Ground truth pair and cameras, from the scene or from input files."""
    if config.scene is not None:
        gen = generate_scene(config.scene)
        return gen.left, gen.right, gen.cameras, gen
    left = read_pgm(config.input_left)
    right = read_pgm(config.input_right)
    if left.shape != right.shape:
        raise ConfigError(
            f"input maps disagree in size: {left.shape} vs {right.shape}"
        )
    if config.cameras is not None:
        cameras = config.cameras
    else:
        focal, baseline, cx, cy = config.simple_cam
        if cx is None:
            cx = (left.shape[1] - 1) / 2.0
        if cy is None:
            cy = (left.shape[0] - 1) / 2.0
        cameras = RectifiedPair(
            simple_camera(focal, cx, cy, 0.0), simple_camera(focal, cx, cy, baseline)
        )
    return left, right, cameras, None


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if math.isinf(x):
        return "inf"
    return f"{x:.6f}"


def _report_rows(report: IterationReport) -> list[str]:
    return [
        f"{e.iteration},{e.view},{_fmt(e.psnr_left)},{_fmt(e.psnr_right)},"
        f"{_fmt(e.g)},{_fmt(e.mean_change)},{_fmt(e.clip_fraction)}"
        for e in report.entries
    ]


def write_report_csv(
    path,
    report: IterationReport,
    q_std: QualityScore,
    q_smo: QualityScore,
    q_our: QualityScore,
) -> None:
    """One row per half-iteration plus a summary line.

    The summary row reuses the three PSNR columns to carry Q_std, Q_smo
    and Q_our (in that order) and leaves the last two columns empty.
    """
    lines = [CSV_HEADER]
    lines.extend(_report_rows(report))
    lines.append(f"summary,all,{_fmt(q_std.g)},{_fmt(q_smo.g)},{_fmt(q_our.g)},,")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunResult:
    q_std: QualityScore
    q_smo: QualityScore
    q_our: QualityScore
    report: IterationReport
    outdir: Path


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DepthPocsError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc


def run_pipeline(config: RunConfig, outdir, *, deep: bool = False) -> RunResult:
    """Execute the full protocol and write every artifact into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    opts = config.options

    truth_l, truth_r, cameras, gen = _stage("generate", _resolve_inputs, config)
    write_pgm(outdir / "truth_left.pgm", truth_l, deep=deep)
    write_pgm(outdir / "truth_right.pgm", truth_r, deep=deep)
    if gen is not None:
        write_pgm(outdir / "mask_left.pgm", gen.mask_left * 255.0)
        write_pgm(outdir / "mask_right.pgm", gen.mask_right * 255.0)

    desc_l = _stage("compress", encode_map, truth_l, config.table)
    desc_r = _stage("compress", encode_map, truth_r, config.table)
    desc_l.save(outdir / "left.qdm")
    desc_r.save(outdir / "right.qdm")

    std_l = _stage("decode", decode_map, desc_l)
    std_r = _stage("decode", decode_map, desc_r)
    write_pgm(outdir / "std_left.pgm", std_l, deep=deep)
    write_pgm(outdir / "std_right.pgm", std_r, deep=deep)

    smo_l = _stage(
        "smooth", bilateral_filter, std_l, opts.sigma_s, opts.sigma_r, opts.radius
    )
    smo_r = _stage(
        "smooth", bilateral_filter, std_r, opts.sigma_s, opts.sigma_r, opts.radius
    )
    write_pgm(outdir / "smo_left.pgm", smo_l, deep=deep)
    write_pgm(outdir / "smo_right.pgm", smo_r, deep=deep)

    our_l, our_r, report = _stage(
        "refine",
        refine,
        desc_l,
        desc_r,
        cameras.left,
        cameras.right,
        opts,
        (truth_l, truth_r),
    )
    write_pgm(outdir / "our_left.pgm", our_l, deep=deep)
    write_pgm(outdir / "our_right.pgm", our_r, deep=deep)

    for tag, (ml, mr) in (
        ("std", (std_l, std_r)),
        ("smo", (smo_l, smo_r)),
        ("our", (our_l, our_r)),
    ):
        write_pgm(outdir / f"err_{tag}_left.pgm", error_map(ml, truth_l), deep=deep)
        write_pgm(outdir / f"err_{tag}_right.pgm", error_map(mr, truth_r), deep=deep)

    q_std = quality_g(std_l, std_r, truth_l, truth_r, round_to_int=True)
    q_smo = quality_g(smo_l, smo_r, truth_l, truth_r, round_to_int=True)
    q_our = quality_g(our_l, our_r, truth_l, truth_r, round_to_int=True)
    write_report_csv(outdir / "report.csv", report, q_std, q_smo, q_our)
    return RunResult(q_std, q_smo, q_our, report, outdir)


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    if config.scene is None:
        raise ConfigError("generate needs a config with a [scene] section")
    gen = generate_scene(config.scene)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_pgm(outdir / "truth_left.pgm", gen.left, deep=args.pgm16)
    write_pgm(outdir / "truth_right.pgm", gen.right, deep=args.pgm16)
    write_pgm(outdir / "mask_left.pgm", gen.mask_left * 255.0)
    write_pgm(outdir / "mask_right.pgm", gen.mask_right * 255.0)
    print(f"wrote truth and mask pair to {outdir}")
    return 0


def _make_table(args) -> np.ndarray:
    if args.quality is not None and args.delta is not None:
        raise ConfigError("give either --delta or --quality, not both")
    if args.quality is not None:
        return jpeg_table(args.quality)
    return flat_table(args.delta if args.delta is not None else 24.0)


def _cmd_compress(args) -> int:
    table = _make_table(args)
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
    config = load_config(args.config)
    desc_l = QuantizedDescription.load(args.left_desc)
    desc_r = QuantizedDescription.load(args.right_desc)
    if config.scene is not None:
        cameras = generate_scene(config.scene).cameras
    else:
        _, _, cameras, _ = _resolve_inputs(config)
    truth = None
    if args.truth_left and args.truth_right:
        truth = (read_pgm(args.truth_left), read_pgm(args.truth_right))
    our_l, our_r, report = refine(
        desc_l, desc_r, cameras.left, cameras.right, config.options, truth
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_pgm(outdir / "our_left.pgm", our_l, deep=args.pgm16)
    write_pgm(outdir / "our_right.pgm", our_r, deep=args.pgm16)
    lines = [CSV_HEADER] + _report_rows(report)
    with open(outdir / "report.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    state = "converged" if report.converged else "stopped"
    print(f"{state} after {report.iterations} iterations -> {outdir}")
    return 0


def _cmd_evaluate(args) -> int:
    left = read_pgm(args.left)
    right = read_pgm(args.right)
    ref_l = read_pgm(args.ref_left)
    ref_r = read_pgm(args.ref_right)
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
        f"Q_std={_fmt(result.q_std.g)} Q_smo={_fmt(result.q_smo.g)} "
        f"Q_our={_fmt(result.q_our.g)} "
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
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = ["delta,q_std,q_smo,q_our"]
    for delta in deltas:
        sub = RunConfig(
            scene=config.scene,
            input_left=config.input_left,
            input_right=config.input_right,
            cameras=config.cameras,
            simple_cam=config.simple_cam,
            table=flat_table(delta),
            options=config.options,
        )
        result = run_pipeline(sub, outdir / f"delta_{delta:g}", deep=args.pgm16)
        rows.append(
            f"{delta:g},{_fmt(result.q_std.g)},{_fmt(result.q_smo.g)},"
            f"{_fmt(result.q_our.g)}"
        )
        print(f"delta {delta:g}: Q_std={_fmt(result.q_std.g)} "
              f"Q_smo={_fmt(result.q_smo.g)} Q_our={_fmt(result.q_our.g)}")
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
    try:
        return args.func(args)
    except (
        ConfigError,
        InvalidConfigurationError,
        InvalidParameterError,
        InvalidSceneError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgmFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DepthPocsError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
