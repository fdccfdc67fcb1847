"""Seeded inputs for the three workloads.

Every input the program sees is written here, from the workload's seed,
into a fresh directory. All three start from the bundled scene,
configs/twoplane.ini, and change only what the workload is about. The
program's own public functions render and code the off-grid scene; they
run in set-up, outside every timed region.

twoplane-run    the paper's protocol: `run` on configs/twoplane.ini itself
                (flat step 24, 10 iterations, radius 3), copied unchanged,
                so the seed does not change it.
offgrid-refine  `refine` in [inputs] import mode on a 501x373 rendering of
                the bundled planes whose sides, box edges and box disparity
                are off the 8-pixel grid, coded with the JPEG q50 table. The
                seed moves the ripple on the planes; the geometry stays
                fixed so the known off-grid defect (Q_our far below Q_std)
                shows on every seed.
sweep-preview   `sweep` over eight flat steps of the bundled scene with one
                iteration and the filter off (radius 0), the ripple from the
                seed: scene rendering dominates and the bilateral filter
                does no work.
"""

from __future__ import annotations

import configparser
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUNDLED = Path(__file__).resolve().parent.parent / "configs" / "twoplane.ini"
SWEEP_DELTAS = (8, 16, 24, 32, 48, 64, 80, 96)
OFFGRID_QUALITY = 50
# Box front face at depth 61.7 with focal 235 and baseline 12: disparity
# 45.70 px, edges at columns ~172.7/450.7 (left view) and rows ~33.3/301.4.
OFFGRID_SCENE = {
    "scene": {"width": 501, "height": 373},  # neither a multiple of 8
    "camera": {"focal": 235.0},
    "primitive.slab": {"x0": -20.3, "x1": 52.7, "y0": -40.1, "y1": 30.3, "depth": 61.7},
}


@dataclass
class Prepared:
    """A workload's generated inputs and what its outputs must look like."""

    kind: str  # the CLI verb
    config: Path
    shape: tuple[int, int]  # (height, width) of every map
    refine: dict  # the config's [refine] section: max_iters, eps, start
    extra_argv: list[str]
    truth: tuple[Path, Path] | None = None  # refine: truth the benchmark scores against
    std: tuple[Path, Path] | None = None  # refine: standard decode for Q_std
    deltas: tuple[int, ...] = ()

    def argv(self, outdir: Path) -> list[str]:
        return [self.kind, str(self.config), "-o", str(outdir), *self.extra_argv]


def _bundled(changes: dict) -> configparser.ConfigParser:
    """configs/twoplane.ini with the values in {section: {key: value}} replaced."""
    cfg = configparser.ConfigParser()
    with open(BUNDLED, encoding="utf-8") as fh:
        cfg.read_file(fh)
    cfg.read_dict(changes)
    return cfg


def _write(cfg: configparser.ConfigParser, path: Path) -> Path:
    with open(path, "w", encoding="ascii") as fh:
        cfg.write(fh)
    return path


def _refine(cfg: configparser.ConfigParser) -> dict:
    """The [refine] values the checks hold report.csv to."""
    sec = cfg["refine"]
    return {
        "max_iters": sec.getint("max_iters"),
        "eps": sec.getfloat("eps"),
        "start": sec.get("start", "left").strip(),
    }


def _ripple_seed(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(0, 2**31 - 1))


def _shape(cfg: configparser.ConfigParser) -> tuple[int, int]:
    return cfg["scene"].getint("height"), cfg["scene"].getint("width")


def prepare(name: str, seed: int, where: Path) -> Prepared:
    """Write the inputs of workload `name` for `seed` into directory `where`."""
    where.mkdir(parents=True, exist_ok=True)
    if name == "twoplane-run":
        cfg = _bundled({})
        path = where / "twoplane.ini"
        shutil.copyfile(BUNDLED, path)
        return Prepared("run", path, _shape(cfg), _refine(cfg), [])
    if name == "sweep-preview":
        cfg = _bundled({
            "scene": {"seed": _ripple_seed(seed)},
            "refine": {"max_iters": 1, "radius": 0},
        })
        deltas = ",".join(str(d) for d in SWEEP_DELTAS)
        return Prepared(
            "sweep", _write(cfg, where / "sweep.ini"), _shape(cfg), _refine(cfg),
            ["--deltas", deltas], deltas=SWEEP_DELTAS,
        )
    if name == "offgrid-refine":
        return _prepare_offgrid(seed, where)
    raise KeyError(name)


def _prepare_offgrid(seed: int, where: Path) -> Prepared:
    from depthpocs.cli import load_config
    from depthpocs.codec import decode_map, encode_map, jpeg_table
    from depthpocs.pgm import write_pgm
    from depthpocs.scene import generate_scene

    cfg = _bundled(OFFGRID_SCENE)
    cfg["scene"]["seed"] = str(_ripple_seed(seed))
    scene = load_config(_write(cfg, where / "offgrid_scene.ini")).scene
    gen = generate_scene(scene)
    table = jpeg_table(OFFGRID_QUALITY)
    paths = {}
    for view, truth in (("left", gen.left), ("right", gen.right)):
        desc = encode_map(truth, table)
        paths[f"qdm_{view}"] = where / f"{view}.qdm"
        desc.save(paths[f"qdm_{view}"])
        paths[f"truth_{view}"] = where / f"truth_{view}.pgm"
        write_pgm(paths[f"truth_{view}"], truth)
        paths[f"std_{view}"] = where / f"std_{view}.pgm"
        write_pgm(paths[f"std_{view}"], decode_map(desc))
    # The same config in import mode: the program sees the truth files only.
    shape = _shape(cfg)
    for section in [s for s in cfg.sections() if s == "scene" or s.startswith("primitive.")]:
        cfg.remove_section(section)
    cfg["inputs"] = {"left": "truth_left.pgm", "right": "truth_right.pgm"}
    cfg["quant"] = {"quality": OFFGRID_QUALITY}
    return Prepared(
        "refine", _write(cfg, where / "offgrid.ini"), shape, _refine(cfg),
        [
            "--left-desc", str(paths["qdm_left"]),
            "--right-desc", str(paths["qdm_right"]),
            "--truth-left", str(paths["truth_left"]),
            "--truth-right", str(paths["truth_right"]),
        ],
        truth=(paths["truth_left"], paths["truth_right"]),
        std=(paths["std_left"], paths["std_right"]),
    )
