"""End-to-end CLI tests: config parsing, every verb, artifact layout,
CSV schema, determinism, exit codes, and the names the benchmark wraps."""

import configparser
import errno
import gc
import importlib.util
import inspect
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpocs import cli, errors, pocs, scene
from depthpocs.cli import CSV_HEADER, build_parser, load_config, main
from depthpocs.codec import encode_map, flat_table, jpeg_table
from depthpocs.errors import ConfigError
from depthpocs.geometry import stereo_pair
from depthpocs.metrics import error_map, psnr, quality_g
from depthpocs.pgm import read_pgm, write_pgm

SMALL_SCENE = """
[scene]
width = 64
height = 64
seed = 5
noise_amp = 1.0

[camera]
focal = 120.0
baseline = 6.0

[primitive.back]
type = plane
a = 0.3
b = -0.1
c = 140.0

[primitive.slab]
type = box
x0 = 0.0
x1 = 10.0
y0 = -8.0
y1 = 6.0
depth = 70.0

[quant]
delta = 24.0

[refine]
max_iters = 3
eps = 0.01
"""

CONSTANT_SCENE = """
[scene]
width = 32
height = 32
noise_amp = 0.0

[camera]
focal = 100.0
baseline = 4.0

[primitive.wall]
type = plane
a = 0.0
b = 0.0
c = 100.0
ripple = no

[quant]
delta = 16.0

[refine]
max_iters = 3
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "scene.ini"
    p.write_text(SMALL_SCENE)
    return p


@pytest.fixture
def coded(small_cfg, tmp_path):
    """Truth pair of small_cfg and its two descriptions at delta 24."""
    gdir = tmp_path / "gen"
    assert main(["generate", str(small_cfg), "-o", str(gdir)]) == 0
    paths = {}
    for view in ("left", "right"):
        paths[f"truth_{view}"] = gdir / f"truth_{view}.pgm"
        paths[view] = tmp_path / f"{view[0]}.qdm"
        assert main(["compress", str(paths[f"truth_{view}"]), "-o", str(paths[view]),
                     "--delta", "24"]) == 0
    return paths


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestLoadConfig:
    def test_scene_config(self, small_cfg):
        cfg = load_config(small_cfg)
        assert cfg.scene is not None
        assert cfg.scene.width == 64
        assert len(cfg.scene.primitives) == 2
        assert np.all(cfg.table == 24.0)
        assert cfg.options.max_iters == 3

    def test_bundled_config_is_the_demo_scene(self):
        # configs/twoplane.ini says that it matches demo_scene() and refine's defaults.
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "twoplane.ini")
        assert cfg.scene == scene.demo_scene()
        assert cfg.options == pocs.RefineOptions()
        assert cfg.inputs is None and np.all(cfg.table == 24.0)

    @pytest.mark.parametrize("raw, value", [("9007199254740993", 9007199254740993), ("3.0", 3)])
    def test_integer_key_keeps_every_digit(self, tmp_path, raw, value):
        # 2**53 + 1 read through a float would lose its last digit.
        p = tmp_path / "c.ini"
        p.write_text(SMALL_SCENE.replace("seed = 5", f"seed = {raw}"))
        assert load_config(p).scene.seed == value

    def test_primitive_type_ignores_case(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(SMALL_SCENE.replace("type = plane", "type = Plane").replace("= box", "= BOX"))
        assert [type(prim).__name__ for prim in load_config(p).scene.primitives] == ["Plane", "Box"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_missing_camera_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[inputs]\nleft = l.pgm\nright = r.pgm\ncamera_file = gone.ini\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_quant_delta_quality_exclusive(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(SMALL_SCENE.replace("delta = 24.0", "delta = 24.0\nquality = 50"))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_quality_table(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(SMALL_SCENE.replace("delta = 24.0", "quality = 50"))
        cfg = load_config(p)
        assert cfg.table[0, 0] == 16.0

    def test_scene_needs_camera_section(self, tmp_path):
        p = tmp_path / "c.ini"
        text = SMALL_SCENE.replace("[camera]", "[cameraX]")
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(p)

    def test_scene_needs_camera_section_when_deleted(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(SMALL_SCENE.replace("[camera]\nfocal = 120.0\nbaseline = 6.0\n", ""))
        with pytest.raises(ConfigError, match=r"scene mode needs a \[camera\] section"):
            load_config(p)

    def test_needs_scene_or_inputs(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[quant]\ndelta = 8\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_refine_option(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(SMALL_SCENE.replace("max_iters = 3", "max_iters = 0"))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_import_mode_with_matrices(self, tmp_path):
        write_pgm(tmp_path / "l.pgm", np.full((16, 16), 90.0))
        write_pgm(tmp_path / "r.pgm", np.full((16, 16), 90.0))
        p = tmp_path / "c.ini"
        p.write_text(
            "[inputs]\nleft = l.pgm\nright = r.pgm\n"
            "[camera.left]\nk = 100 0 7.5 0 100 7.5 0 0 1\n"
            "e = 1 0 0 0  0 1 0 0  0 0 1 0\n"
            "[camera.right]\nk = 100 0 7.5 0 100 7.5 0 0 1\n"
            "e = 1 0 0 4  0 1 0 0  0 0 1 0\n"
            "[quant]\ndelta = 16\n"
        )
        cfg = load_config(p)
        k = np.array([[100.0, 0.0, 7.5], [0.0, 100.0, 7.5], [0.0, 0.0, 1.0]])
        for shape in ((16, 16), (30, 40)):  # the one pair the matrices give, for any shape
            rig = rig_arrays(cfg.camera_pair(shape))
            assert np.array_equal(rig[:, :, :3], [k, k])
            assert np.array_equal(rig[1, :, 6] - rig[0, :, 6], [4.0, 0.0, 0.0])

    def test_camera_section_rig_follows_shape(self, small_cfg):
        # No cx or cy: the principal point is the centre of the map it is asked for.
        for shape in ((64, 64), (30, 41)):
            rig = rig_arrays(load_config(small_cfg).camera_pair(shape))
            centre = [(shape[1] - 1) / 2.0, (shape[0] - 1) / 2.0]
            assert np.array_equal(rig[:, :2, 2], [centre, centre])


def rig_arrays(pair):
    """[K | E] of the left and of the right view of a RectifiedPair, shape (2, 3, 7)."""
    return np.stack([np.hstack([cam.k, cam.e]) for cam in (pair.left, pair.right)])


IMPORT_CONFIG = "[inputs]\nleft = l.pgm\nright = r.pgm\ncamera_file = cams.ini\n"
CAMERA_FILE = """
[camera.left]
k = 100 0 7.5  0 100 7.5  0 0 1
e = 1 0 0 0  0 1 0 0  0 0 1 0

[camera.right]
k = 100 0 7.5  0 100 7.5  0 0 1
e = 1 0 0 4  0 1 0 0  0 0 1 0
"""


# The config above with its matrices inline, a [camera] section, and a scene without primitives.
IMPORT_INLINE = IMPORT_CONFIG.replace("camera_file = cams.ini\n", "")
CAMERA_ONLY = "[camera]\nfocal = 999\nbaseline = 77\n"
SCENE_ONLY = "[scene]\nwidth = 64\nheight = 64\n" + CAMERA_ONLY


def write_import_config(where, config=IMPORT_CONFIG, camera_file=CAMERA_FILE):
    """An import-mode config with 16x16 maps and a camera file; returns its path."""
    for name in ("l.pgm", "r.pgm"):
        write_pgm(where / name, np.full((16, 16), 90.0))
    (where / "cams.ini").write_text(camera_file)
    (where / "c.ini").write_text(config)
    return where / "c.ini"


def rejects(tmp_path, capsys, argv, named):
    """main(argv) exits 2 with an error naming `named`, and writes nothing under tmp_path."""
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert sorted(tmp_path.rglob("*")) == before
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err


class TestStrictReader:
    """Every section and key is in the table, or the config exits 2 before
    anything is written, naming the section or key."""

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("[refine]", "[Refine]", "[Refine]"),
            ("[quant]", "[bogus]\nx = 1\n\n[quant]", "[bogus]"),
            ("max_iters = 3", "max_iter = 3", "'max_iter'"),
            ("c = 140.0", "c = 140.0\nsigma = 3", "'sigma'"),
            ("depth = 70.0", "depth = 70.0\nripple = no", "'ripple'"),
            # Not a source of defaults for the other sections: a section of its own.
            ("[scene]", "[DEFAULT]\nseed = 3\n\n[scene]", "[DEFAULT]"),
            ("c = 140.0", "c = 140.0\nripple = maybe", "ripple"),
            ("width = 64", "width =", "width"),
            ("delta = 24.0", "delta = 24.0  ; comments go on their own line", "delta"),
            # Not silently ignored: the maps it names need not exist.
            ("[quant]", "[inputs]\nleft = l.pgm\nright = r.pgm\n\n[quant]", "[scene] or [inputs]"),
        ],
        ids=[
            "section-case", "unknown-section", "refine-key-typo", "plane-sigma", "box-ripple",
            "default-section", "ripple-maybe", "empty-width", "inline-comment", "scene-and-inputs",
        ],
    )
    def test_run_rejects(self, tmp_path, capsys, old, new, named):
        cfg = tmp_path / "c.ini"
        cfg.write_text(SMALL_SCENE.replace(old, new))
        rejects(tmp_path, capsys, ["run", cfg, "-o", tmp_path / "out"], named)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("left = l.pgm", "left =", "left"),
            ("left = l.pgm", "left = l\0.pgm", "left"),
            ("camera_file = cams.ini", "camera_file = cams.ini\nbaseline = 4", "'baseline'"),
            ("e = 1 0 0 4", "focal = 100\ne = 1 0 0 4", "'focal'"),
            ("[camera.right]", "[camera.rigth]", "[camera.rigth]"),
            ("[camera.right]", "[camera]\nfocal = 1\nbaseline = 1\n\n[camera.right]", "[camera]"),
            # Import mode renders no scene, so a primitive would be silently ignored.
            ("camera_file = cams.ini", "camera_file = cams.ini\n[primitive.ghost]\ntype = box\n"
             "x0 = 0\nx1 = 4\ny0 = 0\ny1 = 4\ndepth = 50", "[primitive.ghost]"),
            ("k = 100 0 7.5  0 100 7.5  0 0 1", "k = 100 0 7.5  0 100 7.5  0 0", "[camera.left] k"),
            ("e = 1 0 0 0  0 1 0 0  0 0 1 0", "e = 1 0 0 0  0 1 0 0  0 0 1 0 0", "[camera.left] e"),
        ],
        ids=[
            "empty-left", "nul-in-path", "inputs-key", "camera-file-key", "camera-file-section",
            "camera-file-simple-camera", "primitive", "k-8-numbers", "e-13-numbers",
        ],
    )
    def test_import_mode_rejects(self, tmp_path, capsys, old, new, named):
        # Each edit finds its text in the config or in its camera file.
        cfg = write_import_config(
            tmp_path, IMPORT_CONFIG.replace(old, new), CAMERA_FILE.replace(old, new)
        )
        rejects(tmp_path, capsys, ["run", cfg, "-o", tmp_path / "out"], named)

    def test_refine_verb_rejects(self, coded, tmp_path, capsys):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(SMALL_SCENE.replace("max_iters = 3", "max_iter = 3"))
        argv = ["refine", cfg, "--left-desc", coded["left"], "--right-desc", coded["right"],
                "-o", tmp_path / "ref"]
        rejects(tmp_path, capsys, argv, "'max_iter'")

    def test_percent_is_literal(self, tmp_path):
        cfg = write_import_config(tmp_path, IMPORT_CONFIG.replace("l.pgm", "50%.pgm"))
        (tmp_path / "l.pgm").rename(tmp_path / "50%.pgm")
        assert load_config(cfg).inputs == (tmp_path / "50%.pgm", tmp_path / "r.pgm")
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 0


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_sections() -> dict[str, str]:
    """README's configuration block as {section: its text}."""
    text = README.read_text().split("## Configuration file", 1)[1]
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    sections = {}
    for line in block.splitlines():
        if line.startswith("["):
            name = line[1:-1]
            sections[name] = ""
        if sections:
            sections[name] += line + "\n"
    return sections


def table_keys() -> set[str]:
    tables = [*cli._SECTIONS.values(), *(keys for _, keys in cli._PRIMITIVES.values())]
    return {key for keys in tables for key in keys}


class TestReadmeConfig:
    """The documented config block loads, in each mode, and lists the table's keys."""

    def test_scene_mode_part_loads(self, tmp_path):
        sections = readme_config_sections()
        for name in ("inputs", "camera.left", "camera.right"):
            del sections[name]
        (tmp_path / "scene.ini").write_text("".join(sections.values()))
        cfg = load_config(tmp_path / "scene.ini")
        assert (cfg.scene.width, cfg.scene.height, cfg.scene.seed) == (256, 256, 7)
        for shape in ((256, 256), (100, 60)):  # cx and cy are given, so no shape moves them
            want = stereo_pair(shape, focal=120.0, baseline=12.0, cx=127.5, cy=127.5)
            assert np.array_equal(rig_arrays(cfg.camera_pair(shape)), rig_arrays(want))
        assert [type(p).__name__ for p in cfg.scene.primitives] == ["Plane", "Box"]

    def test_import_mode_part_loads(self, tmp_path):
        sections = readme_config_sections()
        for name in [n for n in sections if n in ("scene", "camera") or n.startswith("primitive.")]:
            del sections[name]
        for name in ("left.pgm", "right.pgm"):
            write_pgm(tmp_path / name, np.full((256, 256), 90.0))
        (tmp_path / "cams.ini").write_text(sections["camera.left"] + sections["camera.right"])
        (tmp_path / "import.ini").write_text("".join(sections.values()))
        cfg = load_config(tmp_path / "import.ini")
        assert cfg.inputs == (tmp_path / "left.pgm", tmp_path / "right.pgm")
        assert np.array_equal(rig_arrays(cfg.camera_pair((256, 256)))[:, 0, 6], [0.0, 12.0])
        assert np.all(cfg.table == 24.0) and cfg.options == cli.RefineOptions()

    def test_documents_every_key(self):
        block = "".join(readme_config_sections().values())
        # Keys, and keys commented out as alternatives ("; quality = 50").
        assert set(re.findall(r"^(?:; )?(\w+) = ", block, re.M)) == table_keys()
        assert set(cli._SECTIONS) <= set(readme_config_sections())


# Config text for the property below: a valid config of each mode with a few
# edits. An edit sets, adds or drops a key of the table (or a misspelling of
# one) in a section of the table (or a misspelt, unknown or [DEFAULT] one);
# values are of every type, plus ones no reader accepts.
_VALUES = [
    "", "0", "1", "-3", "2.5", "64", "100", "1e300", "1e-200", "nan", "inf", "-inf",
    "%", "50%.pgm", "%(left)s", "l\0.pgm", "maybe", "yes", "no", "plane", "box", "left", "right",
    "l.pgm", "cams.ini", "c.ini", ".", "1 0 7.5  0 1 7.5  0 0 1", "1 0 0 0  0 1 0 0  0 0 1 0",
    "1 0 0 4  0 1 0 0  0 0 1 0", "1 2 3",
]


def _sections_of(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


_BASES = [
    _sections_of(SMALL_SCENE),
    _sections_of(IMPORT_INLINE + "[camera]\nfocal = 100\nbaseline = 4\n"),
    _sections_of(IMPORT_INLINE + CAMERA_FILE),
]


def _misspelt(word: str):
    return st.sampled_from([word, word, word, word.capitalize(), word[:-1], word + "s"])


@st.composite
def config_texts(draw) -> str:
    values = st.sampled_from(_VALUES) | st.floats().map(repr) | st.text(
        st.characters(blacklist_categories=("Cc", "Cs")), max_size=6
    )
    sections = {name: dict(keys) for name, keys in draw(st.sampled_from(_BASES)).items()}
    names = [*cli._SECTIONS, "primitive.back", "primitive.new", "DEFAULT", "bogus"]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(_misspelt(draw(st.sampled_from(names))))
        keys = sorted(cli._SECTIONS.get(name, table_keys()))
        key = draw(_misspelt(draw(st.sampled_from(keys))))
        if draw(st.integers(0, 3)):
            sections.setdefault(name, {})[key] = draw(values)
        else:
            sections.get(name, {}).pop(key, None)
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """A directory holding maps and a camera file that config values may name."""
    return write_import_config(tmp_path_factory.mktemp("property")).parent


class TestConfigProperty:
    @settings(max_examples=200, deadline=None)
    @given(text=config_texts())
    def test_load_returns_or_exits_2(self, config_dir, text):
        path = config_dir / "c.ini"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
        except errors.DepthPocsError as exc:
            assert exc.exit_code == 2, exc
            return
        assert (cfg.scene is None) != (cfg.inputs is None)


class TestRunVerb:
    def test_run_writes_all_artifacts(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(small_cfg), "-o", str(out)]) == 0
        for name in (
            "truth_left", "truth_right", "mask_left", "mask_right",
            "std_left", "std_right", "smo_left", "smo_right",
            "our_left", "our_right",
            "err_std_left", "err_std_right", "err_smo_left", "err_smo_right",
            "err_our_left", "err_our_right",
        ):
            assert (out / f"{name}.pgm").is_file(), name
        assert (out / "left.qdm").is_file() and (out / "right.qdm").is_file()
        header, rows = read_csv_rows(out / "report.csv")
        assert header == CSV_HEADER
        n_iters = (len(rows) - 1) // 2
        assert len(rows) == 2 * n_iters + 1
        assert rows[-1][0] == "summary" and rows[-1][1] == "all"
        assert rows[-1][5] == "" and rows[-1][6] == ""
        q_std, q_smo, q_our = (float(rows[-1][i]) for i in (2, 3, 4))
        assert q_std > 0 and q_smo > 0 and q_our > 0
        assert "Q_our" in capsys.readouterr().out

    def test_half_iteration_rows_have_all_fields(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", str(small_cfg), "-o", str(out)])
        _, rows = read_csv_rows(out / "report.csv")
        for row in rows[:-1]:
            assert row[1] in ("left", "right")
            int(row[0])
            for field in row[2:]:
                float(field)  # parseable, inf allowed

    def test_lossless_corner_all_infinite(self, tmp_path):
        cfg = tmp_path / "const.ini"
        cfg.write_text(CONSTANT_SCENE)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        _, rows = read_csv_rows(out / "report.csv")
        assert rows[-1][2] == "inf" and rows[-1][3] == "inf" and rows[-1][4] == "inf"
        assert float(rows[0][5]) < 1e-9  # converges immediately

    def test_missing_camera_file_no_partial_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[inputs]\nleft = l.pgm\nright = r.pgm\ncamera_file = gone.ini\n")
        out = tmp_path / "out"
        code = main(["run", str(cfg), "-o", str(out)])
        assert code == 2
        assert not (out / "report.csv").exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            "radius = -1",
            "radius = 2.7",
            "sigma_s = 0",
            "sigma_r = -1",
            "sigma_s = 1e-200",
            "sigma_r = 1e-170",
            "sigma_r = 1e-160",
            "tau = -1",
            "tau = inf",
            "tau = nan",
            "eps = nan",
        ],
    )
    def test_bad_filter_option_fails_before_artifacts(self, tmp_path, capsys, option):
        cfg = tmp_path / "c.ini"
        # SMALL_SCENE sets eps; drop it so that the eps case is not a duplicate key.
        cfg.write_text(SMALL_SCENE.replace("eps = 0.01\n", "") + option + "\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "-o", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())
        err = capsys.readouterr().err
        assert "error" in err and option.split()[0] in err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("baseline = 6.0\n", "baseline = 6.0\ncx = 1e300\n"),
            ("baseline = 6.0\n", "baseline = 6.0\ncy = -1e300\n"),
            ("focal = 120.0\nbaseline = 6.0\n", "focal = inf\nbaseline = 0\n"),
        ],
        ids=["cx-far", "cy-far", "focal-inf"],
    )
    def test_far_or_infinite_camera_warns_nothing(self, tmp_path, capsys, old, new):
        # A principal point far off the image lands every pixel far outside
        # the other view, so the views share no cleanly visible pixel; a
        # camera that is not finite exits 2 before rendering.
        cfg = tmp_path / "c.ini"
        cfg.write_text(SMALL_SCENE.replace(old, new))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg), "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "fault, code, message",
        [
            ("right-view-gap", 2, "error: 256 pixels not covered by any primitive\n"),
            ("child-killed", 4, "error: scene render process exited without a reply\n"),
            ("child-memory", 4, "error: injected\n"),
        ],
        ids=["right-view-gap", "child-killed", "child-memory"],
    )
    def test_fault_in_forked_render_exits_with_its_code(
        self, tmp_path, monkeypatch, capsys, fault, code, message
    ):
        # Two CPUs, so that the right view renders in a forked child.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        text = CONSTANT_SCENE
        if fault == "right-view-gap":
            # The box fills the left view; the right view's first 8 columns miss it.
            wall = "type = plane\na = 0.0\nb = 0.0\nc = 100.0\nripple = no\n"
            box = "type = box\nx0 = -8.0\nx1 = 50.0\ny0 = -50.0\ny1 = 50.0\ndepth = 50.0\n"
            assert wall in text
            text = text.replace(wall, box)
        else:
            parent = os.getpid()
            render_view = scene._render_view

            def render(*args):
                if os.getpid() != parent:
                    if fault == "child-killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise MemoryError("injected")
                return render_view(*args)

            monkeypatch.setattr(scene, "_render_view", render)
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "-o", str(out)]) == code
        assert not out.exists()
        assert capsys.readouterr().err == message

    def test_failed_fork_runs_as_on_one_cpu(self, small_cfg, tmp_path, monkeypatch):
        # Two stripes on two CPUs, but no process to spare: the scene renders
        # one view after the other and refine runs one stripe.
        monkeypatch.setattr(pocs, "_MIN_STRIPE_WORK", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["run", str(small_cfg), "-o", str(tmp_path / "one")]) == 0
        forks = []

        def fail():
            forks.append(1)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fail)
        assert main(["run", str(small_cfg), "-o", str(tmp_path / "two")]) == 0
        assert len(forks) == 2  # the scene's child and the stripe worker
        one = sorted((tmp_path / "one").iterdir())
        assert [f.name for f in one] == sorted(f.name for f in (tmp_path / "two").iterdir())
        for f in one:
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes(), f.name

    def test_determinism_byte_identical(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(small_cfg), "-o", str(out1)]) == 0
        assert main(["run", str(small_cfg), "-o", str(out2)]) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_pgm16_flag(self, small_cfg, tmp_path):
        out = tmp_path / "deep"
        assert main(["run", str(small_cfg), "-o", str(out), "--pgm16"]) == 0
        raw = (out / "truth_left.pgm").read_bytes()
        assert b"65535" in raw[:32]

    def test_import_mode_run(self, tmp_path):
        rng = np.random.default_rng(17)
        base = np.clip(np.cumsum(rng.uniform(-1, 1, (32, 32)), axis=1) + 120, 20, 240)
        write_pgm(tmp_path / "l.pgm", base)
        write_pgm(tmp_path / "r.pgm", base)
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[inputs]\nleft = l.pgm\nright = r.pgm\n"
            "[camera]\nfocal = 100.0\nbaseline = 0.0\n"
            "[quant]\ndelta = 16\n[refine]\nmax_iters = 2\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        assert (out / "report.csv").is_file()
        assert not (out / "mask_left.pgm").exists()  # masks are scene-only


class TestPieceWiseVerbs:
    def test_generate_compress_decode_evaluate(self, small_cfg, tmp_path, capsys):
        gdir = tmp_path / "gen"
        assert main(["generate", str(small_cfg), "-o", str(gdir)]) == 0
        assert (gdir / "truth_left.pgm").is_file()
        assert (gdir / "mask_right.pgm").is_file()

        qdm = tmp_path / "left.qdm"
        assert main(["compress", str(gdir / "truth_left.pgm"), "-o", str(qdm), "--delta", "16"]) == 0
        dec = tmp_path / "dec.pgm"
        assert main(["decode", str(qdm), "-o", str(dec)]) == 0
        decoded = read_pgm(dec)
        truth = read_pgm(gdir / "truth_left.pgm")
        assert decoded.shape == truth.shape
        assert np.mean(np.abs(decoded - truth)) < 4.0

        capsys.readouterr()
        assert main([
            "evaluate",
            "--left", str(dec), "--right", str(dec),
            "--ref-left", str(gdir / "truth_left.pgm"),
            "--ref-right", str(gdir / "truth_left.pgm"),
            "-o", str(tmp_path / "ev"),
        ]) == 0
        out = capsys.readouterr().out
        assert "g=" in out
        assert (tmp_path / "ev" / "err_left.pgm").is_file()

    def test_evaluate_scores_16bit_maps_unrounded(self, tmp_path, capsys):
        # 16-bit PGMs keep fractions of a level; evaluate does not round them
        # away (rounded, both maps would equal their references: g = inf).
        ref = np.full((16, 16), 100.0)
        ref[:, 8:] = 140.0
        paths = {}
        for name, m in (("ref", ref), ("left", ref + 0.25), ("right", ref - 0.375)):
            paths[name] = tmp_path / f"{name}.pgm"
            write_pgm(paths[name], m, deep=True)
        capsys.readouterr()
        assert main([
            "evaluate", "--left", str(paths["left"]), "--right", str(paths["right"]),
            "--ref-left", str(paths["ref"]), "--ref-right", str(paths["ref"]),
        ]) == 0
        score = quality_g(ref + 0.25, ref - 0.375, ref, ref)
        assert math.isfinite(score.g)
        assert capsys.readouterr().out.strip() == (
            f"psnr_left={score.psnr_left:.6f} psnr_right={score.psnr_right:.6f} g={score.g:.6f}"
        )

    def test_compress_rejects_both_tables(self, small_cfg, tmp_path, capsys):
        gdir = tmp_path / "gen"
        main(["generate", str(small_cfg), "-o", str(gdir)])
        code = main([
            "compress", str(gdir / "truth_left.pgm"),
            "-o", str(tmp_path / "x.qdm"), "--delta", "8", "--quality", "50",
        ])
        assert code == 2

    def test_refine_verb(self, small_cfg, coded, tmp_path):
        out = tmp_path / "ref"
        assert main([
            "refine", str(small_cfg),
            "--left-desc", str(coded["left"]), "--right-desc", str(coded["right"]),
            "-o", str(out),
        ]) == 0
        assert (out / "our_left.pgm").is_file()
        header, rows = read_csv_rows(out / "report.csv")
        assert header == CSV_HEADER
        assert rows[0][2] == "nan"  # no ground truth supplied

    def test_refine_verb_with_truth(self, small_cfg, coded, tmp_path):
        out = tmp_path / "ref"
        assert main([
            "refine", str(small_cfg),
            "--left-desc", str(coded["left"]), "--right-desc", str(coded["right"]),
            "--truth-left", str(coded["truth_left"]),
            "--truth-right", str(coded["truth_right"]),
            "-o", str(out),
        ]) == 0
        _, rows = read_csv_rows(out / "report.csv")
        assert float(rows[0][2]) > 0.0

    @pytest.mark.parametrize("flag", ["--truth-left", "--truth-right"])
    def test_refine_needs_both_truths(self, small_cfg, coded, tmp_path, capsys, flag):
        out = tmp_path / "ref"
        assert main([
            "refine", str(small_cfg),
            "--left-desc", str(coded["left"]), "--right-desc", str(coded["right"]),
            flag, str(coded["truth_left"]),
            "-o", str(out),
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "camera", ["focal = 120.0\n", "focal = 117.3\ncx = 21.7\n"], ids=["centred", "off-centre"]
    )
    def test_refine_matches_run(self, tmp_path, camera):
        # refine builds its cameras from the config and the descriptions'
        # shape, run takes generate_scene's; they must agree exactly, with
        # the principal point at the centre or off it (cy left to its default).
        small_cfg = tmp_path / "scene.ini"
        small_cfg.write_text(SMALL_SCENE.replace("focal = 120.0\n", camera))
        run_out, ref_out = tmp_path / "run", tmp_path / "ref"
        assert main(["run", str(small_cfg), "-o", str(run_out)]) == 0
        assert main([
            "refine", str(small_cfg),
            "--left-desc", str(run_out / "left.qdm"),
            "--right-desc", str(run_out / "right.qdm"),
            "--truth-left", str(run_out / "truth_left.pgm"),
            "--truth-right", str(run_out / "truth_right.pgm"),
            "-o", str(ref_out),
        ]) == 0
        for name in ("our_left.pgm", "our_right.pgm"):
            assert (ref_out / name).read_bytes() == (run_out / name).read_bytes(), name
        run_csv = (run_out / "report.csv").read_text().splitlines()
        assert (ref_out / "report.csv").read_text().splitlines() == run_csv[:-1]

    def test_refine_of_16bit_pair_at_the_finest_step(self, small_cfg, tmp_path, capsys):
        # The 16-bit reader returns levels up to 65535/256; a pair that spans
        # [0, 65535/256], coded at the least step, refines.
        gdir = tmp_path / "gen"
        assert main(["generate", str(small_cfg), "-o", str(gdir)]) == 0
        truths = [read_pgm(gdir / f"truth_{view}.pgm") for view in ("left", "right")]
        lo = min(t.min() for t in truths)
        hi = max(t.max() for t in truths)
        argv = ["refine", str(small_cfg), "-o", str(tmp_path / "ref")]
        tops = []
        for view, t in zip(("left", "right"), truths):
            pgm, qdm = tmp_path / f"{view}.pgm", tmp_path / f"{view}.qdm"
            write_pgm(pgm, (t - lo) * (65535 / 256 / (hi - lo)), deep=True)
            tops.append(read_pgm(pgm).max())
            step = "9.5367431640625e-07"  # 2**-20
            assert main(["compress", str(pgm), "-o", str(qdm), "--delta", step]) == 0
            argv += [f"--{view}-desc", str(qdm)]
        assert max(tops) == 65535 / 256
        capsys.readouterr()
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "ref" / "our_right.pgm").is_file()

    def test_16bit_top_sample_decodes_to_itself(self, tmp_path):
        # decode clamps to the reader's domain: 65535 comes back, not 255 * 256.
        pgm, qdm, out = tmp_path / "top.pgm", tmp_path / "top.qdm", tmp_path / "out.pgm"
        pgm.write_bytes(b"P5\n16 16\n65535\n" + b"\xff\xff" * 256)
        assert main(["compress", str(pgm), "-o", str(qdm), "--delta", "9.5367431640625e-07"]) == 0
        assert main(["decode", str(qdm), "-o", str(out), "--pgm16"]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n16 16\n65535\n")
        assert np.all(np.frombuffer(raw[-512:], ">u2") == 65535)

    def test_refine_with_overflowing_disparity_warns_nothing(self, tmp_path, capsys):
        # focal * baseline / s overflows to inf at baseline 1e306. Every
        # sample then lands off the other view, as all do at baseline 1e6,
        # so the two refines write the same bytes.
        rng = np.random.default_rng(3)
        descs = []
        for view in ("left", "right"):
            pgm = tmp_path / f"{view}.pgm"
            write_pgm(pgm, rng.uniform(40.0, 200.0, (16, 16)).round())
            descs += [f"--{view}-desc", str(tmp_path / f"{view}.qdm")]
            assert main(["compress", str(pgm), "-o", descs[-1], "--delta", "0.01"]) == 0
        outs = {}
        for baseline in ("1e306", "1e6"):
            cfg = tmp_path / f"b{baseline}.ini"
            cfg.write_text(
                "[inputs]\nleft = left.pgm\nright = right.pgm\n"
                f"[camera]\nfocal = 100\nbaseline = {baseline}\n"
            )
            out = tmp_path / f"out-{baseline}"
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["refine", str(cfg), *descs, "-o", str(out)]) == 0
            assert capsys.readouterr().err == ""
            outs[baseline] = tree(out)
        assert outs["1e306"] == outs["1e6"]

    def test_refine_import_mode_needs_no_input_maps(self, coded, tmp_path):
        # Only the camera sections are used; the [inputs] maps may be absent.
        cfg = tmp_path / "import.ini"
        cfg.write_text(
            "[inputs]\nleft = gone_l.pgm\nright = gone_r.pgm\n"
            "[camera]\nfocal = 120.0\nbaseline = 6.0\n[refine]\nmax_iters = 1\n"
        )
        out = tmp_path / "ref"
        assert main([
            "refine", str(cfg),
            "--left-desc", str(coded["left"]), "--right-desc", str(coded["right"]),
            "-o", str(out),
        ]) == 0
        assert (out / "our_right.pgm").is_file()


# eps = 0 runs small_cfg's max_iters = 3; no mean change reaches 1e6, so the
# first iteration converges.
STOP_STATES = pytest.mark.parametrize(
    "eps, state",
    [("0", "stopped after 3 iterations"), ("1e6", "converged after 1 iterations")],
    ids=["stopped", "converged"],
)


class TestStopStateLine:
    """run and refine print how the iteration ended, word for word."""

    @STOP_STATES
    def test_run(self, tmp_path, capsys, eps, state):
        cfg = tmp_path / "c.ini"
        cfg.write_text(SMALL_SCENE.replace("eps = 0.01", f"eps = {eps}"))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 0
        _, rows = read_csv_rows(tmp_path / "out" / "report.csv")
        scores = "Q_std={} Q_smo={} Q_our={}".format(*rows[-1][2:5])
        assert capsys.readouterr().out == f"{scores} ({state})\n"

    @STOP_STATES
    def test_refine(self, coded, tmp_path, capsys, eps, state):
        cfg, out = tmp_path / "c.ini", tmp_path / "ref"
        cfg.write_text(SMALL_SCENE.replace("eps = 0.01", f"eps = {eps}"))
        capsys.readouterr()
        assert main(["refine", str(cfg), "--left-desc", str(coded["left"]),
                     "--right-desc", str(coded["right"]), "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"{state} -> {out}\n"


# Runs in a fresh interpreter: prints the modules of numpy.random, and
# _hashlib, that generate, run and sweep of a rippled scene import beyond
# what `import numpy, depthpocs.cli` loads.
FOOTPRINT_SCRIPT = """
import sys
import numpy, depthpocs.cli
before = set(sys.modules)
cfg, out = sys.argv[1:]
for argv in (["generate", cfg, "-o", out + "/gen"], ["run", cfg, "-o", out + "/run"],
             ["sweep", cfg, "--deltas", "16,24", "-o", out + "/sweep"]):
    assert depthpocs.cli.main(argv) == 0, argv
print(sorted(m for m in set(sys.modules) - before
             if m == "_hashlib" or m.split(".")[:2] == ["numpy", "random"]))
"""


class TestFootprint:
    def test_scene_commands_import_no_numpy_random(self, small_cfg, tmp_path):
        # numpy.random's import maps OpenSSL's libcrypto through _hashlib.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT, str(small_cfg), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_baseline_maps_are_freed_before_refine(self, small_cfg, tmp_path, monkeypatch):
        refs = {"std": [], "smo": []}

        def keep_refs(name, tag):
            made = getattr(cli, name)

            def wrapped(*args, **kwargs):
                out = made(*args, **kwargs)
                refs[tag].append(weakref.ref(out))
                return out

            monkeypatch.setattr(cli, name, wrapped)

        keep_refs("decode_map", "std")
        keep_refs("bilateral_filter", "smo")
        alive, real_refine = [], cli.refine

        def refine(*args, **kwargs):
            gc.collect()
            alive.append([tag for tag in refs for ref in refs[tag] if ref() is not None])
            return real_refine(*args, **kwargs)

        monkeypatch.setattr(cli, "refine", refine)
        assert main(["run", str(small_cfg), "-o", str(tmp_path / "out")]) == 0
        assert [len(refs["std"]), len(refs["smo"])] == [2, 2]
        assert alive == [[]]


class TestSweep:
    def test_sweep_aggregate(self, small_cfg, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", str(small_cfg), "-o", str(out), "--deltas", "16,32"]) == 0
        assert (out / "delta_16" / "report.csv").is_file()
        assert (out / "delta_32" / "report.csv").is_file()
        lines = (out / "aggregate.csv").read_text().strip().split("\n")
        assert lines[0] == "delta,q_std,q_smo,q_our"
        assert len(lines) == 3
        assert lines[1].startswith("16,") and lines[2].startswith("32,")

    def test_sweep_pgm16(self, small_cfg, tmp_path):
        # 16-bit maps in every step; the scores, and so aggregate.csv, are
        # taken on maps rounded to 8-bit levels either way.
        deep, shallow = tmp_path / "deep", tmp_path / "shallow"
        for out, flags in ((deep, ["--pgm16"]), (shallow, [])):
            assert main(["sweep", str(small_cfg), "-o", str(out), "--deltas", "16,32", *flags]) == 0
        for step in ("delta_16", "delta_32"):
            maps = sorted((deep / step).glob("*.pgm"))
            assert len(maps) == 16
            for path in maps:
                maxval = path.read_bytes().split(maxsplit=4)[3]
                assert maxval == (b"255" if path.name.startswith("mask_") else b"65535"), path
        assert (deep / "aggregate.csv").read_bytes() == (shallow / "aggregate.csv").read_bytes()

    def test_sweep_bad_deltas(self, small_cfg, tmp_path):
        assert main(["sweep", str(small_cfg), "-o", str(tmp_path / "x"), "--deltas", "a,b"]) == 2

    def test_sweep_matches_run(self, small_cfg, tmp_path):
        # The sweep shares one truth pair across its steps; the step at 24,
        # which runs after the one at 16, must be byte-identical to a run.
        run_out, sweep_out = tmp_path / "run", tmp_path / "sw"
        assert main(["run", str(small_cfg), "-o", str(run_out)]) == 0
        assert main(["sweep", str(small_cfg), "-o", str(sweep_out), "--deltas", "16,24"]) == 0
        step = sweep_out / "delta_24"
        assert sorted(p.name for p in step.iterdir()) == sorted(p.name for p in run_out.iterdir())
        for f in sorted(run_out.iterdir()):
            assert (step / f.name).read_bytes() == f.read_bytes(), f.name


def tree(root: Path) -> dict:
    """{path relative to root: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestParallelSweep:
    """On P CPUs, sweep runs step i in process i % P; here P is 2 unless a test says 1."""

    @staticmethod
    def sweep(monkeypatch, capsys, cfg, out, deltas, cpus=(0, 1)):
        """(exit code, stdout, stderr) of a sweep with CPUs `cpus`."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        code = main(["sweep", str(cfg), "-o", str(out), "--deltas", deltas])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("iters", [1, 3])
    def test_outputs_do_not_depend_on_processes(
        self, tmp_path, monkeypatch, capsys, no_fd_leaked, iters
    ):
        cfg = tmp_path / "c.ini"
        cfg.write_text(SMALL_SCENE.replace("max_iters = 3", f"max_iters = {iters}"))
        out = tmp_path / "out"
        runs = {}
        for mode in ("fork", "one-cpu", "no-fork"):
            with monkeypatch.context() as m:
                if mode == "no-fork":
                    m.delattr(os, "fork")
                cpus = (0,) if mode == "one-cpu" else (0, 1)
                runs[mode] = self.sweep(m, capsys, cfg, out, "8,16,24,40,64", cpus), tree(out)
            shutil.rmtree(out)
        assert runs["fork"][0][0] == 0 and len(runs["fork"][1]) == 5 * 19 + 1
        assert runs["fork"] == runs["one-cpu"] == runs["no-fork"]

    def test_step_replies_with_its_run_result(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked
    ):
        # A step in the worker returns its RunResult whole, report and all,
        # equal to the one the step gives in this process.
        replies = []
        in_processes = cli.in_processes

        def recorded(*args):
            for result in in_processes(*args):
                replies[-1].append(result)
                yield result

        monkeypatch.setattr(cli, "in_processes", recorded)
        for cpus in ((0, 1), (0,)):
            replies.append([])
            code, _, _ = self.sweep(monkeypatch, capsys, small_cfg, tmp_path / "out", "16,24", cpus)
            assert code == 0
        assert replies[0] == replies[1]
        for result in replies[0]:
            assert isinstance(result, cli.RunResult)
            iterations = range(1, result.report.iterations + 1)
            assert [e.iteration for e in result.report.entries] == sorted(2 * list(iterations))

    def test_forks_one_worker_and_no_stripe_worker(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked
    ):
        # With this, refine would fork a stripe worker wherever it counts two CPUs.
        monkeypatch.setattr(pocs, "_MIN_STRIPE_WORK", 1)
        parent, fork, forks = os.getpid(), os.fork, []

        def counted_fork():
            if os.getpid() != parent:
                raise AssertionError("a sweep worker forked")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        code, _, err = self.sweep(monkeypatch, capsys, small_cfg, tmp_path / "out", "16,24,32")
        assert (code, err) == (0, "")
        assert len(forks) == 2  # the scene's render child, then the sweep worker

    def test_failed_fork_runs_every_step_here(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked
    ):
        out = tmp_path / "out"
        want = self.sweep(monkeypatch, capsys, small_cfg, out, "16,24,32", cpus=(0,)), tree(out)
        shutil.rmtree(out)
        forks = []

        def fail():
            forks.append(1)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fail)
        got = self.sweep(monkeypatch, capsys, small_cfg, out, "16,24,32"), tree(out)
        assert got == want and want[0][0] == 0
        assert len(forks) == 2  # the scene's render child, then the sweep worker

    @pytest.mark.parametrize(
        "failing, printed", [("32", ["16"]), ("48", ["16", "32"])], ids=["in-worker", "in-parent"]
    )
    def test_step_error_as_in_one_process(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked, failing, printed
    ):
        # On two CPUs delta 32 runs in the worker; delta 48 runs here, after
        # the worker's delta 32 succeeded. Every class the CLI reports, one
        # per exit code, crosses the fork as it is and keeps its code.
        run_protocol = cli.run_protocol
        out = tmp_path / "out"
        for error, exit_code in (
            (errors.InvalidParameterError, 2),
            (errors.PgmFormatError, 3),
            (errors.CorruptDescriptionError, 4),
            (PermissionError, 3),
            (MemoryError, 4),
            (FloatingPointError, 4),
        ):
            assert issubclass(error, errors.REPORTED)

            def fails(inputs, table, opts, outdir, **kwargs):
                if outdir.name == f"delta_{failing}":
                    raise error("injected")
                return run_protocol(inputs, table, opts, outdir, **kwargs)

            monkeypatch.setattr(cli, "run_protocol", fails)
            results = []
            for cpus in ((0,), (0, 1)):
                results.append(self.sweep(monkeypatch, capsys, small_cfg, out, "16,32,48", cpus))
                assert not (out / "aggregate.csv").exists()
                shutil.rmtree(out)
            one, two = results
            assert two == one, error
            code, stdout, stderr = one
            assert (code, stderr) == (exit_code, "error: injected\n"), error
            assert [line.split(":")[0] for line in stdout.splitlines()] == [
                f"delta {d}" for d in printed
            ]

    def test_other_error_in_worker_is_named(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked
    ):
        # A class outside errors.REPORTED crosses the fork as a DepthPocsError
        # that names it, exit 4.
        assert not issubclass(RuntimeError, errors.REPORTED)
        parent, run_protocol = os.getpid(), cli.run_protocol

        def fails(inputs, table, opts, outdir, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("injected")
            return run_protocol(inputs, table, opts, outdir, **kwargs)

        monkeypatch.setattr(cli, "run_protocol", fails)
        out = tmp_path / "out"
        code, stdout, stderr = self.sweep(monkeypatch, capsys, small_cfg, out, "16,32,48")
        assert (code, stderr) == (4, "error: sweep worker failed: RuntimeError: injected\n")
        assert [line.split(":")[0] for line in stdout.splitlines()] == ["delta 16"]
        assert not (out / "aggregate.csv").exists()

    def test_io_error_in_worker_as_in_one_process(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked
    ):
        # A regular file where the worker's step directory goes.
        out = tmp_path / "out"
        results = []
        for cpus in ((0,), (0, 1)):
            out.mkdir()
            (out / "delta_16").write_text("not a directory")
            results.append(self.sweep(monkeypatch, capsys, small_cfg, out, "8,16", cpus))
            shutil.rmtree(out)
        one, two = results
        assert two == one
        code, stdout, stderr = one
        assert code == 3 and stdout.startswith("delta 8: ") and stdout.count("\n") == 1
        assert stderr == f"error: [Errno {errno.EEXIST}] File exists: '{out / 'delta_16'}'\n"

    def test_closed_stdout_exits_3_and_ends_workers(
        self, small_cfg, tmp_path, monkeypatch, capsys, no_fd_leaked
    ):
        # The reader of stdout has gone: the first step's line meets a broken pipe
        # while the worker may still run the second step.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        out = tmp_path / "out"
        assert main(["sweep", str(small_cfg), "-o", str(out), "--deltas", "16,24,32"]) == 3
        assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"
        assert not (out / "aggregate.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# README's exit-code table: 2 invalid configuration, 3 I/O failure
# (missing or malformed files), 4 numerical failure (or too little memory).
README_EXIT_CODES = {
    "ConfigError": 2,
    "InvalidConfigurationError": 2,
    "InvalidParameterError": 2,
    "InvalidSceneError": 2,
    "PgmFormatError": 3,
    "OSError": 3,
    "DepthPocsError": 4,
    "InvalidInputError": 4,
    "CorruptDescriptionError": 4,
    "FloatingPointError": 4,
    "MemoryError": 4,
}


def _refine_16(right_width=16, truth_shape=(16, 16), options=None):
    """refine on a 16x16 left description, a 16 x right_width right one,
    a left truth of truth_shape and options."""
    descs = [encode_map(np.full((16, w), 90.0), flat_table(16.0)) for w in (16, right_width)]
    cams = stereo_pair((16, 16), focal=100.0, baseline=4.0)
    truth = (np.full(truth_shape, 90.0), np.full((16, 16), 90.0))
    pocs.refine(*descs, cams.left, cams.right, options, truth)


class TestExitCodes:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: flat_table(0),
            lambda: jpeg_table(0),
            lambda: _refine_16(right_width=24),
            lambda: _refine_16(truth_shape=(16, 24)),
            lambda: psnr(np.zeros((16, 16)), np.zeros((16, 24))),
            # A map of the wrong number of dimensions breaks the same shape rule.
            lambda: _refine_16(truth_shape=(1, 16, 16)),
            lambda: psnr(np.zeros((16, 16)), np.zeros((1, 16, 16))),
            lambda: error_map(np.zeros((16, 16)), np.zeros(256)),
            lambda: _refine_16(options={"max_iters": 2}),
            lambda: _refine_16(options="fast"),
        ],
        ids=["flat-table-0", "jpeg-table-0", "refine-descriptions", "refine-truth", "psnr",
             "refine-truth-3d", "psnr-3d", "error-map-1d", "options-dict", "options-str"],
    )
    def test_library_argument_error_carries_2(self, call):
        # The code the CLI returns for the same fault (test_bad_step_size_is_2_before_artifacts,
        # test_refine_shape_mismatch_is_2), with no re-raise in between.
        with pytest.raises(errors.InvalidInputError) as info:
            call()
        assert info.value.exit_code == 2, info.value

    @pytest.mark.parametrize(
        "error",
        sorted(
            (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)),
            key=lambda c: c.__name__,
        )
        + [OSError, FloatingPointError, MemoryError],
        ids=lambda c: c.__name__,
    )
    def test_each_error_class_has_its_documented_code(self, monkeypatch, capsys, error):
        def fail(args):
            raise error("injected")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "any.ini", "-o", "out"]) == README_EXIT_CODES[error.__name__]
        assert capsys.readouterr().err == "error: injected\n"

    @pytest.mark.parametrize(
        "quant, argv",
        [
            ("delta = 0", ["run", "{cfg}", "-o", "{out}"]),
            ("delta = 24.0", ["compress", "{pgm}", "-o", "{out}", "--delta", "-1"]),
            ("delta = 24.0", ["compress", "{pgm}", "-o", "{out}", "--quality", "0"]),
            ("delta = 24.0", ["sweep", "{cfg}", "-o", "{out}", "--deltas", "16,-5"]),
            # Both values would write into the same delta_<step> directory.
            ("delta = 24.0", ["sweep", "{cfg}", "-o", "{out}", "--deltas", "16,16.0"]),
            ("delta = 24.0", ["sweep", "{cfg}", "-o", "{out}", "--deltas", "96,96.000001"]),
            # Below 2**-20 a bin index of a map in [0, 256) could leave int32.
            ("delta = 1e-7", ["run", "{cfg}", "-o", "{out}"]),
            ("delta = 24.0", ["compress", "{pgm}", "-o", "{out}", "--delta", "1e-7"]),
            ("delta = 24.0", ["sweep", "{cfg}", "-o", "{out}", "--deltas", "16,1e-7"]),
        ],
        ids=[
            "quant-delta-0", "compress-delta-neg", "compress-quality-0", "sweep-delta-neg",
            "sweep-same-dir-16", "sweep-same-dir-96", "quant-delta-1e-7", "compress-delta-1e-7",
            "sweep-delta-1e-7",
        ],
    )
    def test_bad_step_size_is_2_before_artifacts(self, tmp_path, capsys, quant, argv):
        cfg = tmp_path / "c.ini"
        cfg.write_text(SMALL_SCENE.replace("delta = 24.0", quant))
        pgm = tmp_path / "in.pgm"
        write_pgm(pgm, np.full((16, 16), 90.0))
        before = sorted(tmp_path.rglob("*"))
        args = [a.format(cfg=cfg, pgm=pgm, out=tmp_path / "out") for a in argv]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "config, verb, named",
        [
            (IMPORT_CONFIG + CAMERA_ONLY, ["run"], "not both"),
            (IMPORT_INLINE + CAMERA_FILE + CAMERA_ONLY, ["run"], "not both"),
            (IMPORT_INLINE + CAMERA_FILE.split("[camera.right]")[0], ["run"], "need both"),
            (IMPORT_INLINE, ["run"], "import mode needs"),
            (IMPORT_CONFIG.replace("r.pgm", "wide.pgm"), ["run"],
             "[inputs] right map must be 16x16"),
            (IMPORT_CONFIG, ["generate"], "generate needs"),
            (SCENE_ONLY, ["run"], "at least one [primitive.*]"),
            (SMALL_SCENE.replace("width = 64", "width = 0"), ["run"], "width must be >= 1"),
            (SMALL_SCENE, ["sweep", "--deltas", ","], "at least one value"),
        ],
        ids=[
            "camera-and-camera-file", "camera-and-matrices", "one-matrix", "import-no-camera",
            "maps-disagree", "generate-import", "no-primitive", "width-0", "no-deltas",
        ],
    )
    def test_bad_config_is_2_before_artifacts(self, tmp_path, capsys, config, verb, named):
        cfg = write_import_config(tmp_path, config)
        write_pgm(tmp_path / "wide.pgm", np.full((16, 24), 90.0))
        rejects(tmp_path, capsys, [verb[0], cfg, "-o", tmp_path / "out", *verb[1:]], named)

    @pytest.mark.parametrize("odd", ["--right-desc", "--truth-left"])
    def test_refine_shape_mismatch_is_2(self, small_cfg, coded, tmp_path, capsys, odd):
        # A 40x32 map beside 64x64 descriptions.
        small = tmp_path / "small.pgm"
        write_pgm(small, np.full((40, 32), 90.0))
        assert main(["compress", str(small), "-o", str(tmp_path / "small.qdm")]) == 0
        paths = {
            "--left-desc": coded["left"], "--right-desc": coded["right"],
            "--truth-left": coded["truth_left"], "--truth-right": coded["truth_right"],
        }
        paths[odd] = tmp_path / ("small.qdm" if odd.endswith("desc") else "small.pgm")
        argv = ["refine", str(small_cfg), "-o", str(tmp_path / "ref")]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "ref").exists()

    @pytest.mark.parametrize("odd", ["--left", "--ref-right"])
    def test_evaluate_shape_mismatch_is_2(self, tmp_path, capsys, odd):
        paths = {}
        for flag in ("--left", "--right", "--ref-left", "--ref-right"):
            paths[flag] = tmp_path / f"{flag[2:]}.pgm"
            write_pgm(paths[flag], np.full((16, 24) if flag == odd else (16, 16), 90.0))
        argv = ["evaluate", "-o", str(tmp_path / "err")]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "err").exists()

    def test_io_failure_is_3(self, tmp_path, capsys):
        assert main(["decode", str(tmp_path / "missing.qdm"), "-o", str(tmp_path / "o.pgm")]) == 3
        assert main(["compress", str(tmp_path / "missing.pgm"), "-o", str(tmp_path / "o.qdm")]) == 3

    def test_corrupt_description_is_4(self, tmp_path):
        bad = tmp_path / "bad.qdm"
        bad.write_bytes(b"QDM1" + bytes(40))
        assert main(["decode", str(bad), "-o", str(tmp_path / "o.pgm")]) == 4

    @pytest.mark.parametrize(
        "step, index", [(24.0, 1000), (1e300, 2**31 - 1)], ids=["dc-1000", "int32-max-at-1e300"]
    )
    @pytest.mark.parametrize("verb", ["decode", "refine"])
    def test_decode_out_of_range_is_4_and_writes_nothing(
        self, small_cfg, tmp_path, capsys, verb, step, index
    ):
        # A 16x16 description whose first DC index no map in [0, 256] codes to,
        # beside a valid one; decode_map rejects it before anything is written.
        paths = {}
        for name, dc in (("good", None), ("bad", index)):
            desc = encode_map(np.full((16, 16), 90.0), flat_table(step))
            if dc is not None:
                desc.indices[0, 0, 0] = dc
            paths[name] = tmp_path / f"{name}.qdm"
            desc.save(paths[name])
        out = tmp_path / "out"
        if verb == "decode":
            argv = ["decode", str(paths["bad"]), "-o", str(out)]
        else:
            argv = ["refine", str(small_cfg), "--left-desc", str(paths["good"]),
                    "--right-desc", str(paths["bad"]), "-o", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: centroid decode range") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_bad_step_table_is_4_and_writes_nothing(self, tmp_path, capsys, step):
        # A QDM1 file whose step table holds a step that is not a positive number.
        raw = bytearray(encode_map(np.full((16, 16), 90.0), flat_table(16.0)).to_bytes())
        at = 4 + 16 + 8 * 9  # the step of coefficient (1, 1)
        raw[at : at + 8] = np.array(step, dtype="<f8").tobytes()
        bad, out = tmp_path / "bad.qdm", tmp_path / "out.pgm"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["decode", str(bad), "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: step table") and err.count("\n") == 1, err
        assert not out.exists()

    def test_bad_pgm_is_3(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        assert main(["compress", str(bad), "-o", str(tmp_path / "o.qdm")]) == 3

    def test_invalid_scene_is_2(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[scene]\nwidth = 16\nheight = 16\n"
            "[camera]\nfocal = 100\nbaseline = 4\n"
            "[primitive.only]\ntype = box\nx0 = -1\nx1 = 1\ny0 = -1\ny1 = 1\ndepth = 50\n"
            "[quant]\ndelta = 16\n"
        )
        assert main(["run", str(cfg), "-o", str(tmp_path / "o")]) == 2


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])

    @pytest.mark.parametrize(
        "verb", ["generate", "compress", "decode", "refine", "evaluate", "run", "sweep"]
    )
    def test_each_verb_has_help(self, capsys, verb):
        with pytest.raises(SystemExit) as info:
            main([verb, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: depthpocs {verb} ")
        if verb in ("generate", "refine", "run", "sweep"):  # the verbs that share them
            assert "--outdir" in text and "--pgm16" in text and "\n  config\n" in text


def _load_bench(name):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchContract:
    """The benchmark patches names in the program's modules; they must exist."""

    def test_wrapped_names_exist(self):
        instrument = _load_bench("instrument")
        for module, names in instrument.WRAPPED.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
        import depthpocs.cli

        for name in ("save", "load"):
            assert name in depthpocs.cli.QuantizedDescription.__dict__, name

    def test_half_iteration_parameters_read_by_probe(self):
        instrument = _load_bench("instrument")
        import depthpocs.pocs

        read = set(re.findall(r'bound\["(\w+)"\]', inspect.getsource(instrument.Probe.after)))
        params = set(inspect.signature(depthpocs.pocs.half_iteration).parameters)
        assert read and read <= params, read - params

    def test_hooks_trace_and_probe_refine_on_two_stripes(self, monkeypatch, small_cfg):
        instrument, spans = _load_bench("instrument"), _load_bench("spans")
        config = load_config(small_cfg)
        gen = cli.resolve_inputs(config)
        descs = [encode_map(t, config.table) for t in (gen.left, gen.right)]
        monkeypatch.setattr(pocs, "_stripe_count", lambda height, width, max_iters: 2)
        tracer = spans.Tracer()
        probe = instrument.Probe(tracer)
        with instrument.instrumented(tracer, probe):
            *_, report = pocs.refine(
                *descs, gen.cameras.left, gen.cameras.right, config.options, (gen.left, gen.right)
            )
        halves = [s for s in tracer.spans if s.name == "pocs.half_iter"]
        assert len(halves) == len(report.entries) == 2 * report.iterations
        assert probe.coefficients == len(halves) * descs[0].n_blocks * 64
        assert probe.mismatches == 0 and probe.a2_violations == 0
