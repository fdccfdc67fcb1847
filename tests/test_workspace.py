"""Workspace tests: frames give memory back, chunks never move, FRESH
hands out new arrays, and refine's stripe context ends each half-iteration
with its workspace empty."""

import numpy as np

from depthpocs import pocs
from depthpocs._common import FRESH, Workspace
from depthpocs.codec import encode_map, flat_table
from depthpocs.pocs import RefineOptions, half_iteration
from depthpocs.scene import demo_scene, generate_scene


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def next_address(ws: Workspace) -> int:
    """Where the workspace's next take starts, without keeping it."""
    with ws.frame():
        return address(ws.take(1))


class TestWorkspace:
    def test_frame_gives_memory_back(self):
        ws = Workspace()
        start = next_address(ws)
        with ws.frame():
            a = ws.take((3, 5))
            with ws.frame():
                b = ws.take(7, np.intp)
                assert not np.shares_memory(a, b)
            assert address(ws.take((3, 5))) == address(b)
        assert next_address(ws) == start == address(a)

    def test_growth_keeps_earlier_arrays(self):
        ws = Workspace()
        small = ws.take(16)
        small[:] = np.arange(16)
        big = ws.take(1 << 20)  # beyond the first chunk
        big.fill(-1.0)
        assert np.array_equal(small, np.arange(16))
        assert big.shape == (1 << 20,) and big.dtype == np.float64

    def test_alignment_and_dtype(self):
        ws = Workspace()
        ws.take(3, bool)
        a = ws.take((2, 3), np.intp)
        assert address(a) % 64 == 0 and a.dtype == np.intp and a.shape == (2, 3)

    def test_fresh_hands_out_new_arrays(self):
        with FRESH.frame():
            a = FRESH.take(4)
        assert not np.shares_memory(a, FRESH.take(4))
        assert FRESH.cached("key", lambda: 1) == 1 and FRESH.cached("key", lambda: 2) == 2

    def test_cache_keeps_the_two_newest_keys(self):
        ws = Workspace()
        calls = []

        def make(key):
            calls.append(key)
            return key

        for key in ("a", "b", "a", "c", "a", "b"):
            assert ws.cached(key, lambda: make(key)) == key
        assert calls == ["a", "b", "c", "a", "b"]


def test_half_iteration_leaves_its_workspace_empty():
    gen = generate_scene(demo_scene(40, 24))
    desc = encode_map(gen.right, flat_table(16.0))
    cams = gen.cameras
    for count in (1, 2):
        with pocs._Stripes((desc,), gen.right.shape, count) as stripes:
            start = next_address(stripes.workspace)
            for radius in (2, 0):
                half_iteration(
                    gen.left, cams.left, cams.right, desc, gen.right, RefineOptions(radius=radius),
                    stripes=stripes,
                )
                assert next_address(stripes.workspace) == start
