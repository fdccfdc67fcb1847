"""No raw traceback gets out of the library's records. Every field of
RefineOptions, SceneSpec, Plane and Box, and the arguments of flat_table and
jpeg_table, take drawn values of every kind: strings, None, bools, NaN, the
infinities, integers past the float range and past the 4,300 digits Python
prints, complex numbers, Decimals, Fractions, and numpy integers and floats.
Each call is either accepted or raises a DepthPocsError with exit code 2; any
other exception, or any warning, fails."""

import dataclasses
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpocs.codec import flat_table, jpeg_table
from depthpocs.errors import DepthPocsError
from depthpocs.pocs import RefineOptions
from depthpocs.scene import Box, Plane, SceneSpec, demo_scene, generate_scene

ODD = st.sampled_from([
    "1", "", None, True, False, np.True_, np.False_, math.nan, math.inf, -math.inf,
    10**400, -(10**400), 10**5000, -(10**5000), 1j, 2 + 0j, Decimal("1"), Decimal("nan"), Fraction(1, 3),
    np.float64(np.nan), np.float32(-np.inf), object(),
])


def numbers(low, high, *, integer=False):
    """Numbers in [low, high] as Python or numpy ints (or floats)."""
    ints = st.integers(math.ceil(low), math.floor(high))
    small = st.integers(max(math.ceil(low), -(2**31)), min(math.floor(high), 2**31 - 1))
    floats = st.floats(low, high)
    forms = [ints, small.map(np.int64), small.map(np.int32)]
    if not integer:
        forms += [floats, floats.map(np.float64), floats.map(np.float32)]
    return st.one_of(*forms)


def accepted_or_exit_2(call, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args, **kwargs)
        except DepthPocsError as exc:
            assert exc.exit_code == 2, repr(exc)


def one_odd_field(data, fields):
    """Set at most one entry of `fields`, a dict or a record's vars(), to an odd
    value; with every field in range, most records do their work."""
    name = data.draw(st.sampled_from([None, *fields]))
    if name is not None:
        fields[name] = data.draw(ODD)


OPTIONS = st.fixed_dictionaries({}, optional={
    "max_iters": numbers(-1, 20, integer=True),
    "eps": numbers(-1, 1),
    "tau": numbers(-1, 64),
    "sigma_s": numbers(-1, 10),
    "sigma_r": numbers(-1, 50),
    "radius": numbers(-1, 5, integer=True),
    "start": st.sampled_from(["left", "right", "middle"]),
})

PLANES = st.builds(
    Plane, a=numbers(-0.3, 0.3), b=numbers(-0.3, 0.3), c=numbers(1, 250),
    ripple=st.sampled_from([True, False, np.True_, np.False_]),
)
BOXES = st.builds(
    Box, x0=numbers(-100, 100), x1=numbers(-100, 100), y0=numbers(-100, 100),
    y1=numbers(-100, 100), depth=numbers(-10, 300),
)
# At most 8x8, so that each drawn scene renders in milliseconds. A plane
# first, so that many scenes cover every pixel.
SCENES = st.builds(
    SceneSpec,
    width=numbers(1, 8, integer=True),
    height=numbers(1, 8, integer=True),
    primitives=st.builds(lambda first, rest: [first, *rest],
                         PLANES, st.lists(st.one_of(PLANES, BOXES), max_size=2)),
    focal=numbers(1, 200),
    baseline=numbers(-20, 20),
    cx=st.one_of(st.none(), numbers(-5, 12)),
    cy=st.one_of(st.none(), numbers(-5, 12)),
    seed=numbers(0, 2**70, integer=True),
    noise_amp=numbers(-2, 2),
)


def scene_with(**fields):
    return generate_scene(dataclasses.replace(demo_scene(8, 8), **fields))


@pytest.mark.parametrize("call", [
    lambda: RefineOptions(radius=10**5000),
    lambda: RefineOptions(start=10**5000),
    lambda: jpeg_table(10**5000),
    lambda: scene_with(width=10**5000),
    lambda: scene_with(seed=-(10**5000)),
    lambda: scene_with(primitives=10**5000),
    lambda: scene_with(primitives=[Plane(a=10**5000, b=0.0, c=9.0)]),
    lambda: scene_with(primitives=[Plane(0.0, 0.0, 9.0, ripple=10**5000)]),
], ids=["radius", "start", "quality", "width", "seed", "primitives", "plane-a", "ripple"])
def test_huge_integer_is_named_by_its_type(call):
    # Python refuses str() of an int of more than 4,300 digits; the message shows its type.
    with pytest.raises(DepthPocsError, match="got <int too long to show>$") as info:
        call()
    assert info.value.exit_code == 2


@settings(max_examples=150, deadline=None)
@given(OPTIONS, st.data())
def test_refine_options(fields, data):
    one_odd_field(data, fields)
    accepted_or_exit_2(RefineOptions, **fields)


@settings(max_examples=150, deadline=None)
@given(SCENES, st.data())
def test_scene(spec, data):
    one_odd_field(data, vars(data.draw(st.sampled_from([spec, *spec.primitives]))))
    accepted_or_exit_2(generate_scene, spec)


@settings(max_examples=150, deadline=None)
@given(st.one_of(numbers(-1, 100), ODD), st.one_of(numbers(-5, 110, integer=True), ODD))
def test_tables(delta, quality):
    accepted_or_exit_2(flat_table, delta)
    accepted_or_exit_2(jpeg_table, quality)
