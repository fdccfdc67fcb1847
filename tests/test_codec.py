"""Transform codec tests: brute-force DCT oracles, quantizer rules,
bin projection properties, whole-map coding and the QDM1 container."""

import math
import struct
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpocs import codec
from depthpocs.errors import CorruptDescriptionError, InvalidInputError, InvalidParameterError


def oracle_forward_dct(block):
    """Direct double-sum evaluation of the orthonormal 2D DCT-II."""
    out = np.zeros((8, 8))
    for u in range(8):
        cu = math.sqrt(1.0 / 8.0) if u == 0 else math.sqrt(2.0 / 8.0)
        for v in range(8):
            cv = math.sqrt(1.0 / 8.0) if v == 0 else math.sqrt(2.0 / 8.0)
            acc = 0.0
            for i in range(8):
                for j in range(8):
                    acc += (
                        block[i][j]
                        * math.cos((2 * i + 1) * u * math.pi / 16.0)
                        * math.cos((2 * j + 1) * v * math.pi / 16.0)
                    )
            out[u, v] = cu * cv * acc
    return out


def oracle_inverse_dct(coeffs):
    """Direct double-sum inverse DCT-II."""
    out = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            acc = 0.0
            for u in range(8):
                cu = math.sqrt(1.0 / 8.0) if u == 0 else math.sqrt(2.0 / 8.0)
                for v in range(8):
                    cv = math.sqrt(1.0 / 8.0) if v == 0 else math.sqrt(2.0 / 8.0)
                    acc += (
                        cu
                        * cv
                        * coeffs[u][v]
                        * math.cos((2 * i + 1) * u * math.pi / 16.0)
                        * math.cos((2 * j + 1) * v * math.pi / 16.0)
                    )
            out[i, j] = acc
    return out


def fwd(*blocks):
    """dct_blocks on a stack of the given (8, 8) blocks."""
    return codec.dct_blocks(np.stack(blocks))


def inv(*coeffs):
    """idct_blocks on a stack of the given (8, 8) coefficient blocks."""
    return codec.idct_blocks(np.stack(coeffs))


class TestDct:
    def test_constant_block_dc_gain(self):
        y = fwd(np.full((8, 8), 128.0))[0]
        assert y[0, 0] == pytest.approx(1024.0, abs=1e-9)
        assert np.max(np.abs(y.ravel()[1:])) < 1e-9

    def test_zero_block(self):
        assert np.array_equal(fwd(np.zeros((8, 8)), np.zeros((8, 8))), np.zeros((2, 8, 8)))

    def test_impulse_matches_basis_formula(self):
        block = np.zeros((8, 8))
        block[0, 0] = 1.0
        assert np.max(np.abs(fwd(block)[0] - oracle_forward_dct(block))) < 1e-12

    def test_random_blocks_match_oracle(self):
        rng = np.random.default_rng(11)
        blocks = rng.uniform(0.0, 255.0, (25, 8, 8))
        for b, y in zip(blocks, fwd(*blocks)):
            assert np.max(np.abs(y - oracle_forward_dct(b))) < 1e-9

    def test_inverse_matches_oracle(self):
        rng = np.random.default_rng(12)
        coeffs = rng.uniform(-500.0, 500.0, (10, 8, 8))
        for c, x in zip(coeffs, inv(*coeffs)):
            assert np.max(np.abs(x - oracle_inverse_dct(c))) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        blocks = rng.uniform(0.0, 255.0, (50, 8, 8))
        assert np.max(np.abs(inv(*fwd(*blocks)) - blocks)) < 1e-9

    def test_dc_only_gives_constant(self):
        c = np.zeros((8, 8))
        c[0, 0] = 1024.0
        assert np.max(np.abs(inv(c) - 128.0)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(14)
        blocks = rng.uniform(0.0, 255.0, (50, 8, 8))
        for b, y in zip(blocks, fwd(*blocks)):
            ny = np.linalg.norm(y)
            nx = np.linalg.norm(b)
            assert abs(ny - nx) <= 1e-9 * nx


class TestQuantizer:
    def test_midtread_examples(self):
        t = codec.flat_table(10.0)
        y = np.zeros((8, 8))
        y[0, 0] = 17.0
        y[0, 1] = -17.0
        idx = codec.quantize(y, t)
        assert idx[0, 0] == 2
        assert idx[0, 1] == -2
        assert np.all(idx.ravel()[2:] == 0)

    def test_zero_maps_to_zero_for_any_table(self):
        for delta in (0.5, 1.0, 16.0, 255.0):
            idx = codec.quantize(np.zeros((8, 8)), codec.flat_table(delta))
            assert np.all(idx == 0)

    def test_half_rounds_away_from_zero(self):
        t = codec.flat_table(10.0)
        y = np.full((8, 8), 25.0)
        assert np.all(codec.quantize(y, t) == 3)
        assert np.all(codec.quantize(-y, t) == -3)

    def test_index_outside_int32_rejected(self):
        # Index 2**31 is one more than int32 holds, so the cast would wrap.
        y = np.zeros((8, 8))
        y[3, 5] = 2.0**31
        with pytest.raises(InvalidInputError, match="does not fit int32"):
            codec.quantize(y, codec.flat_table(1.0))
        with pytest.raises(InvalidInputError, match="does not fit int32"):
            codec.quantize(-2.0 * y, codec.flat_table(1.0))
        assert codec.quantize(y - 1.0, codec.flat_table(1.0))[3, 5] == 2**31 - 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, value):
        y = np.zeros((8, 8))
        y[2, 6] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            codec.quantize(y, codec.flat_table(1.0))

    def test_dequantize_examples(self):
        t = codec.flat_table(10.0)
        idx = np.full((8, 8), 2, dtype=np.int32)
        assert np.all(codec.dequantize(idx, t) == 20.0)
        assert np.all(codec.dequantize(np.zeros((8, 8), np.int32), t) == 0.0)

    def test_quantizer_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            t = rng.uniform(0.5, 64.0, (8, 8))
            y = rng.uniform(-2000.0, 2000.0, (8, 8))
            idx = codec.quantize(y, t)
            lo, hi = codec.bin_bounds(idx, t)
            assert np.all(y >= lo) and np.all(y <= hi)
            assert np.max(np.abs(codec.dequantize(idx, t) - y)) <= np.max(t) / 2 + 1e-12

    def test_bin_bounds_examples(self):
        lo, hi = codec.bin_bounds(np.full((8, 8), 2, np.int32), codec.flat_table(10.0))
        assert np.all(lo == 15.0) and np.all(hi == 25.0)
        lo, hi = codec.bin_bounds(np.zeros((8, 8), np.int32), codec.flat_table(16.0))
        assert np.all(lo == -8.0) and np.all(hi == 8.0)

    def test_bin_width_equals_step(self):
        rng = np.random.default_rng(22)
        t = rng.uniform(0.5, 64.0, (8, 8))
        idx = rng.integers(-50, 50, (8, 8)).astype(np.int32)
        lo, hi = codec.bin_bounds(idx, t)
        assert np.max(np.abs((hi - lo) - t)) < 1e-12


class TestClipToBins:
    def test_inside_unchanged_and_boundary(self):
        t = codec.flat_table(10.0)
        bounds = codec.bin_bounds(np.full((8, 8), 2, np.int32), t)
        y = np.full((8, 8), 17.0)
        assert np.array_equal(codec.clip_to_bins(y, bounds), y)
        y27 = np.full((8, 8), 27.0)
        assert np.all(codec.clip_to_bins(y27, bounds) == 25.0)

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        t = rng.uniform(0.5, 32.0, (8, 8))
        bounds = codec.bin_bounds(rng.integers(-20, 20, (8, 8)).astype(np.int32), t)
        y = rng.uniform(-800.0, 800.0, (8, 8))
        once = codec.clip_to_bins(y, bounds)
        assert np.array_equal(codec.clip_to_bins(once, bounds), once)

    def test_output_satisfies_constraints(self):
        rng = np.random.default_rng(32)
        t = rng.uniform(0.5, 32.0, (8, 8))
        bounds = codec.bin_bounds(rng.integers(-20, 20, (8, 8)).astype(np.int32), t)
        y = rng.uniform(-800.0, 800.0, (8, 8))
        out = codec.clip_to_bins(y, bounds)
        assert np.all(out >= bounds.lo) and np.all(out <= bounds.hi)

    def test_non_expansive(self):
        rng = np.random.default_rng(33)
        t = rng.uniform(0.5, 32.0, (8, 8))
        bounds = codec.bin_bounds(rng.integers(-20, 20, (8, 8)).astype(np.int32), t)
        for _ in range(200):
            a = rng.uniform(-500.0, 500.0, (8, 8))
            b = rng.uniform(-500.0, 500.0, (8, 8))
            da = np.linalg.norm(codec.clip_to_bins(a, bounds) - codec.clip_to_bins(b, bounds))
            assert da <= np.linalg.norm(a - b) + 1e-12


@st.composite
def _stripes(draw):
    """A coded off-grid view, a stripe of it that starts on a block row, and
    a band of new values for the stripe's rows."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    tables = [codec.flat_table(24.0), codec.jpeg_table(50), codec.jpeg_table(5)]
    table = draw(st.sampled_from(tables))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    view = rng.uniform(0.0, 255.0, (h, w))
    blocks = -(-h // 8)
    first = draw(st.integers(0, blocks - 1))
    end = min(h, 8 * draw(st.integers(first + 1, blocks)))
    band = view[8 * first : end] + rng.normal(0.0, 20.0, (end - 8 * first, w))
    return codec.encode_map(view, table), band, 8 * first


class TestProjectToBins:
    @settings(max_examples=150, deadline=None)
    @given(case=_stripes())
    def test_clips_against_its_rows_slice_of_the_views_bounds(self, case):
        desc, band, row = case
        got, n_out = codec.project_to_bins(band, desc, row)
        padded = codec.pad_to_blocks(band)
        coeffs = codec.dct_blocks(codec.split_blocks(padded))
        bounds = codec.bin_bounds(desc.indices, desc.table)
        first = row // 8 * (desc.width // 8)
        mine = slice(first, first + len(coeffs))
        clipped = codec.clip_to_bins(coeffs, codec.BinConstraints(bounds.lo[mine], bounds.hi[mine]))
        want = codec.merge_blocks(codec.idct_blocks(clipped), *padded.shape)
        assert got.tobytes() == want[: band.shape[0], : band.shape[1]].tobytes()
        assert n_out == np.count_nonzero(clipped != coeffs)


def table_rejected(make, value, named):
    """make(value) raises InvalidParameterError naming `named`, with exit code 2
    and no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParameterError, match=named) as got:
            make(value)
    assert got.value.exit_code == 2


class TestTables:
    def test_flat_table(self):
        t = codec.flat_table(24.0)
        assert t.shape == (8, 8) and np.all(t == 24.0)
        with pytest.raises(InvalidInputError):
            codec.flat_table(0.0)
        assert np.array_equal(codec.flat_table(np.float32(24.0)), t)
        # "24" and None raised a raw TypeError, and True made a step of 1.
        for bad in ("24", None, True, np.True_, math.nan, -math.inf, 10**400, 1j, Decimal("24")):
            table_rejected(codec.flat_table, bad, "step size")

    def test_flat_table_rejects_steps_below_2_pow_minus_20(self):
        # Every coefficient of a map in [0, 256) is below 2048 = 2**11, so
        # from 2**-20 up its index stays below 2**31.
        with pytest.raises(InvalidInputError, match="at least 2"):
            codec.flat_table(1e-7)
        with pytest.raises(InvalidInputError, match="at least 2"):
            codec.flat_table(np.nextafter(2.0**-20, 0.0))
        m = np.full((8, 8), 255.99)
        idx = codec.encode_map(m, codec.flat_table(2.0**-20)).indices
        assert idx.max() == round(8 * 255.99 * 2**20) < 2**31

    def test_jpeg_table_quality_50_is_base(self):
        t = codec.jpeg_table(50)
        assert t[0, 0] == 16.0 and t[7, 7] == 99.0

    def test_jpeg_table_monotone_quality(self):
        t90 = codec.jpeg_table(90)
        t10 = codec.jpeg_table(10)
        assert np.all(t10 >= t90)
        assert np.all(codec.jpeg_table(100) >= 1.0)
        with pytest.raises(InvalidInputError):
            codec.jpeg_table(0)
        assert np.array_equal(codec.jpeg_table(np.int16(50)), codec.jpeg_table(50))
        # A quality is an integer, not a bool: 50.9 made quality 50, and NaN
        # raised a raw ValueError.
        for bad in (50.9, np.float64(50.0), True, "50", None, math.nan, 101, 10**400):
            table_rejected(codec.jpeg_table, bad, "quality")


class TestEncodeDecode:
    def test_constant_map_indices(self):
        desc = codec.encode_map(np.full((16, 16), 128.0), codec.flat_table(16.0))
        assert desc.indices.shape == (4, 8, 8)
        for blk in desc.indices:
            assert blk[0, 0] == 64
            assert np.count_nonzero(blk) == 1

    def test_padding_arithmetic(self):
        m = np.arange(13 * 9, dtype=float).reshape(9, 13)
        desc = codec.encode_map(m, codec.flat_table(8.0))
        assert (desc.width, desc.height) == (16, 16)
        assert (desc.orig_width, desc.orig_height) == (13, 9)
        assert desc.n_blocks == 4

    def test_empty_map_rejected(self):
        with pytest.raises(InvalidInputError):
            codec.encode_map(np.zeros((0, 0)), codec.flat_table(8.0))

    def test_table_not_8x8_rejected(self):
        with pytest.raises(InvalidInputError, match="8x8"):
            codec.encode_map(np.zeros((8, 8)), np.ones((4, 4)))

    @pytest.mark.parametrize(
        "step, message",
        [(0.0, "must be positive"), (-1.0, "must be positive"), (math.nan, "non-finite")],
        ids=["zero", "negative", "nan"],
    )
    def test_table_entries_must_be_positive_and_finite(self, step, message):
        table = codec.flat_table(8.0)
        table[1, 1] = step
        with pytest.raises(InvalidInputError, match=message) as info:
            codec.encode_map(np.zeros((8, 8)), table)
        assert info.value.exit_code == 4

    @pytest.mark.parametrize(
        "value, step, message",
        [(1e308, 24.0, r"outside \[0, 256\)"), (100.0, 1e-320, "does not fit int32")],
        ids=["transform-overflows", "index-overflows"],
    )
    def test_overflow_rejected_without_warning(self, value, step, message):
        # The transform of 1e308 samples would overflow, but the range check
        # stops them first; 100 over a 1e-320 step is an infinite index,
        # which quantize reports. Each is the one report, with no numpy
        # warning before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match=message):
                codec.encode_map(np.full((8, 8), value), np.full((8, 8), step))

    @pytest.mark.parametrize(
        "value, step",
        [(-200.0, 24.0), (256.0, 2.0**-20), (400.0, 24.0), (1000.0, 24.0)],
        ids=["-200", "256-at-2**-20", "400", "1000"],
    )
    def test_sample_outside_0_256_rejected_without_warning(self, value, step):
        # 400 at step 24 would code a description that decode_map rejects;
        # 256 at step 2**-20 would give a DC index of 2**31.
        m = np.full((8, 8), value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"outside \[0, 256\)"):
                codec.encode_map(m, codec.flat_table(step))

    def test_decode_of_zero_map(self):
        desc = codec.encode_map(np.zeros((16, 16)), codec.flat_table(8.0))
        assert np.array_equal(codec.decode_map(desc), np.zeros((16, 16)))

    def test_decode_of_constant_map(self):
        desc = codec.encode_map(np.full((24, 24), 128.0), codec.flat_table(16.0))
        assert np.max(np.abs(codec.decode_map(desc) - 128.0)) < 1e-9

    def test_centroid_fixed_point(self):
        # A map already sitting at bin centroids re-encodes to the same
        # indices, so a second decode reproduces it bit for bit.
        rng = np.random.default_rng(41)
        base = np.cumsum(rng.uniform(-2.0, 2.0, (32, 32)), axis=1) + 120.0
        table = codec.flat_table(16.0)
        d1 = codec.encode_map(base, table)
        m1 = codec.decode_map(d1)
        assert np.min(m1) > 0.0 and np.max(m1) < 255.0  # clamp inactive
        d2 = codec.encode_map(m1, table)
        assert np.array_equal(d1.indices, d2.indices)
        assert np.array_equal(codec.decode_map(d2), m1)

    def test_psnr_lower_bound_from_bin_width(self):
        # Per-coefficient error is at most delta/2, so by norm preservation
        # the pixel MSE cannot exceed delta^2/4 (map is a multiple of 8, no
        # padding inflation).
        rng = np.random.default_rng(42)
        m = np.clip(rng.normal(128.0, 30.0, (64, 64)), 5.0, 250.0)
        delta = 20.0
        dec = codec.decode_map(codec.encode_map(m, codec.flat_table(delta)))
        mse = float(np.mean((dec - m) ** 2))
        bound_db = 10.0 * math.log10(255.0**2 / (delta**2 / 4.0))
        psnr_db = 10.0 * math.log10(255.0**2 / mse)
        assert psnr_db >= bound_db

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        m = rng.uniform(0.0, 255.0, (40, 48))
        t = codec.jpeg_table(60)
        d1 = codec.encode_map(m, t)
        d2 = codec.encode_map(m, t)
        assert d1.to_bytes() == d2.to_bytes()
        assert np.array_equal(codec.decode_map(d1), codec.decode_map(d2))

    def test_corrupt_block_count(self):
        desc = codec.encode_map(np.full((16, 16), 50.0), codec.flat_table(8.0))
        desc.indices = desc.indices[:3]
        with pytest.raises(CorruptDescriptionError):
            codec.decode_map(desc)


def with_index(step, index):
    """A 16x16 description at a flat step whose first DC index is `index`."""
    desc = codec.encode_map(np.full((16, 16), 90.0), codec.flat_table(step))
    desc.indices[0, 0, 0] = index
    return desc


def decode_warning_free(desc):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return codec.decode_map(desc)


@st.composite
def _structured_descriptions(draw):
    """A description of valid structure, coded from a map in [0, 65535/256]
    with a flat, JPEG or arbitrary table of steps of at least 2**-20, and
    whether up to three of its indices were then set to any int32 value."""
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    steps = st.floats(2.0**-20, 1e308)
    kind = draw(st.sampled_from(["flat", "jpeg", "any"]))
    if kind == "flat":
        table = codec.flat_table(draw(steps))
    elif kind == "jpeg":
        table = codec.jpeg_table(draw(st.integers(1, 100)))
    else:
        table = np.array(draw(st.lists(steps, min_size=64, max_size=64))).reshape(8, 8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(0.0, 65535 / 256, (h, w))
    m[rng.random((h, w)) < 0.3] = 65535 / 256
    desc = codec.encode_map(m, table)
    values = st.integers(-(2**31), 2**31 - 1) | st.integers(-300, 300)
    edits = draw(st.lists(st.tuples(st.integers(0, desc.indices.size - 1), values), max_size=3))
    for k, value in edits:
        desc.indices.flat[k] = value
    return desc, bool(edits)


@st.composite
def _maps_and_tables(draw):
    """A map in [0, 256), half its samples at 0 or 256 - 2**-20, and a flat
    table of step 2**-20 to 1e6 or a JPEG table."""
    h, w = draw(st.integers(1, 39)), draw(st.integers(1, 39))
    if draw(st.booleans()):
        table = codec.flat_table(draw(st.floats(2.0**-20, 1e6)))
    else:
        table = codec.jpeg_table(draw(st.integers(1, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(0.0, 256.0, (h, w))
    ends = rng.random((h, w))
    m[ends < 0.2] = 0.0
    m[ends > 0.7] = 256.0 - 2.0**-20
    return m, table


class TestDecodeRange:
    """decode_map rejects a description whose padded centroid decode leaves
    [-4 * delta_max, 256 + 4 * delta_max] or is not finite."""

    @pytest.mark.parametrize(
        "step, index", [(24.0, 1000), (1e300, 2**31 - 1)], ids=["dc-1000", "int32-max-at-1e300"]
    )
    def test_corrupt_rejected_without_warning(self, step, index):
        with pytest.raises(CorruptDescriptionError, match="^centroid decode range"):
            decode_warning_free(with_index(step, index))

    @pytest.mark.parametrize(
        "index, accepted", [(543, True), (545, False), (-31, True), (-33, False)]
    )
    def test_bound_is_4_delta_max_beyond_0_and_256(self, index, accepted):
        # At step 4 a DC index k puts each sample of its block at k / 2;
        # the bound is [-16, 272].
        desc = with_index(4.0, index)
        if accepted:
            assert np.all(np.isin(codec.decode_map(desc)[:8, :8], (0.0, 65535 / 256)))
        else:
            with pytest.raises(CorruptDescriptionError):
                codec.decode_map(desc)

    def test_largest_step_decodes_without_warning(self):
        # 4 * 1e308 overflows to an infinite bound, which admits every finite decode.
        decoded = decode_warning_free(with_index(1e308, 1))
        assert np.array_equal(decoded[:8, :8], np.full((8, 8), 65535 / 256))

    @settings(max_examples=300, deadline=None)
    @given(case=_structured_descriptions())
    def test_decodes_into_0_255_or_raises_corrupt_description(self, case):
        desc, edited = case
        try:
            decoded = decode_warning_free(desc)
        except CorruptDescriptionError:
            assert edited, "a description coded from a map was rejected"
            return
        assert decoded.shape == desc.shape
        assert np.all((decoded >= 0.0) & (decoded <= 65535 / 256))

    @settings(max_examples=200, deadline=None)
    @given(case=_maps_and_tables())
    def test_every_encoded_map_decodes(self, case):
        # Every description encode_map returns, decode_map admits.
        m, table = case
        assert decode_warning_free(codec.encode_map(m, table)).shape == m.shape


class TestQdmContainer:
    def _desc(self):
        rng = np.random.default_rng(51)
        return codec.encode_map(rng.uniform(0, 255, (20, 35)), codec.jpeg_table(40))

    def test_round_trip_bitwise(self):
        desc = self._desc()
        back = codec.QuantizedDescription.from_bytes(desc.to_bytes())
        assert (back.width, back.height) == (desc.width, desc.height)
        assert (back.orig_width, back.orig_height) == (desc.orig_width, desc.orig_height)
        assert np.array_equal(back.table, desc.table)
        assert np.array_equal(back.indices, desc.indices)
        assert back.to_bytes() == desc.to_bytes()

    def test_layout_is_little_endian(self):
        desc = self._desc()
        raw = desc.to_bytes()
        assert raw[:4] == b"QDM1"
        w, h, ow, oh = struct.unpack_from("<4I", raw, 4)
        assert (w, h, ow, oh) == (desc.width, desc.height, desc.orig_width, desc.orig_height)
        step0 = struct.unpack_from("<d", raw, 20)[0]
        assert step0 == desc.table[0, 0]
        first_idx = struct.unpack_from("<i", raw, 20 + 64 * 8)[0]
        assert first_idx == int(desc.indices[0, 0, 0])

    def test_save_load(self, tmp_path):
        desc = self._desc()
        path = tmp_path / "d.qdm"
        desc.save(path)
        assert codec.QuantizedDescription.load(path).to_bytes() == desc.to_bytes()

    def test_bad_magic(self):
        with pytest.raises(CorruptDescriptionError):
            codec.QuantizedDescription.from_bytes(b"NOPE" + b"\0" * 64)

    def test_truncated_payload(self):
        raw = self._desc().to_bytes()
        with pytest.raises(CorruptDescriptionError):
            codec.QuantizedDescription.from_bytes(raw[:-5])

    def test_trailing_garbage(self):
        raw = self._desc().to_bytes()
        with pytest.raises(CorruptDescriptionError):
            codec.QuantizedDescription.from_bytes(raw + b"xx")

    @staticmethod
    def _stored(width, height, orig_width, orig_height):
        """A QDM1 file of the given header sizes, with the index payload they ask for."""
        head = codec.QDM_MAGIC + struct.pack("<4I", width, height, orig_width, orig_height)
        table = codec.jpeg_table(40).astype("<f8").tobytes()
        return head + table + bytes(4 * 64 * (width // 8) * (height // 8))

    def test_padded_size_not_the_maps_next_block_multiple_rejected(self):
        with pytest.raises(CorruptDescriptionError, match="padded size 24x16"):
            codec.QuantizedDescription.from_bytes(self._stored(24, 16, 13, 9))

    def test_padded_size_of_the_map_accepted(self):
        raw = self._stored(16, 16, 16, 9)
        desc = codec.QuantizedDescription.from_bytes(raw)
        assert (desc.width, desc.height, desc.shape, desc.n_blocks) == (16, 16, (9, 16), 4)
        assert desc.to_bytes() == raw


@st.composite
def _qdm_like(draw):
    """QDM1 magic, a header of small sizes, a table of any or of valid steps,
    then the index payload the sizes ask for, give or take a few bytes."""
    size = st.integers(0, 26) | st.sampled_from([8, 16])
    width, height = draw(size), draw(size)
    orig = (draw(st.integers(0, 26) | st.just(width)), draw(st.integers(0, 26) | st.just(height)))
    steps = draw(st.sampled_from([st.floats(), st.floats(0.5, 255.0)]))
    table = np.array(draw(st.lists(steps, min_size=64, max_size=64)), "<f8").tobytes()
    payload = max((width // 8) * (height // 8) * 64 * 4 + draw(st.integers(-3, 3)), 0)
    head = b"QDM1" + struct.pack("<4I", width, height, *orig)
    return head + table + draw(st.binary(min_size=payload, max_size=payload))


class TestQdmArbitraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=600), _qdm_like()))
    def test_from_bytes_returns_or_raises_corrupt_description(self, data):
        try:
            desc = codec.QuantizedDescription.from_bytes(data)
        except CorruptDescriptionError:
            return
        assert desc.to_bytes() == data
