"""Binary PGM reader/writer tests, 8-bit and the 16-bit deep variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpocs.errors import PgmFormatError
from depthpocs.pgm import _read_tokens, read_pgm, write_pgm


class TestEightBit:
    def test_integer_round_trip(self, tmp_path):
        m = np.arange(20, dtype=float).reshape(4, 5) * 12.0
        p = tmp_path / "m.pgm"
        write_pgm(p, m)
        assert np.array_equal(read_pgm(p), m)

    def test_rounding_and_clamping(self, tmp_path):
        m = np.array([[0.4, 0.5, 254.5, 300.0], [-4.0, 99.49, 99.51, 255.0]])
        p = tmp_path / "m.pgm"
        write_pgm(p, m)
        got = read_pgm(p)
        assert np.array_equal(got, [[0, 1, 255, 255], [0, 99, 100, 255]])

    def test_header_layout(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, np.zeros((2, 3)))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert len(raw) == len(b"P5\n3 2\n255\n") + 6


class TestSixteenBit:
    def test_sub_level_precision_survives(self, tmp_path):
        rng = np.random.default_rng(95)
        m = rng.uniform(0.0, 255.0, (6, 7))
        p = tmp_path / "m.pgm"
        write_pgm(p, m, deep=True)
        got = read_pgm(p)
        assert np.max(np.abs(got - m)) <= 0.5 / 256.0 + 1e-12

    def test_big_endian_payload(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, np.array([[1.0]]), deep=True)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n1 1\n65535\n")
        assert raw[-2:] == (256).to_bytes(2, "big")


class TestParsing:
    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.pgm"
        payload = bytes([7, 8, 9, 10, 11, 12])
        p.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + payload)
        got = read_pgm(p)
        assert np.array_equal(got, [[7, 8, 9], [10, 11, 12]])

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(PgmFormatError):
            read_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(PgmFormatError):
            read_pgm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P5\n2 2\n70000\n" + bytes(8))
        with pytest.raises(PgmFormatError):
            read_pgm(p)

    @pytest.mark.parametrize(
        "header, payload",
        [(b"P5\n2 1\n100\n", bytes([7, 200])), (b"P5\n1 1\n1000\n", (1001).to_bytes(2, "big"))],
        ids=["8-bit", "16-bit"],
    )
    def test_sample_above_maxval(self, tmp_path, header, payload):
        p = tmp_path / "a.pgm"
        p.write_bytes(header + payload)
        with pytest.raises(PgmFormatError, match="above maxval"):
            read_pgm(p)

    def test_non_numeric_header(self, tmp_path):
        p = tmp_path / "n.pgm"
        p.write_bytes(b"P5\ntwo 2\n255\n" + bytes(4))
        with pytest.raises(PgmFormatError):
            read_pgm(p)


# A P5 header with small or out-of-range fields, then a payload of any length.
_HEADED = st.builds(
    lambda w, h, maxval, payload: f"P5\n{w} {h}\n{maxval}\n".encode() + payload,
    st.integers(-2, 12), st.integers(-2, 12), st.integers(-1, 70000), st.binary(max_size=300),
)


class TestArbitraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=300), _HEADED))
    def test_read_returns_or_raises_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.pgm"
        path.write_bytes(data)
        try:
            m = read_pgm(path)
        except PgmFormatError:
            return
        assert m.dtype == np.float64 and m.ndim == 2
        maxval = int(_read_tokens(data, 4)[0][3])
        assert m.max() <= (maxval / 256.0 if maxval > 255 else maxval)
