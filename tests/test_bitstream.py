import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odlc import bitstream as bsm
from odlc import ppm


class TestPackBits:
    def test_golden_byte(self):
        bits = np.array([+1, -1, +1, +1, -1, -1, -1, +1], dtype=np.float32)
        assert bsm.pack_bits([bits]) == bytes([0b10110001])

    def test_padding_rule(self):
        bits = np.ones(513, dtype=np.float32)
        packed = bsm.pack_bits([bits])
        assert len(packed) == 65
        assert packed[-1] == 0b10000000  # 1 payload bit, 7 zero pad bits

    def test_invalid_entry_rejected(self):
        with pytest.raises(bsm.BitstreamError, match="not in"):
            bsm.pack_bits([np.array([1.0, 0.5])])

    @given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=300))
    def test_round_trip(self, vals):
        arr = np.array(vals, dtype=np.float32)
        back = bsm.unpack_bits(bsm.pack_bits([arr]), len(vals))
        np.testing.assert_array_equal(back, arr)


class TestHeader:
    def test_layout_golden(self):
        hdr = bsm.BitstreamHeader(width=300, height=200, iterations=4, c_b=32)
        raw = hdr.to_bytes()
        assert raw[:4] == b"ODLC"
        assert raw[4] == 1
        assert raw[5:7] == (300).to_bytes(2, "little")
        assert raw[7:9] == (200).to_bytes(2, "little")
        assert raw[9:12] == bytes([4, 32, 0])
        assert len(raw) == bsm.HEADER_LEN == 12

    def test_parse_round_trip(self):
        hdr = bsm.BitstreamHeader(width=65535, height=1, iterations=255, c_b=7)
        back = bsm.BitstreamHeader.from_bytes(hdr.to_bytes())
        assert back == hdr

    @pytest.mark.parametrize("reserved", [0x01, 0xFF])
    def test_reserved_byte_must_be_zero(self, reserved):
        raw = bytearray(bsm.BitstreamHeader(width=16, height=16, iterations=1, c_b=2).to_bytes())
        assert raw[11] == 0
        raw[11] = reserved
        with pytest.raises(bsm.BitstreamError, match="reserved header byte"):
            bsm.BitstreamHeader.from_bytes(bytes(raw))

    def test_version_mismatch_distinct(self):
        raw = bytearray(bsm.BitstreamHeader(width=16, height=16, iterations=1, c_b=2).to_bytes())
        raw[4] = 9
        with pytest.raises(bsm.BitstreamError, match="version mismatch"):
            bsm.BitstreamHeader.from_bytes(bytes(raw))

    def test_bad_magic_distinct(self):
        with pytest.raises(bsm.BitstreamError, match="magic"):
            bsm.BitstreamHeader.from_bytes(b"JUNK" + bytes(8))

    def test_truncated_header(self):
        with pytest.raises(bsm.BitstreamError, match="truncated"):
            bsm.BitstreamHeader.from_bytes(b"ODLC\x01")


class TestBitstream:
    def _codes(self, t=2, c_b=4, hw=2, seed=0):
        rng = np.random.default_rng(seed)
        return [np.where(rng.random((c_b, hw, hw)) < 0.5, -1.0, 1.0).astype(np.float32)
                for _ in range(t)]

    def test_payload_bit_law(self):
        codes = self._codes(t=3, c_b=4, hw=2)
        bs = bsm.Bitstream.from_codes(codes, width=20, height=17)
        # 20x17 pads to 32x32 -> 2x2 code grid
        assert bs.payload_bits == 3 * 4 * 2 * 2
        assert bs.bpp == bs.payload_bits / (20 * 17)

    def test_file_round_trip_bytes_identical(self, tmp_path):
        bs = bsm.Bitstream.from_codes(self._codes(), width=32, height=32)
        path = tmp_path / "x.odlc"
        bsm.write_file(path, bs)
        again = bsm.read_file(path)
        assert again.to_bytes() == bs.to_bytes()
        for a, b in zip(again.iteration_codes(), bs.iteration_codes()):
            np.testing.assert_array_equal(a, b)

    def test_truncated_payload_distinct(self):
        raw = bsm.Bitstream.from_codes(self._codes(), width=32, height=32).to_bytes()
        with pytest.raises(bsm.BitstreamError, match="truncated payload"):
            bsm.Bitstream.from_bytes(raw[:-1])

    def test_oversized_payload_distinct(self):
        raw = bsm.Bitstream.from_codes(self._codes(), width=32, height=32).to_bytes()
        with pytest.raises(bsm.BitstreamError, match="dimension mismatch"):
            bsm.Bitstream.from_bytes(raw + b"\x00")

    def test_iteration_codes_order(self):
        codes = self._codes(t=2, c_b=2, hw=2, seed=5)
        bs = bsm.Bitstream.from_codes(codes, width=32, height=32)
        got = bs.iteration_codes()
        np.testing.assert_array_equal(got[0], codes[0])
        np.testing.assert_array_equal(got[1], codes[1])


class TestPpm:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, (3, 5, 7)) / 255.0).astype(np.float32)
        p = tmp_path / "img.ppm"
        ppm.write_ppm(p, img)
        np.testing.assert_array_equal(ppm.read_ppm(p), img)

    def test_read_write_byte_identical(self, tmp_path):
        p = tmp_path / "a.ppm"
        with open(p, "wb") as f:
            f.write(b"P6\n4 3\n255\n" + bytes(range(36)))
        q = tmp_path / "b.ppm"
        ppm.write_ppm(q, ppm.read_ppm(p))
        assert p.read_bytes() == q.read_bytes()

    def test_all_white(self, tmp_path):
        p = tmp_path / "w.ppm"
        with open(p, "wb") as f:
            f.write(b"P6\n2 2\n255\n" + b"\xff" * 12)
        np.testing.assert_array_equal(ppm.read_ppm(p), np.ones((3, 2, 2), dtype=np.float32))

    def test_p5_rejected(self, tmp_path):
        p = tmp_path / "g.pgm"
        with open(p, "wb") as f:
            f.write(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ppm.PpmError, match="unsupported format"):
            ppm.read_ppm(p)

    def test_truncated_data_distinct(self, tmp_path):
        p = tmp_path / "t.ppm"
        with open(p, "wb") as f:
            f.write(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ppm.PpmError, match="truncated data"):
            ppm.read_ppm(p)

    def test_comment_in_header_ok(self, tmp_path):
        p = tmp_path / "c.ppm"
        with open(p, "wb") as f:
            f.write(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        assert ppm.read_ppm(p).shape == (3, 1, 2)

    def test_round_half_up(self, tmp_path):
        # 0.5/255 boundary: value k + 0.5 rounds up
        img = np.full((3, 1, 1), (100.0 + 0.5) / 255.0, dtype=np.float32)
        p = tmp_path / "r.ppm"
        ppm.write_ppm(p, img)
        assert p.read_bytes()[-1] == 101


@st.composite
def mutated(draw, raw: bytes, alphabet: bytes):
    """raw truncated, or with 1-4 bytes replaced (often by a syntax byte)."""
    raw = bytearray(raw)
    if draw(st.booleans(), label="truncate"):
        return bytes(raw[: draw(st.integers(0, len(raw) - 1), label="cut")])
    for _ in range(draw(st.integers(1, 4), label="flips")):
        i = draw(st.integers(0, len(raw) - 1), label="at")
        raw[i] = draw(st.one_of(st.integers(0, 255), st.sampled_from(alphabet)), label="byte")
    return bytes(raw)


VALID_PPM = b"P6\n# c\n4 3\n255\n" + bytes(range(36))
VALID_ODLC = bsm.Bitstream.from_codes(
    [np.where(np.arange(16).reshape(4, 2, 2) % 3, 1.0, -1.0)] * 2, width=20, height=17).to_bytes()


class TestParsersFuzz:
    """Untrusted bytes give the parser's own error or a valid object."""

    @settings(max_examples=300)
    @given(raw=st.one_of(st.binary(max_size=64),
                         st.binary(max_size=48).map(lambda b: b"P6 " + b),
                         mutated(VALID_PPM, b"P6 #\n\t0123456789-+_")))
    def test_read_ppm(self, raw, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "x.ppm"
        path.write_bytes(raw)
        try:
            img = ppm.read_ppm(path)
        except ppm.PpmError:
            return
        assert img.dtype == np.float32 and img.ndim == 3 and img.shape[0] == 3
        assert 3 * img.shape[1] * img.shape[2] <= len(raw)
        assert img.min() >= 0.0 and img.max() <= 1.0

    @settings(max_examples=300)
    @given(raw=st.one_of(st.binary(max_size=64),
                         st.binary(max_size=48).map(lambda b: bsm.MAGIC + b"\x01" + b),
                         mutated(VALID_ODLC, b"\x00\x01\x02\xff")))
    def test_bitstream_from_bytes(self, raw):
        try:
            bs = bsm.Bitstream.from_bytes(raw)
        except bsm.BitstreamError:
            return
        assert bs.to_bytes() == raw
        codes = bs.iteration_codes()
        h = bs.header
        assert len(codes) == h.iterations
        assert all(c.shape == (h.c_b, h.code_height, h.code_width) for c in codes)
