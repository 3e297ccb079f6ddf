"""Bit-exact container for the progressive codec's binary codes.

Layout: magic "ODLC", version byte (=1), u16 width, u16 height (true
pre-padding dimensions, little-endian), u8 iteration count, u8 bottleneck
channels, one reserved byte that must be zero, then the payload bits
packed MSB-first in (iteration, channel, row, column) order with +1 -> bit
1, zero-padded to a byte boundary. Reported bpp covers the payload only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"ODLC"
VERSION = 1
HEADER_FMT = "<4sBHHBBB"
HEADER_LEN = struct.calcsize(HEADER_FMT)


class BitstreamError(ValueError):
    """Malformed or inconsistent bitstream container."""


def ceil16(n: int) -> int:
    return -(-n // 16) * 16


def pack_bits(bits_seq) -> bytes:
    """Pack a sequence of {-1,+1} arrays into MSB-first bytes."""
    flats = []
    for arr in bits_seq:
        a = np.asarray(arr)
        flat = a.reshape(-1)
        ok = np.abs(flat) == 1
        if not ok.all():
            bad = flat[~ok][0]
            raise BitstreamError(f"pack_bits: entry {bad!r} is not in {{-1,+1}}")
        flats.append(flat)
    if not flats:
        return b""
    allbits = np.concatenate(flats)
    ones = (allbits > 0).astype(np.uint8)
    return np.packbits(ones).tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of pack_bits: first n_bits as a float32 {-1,+1} array."""
    if len(data) * 8 < n_bits:
        raise BitstreamError(f"unpack_bits: need {n_bits} bits, have {len(data) * 8}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:n_bits]
    return bits.astype(np.float32) * 2.0 - 1.0


@dataclass
class BitstreamHeader:
    width: int
    height: int
    iterations: int
    c_b: int
    version: int = VERSION

    def validate(self):
        if self.version != VERSION:
            raise BitstreamError(f"version mismatch: container is v{self.version}, expected v{VERSION}")
        if not (0 < self.width <= 0xFFFF and 0 < self.height <= 0xFFFF):
            raise BitstreamError(f"dimension mismatch: invalid image dims {self.width}x{self.height}")
        if not (1 <= self.iterations <= 0xFF):
            raise BitstreamError(f"dimension mismatch: invalid iteration count {self.iterations}")
        if not (1 <= self.c_b <= 0xFF):
            raise BitstreamError(f"dimension mismatch: invalid bottleneck channel count {self.c_b}")

    @property
    def code_height(self) -> int:
        return ceil16(self.height) // 16

    @property
    def code_width(self) -> int:
        return ceil16(self.width) // 16

    @property
    def bits_per_iteration(self) -> int:
        return self.c_b * self.code_height * self.code_width

    @property
    def payload_bits(self) -> int:
        return self.iterations * self.bits_per_iteration

    def to_bytes(self) -> bytes:
        self.validate()
        return struct.pack(HEADER_FMT, MAGIC, self.version, self.width,
                           self.height, self.iterations, self.c_b, 0)

    @staticmethod
    def from_bytes(data: bytes) -> "BitstreamHeader":
        if len(data) < HEADER_LEN:
            raise BitstreamError(f"truncated payload: {len(data)} bytes is shorter than the {HEADER_LEN}-byte header")
        magic, ver, w, h, t, cb, reserved = struct.unpack_from(HEADER_FMT, data)
        if magic != MAGIC:
            raise BitstreamError(f"not an ODLC bitstream (magic {magic!r})")
        if reserved != 0:
            raise BitstreamError(f"reserved header byte is {reserved:#04x}, expected 0")
        hdr = BitstreamHeader(width=w, height=h, iterations=t, c_b=cb, version=ver)
        hdr.validate()
        return hdr


@dataclass
class Bitstream:
    header: BitstreamHeader
    payload: bytes

    @property
    def payload_bits(self) -> int:
        return self.header.payload_bits

    @property
    def bpp(self) -> float:
        """Payload bits per true (pre-padding) pixel; header excluded."""
        return self.payload_bits / (self.header.width * self.header.height)

    def to_bytes(self) -> bytes:
        return self.header.to_bytes() + self.payload

    @staticmethod
    def from_bytes(data: bytes) -> "Bitstream":
        hdr = BitstreamHeader.from_bytes(data)
        need = (hdr.payload_bits + 7) // 8
        payload = data[HEADER_LEN:]
        if len(payload) < need:
            raise BitstreamError(
                f"truncated payload: header promises {hdr.payload_bits} bits "
                f"({need} bytes), found {len(payload)}")
        if len(payload) > need:
            raise BitstreamError(
                f"dimension mismatch: {len(payload)} payload bytes exceed the "
                f"{need} implied by the header")
        return Bitstream(header=hdr, payload=payload)

    def iteration_codes(self) -> list:
        """Per-iteration float32 {-1,+1} arrays, shape (C_b, H/16, W/16)."""
        h = self.header
        flat = unpack_bits(self.payload, h.payload_bits)
        shape = (h.c_b, h.code_height, h.code_width)
        per = h.bits_per_iteration
        return [flat[t * per : (t + 1) * per].reshape(shape) for t in range(h.iterations)]

    @staticmethod
    def from_codes(codes, width: int, height: int) -> "Bitstream":
        c_b = int(codes[0].shape[0])
        hdr = BitstreamHeader(width=width, height=height, iterations=len(codes), c_b=c_b)
        for i, arr in enumerate(codes):
            if arr.shape != (c_b, hdr.code_height, hdr.code_width):
                raise BitstreamError(
                    f"dimension mismatch: iteration {i} codes have shape {arr.shape}, "
                    f"header implies {(c_b, hdr.code_height, hdr.code_width)}")
        return Bitstream(header=hdr, payload=pack_bits(codes))


def read_file(path) -> Bitstream:
    with open(path, "rb") as f:
        return Bitstream.from_bytes(f.read())


def write_file(path, bs: Bitstream):
    with open(path, "wb") as f:
        f.write(bs.to_bytes())
