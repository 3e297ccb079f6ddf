"""Progressive recurrent encoder / binarizer / decoder.

One unrolling step encodes the current residual to C_b binary channels at
1/16 spatial resolution, decodes an additive correction, and carries GRU
hidden state to the next step:

    x_hat[t] = x_hat[t-1] + decode(binarize(encode(r[t]))),
    r[1] = x, r[t+1] = x - x_hat[t], x_hat[0] = 0.

The binarizer is stochastic exactly when it is handed a generator: a
generator means training, and without one every code is sign(z), which
is what compress, decompress and the evaluation protocols use.

The loop, `progressive_from_normalized`, is a Python generator of
(x_hat_t, codes_t) that keeps nothing: each caller keeps what it reads.
It checks the iteration count and runs in the normalized domain. Every
encode (compress, the evaluation traces, training) enters through
`normalized_input`, the one check of an image (3xHxW, finite, within the
header's u16 fields and MAX_PADDED_PIXELS), which pads bottom/right to
multiples of 16 (reflect); images leave through `unit_image`
(denormalized, cropped to the true dims, which travel in the bitstream
header, and clamped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imageops
from .autodiff import GruParams, Tensor
from .bitstream import Bitstream, BitstreamError, ceil16
from . import checkpoint as ckpt

DOWNSAMPLE = 16  # fixed by the 4 stride-2 / 4 depth-to-space stages

# Cap on ceil16(H) * ceil16(W), checked before they allocate by
# normalized_input, for every encode, and by decompress. From 256 px up,
# encoding peaks at ~560 bytes per padded pixel and decoding at ~487 from
# T = 2 on, and neither grows with T; at T = 1, whose hidden states are
# zero, plain conv2d's whole column matrices set the peaks, ~536 and ~472
# (default layout, float32, tracemalloc at 256 px, T = 1, 2, 8, and at
# 512 px, T = 1, 2). Small images read more per pixel, since the GRU cells'
# column bands of at most BAND_BYTES then hold the whole matrix (64 px,
# T >= 2: ~664 and ~589). So 2^22 pixels (2048 x 2048, ~10x a 768 x 512
# Kodak image) bound either at ~2.4 GB.
MAX_PADDED_PIXELS = 1 << 22


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class CodecLayout:
    """Channel profile; the bit-count law depends only on `bottleneck`."""

    enc_widths: tuple = (32, 64, 128, 128)
    dec_widths: tuple = (128, 128, 64, 32)
    bottleneck: int = 32
    kernel: int = 3
    t_max: int = 8

    def __post_init__(self):
        if len(self.enc_widths) != 4 or len(self.dec_widths) != 4:
            raise CodecError("layout needs 4 encoder and 4 decoder widths")
        ckpt.check_layout((*self.enc_widths, *self.dec_widths, self.bottleneck), self.kernel,
                          CodecError)
        for w in self.dec_widths:
            if w % 4 != 0:
                raise CodecError(f"decoder width {w} not divisible by 4 (depth-to-space x2)")
        if self.bottleneck > 255:
            raise CodecError(f"bottleneck channels must be in 1..255, got {self.bottleneck}")
        if type(self.t_max) is not int or self.t_max < 1:
            raise CodecError(f"t_max must be an int >= 1, got {self.t_max!r}")

    def shapes(self) -> list:
        """The ordered (name, shape) table of the codec's tensors, which is
        also their init draw order and checkpoint order."""
        k, ew, dw, cb = self.kernel, self.enc_widths, self.dec_widths, self.bottleneck
        grus = self._grus()
        rows = ad.conv_shapes("enc.conv_in", 3, ew[0], k)
        for prefix, c_in, c_h in grus[:3]:
            rows += GruParams.shapes(prefix, c_in, c_h, k)
        rows += ad.conv_shapes("enc.conv_code", ew[-1], cb, 1)
        rows += ad.conv_shapes("dec.conv_expand", cb, grus[3][1], 1)
        for prefix, c_in, c_h in grus[3:]:
            rows += GruParams.shapes(prefix, c_in, c_h, k)
        return rows + ad.conv_shapes("dec.conv_out", dw[-1] // 4, 3, k)

    def stacks(self) -> list:
        """The tensor groups that share one buffer: each GRU's gate stacks."""
        return [names for prefix, _, _ in self._grus() for names in GruParams.stacks(prefix)]

    def _grus(self) -> list:
        """(prefix, input channels, hidden channels) of the 7 GRU layers."""
        ew, dw = self.enc_widths, self.dec_widths
        dec_in = (dw[0],) + tuple(w // 4 for w in dw[:-1])
        return ([(f"enc.gru{i+1}", ew[i], ew[i + 1]) for i in range(3)]
                + [(f"dec.gru{i+1}", dec_in[i], dw[i]) for i in range(4)])


class CodecParams(ckpt.ParamSet):
    """The codec's tensors, drawn from ``seed`` or wrapping ``arrays``."""

    kind = "codec"
    layout_cls = CodecLayout

    def __init__(self, layout: CodecLayout, seed: int = 0,
                 norm_mean=None, norm_std=None, arrays=None):
        self._init_params(layout, seed, norm_mean, norm_std, arrays, layout.stacks())
        self.enc_in = self._conv("enc.conv_in")
        self.enc_grus = [GruParams.of(self._params, f"enc.gru{i+1}", stride=2) for i in range(3)]
        self.enc_code = self._conv("enc.conv_code")
        self.dec_expand = self._conv("dec.conv_expand")
        self.dec_grus = [GruParams.of(self._params, f"dec.gru{i+1}") for i in range(4)]
        self.dec_out = self._conv("dec.conv_out")


@dataclass
class CodecState:
    """Per-image recurrent state; zeros at t=1, single-owner while in flight."""

    enc_h: list
    dec_h: list

    @staticmethod
    def zeros(params: CodecParams, height: int, width: int,
              encoder: bool = True) -> "CodecState":
        """Zero state for a 16-aligned input; decoder part alone if not ``encoder``."""
        lay, dt = params.layout, params.dtype
        enc = lay.enc_widths[1:] if encoder else ()
        # encoder GRUs run at 1/4, 1/8, 1/16 scale; decoder GRUs at 1/16 .. 1/2
        enc_h = [Tensor(np.zeros((c, height >> (i + 2), width >> (i + 2)), dt))
                 for i, c in enumerate(enc)]
        dec_h = [Tensor(np.zeros((c, height // (DOWNSAMPLE >> i), width // (DOWNSAMPLE >> i)), dt))
                 for i, c in enumerate(lay.dec_widths)]
        return CodecState(enc_h=enc_h, dec_h=dec_h)


@dataclass
class ReconstructionTrace:
    """The [0,1] decodes x_hat_1..x_hat_T of one image at its true size."""

    decodes: list

    def decoded(self, t: int | None = None) -> np.ndarray:
        """x_hat_t for t in 1..T (default T)."""
        if t is None:
            return self.decodes[-1]
        if not 1 <= t <= len(self.decodes):
            raise CodecError(f"decode {t} outside 1..{len(self.decodes)}")
        return self.decodes[t - 1]


def normalized_input(x01: np.ndarray, params: CodecParams) -> Tensor:
    """The loop's input: a [0,1] 3xHxW image of finite pixels, checked
    against the header's u16 fields and MAX_PADDED_PIXELS, then padded,
    normalized and cast."""
    shape = np.shape(x01)
    if len(shape) != 3 or shape[0] != 3:
        raise CodecError(f"image must be 3xHxW, got {shape}")
    _, h, w = shape
    if not (1 <= h <= 0xFFFF and 1 <= w <= 0xFFFF):
        raise CodecError(f"dimensions {h}x{w} outside the u16 header range 1..65535")
    if ceil16(h) * ceil16(w) > MAX_PADDED_PIXELS:
        raise CodecError(f"{h}x{w} pads to {ceil16(h) * ceil16(w)} pixels, "
                         f"over the decoder's cap of {MAX_PADDED_PIXELS}")
    bad = np.count_nonzero(~np.isfinite(x01))
    if bad:
        raise CodecError(f"image has {bad} non-finite pixel values (NaN or inf)")
    xp = imageops.pad_to_multiple(x01, DOWNSAMPLE)
    return Tensor(imageops.normalize(xp, params.norm_mean, params.norm_std).astype(params.dtype))


def unit_image(xhat: np.ndarray, true_size: tuple, params: CodecParams) -> np.ndarray:
    """A normalized padded estimate as a [0,1] image of the true size."""
    h, w = true_size
    img = imageops.denormalize(xhat[:, :h, :w], params.norm_mean, params.norm_std)
    return np.clip(img, 0.0, 1.0)


def binarize(z: Tensor, rng: np.random.Generator | None = None) -> Tensor:
    """Map (-1,1) activations to {-1,+1} codes.

    A generator means training: +1 with probability (1+z)/2, a
    mean-preserving draw from ``rng``. Without one the code is sign(z)
    with sign(0) = +1, as deployed. The backward pass is the
    straight-through identity either way.
    """
    zd = z.data
    if not np.abs(zd).max(initial=0.0) <= 1.0:  # NaN fails this too
        worst = zd.reshape(-1)[np.abs(zd).reshape(-1).argmax()]
        raise CodecError(f"binarize: activation {worst} outside [-1, 1]")
    if rng is None:
        out_data = np.where(zd >= 0, 1.0, -1.0).astype(zd.dtype)
    else:
        draws = rng.random(zd.shape)
        out_data = np.where(draws < (1.0 + zd) / 2.0, 1.0, -1.0).astype(zd.dtype)
    out = Tensor(out_data)
    return ad.record_op(out, (z,), (lambda g: g,))


def _encode_step(r: Tensor, state: CodecState, params: CodecParams):
    a = ad.tanh(ad.conv2d(r, params.enc_in[0].tensor, params.enc_in[1].tensor,
                          stride=2, padding="same"))
    new_h = []
    x = a
    for h, gru in zip(state.enc_h, params.enc_grus):
        x = ad.conv_gru_cell(x, h, gru)
        new_h.append(x)
    z = ad.tanh(ad.conv2d(x, params.enc_code[0].tensor, params.enc_code[1].tensor))
    return z, new_h


def _decode_step(bits: Tensor, dec_h: list, params: CodecParams):
    x = ad.tanh(ad.conv2d(bits, params.dec_expand[0].tensor, params.dec_expand[1].tensor))
    new_h = []
    for h, gru in zip(dec_h, params.dec_grus):
        x = ad.conv_gru_cell(x, h, gru)
        new_h.append(x)
        x = ad.depth_to_space(x, 2)
    delta = ad.tanh(ad.conv2d(x, params.dec_out[0].tensor, params.dec_out[1].tensor))
    return delta, new_h


def codec_step(r_t: Tensor, state: CodecState, params: CodecParams, rng=None):
    """One unrolling step on a residual: returns (delta, codes, new state).
    The codes are drawn from ``rng`` when given (training), else sign(z).
    The residual is 16-aligned 3xHxW, as `normalized_input` gives."""
    z, enc_h = _encode_step(r_t, state, params)
    bits = binarize(z, rng=rng)
    delta, dec_h = _decode_step(bits, state.dec_h, params)
    return delta, bits, CodecState(enc_h=enc_h, dec_h=dec_h)


def progressive_from_normalized(xn: Tensor, iterations: int, params: CodecParams, rng=None):
    """Run the additive loop on an already normalized, 16-aligned input,
    yielding (x_hat_t, codes_t) for t = 1..iterations; stochastic
    binarization from ``rng`` when given, else deterministic."""
    if not 1 <= iterations <= params.layout.t_max:
        raise CodecError(f"{iterations} iterations outside the trained range "
                         f"1..{params.layout.t_max}")
    state = CodecState.zeros(params, *xn.shape[1:])
    xhat = None
    for _ in range(iterations):
        r = xn if xhat is None else ad.sub(xn, xhat)
        delta, bits, state = codec_step(r, state, params, rng=rng)
        xhat = delta if xhat is None else ad.add(xhat, delta)
        del r, delta  # across the yield, hold only what the next step reads
        yield xhat, bits


def reconstruct_progressive(x: np.ndarray, iterations: int,
                            params: CodecParams) -> ReconstructionTrace:
    """Deterministic progressive reconstruction of a [0,1] CHW image."""
    x = np.asarray(x, dtype=np.float32)
    steps = progressive_from_normalized(normalized_input(x, params), iterations, params)
    return ReconstructionTrace([unit_image(xhat.data, x.shape[1:], params) for xhat, _ in steps])


def compress(x: np.ndarray, iterations: int, params: CodecParams) -> Bitstream:
    """Deterministic encode of a [0,1] CHW image to a bitstream. Each
    iteration's codes are kept as int8 +-1 until they are packed."""
    x = np.asarray(x, dtype=np.float32)
    steps = progressive_from_normalized(normalized_input(x, params), iterations, params)
    return Bitstream.from_codes([bits.data.astype(np.int8) for _, bits in steps],
                                x.shape[2], x.shape[1])


def decompress(bs: Bitstream, params: CodecParams) -> np.ndarray:
    """Decode a bitstream to a [0,1] CHW image; pure function of its inputs."""
    hdr = bs.header
    if hdr.c_b != params.layout.bottleneck:
        raise BitstreamError(
            f"dimension mismatch: bitstream carries {hdr.c_b} bottleneck channels, "
            f"model expects {params.layout.bottleneck}")
    if hdr.iterations > params.layout.t_max:
        raise BitstreamError(
            f"dimension mismatch: bitstream carries {hdr.iterations} iterations, "
            f"model is trained for at most {params.layout.t_max}")
    ph, pw = ceil16(hdr.height), ceil16(hdr.width)
    if ph * pw > MAX_PADDED_PIXELS:
        raise BitstreamError(
            f"dimension mismatch: {hdr.width}x{hdr.height} pads to {ph * pw} pixels, "
            f"over the decoder's cap of {MAX_PADDED_PIXELS}")
    dec_h = CodecState.zeros(params, ph, pw, encoder=False).dec_h
    xhat = None
    for code in bs.iteration_codes():
        bits = Tensor(code.astype(params.dtype))
        delta, dec_h = _decode_step(bits, dec_h, params)
        xhat = delta if xhat is None else ad.add(xhat, delta)
        del delta  # freed before the next step runs, not after it
    return unit_image(xhat.data, (hdr.height, hdr.width), params)
