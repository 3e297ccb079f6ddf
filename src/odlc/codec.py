"""Progressive recurrent encoder / binarizer / decoder.

One unrolling step encodes the current residual to C_b binary channels at
1/16 spatial resolution, decodes an additive correction, and carries GRU
hidden state to the next step:

    x_hat[t] = x_hat[t-1] + decode(binarize(encode(r[t]))),
    r[1] = x, r[t+1] = x - x_hat[t], x_hat[0] = 0.

The binarizer is stochastic exactly when it is handed a generator: a
generator means training, and without one every code is sign(z), which
is what compress, decompress and the evaluation protocols use.

The codec is two halves. The encoder half owns its three GRU states and
turns r_t into the pre-binarization activations z_t; the decoder half owns
its four GRU states and x_hat, and turns codes_t into x_hat_t. The loop,
`progressive_from_normalized`, is a Python generator of (x_hat_t,
codes_t) that feeds the encoder r_t, binarizes z_t and feeds the decoder
the codes; it keeps nothing else, and each caller keeps what it reads.
`decompress` feeds the same decoder the parsed codes. The loop checks the
iteration count and runs in the normalized domain. Every encode
(compress, the evaluation traces, training) enters through
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

# The largest image side: `MAX_PADDED_PIXELS` is its square, and s_comp,
# resize_side and a rendered dataset's resolution stop at it.
MAX_SIDE = 2048

# Cap on ceil16(H) * ceil16(W), checked before they allocate by
# normalized_input, for every encode, and by decompress. Tracemalloc peaks
# per padded pixel, default layout, float32, compress / decompress: 256 px
# T = 1 199 / 135, T = 2 251 / 192 (T = 8 253 / 195); 512 px T = 1
# 171 / 121, T = 2 218 / 172 (T = 8 219 / 175); 1024 px T = 1 160 / 115,
# T = 2 201 / 162; 2048 px T = 1 160 / 115, T = 2 194 / 157. Past T = 2
# they barely grow, and T = 1, whose hidden states are zero, runs no
# h-path. Small images read more per pixel, since every conv product's
# columns there fit one band and are built whole (64 px, T = 2: ~598 and
# ~560). So MAX_SIDE^2 = 2^22 pixels (~10x a 768 x 512 Kodak image) bound
# either at ~0.8 GB.
MAX_PADDED_PIXELS = MAX_SIDE * MAX_SIDE


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
    """The codec's tensors: drawn from ``seed``, or uninitialised for
    ``load`` to fill (``seed=None``)."""

    kind = "codec"
    layout_cls = CodecLayout

    def __init__(self, layout: CodecLayout, seed: int | None = 0,
                 norm_mean=None, norm_std=None):
        self._init_params(layout, seed, norm_mean, norm_std, layout.stacks())
        self.enc_in = self._conv("enc.conv_in")
        self.enc_grus = [GruParams.of(self._params, f"enc.gru{i+1}", stride=2) for i in range(3)]
        self.enc_code = self._conv("enc.conv_code")
        self.dec_expand = self._conv("dec.conv_expand")
        self.dec_grus = [GruParams.of(self._params, f"dec.gru{i+1}") for i in range(4)]
        self.dec_out = self._conv("dec.conv_out")


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


def _zero_states(pairs, height: int, width: int, dtype) -> list:
    """Zero GRU states of a 16-aligned input, one per (channels, downscale)."""
    return [Tensor(np.zeros((c, height // s, width // s), dtype)) for c, s in pairs]


class _Encoder:
    """The encoder half: turns residual r_t into the pre-binarization
    activations z_t, carrying its three GRU states (at 1/4, 1/8, 1/16
    scale) from step to step."""

    def __init__(self, params: CodecParams, height: int, width: int):
        self.params = params
        self.h = _zero_states(zip(params.layout.enc_widths[1:], (4, 8, 16)),
                              height, width, params.dtype)

    def __call__(self, r: Tensor) -> Tensor:
        p = self.params
        x = ad.tanh(ad.conv2d(r, p.enc_in[0].tensor, p.enc_in[1].tensor,
                              stride=2, padding="same"))
        for i, gru in enumerate(p.enc_grus):
            x = self.h[i] = ad.conv_gru_cell(x, self.h[i], gru)
        return ad.tanh(ad.conv2d(x, p.enc_code[0].tensor, p.enc_code[1].tensor))


class _Decoder:
    """The decoder half: turns codes_t into x_hat_t = x_hat_{t-1} + delta_t,
    carrying its four GRU states (at 1/16 .. 1/2 scale) and x_hat."""

    def __init__(self, params: CodecParams, height: int, width: int):
        self.params = params
        self.h = _zero_states(zip(params.layout.dec_widths, (16, 8, 4, 2)),
                              height, width, params.dtype)
        self.xhat = None

    def __call__(self, codes: Tensor) -> Tensor:
        p = self.params
        x = ad.tanh(ad.conv2d(codes, p.dec_expand[0].tensor, p.dec_expand[1].tensor))
        for i, gru in enumerate(p.dec_grus):
            x = self.h[i] = ad.conv_gru_cell(x, self.h[i], gru)
            x = ad.depth_to_space(x, 2)
        delta = ad.tanh(ad.conv2d(x, p.dec_out[0].tensor, p.dec_out[1].tensor))
        self.xhat = delta if self.xhat is None else ad.add(self.xhat, delta)
        return self.xhat


def progressive_from_normalized(xn: Tensor, iterations: int, params: CodecParams, rng=None):
    """Run the additive loop on an already normalized, 16-aligned input,
    yielding (x_hat_t, codes_t) for t = 1..iterations; stochastic
    binarization from ``rng`` when given, else deterministic."""
    if not 1 <= iterations <= params.layout.t_max:
        raise CodecError(f"{iterations} iterations outside the trained range "
                         f"1..{params.layout.t_max}")
    encode, decode = _Encoder(params, *xn.shape[1:]), _Decoder(params, *xn.shape[1:])
    for _ in range(iterations):
        # r_t and z_t are temporaries, gone before the decoder runs
        codes = binarize(encode(xn if decode.xhat is None else ad.sub(xn, decode.xhat)), rng=rng)
        yield decode(codes), codes


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
    decode = _Decoder(params, ph, pw)
    for code in bs.iteration_codes():
        decode(Tensor(code.astype(params.dtype)))
    return unit_image(decode.xhat.data, (hdr.height, hdr.width), params)
