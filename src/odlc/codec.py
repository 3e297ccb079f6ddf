"""Progressive recurrent encoder / binarizer / decoder.

One unrolling step encodes the current residual to C_b binary channels at
1/16 spatial resolution, decodes an additive correction, and carries GRU
hidden state to the next step:

    x_hat[t] = x_hat[t-1] + decode(binarize(encode(r[t]))),
    r[1] = x, r[t+1] = x - x_hat[t], x_hat[0] = 0.

The loop runs in the normalized image domain; [0,1] outputs are produced
by denormalize + clamp at the boundary only. Spatial dims are padded to
multiples of 16 (bottom/right, reflect) and true dims travel in the
bitstream header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import imageops
from .autodiff import GruParams, Parameter, Tensor
from .bitstream import Bitstream, BitstreamError, ceil16
from . import checkpoint as ckpt

DOWNSAMPLE = 16  # fixed by the 4 stride-2 / 4 depth-to-space stages


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
        for w in self.dec_widths:
            if w % 4 != 0:
                raise CodecError(f"decoder width {w} not divisible by 4 (depth-to-space x2)")
        if not 1 <= self.bottleneck <= 255:
            raise CodecError(f"bottleneck channels must be in 1..255, got {self.bottleneck}")
        if self.t_max < 1:
            raise CodecError("t_max must be >= 1")

    def dec_inputs(self) -> tuple:
        """Input channel count of each decoder GRU."""
        ins = [self.dec_widths[0]]
        for w in self.dec_widths[:-1]:
            ins.append(w // 4)
        return tuple(ins)


class CodecParams:
    """All trainable tensors of the codec plus its normalization stats."""

    def __init__(self, layout: CodecLayout, seed: int = 0,
                 norm_mean=None, norm_std=None, dtype=np.float32):
        self.layout = layout
        self.dtype = np.dtype(dtype)
        self.norm_mean = np.asarray(norm_mean if norm_mean is not None else [0.5, 0.5, 0.5],
                                    dtype=np.float32)
        self.norm_std = np.asarray(norm_std if norm_std is not None else [0.5, 0.5, 0.5],
                                   dtype=np.float32)
        rng = np.random.default_rng(seed)
        k = layout.kernel
        ew = layout.enc_widths
        dw = layout.dec_widths
        din = layout.dec_inputs()

        def conv(name, ci, co, ksize):
            kern = Parameter(f"{name}.kernel", ad.xavier_uniform(rng, (co, ci, ksize, ksize)), dtype=dtype)
            bias = Parameter(f"{name}.bias", np.zeros(co), dtype=dtype)
            return kern, bias

        self.enc_in = conv("enc.conv_in", 3, ew[0], k)
        self.enc_grus = [
            GruParams.init(rng, f"enc.gru{i+1}", c_in, c_h, k=k, stride=2, dtype=dtype)
            for i, (c_in, c_h) in enumerate(zip(ew[:-1], ew[1:]))
        ]
        self.enc_code = conv("enc.conv_code", ew[-1], layout.bottleneck, 1)
        self.dec_expand = conv("dec.conv_expand", layout.bottleneck, din[0], 1)
        self.dec_grus = [
            GruParams.init(rng, f"dec.gru{i+1}", din[i], dw[i], k=k, stride=1, dtype=dtype)
            for i in range(4)
        ]
        self.dec_out = conv("dec.conv_out", dw[-1] // 4, 3, k)

    def parameters(self) -> list:
        ps = list(self.enc_in)
        for g in self.enc_grus:
            ps += g.parameters()
        ps += list(self.enc_code) + list(self.dec_expand)
        for g in self.dec_grus:
            ps += g.parameters()
        ps += list(self.dec_out)
        names = [p.name for p in ps]
        assert len(names) == len(set(names))
        return ps

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    # -- persistence ------------------------------------------------------

    def save(self, path):
        ckpt.save_params(path, "codec", self)

    @staticmethod
    def load(path) -> "CodecParams":
        return ckpt.load_params(path, "codec", CodecParams, CodecLayout)


@dataclass
class CodecState:
    """Per-image recurrent state; zeros at t=1, single-owner while in flight."""

    enc_h: list
    dec_h: list

    @staticmethod
    def zeros(params: CodecParams, height: int, width: int) -> "CodecState":
        if height % DOWNSAMPLE or width % DOWNSAMPLE:
            raise CodecError(f"state dims {height}x{width} must be multiples of {DOWNSAMPLE}")
        lay = params.layout
        dt = params.dtype
        enc_h = []
        h, w = height // 2, width // 2
        for c in lay.enc_widths[1:]:
            h, w = h // 2, w // 2
            enc_h.append(Tensor(np.zeros((c, h, w)), dtype=dt))
        dec_h = []
        h, w = height // DOWNSAMPLE, width // DOWNSAMPLE
        for c in lay.dec_widths:
            dec_h.append(Tensor(np.zeros((c, h, w)), dtype=dt))
            h, w = h * 2, w * 2
        return CodecState(enc_h=enc_h, dec_h=dec_h)


@dataclass
class ReconstructionTrace:
    """Progressive decoding record: residuals r_1..r_T, estimates
    x_hat_1..x_hat_T and the per-step binary codes, all in the normalized
    padded domain."""

    input_normalized: Tensor
    residuals: list = field(default_factory=list)
    reconstructions: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    true_size: tuple = (0, 0)
    norm_mean: np.ndarray = None
    norm_std: np.ndarray = None

    @property
    def iterations(self) -> int:
        return len(self.reconstructions)

    def decoded(self, t: int | None = None) -> np.ndarray:
        """x_hat_t as a [0,1] image cropped to the true size (1-based t,
        default last)."""
        t = self.iterations if t is None else t
        xhat = self.reconstructions[t - 1].data
        h, w = self.true_size
        img = imageops.denormalize(xhat[:, :h, :w], self.norm_mean, self.norm_std)
        return np.clip(img, 0.0, 1.0)


def binarize(z: Tensor, mode: str = "deterministic",
             rng: np.random.Generator | None = None) -> Tensor:
    """Map (-1,1) activations to {-1,+1} codes.

    stochastic: +1 with probability (1+z)/2 (mean-preserving draw);
    deterministic: sign(z) with sign(0) = +1. The backward pass is the
    straight-through identity either way.
    """
    zd = z.data
    if np.abs(zd).max(initial=0.0) > 1.0:
        worst = zd.reshape(-1)[np.abs(zd).reshape(-1).argmax()]
        raise CodecError(f"binarize: activation {worst} outside [-1, 1]")
    if mode == "deterministic":
        out_data = np.where(zd >= 0, 1.0, -1.0).astype(zd.dtype)
    elif mode == "stochastic":
        if rng is None:
            raise CodecError("binarize: stochastic mode needs a seeded generator")
        draws = rng.random(zd.shape)
        out_data = np.where(draws < (1.0 + zd) / 2.0, 1.0, -1.0).astype(zd.dtype)
    else:
        raise CodecError(f"binarize: unknown mode {mode!r}")
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


def codec_step(r_t: Tensor, state: CodecState, params: CodecParams,
               mode: str = "deterministic", rng=None):
    """One unrolling step on a residual: returns (delta, codes, new state).

    mode is the binarization rule; "bypass" skips quantization entirely
    and exists for gradient verification only (the straight-through
    contract differentiates the codec as if the quantizer were identity).
    """
    if r_t.data.ndim != 3 or r_t.shape[0] != 3:
        raise CodecError(f"codec_step: residual must be 3xHxW, got {r_t.shape}")
    _, h, w = r_t.shape
    if h < DOWNSAMPLE or w < DOWNSAMPLE:
        raise CodecError(f"codec_step: resolution {h}x{w} below {DOWNSAMPLE}x{DOWNSAMPLE}")
    if h % DOWNSAMPLE or w % DOWNSAMPLE:
        raise CodecError(f"codec_step: resolution {h}x{w} not a multiple of {DOWNSAMPLE}")
    z, enc_h = _encode_step(r_t, state, params)
    if mode == "bypass":
        bits = z
    else:
        bits = binarize(z, mode=mode, rng=rng)
    delta, dec_h = _decode_step(bits, state.dec_h, params)
    return delta, bits, CodecState(enc_h=enc_h, dec_h=dec_h)


def progressive_from_normalized(xn: Tensor, iterations: int, params: CodecParams,
                                mode: str = "deterministic", rng=None,
                                true_size: tuple | None = None) -> ReconstructionTrace:
    """Run the additive loop on an already normalized, 16-aligned input."""
    if not 1 <= iterations <= params.layout.t_max:
        raise CodecError(f"iterations {iterations} outside 1..{params.layout.t_max}")
    _, h, w = xn.shape
    trace = ReconstructionTrace(
        input_normalized=xn, true_size=true_size or (h, w),
        norm_mean=params.norm_mean, norm_std=params.norm_std)
    state = CodecState.zeros(params, h, w)
    xhat = None
    for t in range(1, iterations + 1):
        r = xn if xhat is None else ad.sub(xn, xhat)
        trace.residuals.append(r)
        delta, bits, state = codec_step(r, state, params, mode=mode, rng=rng)
        xhat = delta if xhat is None else ad.add(xhat, delta)
        trace.reconstructions.append(xhat)
        trace.codes.append(bits)
    return trace


def reconstruct_progressive(x: np.ndarray, iterations: int, params: CodecParams,
                            mode: str = "deterministic", rng=None) -> ReconstructionTrace:
    """Progressive reconstruction of a [0,1] CHW image."""
    x = np.asarray(x, dtype=np.float32)
    _, h, w = x.shape
    xp = imageops.pad_to_multiple(x, DOWNSAMPLE)
    xn = Tensor(imageops.normalize(xp, params.norm_mean, params.norm_std).astype(params.dtype))
    return progressive_from_normalized(xn, iterations, params, mode=mode, rng=rng,
                                       true_size=(h, w))


def encoder_input(x: np.ndarray, levels, params: CodecParams) -> np.ndarray:
    """A [0,1] CHW image as float32, checked as every encode to a bitstream
    needs it: 3xHxW, dims that fit the u16 header fields, and each level
    (iteration count) in the trained range."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or x.shape[0] != 3:
        raise CodecError(f"compress: image must be 3xHxW, got {x.shape}")
    _, h, w = x.shape
    if h > 0xFFFF or w > 0xFFFF:
        raise CodecError(f"compress: dimensions {h}x{w} exceed the u16 header fields")
    for t in levels:
        if not 1 <= t <= params.layout.t_max:
            raise CodecError(f"compress: {t} iterations outside the trained range "
                             f"1..{params.layout.t_max}")
    return x


def compress(x: np.ndarray, iterations: int, params: CodecParams) -> Bitstream:
    """Deterministic encode of a [0,1] CHW image to a bitstream."""
    x = encoder_input(x, (iterations,), params)
    _, h, w = x.shape
    trace = reconstruct_progressive(x, iterations, params, mode="deterministic")
    codes = [c.data for c in trace.codes]
    return Bitstream.from_codes(codes, width=w, height=h)


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
    state = CodecState.zeros(params, ph, pw)
    xhat = None
    for code in bs.iteration_codes():
        bits = Tensor(code.astype(params.dtype))
        delta, dec_h = _decode_step(bits, state.dec_h, params)
        state = CodecState(enc_h=state.enc_h, dec_h=dec_h)
        xhat = delta if xhat is None else ad.add(xhat, delta)
    img = imageops.denormalize(xhat.data[:, : hdr.height, : hdr.width],
                               params.norm_mean, params.norm_std)
    return np.clip(img, 0.0, 1.0)
