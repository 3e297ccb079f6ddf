"""Reverse-mode automatic differentiation over CHW numpy arrays.

The op set is deliberately small. A recurrent convolutional codec, its
losses and a VGG-style classifier need conv2d with same padding, the fused
conv_gru_cell, depth_to_space, tanh, relu, add, sub, scale, square, mean,
avg_pool2, global_avg_pool, channel_affine, dense and cross_entropy_logits.
conv2d's valid padding has no caller in the package beyond `gradcheck`:
it remains for the composed reference graphs the tests check the fused
ops against. An op with its own VJP may live outside this module and
record itself through `record_op`: `losses.ms_ssim` is one such op, for
the whole MS-SSIM pyramid. Every op records onto an explicit Tape;
backward replays the tape in reverse execution order, visiting each
record exactly once. Forward passes without an active tape run in
inference mode and record nothing.

Convolution here means cross-correlation (no kernel flip), the CNN
convention. Same-padding pads with zeros and produces ceil(H/stride)
outputs. float32 is the working precision; float64 exists for gradient
verification. 2x2 pooling, its adjoint and depth_to_space work on the r*r
strided phase views a[..., dy::r, dx::r] (`_phases`), one op or copy per
phase, not on 5-d reshapes, whose reductions and transposes numpy runs
several times slower.

Memory contract: a VJP closure holds only what its backward rule reads
(operands, the op's output, small reductions), never scratch buffers. The
convolution's column matrix (k*k times its input) lives only inside one
forward call or one VJP call. Every forward product, plain conv2d's and
the fused GRU cell's three (the x-path and both hidden-path ones), builds
it in bands of output rows of at most BAND_BYTES each, from phase grids
of only the input rows that band reads, and writes each band's cropped
result into the op's output before it builds the next, so no forward
holds a product wider than its output or a padded copy of a whole input
it bands. A GRU cell that will not be recorded runs whole in row bands,
so of its own arrays only its output and r*h are whole. Every column
build in backward (conv2d's kernel VJP, the cell's kernel gradients)
still builds the whole matrix: banding those products would change their
summation order. The gates' sigmoid runs in place and allocates nothing.
A recorded GRU cell is one record that holds x, h, its gates u, r, c and
r*h whole, and rebuilds its columns in backward; the gradients its first
VJP computes for all its inputs belong to that record. A record, with
the activations its closures hold, and the gradient of its output live
until backward replays that record; then both are dropped, so a backward
pass releases the forward's memory as it walks back instead of adding a
gradient per activation.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor", "Parameter", "Tape", "ShapeError", "TapeError", "backward", "record_op",
    "conv2d", "conv_gru_cell", "GruParams", "depth_to_space",
    "tanh", "relu", "add", "sub", "scale",
    "square", "mean", "avg_pool2", "global_avg_pool",
    "dense", "channel_affine", "cross_entropy_logits", "xavier_uniform",
    "conv_shapes", "make_parameters",
]

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes or dtypes violate an op's contract."""


class TapeError(RuntimeError):
    """Raised when backward is asked to replay a tape it has consumed."""


class Tensor:
    """Dense n-d float array plus a gradient slot.

    ``grad`` has the same shape as ``data``. :func:`backward` fills it on
    every tensor on a path that requires gradients, but it persists only
    on leaves and parameters: an op's output loses its gradient once
    backward has passed it on to the op's inputs.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype in FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float32)
        if arr.dtype not in FLOAT_DTYPES:
            raise ShapeError(f"tensor dtype must be float32/float64, got {arr.dtype}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter:
    """Named trainable tensor over the buffer ``storage`` itself, not a
    copy, with a persistent gradient buffer, allocated on first use, so
    inference and frozen networks never hold one."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, storage):
        self.name, self.tensor = name, Tensor(storage, requires_grad=True)

    @property
    def value(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray:
        return self.tensor.ensure_grad()

    @grad.setter
    def grad(self, arr):
        if arr.shape != self.tensor.data.shape:
            raise ShapeError(f"parameter {self.name}: grad shape {arr.shape} != value shape {self.tensor.data.shape}")
        self.tensor.grad = arr

    def zero_grad(self):
        self.tensor.ensure_grad()[...] = 0.0

    def freeze(self):
        self.tensor.requires_grad = False

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


_STATE = threading.local()


def _tape_stack():
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed differentiable ops.

    Use as a context manager; ops executed inside record themselves.
    ``backward`` walks the records once, in reverse execution order, and
    consumes them: each replayed record becomes None (the list keeps its
    length), and the tape cannot be replayed again.
    """

    def __init__(self):
        self.records = []  # (out, inputs, vjps), None once replayed
        self.consumed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.records)


def record_op(out: Tensor, inputs: tuple, vjps: tuple) -> Tensor:
    """Attach a backward rule to ``out``. ``vjps[i]`` maps the output
    gradient to the gradient contribution for ``inputs[i]`` (or is None
    for non-differentiable arguments)."""
    tape = active_tape()
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        tape.records.append((out, inputs, vjps))
    return out


def backward(loss: Tensor, tape: Tape):
    """Accumulate into the grads of the leaves and parameters that ``loss``
    reaches on ``tape``, consuming the tape.

    Gradients accumulate (fan-out sums); parameters keep their persistent
    buffers, so callers zero them between steps. Leaves and parameters
    not on a path to the loss keep the grad they had: None, or a
    parameter's buffer. Each record is dropped once replayed, and its
    output's grad with it, so after the call no op output holds a grad.
    A second call on the same tape raises TapeError.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise TapeError("backward: this tape was already replayed; record the forward again")
    tape.consumed = True
    seed = np.ones_like(loss.data)
    if loss.grad is None:
        loss.grad = seed
    else:
        loss.grad = loss.grad + seed
    records = tape.records
    for i in range(len(records) - 1, -1, -1):
        out, inputs, vjps = records[i]
        # every consumer of ``out`` was recorded after it, so its gradient
        # is complete here and nothing reads it or this record again
        records[i] = None
        g, out.grad = out.grad, None
        if g is None:
            continue
        for inp, vjp in zip(inputs, vjps):
            if vjp is None or not inp.requires_grad:
                continue
            contrib = vjp(g)
            if inp.grad is None:
                inp.grad = contrib.copy() if contrib.base is not None or contrib is g else contrib
            else:
                inp.grad += contrib


def _check_same(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes differ, {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: operand dtypes differ, {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------------
# convolution


def _same_pad_amount(size: int, k: int, stride: int):
    out = -(-size // stride)  # ceil
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return out, lo, total - lo


@functools.lru_cache(maxsize=256)
def _conv_geometry(h: int, w: int, k: int, s: int, padding: str):
    """(ho, wo, wq, links) of one convolution shape; wq = wo + (k-1)//s.

    The zero-padded input is split into s*s phases: phase (p, q) holds
    padded pixel (s*r + p, s*c + q) at grid cell (r, c) of a grid wq wide.
    ``links`` has one (p, q, grid index, x index) per phase that some tap
    reads, x index None when the phase holds padding only. Only cells an
    output window reads are linked; the rest of each grid stays zero.
    """
    if padding == "same":
        ho, pt, _ = _same_pad_amount(h, k, s)
        wo, pl, _ = _same_pad_amount(w, k, s)
    else:
        if h < k or w < k:
            raise ShapeError(f"conv2d: valid padding needs input >= kernel, got {h}x{w} vs {k}")
        ho = (h - k) // s + 1
        wo = (w - k) // s + 1
        pt = pl = 0

    def span(off, lo, size, n):
        r0 = max(0, -(-(lo - off) // s))
        r1 = min(n, (size - 1 + lo - off) // s + 1)
        src = s * r0 + off - lo
        return slice(r0, r1), slice(src, src + s * (r1 - r0 - 1) + 1, s), r1 > r0

    m = min(s, k)
    rows = [span(p, pt, h, ho + (k - 1 - p) // s) for p in range(m)]
    cols = [span(q, pl, w, wo + (k - 1 - q) // s) for q in range(m)]
    links = tuple((p, q, (p, q, slice(None), gr, gc),
                   (slice(None), xr, xc) if has_r and has_c else None)
                  for p, (gr, xr, has_r) in enumerate(rows)
                  for q, (gc, xc, has_c) in enumerate(cols))
    return ho, wo, wo + (k - 1) // s, links


def _phase_buffer(c: int, k: int, s: int, ho: int, wq: int, dtype):
    """Zeroed flat phase grids (m, m, C, L), m = min(s, k), and their
    (m, m, C, rows, wq) grid view. L leaves room for the last tap's window."""
    m, d = min(s, k), (k - 1) // s
    rows = ho + d
    buf = np.zeros((m, m, c, rows * wq + d), dtype=dtype)
    return buf, buf[..., : rows * wq].reshape(m, m, c, rows, wq)


def _phase_split(xd: np.ndarray, k: int, s: int, wq: int, links, r0: int,
                 r1: int) -> np.ndarray:
    """The zero-padded input rows that output rows r0..r1-1 read, as flat
    phase grids (m, m, C, L) whose grid row 0 is grid row r0 of the whole
    input's (see `_conv_geometry`). Each input element is copied once."""
    d = (k - 1) // s
    buf, grids = _phase_buffer(xd.shape[0], k, s, r1 - r0, wq, xd.dtype)
    for p, q, (_, _, _, gr, gc), xs in links:
        a, b = max(gr.start, r0), min(gr.stop, r1 + d)
        if xs is not None and a < b:
            y = xs[1].start + s * (a - gr.start)
            grids[p, q, :, a - r0 : b - r0, gc] = xd[:, y : y + s * (b - a - 1) + 1 : s, xs[2]]
    return buf


def _columns(buf: np.ndarray, k: int, s: int, wq: int, rows: int) -> np.ndarray:
    """Column matrix (C*k*k, rows*wq) of the first ``rows`` output rows of
    the phase grids of `_phase_split`.

    Each phase grid is flat, so tap (i, j) reads one contiguous window of
    the rows' rows*wq elements of phase (i % s, j % s), and the taps of
    one phase form one strided view. Grid columns wo..wq-1 of every row are
    spill-over that the caller discards.
    """
    m, _, c, length = buf.shape
    dt, n = buf.dtype, rows * wq
    it = dt.itemsize
    cols = np.empty((c, k, k, n), dtype=dt)
    for p in range(m):
        for q in range(m):
            taps = np.ndarray((c, len(range(p, k, s)), len(range(q, k, s)), n), dt, buf,
                              (p * m + q) * c * length * it, (length * it, wq * it, it, it))
            cols[:, p::s, q::s] = taps
    return cols.reshape(c * k * k, n)


def _conv_columns(xd: np.ndarray, k: int, s: int, ho: int, wq: int, links) -> np.ndarray:
    """Column matrix (C*k*k, ho*wq) of the zero-padded input, all rows."""
    return _columns(_phase_split(xd, k, s, wq, links, 0, ho), k, s, wq, ho)


# Most bytes of columns that one band of `_banded_product` builds.
BAND_BYTES = 2 << 20


def _band_rows(itemsize: int, *paths) -> int:
    """Output rows per band of the products of ``paths``, (K, wq) pairs of
    a column matrix's height and grid width: a multiple of 16 // gcd(wq,
    16) for every wq, and, unless that alignment alone is more, few enough
    that no path's columns exceed BAND_BYTES."""
    align, fit = 1, BAND_BYTES
    for n, wq in paths:
        align = math.lcm(align, 16 // math.gcd(wq, 16))
        fit = min(fit, BAND_BYTES // (n * wq * itemsize))
    return max(align, fit // align * align)


def _banded_product(kern: np.ndarray, xd: np.ndarray, k: int, s: int, r1: int, wq: int,
                    links, out: np.ndarray, bias: np.ndarray | None = None,
                    accumulate: bool = False, r0: int = 0) -> np.ndarray:
    """Write output rows r0..r1-1 of kern @ _conv_columns(xd, ...), cropped
    to ``out``'s (C_out, r1-r0, wo), into ``out``, plus ``bias`` per output
    channel, or add them to ``out`` when ``accumulate``. The columns are
    built one band of output rows at a time, each band at most BAND_BYTES
    (`_band_rows`), and each band's GEMM result lands in ``out`` before the
    next band is built. Each band's phase grids hold only the input rows
    that band reads (`_phase_split`) and are freed before its GEMM runs, so
    a call of more than one band never copies its whole input, and a call
    of one band (every product at 64 px) runs as `_conv_columns` does.

    A band holds a multiple of 16 // gcd(wq, 16) rows, and r0 must be one
    too, so every band's first column sits on a 16-column boundary of the
    whole product, and OpenBLAS's sgemm runs each column through the same
    kernel, full block or tail, as in the whole product. Each band's GEMM
    sums over the same C*k*k products as the whole product does, and in
    float32 the result is the whole product's, bit for bit, on the sgemm
    kernels it was checked on, whatever the band's row count. The
    exception seen: with 3 to 5 outputs and ho*wq not a multiple of 16, a
    few tail columns of the last band can round otherwise; the codec never
    makes such a call, since it pads its input to a multiple of 16. In
    float64 the GEMM's column-tail kernel can sum a band's last few
    columns in another order, which moves them by an ulp.
    """
    c_out, wo = out.shape[0], out.shape[2]
    rows = _band_rows(xd.dtype.itemsize, (kern.shape[1], wq))
    for a in range(r0, r1, rows):
        b = min(r1, a + rows)
        cols = _columns(_phase_split(xd, k, s, wq, links, a, b), k, s, wq, b - a)
        band = (kern @ cols).reshape(c_out, b - a, wq)[:, :, :wo]
        del cols
        dst = out[:, a - r0 : b - r0]
        if accumulate:
            dst += band
        elif bias is not None:
            np.add(band, bias[:, None, None], out=dst)
        else:
            dst[...] = band
    return out


def _col2im(dcols: np.ndarray, shape: tuple, k: int, s: int, ho: int, wq: int,
            links) -> np.ndarray:
    """Adjoint of `_conv_columns`: scatter-add a (C*k*k, ho*wq) column
    gradient back onto the (C, H, W) input of that shape."""
    c, n = shape[0], ho * wq
    dcols = dcols.reshape(c, k, k, n)
    dbuf, grids = _phase_buffer(c, k, s, ho, wq, dcols.dtype)
    for i in range(k):
        for j in range(k):
            off = (i // s) * wq + j // s
            dbuf[i % s, j % s, :, off : off + n] += dcols[:, i, j]
    dx = np.zeros(shape, dtype=dcols.dtype)
    for _, _, grid, xs in links:
        if xs is not None:
            dx[xs] = grids[grid]
    return dx


def _widen(g: np.ndarray, wq: int) -> np.ndarray:
    """(C, ho, wo) gradient -> (C, ho*wq) on the wide grid, zero spill-over."""
    c, ho, wo = g.shape
    if wq == wo:
        return g.reshape(c, ho * wo)
    gw = np.zeros((c, ho, wq), dtype=g.dtype)
    gw[:, :, :wo] = g
    return gw.reshape(c, ho * wq)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: str = "same") -> Tensor:
    """Cross-correlate a CHW tensor with an OIHW kernel, add bias.

    same-padding zero-pads so the output is ceil(H/stride) x ceil(W/stride);
    valid-padding requires the kernel to fit and floors.

    Memory contract: the column matrix (k*k times the input) lives only
    inside this call, one band of output rows at a time (`_banded_product`),
    or whole inside one call of the kernel VJP, which rebuilds it. The tape
    keeps references to ``x.data`` and ``kernel.data`` only. The result is
    its own (C_out, H_out, W_out) array.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: input must be CHW, got ndim {x.data.ndim}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be OIHW, got ndim {kernel.data.ndim}")
    c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if kh % 2 != 1:
        raise ShapeError(f"conv2d: kernel size must be odd, got {kh}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if kc != c_in:
        raise ShapeError(f"conv2d: kernel expects {kc} input channels, input has {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {c_out} output channels")
    if x.dtype != kernel.dtype:
        raise ShapeError(f"conv2d: input dtype {x.dtype} differs from kernel dtype {kernel.dtype}")
    if padding not in ("same", "valid"):
        raise ShapeError(f"conv2d: padding must be 'same' or 'valid', got {padding!r}")
    k, s = kh, stride
    ho, wo, wq, links = _conv_geometry(h, w, k, s, padding)

    xd, kd = x.data, kernel.data
    out = Tensor(_banded_product(kd.reshape(c_out, c_in * k * k), xd, k, s, ho, wq, links,
                                 np.empty((c_out, ho, wo), dtype=xd.dtype),
                                 None if bias is None else bias.data))

    operands = (x, kernel) if bias is None else (x, kernel, bias)
    if active_tape() is None or not any(t.requires_grad for t in operands):
        return out

    def vjp_x(g):
        return _col2im(kd.reshape(c_out, c_in * k * k).T @ _widen(g, wq), xd.shape, k, s, ho, wq,
                       links)

    def vjp_k(g):
        cols = _conv_columns(xd, k, s, ho, wq, links)
        return (_widen(g, wq) @ cols.T).reshape(c_out, c_in, k, k)

    def vjp_b(g):
        return g.sum(axis=(1, 2))

    if bias is None:
        return record_op(out, (x, kernel), (vjp_x, vjp_k))
    return record_op(out, (x, kernel, bias), (vjp_x, vjp_k, vjp_b))


# ---------------------------------------------------------------------------
# elementwise and reductions


def _unary(x: Tensor, fwd, make_vjp) -> Tensor:
    out = Tensor(fwd(x.data))
    return record_op(out, (x,), (make_vjp(x.data, out.data),))


def tanh(x: Tensor) -> Tensor:
    return _unary(x, np.tanh, lambda xd, yd: lambda g: g * (1.0 - yd * yd))


def _sigmoid_into(xd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = 1/(1+exp(-x)) as (1 + tanh(x/2)) / 2, which never overflows
    and allocates nothing; ``out`` may be ``xd`` itself. Its error is
    absolute, within an ulp of 1: in float32 it returns 0 below x ~ -17."""
    np.multiply(xd, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def relu(x: Tensor) -> Tensor:
    return _unary(x, lambda xd: np.maximum(xd, 0), lambda xd, yd: lambda g: g * (xd > 0))


def square(x: Tensor) -> Tensor:
    return _unary(x, np.square, lambda xd, yd: lambda g: g * (2.0 * xd))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _unary(x, lambda xd: xd * np.asarray(s, dtype=xd.dtype),
                  lambda xd, yd: lambda g: g * np.asarray(s, dtype=g.dtype))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "add")
    out = Tensor(a.data + b.data)
    return record_op(out, (a, b), (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "sub")
    out = Tensor(a.data - b.data)
    return record_op(out, (a, b), (lambda g: g, lambda g: -g))


def mean(x: Tensor) -> Tensor:
    """Reduce to a shape-(1,) scalar tensor."""
    out = Tensor(np.asarray([x.data.mean()], dtype=x.dtype))
    n = x.data.size
    shp = x.data.shape

    def vjp(g):
        return np.full(shp, g.reshape(-1)[0] / n, dtype=g.dtype)

    return record_op(out, (x,), (vjp,))


def _phases(a: np.ndarray, r: int, ho: int, wo: int) -> list:
    """The r*r strided views a[..., dy::r, dx::r] over the last two axes,
    each cut to ho x wo, in (dy, dx) row-major order."""
    return [a[..., dy : r * ho : r, dx : r * wo : r] for dy in range(r) for dx in range(r)]


def _pool2(a: np.ndarray) -> np.ndarray:
    """The 2x2 mean with stride 2 over the last two axes, a trailing odd row/column
    dropped: ((a00 + a01) + (a10 + a11)) / 4, a_ij at row offset i and column
    offset j. avg_pool2, the MS-SSIM pyramid and the shape renderer use it."""
    a00, a01, a10, a11 = _phases(a, 2, a.shape[-2] // 2, a.shape[-1] // 2)
    return ((a00 + a01) + (a10 + a11)) / 4


def _unpool2(g: np.ndarray, shape: tuple) -> np.ndarray:
    """The adjoint of 2x2 average pooling over the last two axes, onto an
    array of ``shape``: a quarter of each coarse gradient on each pixel of
    its block, zero on a dropped trailing row/column."""
    ho, wo = g.shape[-2:]
    d = np.empty(shape, dtype=g.dtype)
    q = g / 4
    for phase in _phases(d, 2, ho, wo):
        phase[...] = q
    d[..., 2 * ho :, :] = 0
    d[..., 2 * wo :] = 0
    return d


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 (`_pool2`) of a CHW tensor."""
    c, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeError(f"avg_pool2: spatial dims {h}x{w} too small")

    def vjp(g):
        return _unpool2(g, (c, h, w))

    return record_op(Tensor(_pool2(x.data)), (x,), (vjp,))


def global_avg_pool(x: Tensor) -> Tensor:
    """CHW -> per-channel spatial mean, shape (C,)."""
    c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(1, 2)))

    def vjp(g):
        return np.broadcast_to(g[:, None, None] / (h * w), (c, h, w)).astype(g.dtype)

    return record_op(out, (x,), (vjp,))


def channel_affine(x: Tensor, mul_c: np.ndarray, add_c: np.ndarray) -> Tensor:
    """Per-channel y = x * mul_c + add_c on a CHW tensor; the per-channel
    constants are not differentiated (used for image (de)normalization)."""
    c = x.shape[0]
    m = np.asarray(mul_c, dtype=x.dtype).reshape(c, 1, 1)
    a = np.asarray(add_c, dtype=x.dtype).reshape(c, 1, 1)
    out = Tensor(x.data * m + a)
    return record_op(out, (x,), (lambda g: g * m,))


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = W @ x + b for a flat vector x."""
    if x.data.ndim != 1:
        raise ShapeError(f"dense: input must be 1-d, got shape {x.shape}")
    m, n = weight.shape
    if x.shape != (n,):
        raise ShapeError(f"dense: weight expects input length {n}, got {x.shape[0]}")
    if bias.shape != (m,):
        raise ShapeError(f"dense: bias length {bias.shape[0]} != output length {m}")
    out = Tensor(weight.data @ x.data + bias.data)
    wd, xd = weight.data, x.data
    return record_op(out, (x, weight, bias),
                     (lambda g: wd.T @ g, lambda g: np.outer(g, xd), lambda g: g))


def cross_entropy_logits(logits: Tensor, label: int) -> Tensor:
    """Softmax cross-entropy against an integer label, shape-(1,) result."""
    z = logits.data
    if z.ndim != 1:
        raise ShapeError(f"cross_entropy_logits: logits must be 1-d, got {logits.shape}")
    if not 0 <= label < z.shape[0]:
        raise ShapeError(f"cross_entropy_logits: label {label} out of range for {z.shape[0]} classes")
    zmax = z.max()
    ez = np.exp(z - zmax)
    denom = ez.sum()
    loss = np.log(denom) + zmax - z[label]
    out = Tensor(np.asarray([loss], dtype=z.dtype))
    probs = ez / denom

    def vjp(g):
        d = probs.copy()
        d[label] -= 1.0
        return g.reshape(-1)[0] * d

    return record_op(out, (logits,), (vjp,))


# ---------------------------------------------------------------------------
# pixel shuffle


def depth_to_space(x: Tensor, r: int) -> Tensor:
    """[C, H, W] -> [C/r^2, rH, rW]; channel (c*r*r + dy*r + dx) lands at
    output pixel offset (dy, dx)."""
    c, h, w = x.shape
    if r < 1:
        raise ShapeError(f"depth_to_space: factor must be >= 1, got {r}")
    if c % (r * r) != 0:
        raise ShapeError(f"depth_to_space: channel count {c} not divisible by r^2 = {r * r}")
    co = c // (r * r)
    out_data = np.empty((co, h * r, w * r), dtype=x.dtype)
    src = x.data.reshape(co, r * r, h, w)
    for i, phase in enumerate(_phases(out_data, r, h, w)):
        phase[...] = src[:, i]
    out = Tensor(out_data)

    def vjp(g):
        return _s2d_data(g, r)

    return record_op(out, (x,), (vjp,))


def _s2d_data(arr: np.ndarray, r: int) -> np.ndarray:
    """The inverse of depth_to_space, as one transposed copy: its innermost
    axis reads with stride r, which numpy copies as fast as r*r phase
    copies or faster."""
    c, h, w = arr.shape
    ho, wo = h // r, w // r
    out = arr.reshape(c, ho, r, wo, r).transpose(0, 2, 4, 1, 3).reshape(c * r * r, ho, wo)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# convolutional GRU cell


_GRU_TENSORS = ("wxu", "whu", "bu", "wxr", "whr", "br", "wxc", "whc", "bc")
# one buffer per path, gates stacked along axis 0: x-kernels, biases, h-kernels
_GRU_STACKS = (("wxu", "wxr", "wxc"), ("bu", "br", "bc"), ("whu", "whr"))


def _stacked(parts) -> np.ndarray:
    """The buffer whose consecutive axis-0 rows are the values of ``parts``."""
    buf, row = parts[0].value.base, 0
    for q in parts:
        v = q.value
        if buf is None or v.base is not buf or v.ctypes.data != buf[row:].ctypes.data:
            raise ShapeError(f"GruParams: {q.name} is not rows {row}.. of its layer's stacked "
                             f"buffer; build the layer with make_parameters(stacks=...)")
        row += v.shape[0]
    if row != buf.shape[0]:
        raise ShapeError(f"GruParams: {parts[0].name} has a stacked buffer of {buf.shape[0]} "
                         f"rows, its gates fill {row}")
    return buf


@dataclass
class GruParams:
    """Gate parameters of one convolutional GRU layer.

    The input-to-hidden convolutions may be strided (spatial downsampling);
    hidden-to-hidden convolutions are always stride 1. One bias per gate,
    applied on the input path.

    Storage is stacked per path, as `make_parameters` allocates it for
    ``stacks(prefix)``: ``wx`` is [wxu; wxr; wxc] (3C, c_in, k, k), ``b``
    is [bu; br; bc] (3C,) and ``wh`` is [whu; whr] (2C, C, k, k); whc
    stands alone. Each gate Parameter is a view of its rows, and every
    write to it (Adam, a checkpoint load) is in place, so the cell reads
    the stacked buffers and they never go stale.
    """

    wxu: Parameter
    whu: Parameter
    bu: Parameter
    wxr: Parameter
    whr: Parameter
    br: Parameter
    wxc: Parameter
    whc: Parameter
    bc: Parameter
    stride: int = 1

    def __post_init__(self):
        self.wx, self.b, self.wh = (_stacked([getattr(self, n) for n in names])
                                    for names in _GRU_STACKS)

    @staticmethod
    def shapes(prefix: str, c_in: int, c_hidden: int, k: int) -> list:
        """(name, shape) rows in field order: per gate, x-kernel, h-kernel, bias."""
        x, h, b = (c_hidden, c_in, k, k), (c_hidden, c_hidden, k, k), (c_hidden,)
        return [(f"{prefix}.{n}", shape) for n, shape in zip(_GRU_TENSORS, (x, h, b) * 3)]

    @staticmethod
    def stacks(prefix: str) -> list:
        """The name groups of one layer that share a buffer, for make_parameters."""
        return [tuple(f"{prefix}.{n}" for n in names) for names in _GRU_STACKS]

    @staticmethod
    def of(params: dict, prefix: str, stride: int = 1) -> "GruParams":
        """The layer whose tensors ``params`` holds under ``prefix``."""
        return GruParams(*(params[f"{prefix}.{n}"] for n in _GRU_TENSORS), stride=stride)


def conv_gru_cell(x: Tensor, h: Tensor, p: GruParams) -> Tensor:
    """One GRU step with fused gates, C hidden channels:

        [a_u; a_r; a_c] = wx * x + b,  [a_u; a_r] += wh * h,
        u = sig(a_u),  r = sig(a_r),  c = tanh(a_c + whc * (r h)),
        h' = (h - u h) + u c.

    One strided x-path product with 3C outputs and one h-path product with
    2C outputs; the gate maths runs in place in the (3C, rows, W) buffer
    of pre-activations, which ends up holding [u; r; c].

    A cell that will not be recorded (no tape, or no input that needs a
    gradient) runs in bands of output rows (`_band_rows` over both paths,
    so every band starts on a 16-column boundary of each). Per band it
    runs both paths' products, the sigmoid and r h; the candidate product,
    tanh and h' of a band run once r h exists k // 2 rows below it, one
    band behind. So the gates of about two bands are alive at a time, and
    its only whole arrays are h' and r h. In float32 each band's products
    are the whole products' bit for bit (`_banded_product`), and h' is
    the recorded cell's.

    A recorded cell runs as one band, so its gates [u; r; c] and r h are
    whole. It is one tape record holding x, h, [u; r; c] and r h. Its
    first VJP to run computes the gradients of all 11 inputs, rebuilding
    each path's columns once and running one col2im per path, and each
    VJP hands out its own.

    A zero hidden state that needs no gradient (every state at t = 1)
    skips the h-path and candidate convolutions, which would add exact
    zeros, and leaves whu, whr and whc off the record: the output does not
    depend on them there.
    """
    if x.data.ndim != 3 or h.data.ndim != 3:
        raise ShapeError(f"conv_gru_cell: input and hidden must be CHW, got {x.shape} and "
                         f"{h.shape}")
    s = p.stride
    c_in, xh, xw = x.shape
    n3, k_in, k, _ = p.wx.shape
    ch = n3 // 3
    if k_in != c_in:
        raise ShapeError(f"conv_gru_cell: x-kernels expect {k_in} input channels, input has {c_in}")
    exp_h, exp_w = -(-xh // s), -(-xw // s)
    if h.shape[1:] != (exp_h, exp_w):
        raise ShapeError(
            f"conv_gru_cell: hidden spatial dims {h.shape[1:]} misaligned with "
            f"input {x.shape[1:]} at stride {s} (expected {(exp_h, exp_w)})")
    if h.shape[0] != ch:
        raise ShapeError(f"conv_gru_cell: hidden has {h.shape[0]} channels, the layer {ch}")
    if x.dtype != p.wx.dtype or h.dtype != p.wx.dtype:
        raise ShapeError(f"conv_gru_cell: input {x.dtype} and hidden {h.dtype} differ from "
                         f"parameter dtype {p.wx.dtype}")
    ho, wo, wq, links = _conv_geometry(xh, xw, k, s, "same")
    _, _, wqh, links_h = _conv_geometry(ho, wo, k, 1, "same")
    xd, hd = x.data, h.data
    kx, kh, kc = p.wx.reshape(n3, -1), p.wh.reshape(2 * ch, -1), p.whc.value.reshape(ch, -1)

    inputs = (x, h) + tuple(getattr(p, n).tensor for n in _GRU_TENSORS)
    recorded = active_tape() is not None and any(t.requires_grad for t in inputs)
    zero_state = not h.requires_grad and not hd.any()
    rows = ho if recorded else _band_rows(xd.dtype.itemsize, (kx.shape[1], wq),
                                          (kc.shape[1], wqh))
    # r h and h' are allocated when first written; allocated up front, they
    # would raise a one-band cell's peak (64 px compress, T = 2: 598 -> 662 B/px)
    rh, pending = None, []  # pending: (r0, r1, gates) of bands whose candidate waits
    for r0 in range(0, ho, rows):
        r1 = min(ho, r0 + rows)
        gates = _banded_product(kx, xd, k, s, r1, wq, links,
                                np.empty((n3, r1 - r0, wo), dtype=xd.dtype), p.b, r0=r0)
        if not zero_state:
            _banded_product(kh, hd, k, 1, r1, wqh, links_h, gates[: 2 * ch], accumulate=True,
                            r0=r0)
        _sigmoid_into(gates[: 2 * ch], gates[: 2 * ch])
        if not zero_state:
            if r0 == 0:
                rh = np.empty((ch, ho, wo), dtype=xd.dtype)
            np.multiply(gates[ch : 2 * ch], hd[:, r0:r1], out=rh[:, r0:r1])
        pending.append((r0, r1, gates))
        # a band's candidate reads r h up to k // 2 rows below the band
        while pending and (zero_state or r1 == ho or pending[0][1] + k // 2 <= r1):
            a, b, g = pending.pop(0)
            u, c = g[:ch], g[2 * ch :]
            if not zero_state:
                _banded_product(kc, rh, k, 1, b, wqh, links_h, c, accumulate=True, r0=a)
            np.tanh(c, out=c)
            if a == 0:
                out_data = np.empty((ch, ho, wo), dtype=xd.dtype)
            o, hb = out_data[:, a:b], hd[:, a:b]
            np.multiply(u, hb, out=o)
            np.subtract(hb, o, out=o)
            o += u * c
    out = Tensor(out_data)
    if not recorded:
        return out
    u, r, c = gates[:ch], gates[ch : 2 * ch], gates[2 * ch :]
    slot = {n: 2 + i for i, n in enumerate(_GRU_TENSORS)}

    def gradients(g):
        """Every input's gradient, in ``inputs`` order (None where no
        input needs it)."""
        grads = [None] * len(inputs)

        def kernel_grads(names, gw, cols, shape):
            if any(inputs[slot[n]].requires_grad for n in names):
                dk = (gw @ cols.T).reshape(-1, *shape)
                for i, n in enumerate(names):
                    grads[slot[n]] = dk[i * ch : (i + 1) * ch]

        da = np.empty_like(gates)
        da_u, da_r, da_c = da[:ch], da[ch : 2 * ch], da[2 * ch :]
        np.multiply(g, u, out=da_c)
        da_c *= 1.0 - c * c
        np.subtract(c, hd, out=da_u)
        da_u *= g
        da_u *= u * (1.0 - u)
        if zero_state:
            da_r[...] = 0.0  # r only ever multiplies h
        else:
            gw = _widen(da_c, wqh)
            kernel_grads(("whc",), gw, _conv_columns(rh, k, 1, ho, wqh, links_h), (ch, k, k))
            drh = _col2im(kc.T @ gw, hd.shape, k, 1, ho, wqh, links_h)
            np.multiply(drh, hd, out=da_r)
            da_r *= r * (1.0 - r)
            gw = _widen(da[: 2 * ch], wqh)
            kernel_grads(("whu", "whr"), gw, _conv_columns(hd, k, 1, ho, wqh, links_h),
                         (ch, k, k))
            if h.requires_grad:
                dh = _col2im(kh.T @ gw, hd.shape, k, 1, ho, wqh, links_h)
                dh += g * (1.0 - u)
                drh *= r
                dh += drh
                grads[1] = dh
            del drh
        gw = _widen(da, wq)
        kernel_grads(("wxu", "wxr", "wxc"), gw, _conv_columns(xd, k, s, ho, wq, links),
                     (c_in, k, k))
        if x.requires_grad:
            grads[0] = _col2im(kx.T @ gw, xd.shape, k, s, ho, wq, links)
        db = da.sum(axis=(1, 2))
        for i, n in enumerate(("bu", "br", "bc")):
            grads[slot[n]] = db[i * ch : (i + 1) * ch]
        return grads

    shared = []

    def vjp_of(i):
        def vjp(g):
            if not shared:
                shared.append(gradients(g))
            gi, shared[0][i] = shared[0][i], None
            return gi
        return vjp

    unused = {slot[n] for n in ("whu", "whr", "whc")} if zero_state else set()
    return record_op(out, inputs, tuple(None if i in unused else vjp_of(i)
                                        for i in range(len(inputs))))


# ---------------------------------------------------------------------------
# initialization


def xavier_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Glorot-uniform init; fans derived from OIHW or (out, in) shapes."""
    rec = math.prod(shape[2:])
    limit = float(np.sqrt(6.0 / (shape[1] * rec + shape[0] * rec)))
    return rng.uniform(-limit, limit, size=shape)


def conv_shapes(name: str, c_in: int, c_out: int, k: int) -> list:
    """(name, shape) rows of one convolution: OIHW kernel, then bias."""
    return [(f"{name}.kernel", (c_out, c_in, k, k)), (f"{name}.bias", (c_out,))]


def make_parameters(table, seed, dtype=np.float32, stacks=()) -> dict:
    """Name -> Parameter for an ordered (name, shape) table: drawn from a
    seed (or Generator) in table order as ``dtype``, Glorot-uniform for 2+
    dims and zero 1-d biases, or, for ``seed=None``, left uninitialised
    (``np.empty``, nothing drawn) for a caller that fills every buffer, as
    a checkpoint load does.

    Each name tuple in ``stacks`` gets one buffer that holds its tensors
    stacked along axis 0 in tuple order, and their Parameters are views of
    it (see GruParams). Every buffer is C-contiguous and allocated here,
    once.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    shapes, views = dict(table), {}
    for names in stacks:
        rows = [shapes[n][0] for n in names]
        buf = np.empty((sum(rows),) + shapes[names[0]][1:], dtype=dtype)
        for n, start, stop in zip(names, np.cumsum([0] + rows), np.cumsum(rows)):
            views[n] = buf[start:stop]
    params = {}
    for name, shape in table:
        if name not in views:
            views[name] = np.empty(shape, dtype=dtype)
        if rng is not None:
            views[name][...] = xavier_uniform(rng, shape) if len(shape) > 1 else 0.0
        params[name] = Parameter(name, views[name])
    return params
