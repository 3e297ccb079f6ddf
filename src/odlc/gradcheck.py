"""Central finite-difference verification of analytic gradients.

The step is 1e-3 for float32 and 1e-5 for float64; the matching pass
thresholds are 1e-3 and 1e-5 on the relative error
|analytic - numeric| / max(1, |analytic|, |numeric|), i.e. relative for
large gradients and absolute below magnitude one.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import losses

FD_STEP = {np.dtype(np.float32): 1e-3, np.dtype(np.float64): 1e-5}
FD_TOL = {np.dtype(np.float32): 1e-3, np.dtype(np.float64): 1e-5}


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def numeric_gradient(fn, wrt: ad.Tensor, step: float, indices=None) -> np.ndarray:
    """Central differences of the scalar fn() w.r.t. elements of wrt.

    fn must re-run the forward pass reading wrt.data. The effective step
    is measured after rounding to the tensor's dtype. With `indices`,
    only those flat positions are probed (the rest stay NaN).
    """
    base = wrt.data
    flat = base.reshape(-1)
    if indices is None:
        indices = range(flat.size)
        grad = np.zeros(base.shape, dtype=np.float64)
    else:
        grad = np.full(base.shape, np.nan)
    gflat = grad.reshape(-1)
    for i in indices:
        orig = flat[i]
        hi = base.dtype.type(orig + step)
        lo = base.dtype.type(orig - step)
        flat[i] = hi
        f_hi = fn()
        flat[i] = lo
        f_lo = fn()
        flat[i] = orig
        gflat[i] = (f_hi - f_lo) / (float(hi) - float(lo))
    return grad


def check_gradients(build_loss, wrt: list, dtype=np.float32,
                    sample: int | None = None, seed: int = 0) -> float:
    """Compare tape gradients of build_loss() against finite differences.

    build_loss runs a fresh forward pass and returns the scalar loss
    Tensor; wrt lists the leaf Tensors to differentiate (requires_grad is
    forced on). Returns the worst relative error over the probed
    elements: all of them by default, or `sample` deterministic random
    positions per tensor for expensive losses.
    """
    dt = np.dtype(dtype)
    for t in wrt:
        t.requires_grad = True
        t.grad = None
    with ad.Tape() as tape:
        loss = build_loss()
    ad.backward(loss, tape)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]

    def scalar():
        return build_loss().item()

    worst = 0.0
    for t, a in zip(wrt, analytic):
        idx = None
        if sample is not None and t.data.size > sample:
            idx = np.random.default_rng(seed).choice(t.data.size, size=sample, replace=False)
        n = numeric_gradient(scalar, t, FD_STEP[dt], indices=idx)
        if idx is not None:
            worst = max(worst, rel_error(a.reshape(-1)[idx], n.reshape(-1)[idx]))
        else:
            worst = max(worst, rel_error(a, n))
    return worst


# ---------------------------------------------------------------------------
# the per-op suite (used by tests and the `odlc gradcheck` command)


def _t(rng, shape, dtype, lo=-1.0, hi=1.0):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), dtype=dtype)


def op_cases(rng: np.random.Generator, dtype) -> list:
    """(name, wrt, build_loss, sample) rows covering every differentiable op;
    ``sample`` is the probe count per tensor of a costly case (see
    `check_gradients`), None to probe every element."""
    cases = []

    def case(name, wrt, build, sample=None):
        cases.append((name, wrt, build, sample))

    x = _t(rng, (2, 6, 7), dtype)
    k = _t(rng, (3, 2, 3, 3), dtype, -0.5, 0.5)
    b = _t(rng, (3,), dtype)
    case("conv2d/same", [x, k, b],
         lambda: ad.mean(ad.square(ad.conv2d(x, k, b, stride=1, padding="same"))))
    x2 = _t(rng, (2, 9, 8), dtype)
    case("conv2d/stride2", [x2, k, b],
         lambda: ad.mean(ad.square(ad.conv2d(x2, k, b, stride=2, padding="same"))))
    x3 = _t(rng, (2, 7, 7), dtype)
    case("conv2d/valid", [x3, k, b],
         lambda: ad.mean(ad.square(ad.conv2d(x3, k, b, stride=1, padding="valid"))))

    gp = GruCase(rng, dtype, c_in=2, c_h=3, hw=(6, 6), stride=1)
    case("conv_gru_cell/stride1", gp.wrt, gp.build)
    gp2 = GruCase(rng, dtype, c_in=2, c_h=3, hw=(6, 6), stride=2)
    case("conv_gru_cell/stride2", gp2.wrt, gp2.build)

    d = _t(rng, (8, 3, 4), dtype)
    case("depth_to_space", [d], lambda: ad.mean(ad.square(ad.depth_to_space(d, 2))))

    u = _t(rng, (3, 5, 5), dtype)
    v = _t(rng, (3, 5, 5), dtype)
    case("tanh", [u], lambda: ad.mean(ad.square(ad.tanh(u))))
    case("relu", [u], lambda: ad.mean(ad.square(ad.relu(u))))
    case("add", [u, v], lambda: ad.mean(ad.square(ad.add(u, v))))
    case("sub", [u, v], lambda: ad.mean(ad.square(ad.sub(u, v))))
    case("scale", [u], lambda: ad.mean(ad.square(ad.scale(u, 1.7))))
    case("square", [u], lambda: ad.mean(ad.square(ad.square(u))))
    case("mean", [u], lambda: ad.square(ad.mean(u)))
    p6 = _t(rng, (3, 6, 6), dtype)
    case("avg_pool2", [p6], lambda: ad.mean(ad.square(ad.avg_pool2(p6))))
    case("global_avg_pool", [p6], lambda: ad.mean(ad.square(ad.global_avg_pool(p6))))
    case("channel_affine", [u],
         lambda: ad.mean(ad.square(ad.channel_affine(u, np.array([1.1, 0.9, 1.3]),
                                                     np.array([0.1, -0.2, 0.0])))))

    xv = _t(rng, (6,), dtype)
    wv = _t(rng, (4, 6), dtype)
    bv = _t(rng, (4,), dtype)
    case("dense", [xv, wv, bv], lambda: ad.mean(ad.square(ad.dense(xv, wv, bv))))
    lg = _t(rng, (5,), dtype, -2.0, 2.0)
    case("cross_entropy_logits", [lg], lambda: ad.cross_entropy_logits(lg, 2))

    # a composite expression exercising fan-out accumulation
    def composite():
        y = ad.tanh(ad.sub(u, ad.square(v)))
        z = ad.add(ad.square(y), ad.scale(y, 0.5))
        return ad.mean(z)
    case("composite/fanout", [u, v], composite)

    # the fused MS-SSIM op: gradients into both images, at 1 and 3 channels,
    # 2 and 3 scales, on odd sides (whose last row or column no pooling reads)
    for name, shape, loss in (("ms_ssim/luma-2scales-45x38", (1, 45, 38), losses.ms_ssim),
                              ("ms_ssim/rgb-3scales-44x47", (3, 44, 47),
                               losses.human_distortion)):
        xm = _t(rng, shape, dtype, 0.0, 1.0)
        ym = ad.Tensor(0.5 * xm.data + 0.5 * rng.uniform(0.0, 1.0, shape).astype(dtype))
        case(name, [xm, ym], functools.partial(loss, xm, ym), sample=200)

    # drawn last so that every case above keeps its draws
    po = _t(rng, (3, 7, 5), dtype)
    case("avg_pool2/odd", [po], lambda: ad.mean(ad.square(ad.avg_pool2(po))))

    return cases


class GruCase:
    def __init__(self, rng, dtype, c_in, c_h, hw, stride):
        params = ad.make_parameters(ad.GruParams.shapes("g", c_in, c_h, 3), rng, dtype,
                                    stacks=ad.GruParams.stacks("g"))
        self.p = ad.GruParams.of(params, "g", stride)
        h_hw = (-(-hw[0] // stride), -(-hw[1] // stride))
        self.x = _t(rng, (c_in,) + hw, dtype)
        self.h = _t(rng, (c_h,) + h_hw, dtype)
        self.wrt = [self.x, self.h] + [q.tensor for q in params.values()]

    def build(self):
        return ad.mean(ad.square(ad.conv_gru_cell(self.x, self.h, self.p)))


def run_op_suite(dtype, seed: int = 0) -> list:
    """Run every op case once on draws seeded from ``seed``.

    Returns (name, worst_rel_error, tolerance, passed) rows.
    """
    dt = np.dtype(dtype)
    tol = FD_TOL[dt]
    rows = []
    for name, wrt, build, sample in op_cases(np.random.default_rng(seed), dt):
        err = check_gradients(build, wrt, dtype=dt, sample=sample)
        rows.append((name, err, tol, err < tol))
    return rows
