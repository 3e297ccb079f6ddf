"""Observer-dependent distortions.

Three quantities, all differentiable scalar tensors:

  human_distortion     1 - MS-SSIM, computed on BT.601 luma of [0,1] images
  feature_distortion   size-normalized squared feature error under a frozen
                       classifier: sum_i ||phi_i(x) - phi_i(y)||^2 / (H W C)_i
  observer_distortion  (1-a) * lambda_h * human + a * feature, a in [0,1];
                       the one home of the objective, returned as the tuple
                       (total, human, feature) with None for a component
                       the objective leaves out

A caller that scores many reconstructions y against one clean x (the
unrolled steps of training, the validation probe) computes phi(x) once
with `reference_taps` and hands it to every call.

The SSIM statistics use an 11x11 Gaussian window (sigma 1.5) with valid
placement and the constants K1 = 0.01, K2 = 0.03 on a data range of 1;
MS-SSIM multiplies contrast/structure means across scales with the full
SSIM mean at the coarsest scale, each raised to its scale weight.

The pyramid is sized by the image: s scales, with s the largest s <= 5
such that 11 * 2^(s-1) <= min(H, W), and the first s classic weights
renormalized to sum to 1. A side below the 11-pixel window is an error.

MS-SSIM is one fused op, one tape record per call, with a hand-written
VJP. The luma and every SSIM statistic are float64, whatever the input
dtype: in float32, E[x^2] - mu^2 cancels as the images converge, and d_H
lost up to 5e-3 of its value at noise sd 0.001. The Gaussian window is
separable, so each scale filters its five stacked maps [x, y, x^2, y^2,
xy] with one banded-matrix product per axis, tiled so that a pixel costs
the same at any image size (`_window`); the VJP filters [d mu, d s_yy,
d s_xy] per input and scale with the adjoint window and un-pools between
scales. The record holds each
scale's luma images and its window-sized statistics, nothing larger.
human_distortion forms 1 - MS-SSIM from the float64 product and casts it
to the input dtype once: 1 - MS-SSIM taken after a float32 cast keeps a
relative error of ~2e-4 near convergence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_CLASSIC_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
WINDOW, SIGMA, K1, K2, DATA_RANGE = 11, 1.5, 0.01, 0.03, 1.0
LUMA_WEIGHTS = (0.299, 0.587, 0.114)  # BT.601
_TERM_FLOOR = 1e-6  # keeps fractional powers defined if a cs mean dips <= 0


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class LossConfig:
    """Full specification of the interpolated objective."""

    alpha: float = 0.0
    lambda_h: float = 5000.0
    layer_ids: tuple = ("1.1", "5.1")

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise LossError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0 < self.lambda_h < np.inf:
            raise LossError(f"lambda_h must be positive and finite, got {self.lambda_h}")
        if self.alpha > 0 and not self.layer_ids:
            raise LossError("layer_ids must be non-empty when alpha > 0")


def _pyramid_weights(side: int) -> tuple:
    """Scale weights of the MS-SSIM pyramid for a given smallest image side;
    their count is the scale count."""
    s = sum(WINDOW * 2 ** i <= side for i in range(len(_CLASSIC_WEIGHTS)))
    if s == 0:
        raise LossError(f"ms_ssim: smallest side {side} below the {WINDOW}-pixel window")
    w = np.array(_CLASSIC_WEIGHTS[:s])
    return tuple((w / w.sum()).tolist())


_TILE = 64  # output rows (columns) per banded-matrix product in `_window`


@functools.lru_cache(maxsize=_TILE)
def _band(n: int) -> np.ndarray:
    """The n x (n+10) banded matrix whose row i holds the 1-d Gaussian
    (sigma 1.5) at columns i..i+10, so ``_band(n) @ a`` filters n+10 rows
    of ``a`` into n, valid placement. Read-only: every call shares it."""
    coords = np.arange(WINDOW, dtype=np.float64) - WINDOW // 2
    g = np.exp(-(coords ** 2) / (2.0 * SIGMA ** 2))
    g /= g.sum()
    m = np.zeros((n, n + WINDOW - 1))
    for k, v in enumerate(g):
        np.fill_diagonal(m[:, k:], v)
    m.flags.writeable = False
    return m


def _window(m: np.ndarray) -> np.ndarray:
    """The separable 11x11 Gaussian window over the last two axes of ``m``,
    valid placement: a banded-matrix product along each axis, in tiles of
    at most `_TILE` outputs, so a pixel costs at most 2 (_TILE + 10)
    multiply-adds whatever the image size."""
    h, w = m.shape[-2] - WINDOW + 1, m.shape[-1] - WINDOW + 1
    rows = np.empty(m.shape[:-2] + (h, m.shape[-1]))
    for i in range(0, h, _TILE):
        n = min(_TILE, h - i)
        rows[..., i : i + n, :] = _band(n) @ m[..., i : i + n + WINDOW - 1, :]
    out = np.empty(m.shape[:-2] + (h, w))
    for j in range(0, w, _TILE):
        n = min(_TILE, w - j)
        out[..., j : j + n] = rows[..., j : j + n + WINDOW - 1] @ _band(n).T
    return out


def _window_adjoint(d: np.ndarray) -> np.ndarray:
    """Adjoint of `_window`: the same window over ``d`` zero-padded by 10 on
    each side (the window is symmetric, so it needs no flip)."""
    pad = WINDOW - 1
    padded = np.zeros(d.shape[:-2] + (d.shape[-2] + 2 * pad, d.shape[-1] + 2 * pad))
    padded[..., pad:-pad, pad:-pad] = d
    return _window(padded)


def _luma(img: np.ndarray) -> np.ndarray:
    """1xHxW or 3xHxW -> HxW float64 (BT.601 luma of three channels)."""
    img = img.astype(np.float64)
    return img[0] if img.shape[0] == 1 else np.tensordot(LUMA_WEIGHTS, img, axes=1)


class _Scale(NamedTuple):
    """One pyramid scale of two luma images, a from x and b from y: its term
    and the maps the VJP reads, each side's indexed by 0 for x, 1 for y.

    With [mu_x, mu_y, E[a^2], E[b^2], E[ab]] = _window([a, b, a^2, b^2, ab]),
    cs = (2 s_xy + C2) / B2 with B2 = s_xx + s_yy + C2, and at the coarsest
    scale lum = (2 mu_x mu_y + C1) / B1 with B1 = mu_x^2 + mu_y^2 + C1. The
    term is mean(cs), or mean(lum * cs) at the coarsest scale; q = w / B2 and
    r = cs / B1, where w is lum at the coarsest scale and 1 elsewhere.
    """

    term: float
    img: tuple  # (a, b)
    mu: tuple  # (mu_x, mu_y)
    cs: np.ndarray
    q: np.ndarray
    lum: np.ndarray | None  # coarsest scale only, as is r
    r: np.ndarray | None

    @classmethod
    def of(cls, a: np.ndarray, b: np.ndarray, coarsest: bool) -> "_Scale":
        c1, c2 = (K1 * DATA_RANGE) ** 2, (K2 * DATA_RANGE) ** 2
        f = _window(np.stack((a, b, a * a, b * b, a * b)))
        mu_x, mu_y = f[0].copy(), f[1].copy()  # not views: the record keeps no stack
        mxx, myy, mxy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
        b2 = (f[2] - mxx) + (f[3] - myy) + c2
        cs = (2.0 * (f[4] - mxy) + c2) / b2
        if not coarsest:
            return cls(float(np.mean(cs)), (a, b), (mu_x, mu_y), cs, 1.0 / b2, None, None)
        b1 = mxx + myy + c1
        lum = (2.0 * mxy + c1) / b1
        return cls(float(np.mean(lum * cs)), (a, b), (mu_x, mu_y), cs, lum / b2, lum, cs / b1)

    def grad(self, k: float, side: int) -> np.ndarray:
        """d(k * term)/d(a) for side 0, d(k * term)/d(b) for side 1."""
        img, other = self.img[side], self.img[1 - side]
        mu, mu_o = self.mu[side], self.mu[1 - side]
        kq = (k / self.cs.size) * self.q
        d_sxy = 2.0 * kq
        d_s = -kq * self.cs  # d s_xx for side 0, d s_yy for side 1
        d_mu = -2.0 * mu * d_s - mu_o * d_sxy
        if self.lum is not None:
            d_mu += (2.0 * k / self.cs.size) * self.r * (mu_o - self.lum * mu)
        dm = _window_adjoint(np.stack((d_mu, d_s, d_sxy)))
        return dm[0] + 2.0 * img * dm[1] + other * dm[2]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def ms_ssim(x, y, *, complement: bool = False) -> Tensor:
    """Multi-scale SSIM in (0,1], symmetric in (x, y); 1 - MS-SSIM with
    ``complement``, formed before the cast to the input dtype.

    cs means enter at scales 1..M-1, the full SSIM mean at the coarsest
    scale M; 2x average-pool downsampling sits between scales. M follows
    from the smallest image side (see the module docstring). One tape
    record with a hand-written VJP for the whole pyramid.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.shape != y.shape:
        raise LossError(f"ms_ssim: image shapes differ, {x.shape} vs {y.shape}")
    if x.dtype != y.dtype:
        raise LossError(f"ms_ssim: image dtypes differ, {x.dtype} vs {y.dtype}")
    if x.data.ndim != 3 or x.shape[0] not in (1, 3):
        raise LossError(f"ms_ssim: expected a 1- or 3-channel CHW image, got shape {x.shape}")
    weights = _pyramid_weights(min(x.shape[1], x.shape[2]))
    a, b = _luma(x.data), _luma(y.data)
    scales = []
    for s in range(len(weights)):
        if s:
            a, b = ad._pool2(a), ad._pool2(b)
        scales.append(_Scale.of(a, b, s == len(weights) - 1))
    product = 1.0
    for st, w in zip(scales, weights):
        product *= max(st.term, _TERM_FLOOR) ** w
    # d product / d term_s = w_s product / term_s; zero at or below the floor
    slopes = [w * product / st.term if st.term > _TERM_FLOOR else 0.0
              for st, w in zip(scales, weights)]
    sign = -1.0 if complement else 1.0
    out = Tensor(np.asarray([1.0 - product if complement else product], dtype=x.dtype))
    shape, dtype = x.shape, x.dtype

    def vjp(side):
        def run(g):
            k = sign * float(g.reshape(-1)[0])
            dl = None
            for st, slope in zip(reversed(scales), reversed(slopes)):
                d = st.grad(k * slope, side) if slope else np.zeros(st.img[side].shape)
                dl = d if dl is None else d + ad._unpool2(dl, d.shape)
            if shape[0] == 1:
                return dl[None].astype(dtype)
            return (np.asarray(LUMA_WEIGHTS)[:, None, None] * dl).astype(dtype)
        return run

    return ad.record_op(out, (x, y), (vjp(0), vjp(1)))


def human_distortion(x, y) -> Tensor:
    """1 - MS-SSIM; zero iff the images agree, always below 1."""
    return ms_ssim(x, y, complement=True)


def reference_taps(x, cfg: LossConfig, lossnet=None):
    """phi(x): the lossnet taps of the clean image for `observer_distortion`,
    or None when the objective has no feature term (or no lossnet, which
    `observer_distortion` then refuses)."""
    if cfg.alpha == 0.0 or lossnet is None:
        return None
    return lossnet.features(_as_tensor(x), cfg.layer_ids)


def feature_distortion(x, y, lossnet, layer_ids, x_taps=None) -> Tensor:
    """Mean squared feature error summed over the tapped layers.

    The per-layer normalizer 1/(H W C) makes each term the plain mean over
    the feature map. Gradients flow into x and y but never into the
    (frozen) lossnet parameters. ``x_taps``, when given, stands for
    ``lossnet.features(x, layer_ids)``, and x is not run through the lossnet.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    fx = lossnet.features(x, layer_ids) if x_taps is None else x_taps
    fy = lossnet.features(y, layer_ids)
    total = None
    for a, b in zip(fx, fy):
        term = ad.mean(ad.square(ad.sub(a, b)))
        total = term if total is None else ad.add(total, term)
    return total


def observer_distortion(x, y, cfg: LossConfig, lossnet=None, x_taps=None):
    """(total, d_human, d_feature), total = (1-alpha) * lambda_h * d_human
    + alpha * d_feature.

    A component outside the objective is None and never evaluated: alpha=0
    never touches the lossnet, alpha=1 never computes MS-SSIM. ``x_taps``
    is `reference_taps` of x, when the caller has it.
    """
    if cfg.alpha > 0.0 and lossnet is None:
        raise LossError("observer_distortion: alpha > 0 needs a lossnet")
    d_h = human_distortion(x, y) if cfg.alpha < 1.0 else None
    d_c = (feature_distortion(x, y, lossnet, cfg.layer_ids, x_taps) if cfg.alpha > 0.0
           else None)
    if d_c is None:
        total = ad.scale(d_h, cfg.lambda_h)
    elif d_h is None:
        total = d_c
    else:
        total = ad.add(ad.scale(d_h, (1.0 - cfg.alpha) * cfg.lambda_h),
                       ad.scale(d_c, cfg.alpha))
    return total, d_h, d_c
