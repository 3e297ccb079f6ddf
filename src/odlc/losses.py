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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_CLASSIC_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])
_SCALE_WEIGHTS = tuple(float(v) for v in _CLASSIC_WEIGHTS / _CLASSIC_WEIGHTS.sum())
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
        if self.lambda_h <= 0:
            raise LossError(f"lambda_h must be positive, got {self.lambda_h}")
        if self.alpha > 0 and not self.layer_ids:
            raise LossError("layer_ids must be non-empty when alpha > 0")


def _pyramid_weights(side: int) -> tuple:
    """Scale weights of the MS-SSIM pyramid for a given smallest image side;
    their count is the scale count."""
    s = 0
    while s < len(_SCALE_WEIGHTS) and WINDOW * 2 ** s <= side:
        s += 1
    if s == 0:
        raise LossError(f"ms_ssim: smallest side {side} below the {WINDOW}-pixel window")
    # normalized over all five, then over the first s: trained checkpoints
    # depend on these exact floats
    w = np.array(_SCALE_WEIGHTS[:s], dtype=np.float64)
    return tuple(float(v) for v in w / w.sum())


def gaussian_window(window: int, sigma: float, dtype) -> np.ndarray:
    coords = np.arange(window, dtype=np.float64) - window // 2
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    g /= g.sum()
    return np.outer(g, g).astype(dtype)


def to_luma(img: Tensor) -> Tensor:
    """3xHxW -> 1xHxW BT.601 luma via a constant 1x1 convolution."""
    if img.shape[0] == 1:
        return img
    if img.shape[0] != 3:
        raise LossError(f"expected a 1- or 3-channel image, got {img.shape[0]} channels")
    kern = Tensor(np.asarray(LUMA_WEIGHTS, dtype=img.dtype).reshape(1, 3, 1, 1))
    return ad.conv2d(img, kern)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _ssim_luma(x: Tensor, y: Tensor):
    """(mean cs term, mean full SSIM) of two 1xHxW tensors."""
    win = Tensor(gaussian_window(WINDOW, SIGMA, x.dtype).reshape(1, 1, WINDOW, WINDOW))
    c1 = (K1 * DATA_RANGE) ** 2
    c2 = (K2 * DATA_RANGE) ** 2
    mu_x = ad.conv2d(x, win, padding="valid")
    mu_y = ad.conv2d(y, win, padding="valid")
    mxx = ad.mul(mu_x, mu_x)
    myy = ad.mul(mu_y, mu_y)
    mxy = ad.mul(mu_x, mu_y)
    # windowed second moments minus squared means (biased covariances)
    sxx = ad.sub(ad.conv2d(ad.mul(x, x), win, padding="valid"), mxx)
    syy = ad.sub(ad.conv2d(ad.mul(y, y), win, padding="valid"), myy)
    sxy = ad.sub(ad.conv2d(ad.mul(x, y), win, padding="valid"), mxy)
    lum = ad.div(ad.add_const(ad.scale(mxy, 2.0), c1),
                 ad.add_const(ad.add(mxx, myy), c1))
    cs = ad.div(ad.add_const(ad.scale(sxy, 2.0), c2),
                ad.add_const(ad.add(sxx, syy), c2))
    return ad.mean(cs), ad.mean(ad.mul(lum, cs))


def ms_ssim(x, y) -> Tensor:
    """Multi-scale SSIM in (0,1], symmetric in (x, y).

    cs means enter at scales 1..M-1, the full SSIM mean at the coarsest
    scale M; 2x average-pool downsampling sits between scales. M follows
    from the smallest image side (see the module docstring).
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.shape != y.shape:
        raise LossError(f"ms_ssim: image shapes differ, {x.shape} vs {y.shape}")
    weights = _pyramid_weights(min(x.shape[1], x.shape[2]))
    coarsest = len(weights) - 1
    cx, cy = to_luma(x), to_luma(y)
    product = None
    for s, w in enumerate(weights):
        cs_mean, ssim_mean = _ssim_luma(cx, cy)
        term = ssim_mean if s == coarsest else cs_mean
        factor = ad.pow_const(ad.clamp_min(term, _TERM_FLOOR), w)
        product = factor if product is None else ad.mul(product, factor)
        if s != coarsest:
            cx, cy = ad.avg_pool2(cx), ad.avg_pool2(cy)
    return product


def human_distortion(x, y) -> Tensor:
    """1 - MS-SSIM; zero iff the images agree, always below 1."""
    return ad.add_const(ad.scale(ms_ssim(x, y), -1.0), 1.0)


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
