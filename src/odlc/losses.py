"""Observer-dependent distortions.

Three quantities, all differentiable scalar tensors:

  human_distortion     1 - MS-SSIM, computed on BT.601 luma of [0,1] images
  feature_distortion   size-normalized squared feature error under a frozen
                       classifier: sum_i ||phi_i(x) - phi_i(y)||^2 / (H W C)_i
  observer_distortion  (1-a) * lambda_h * human + a * feature, a in [0,1];
                       the one home of the objective, returned as the tuple
                       (total, human, feature) with None for a component
                       the objective leaves out

The SSIM statistics use an 11x11 Gaussian window (sigma 1.5) with valid
placement; MS-SSIM multiplies contrast/structure means across scales with
the full SSIM mean at the coarsest scale, each raised to its scale
weight. Scale weights are the classic constants normalized to sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_CLASSIC_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])
DEFAULT_SCALE_WEIGHTS = tuple(float(v) for v in _CLASSIC_WEIGHTS / _CLASSIC_WEIGHTS.sum())
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
    scales: int = 5
    scale_weights: tuple = None
    window: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    data_range: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise LossError(f"alpha must be in [0,1], got {self.alpha}")
        if self.lambda_h <= 0:
            raise LossError(f"lambda_h must be positive, got {self.lambda_h}")
        if self.alpha > 0 and not self.layer_ids:
            raise LossError("layer_ids must be non-empty when alpha > 0")
        if self.window % 2 != 1 or self.window < 3:
            raise LossError(f"window must be odd and >= 3, got {self.window}")
        if self.scales < 1:
            raise LossError(f"scales must be >= 1, got {self.scales}")
        if self.scale_weights is None:
            w = np.array(DEFAULT_SCALE_WEIGHTS[: self.scales], dtype=np.float64)
            object.__setattr__(self, "scale_weights", tuple(float(v) for v in w / w.sum()))
        if len(self.scale_weights) != self.scales:
            raise LossError(f"{len(self.scale_weights)} scale weights for {self.scales} scales")
        if abs(sum(self.scale_weights) - 1.0) > 1e-6:
            raise LossError(f"scale weights sum to {sum(self.scale_weights)}, expected 1")

    def min_side(self) -> int:
        return self.window * 2 ** (self.scales - 1)

    @staticmethod
    def scales_for(min_side: int, window: int = 11, max_scales: int = 5) -> int:
        """Largest usable scale count for a given smallest image side."""
        s = 0
        while s < max_scales and window * 2 ** s <= min_side:
            s += 1
        if s == 0:
            raise LossError(f"side {min_side} below the {window}-pixel window")
        return s

    def for_min_side(self, min_side: int) -> "LossConfig":
        """Copy with the scale count reduced (weights renormalized) to fit."""
        s = LossConfig.scales_for(min_side, self.window, self.scales)
        if s == self.scales:
            return self
        return LossConfig(alpha=self.alpha, lambda_h=self.lambda_h,
                          layer_ids=self.layer_ids, scales=s, scale_weights=None,
                          window=self.window, sigma=self.sigma,
                          k1=self.k1, k2=self.k2, data_range=self.data_range)


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


def _ssim_luma(x: Tensor, y: Tensor, cfg: LossConfig):
    """(mean cs term, mean full SSIM) of two 1xHxW tensors."""
    win = Tensor(gaussian_window(cfg.window, cfg.sigma, x.dtype).reshape(1, 1, cfg.window, cfg.window))
    c1 = (cfg.k1 * cfg.data_range) ** 2
    c2 = (cfg.k2 * cfg.data_range) ** 2
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


def ssim_scale(x, y, cfg: LossConfig = LossConfig()):
    """Single-scale SSIM statistics of two same-shape [0,1] images.

    Returns (mean contrast-structure term, mean full SSIM) as scalar
    tensors. Images with 3 channels are reduced to luma first.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.shape != y.shape:
        raise LossError(f"ssim_scale: image shapes differ, {x.shape} vs {y.shape}")
    if min(x.shape[1], x.shape[2]) < cfg.window:
        raise LossError(f"ssim_scale: spatial dims {x.shape[1:]} below the "
                        f"{cfg.window}-pixel window")
    return _ssim_luma(to_luma(x), to_luma(y), cfg)


def ms_ssim(x, y, cfg: LossConfig = LossConfig()) -> Tensor:
    """Multi-scale SSIM in (0,1], symmetric in (x, y).

    cs means enter at scales 1..M-1, the full SSIM mean at the coarsest
    scale M; 2x average-pool downsampling sits between scales.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.shape != y.shape:
        raise LossError(f"ms_ssim: image shapes differ, {x.shape} vs {y.shape}")
    side = min(x.shape[1], x.shape[2])
    if side < cfg.min_side():
        raise LossError(
            f"ms_ssim: smallest side {side} below {cfg.min_side()} required for "
            f"{cfg.scales} scales (reduce scales via for_min_side)")
    cx, cy = to_luma(x), to_luma(y)
    product = None
    for s, w in enumerate(cfg.scale_weights):
        cs_mean, ssim_mean = _ssim_luma(cx, cy, cfg)
        term = ssim_mean if s == cfg.scales - 1 else cs_mean
        factor = ad.pow_const(ad.clamp_min(term, _TERM_FLOOR), w)
        product = factor if product is None else ad.mul(product, factor)
        if s != cfg.scales - 1:
            cx, cy = ad.avg_pool2(cx), ad.avg_pool2(cy)
    return product


def human_distortion(x, y, cfg: LossConfig = LossConfig()) -> Tensor:
    """1 - MS-SSIM; zero iff the images agree, always below 1."""
    return ad.add_const(ad.scale(ms_ssim(x, y, cfg), -1.0), 1.0)


def feature_distortion(x, y, lossnet, layer_ids) -> Tensor:
    """Mean squared feature error summed over the tapped layers.

    The per-layer normalizer 1/(H W C) makes each term the plain mean over
    the feature map. Gradients flow into x and y but never into the
    (frozen) lossnet parameters.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    fx = lossnet.features(x, layer_ids)
    fy = lossnet.features(y, layer_ids)
    total = None
    for a, b in zip(fx, fy):
        term = ad.mean(ad.square(ad.sub(a, b)))
        total = term if total is None else ad.add(total, term)
    return total


def observer_distortion(x, y, cfg: LossConfig, lossnet=None):
    """(total, d_human, d_feature), total = (1-alpha) * lambda_h * d_human
    + alpha * d_feature.

    A component outside the objective is None and never evaluated: alpha=0
    never touches the lossnet, alpha=1 never computes MS-SSIM.
    """
    if cfg.alpha > 0.0 and lossnet is None:
        raise LossError("observer_distortion: alpha > 0 needs a lossnet")
    d_h = human_distortion(x, y, cfg) if cfg.alpha < 1.0 else None
    d_c = feature_distortion(x, y, lossnet, cfg.layer_ids) if cfg.alpha > 0.0 else None
    if d_c is None:
        total = ad.scale(d_h, cfg.lambda_h)
    elif d_h is None:
        total = d_c
    else:
        total = ad.add(ad.scale(d_h, (1.0 - cfg.alpha) * cfg.lambda_h),
                       ad.scale(d_c, cfg.alpha))
    return total, d_h, d_c
