"""Plain-ndarray image helpers shared by the data pipeline and the codec.

All images are float32 CHW in [0,1] unless noted. None of these record on
the autodiff tape; they run before the taped forward pass.
"""

from __future__ import annotations

import numpy as np


def resize_smallest_side(img: np.ndarray, target: int) -> np.ndarray:
    """Aspect-preserving bilinear resize so min(H, W) == target.

    A no-op (returns the input array) when the smallest side already
    matches, so constant-resolution datasets pass through untouched.
    """
    _, h, w = img.shape
    small = min(h, w)
    if small == target:
        return img
    s = target / small
    nh = target if h == small else max(int(round(h * s)), 1)
    nw = target if w == small else max(int(round(w * s)), 1)
    return resize_bilinear(img, nh, nw)


def resize_bilinear(img: np.ndarray, nh: int, nw: int) -> np.ndarray:
    """Half-pixel-center bilinear resample of a CHW image to nh x nw.

    Separable: each source row is interpolated along x once, then the
    output rows blend two of those rows. Every output value is the same
    float expression of the same four neighbours as in the four-gather
    form (top = a*(1-wx) + b*wx, bot likewise, top*(1-wy) + bot*wy), so
    the two are bit-equal. The result is C-contiguous float32.
    """
    if nh < 1 or nw < 1:
        raise ValueError(f"resize_bilinear: target {nh}x{nw} must be at least 1x1")
    c, h, w = img.shape
    ys = (np.arange(nh, dtype=np.float64) + 0.5) * (h / nh) - 0.5
    xs = (np.arange(nw, dtype=np.float64) + 0.5) * (w / nw) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(np.float32)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0).astype(np.float32)
    rows = _lerp(np.take(img, x0, axis=2), np.take(img, x1, axis=2), wx)
    out = _lerp(np.take(rows, y0, axis=1), np.take(rows, y1, axis=1), wy)
    return out.astype(np.float32, copy=False)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a*(1-t) + b*t, computed in a and b's own buffers."""
    a *= 1 - t
    b *= t
    a += b
    return a


def center_crop(img: np.ndarray, size: int) -> np.ndarray:
    _, h, w = img.shape
    if h < size or w < size:
        raise ValueError(f"center_crop: image {h}x{w} smaller than crop {size}")
    top = (h - size) // 2
    left = (w - size) // 2
    return img[:, top : top + size, left : left + size]


def random_crop(img: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    _, h, w = img.shape
    if h < size or w < size:
        raise ValueError(f"random_crop: image {h}x{w} smaller than crop {size}")
    top = int(rng.integers(0, h - size + 1))
    left = int(rng.integers(0, w - size + 1))
    return img[:, top : top + size, left : left + size]


def hflip(img: np.ndarray) -> np.ndarray:
    return img[:, :, ::-1].copy()


def normalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return ((img - mean[:, None, None]) / std[:, None, None]).astype(np.float32)


def denormalize(img: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (img * std[:, None, None] + mean[:, None, None]).astype(np.float32)


def pad_to_multiple(img: np.ndarray, multiple: int) -> np.ndarray:
    """Pad bottom/right so both spatial dims are multiples of `multiple`.

    Reflect padding where the pad fits (< dim), edge replication otherwise
    so tiny inputs stay handled.
    """
    _, h, w = img.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return img
    out = img
    if ph:
        mode = "reflect" if ph < h else "edge"
        out = np.pad(out, ((0, 0), (0, ph), (0, 0)), mode=mode)
    if pw:
        mode = "reflect" if pw < w else "edge"
        out = np.pad(out, ((0, 0), (0, 0), (0, pw)), mode=mode)
    return out


def channel_stats(images) -> tuple:
    """Per-channel mean/std over an iterable of CHW [0,1] images, summed in
    float64, so that equal pixels give equal stats in any memory layout."""
    s = np.zeros(3, dtype=np.float64)
    s2 = np.zeros(3, dtype=np.float64)
    n = 0
    for img in images:
        s += img.sum(axis=(1, 2), dtype=np.float64)
        s2 += np.square(img, dtype=np.float64).sum(axis=(1, 2))
        n += img.shape[1] * img.shape[2]
    if n == 0:
        raise ValueError("channel_stats: no images")
    mean = s / n
    var = np.maximum(s2 / n - mean * mean, 1e-8)
    return mean.astype(np.float32), np.sqrt(var).astype(np.float32)
