"""Independent direct implementations used as test oracles.

Everything here evaluates the defining formulas with plain numpy
(sliding windows, explicit loops), sharing no code path with the
package's autodiff-based implementations. The two exceptions are
`conv_gru_cell_composed` and `ms_ssim_composed`, which build the GRU step
and MS-SSIM from autodiff's primitive ops (themselves checked against
the direct oracles here and by `odlc gradcheck`) to judge the fused ops'
gradients. The elementwise ops they need and the package no longer runs
(sigmoid, mul, add_const, and the private division, power and clamp) are
local `record_op` closures here.

The shape renderer's reference (`render_shape_image_reference` with its
`shape_mask_reference` and `resize_bilinear_gather`) is the renderer's
plain definition: dense coordinate grids, a four-gather resize, an
arithmetic blend and each 2x2 block mean summed in pairs on a 5-d
reshape. The package's renderer must match it bit for bit.
"""

import numpy as np

from odlc import autodiff as ad
from odlc.datasets import _SPLIT_TAGS, CLASS_NAMES, DatasetError


def conv2d_direct(x, kernel, bias, stride=1, padding="same"):
    """Nested-loop cross-correlation over CHW input, OIHW kernel."""
    c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    if padding == "same":
        ho = -(-h // stride)
        wo = -(-w // stride)
        th = max((ho - 1) * stride + k - h, 0)
        tw = max((wo - 1) * stride + k - w, 0)
        pt, pl = th // 2, tw // 2
        xp = np.zeros((c_in, h + th, w + tw), dtype=np.float64)
        xp[:, pt : pt + h, pl : pl + w] = x
    else:
        ho = (h - k) // stride + 1
        wo = (w - k) // stride + 1
        xp = x.astype(np.float64)
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += xp[ci, oy * stride + ky, ox * stride + kx] * kernel[co, ci, ky, kx]
                out[co, oy, ox] = acc + (bias[co] if bias is not None else 0.0)
    return out


def gaussian_window_direct(window, sigma):
    ax = np.arange(window) - window // 2
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    g = g / g.sum()
    return np.outer(g, g)


def luma_direct(img):
    """BT.601 luma of a 3-channel image; a 1-channel image is its own luma."""
    if img.shape[0] == 1:
        return img[0]
    return 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]


def ssim_maps_direct(x, y, window=11, sigma=1.5, k1=0.01, k2=0.03, data_range=1.0):
    """(cs map, full ssim map) of two 2-d arrays, valid window placement."""
    win = gaussian_window_direct(window, sigma)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    def filt(a):
        view = np.lib.stride_tricks.sliding_window_view(a, (window, window))
        return np.tensordot(view, win, axes=([2, 3], [0, 1]))

    mu_x, mu_y = filt(x), filt(y)
    sxx = filt(x * x) - mu_x * mu_x
    syy = filt(y * y) - mu_y * mu_y
    sxy = filt(x * y) - mu_x * mu_y
    lum = (2 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)
    cs = (2 * sxy + c2) / (sxx + syy + c2)
    return cs, lum * cs


def downsample2_direct(a):
    h, w = a.shape
    ho, wo = h // 2, w // 2
    v = a[: 2 * ho, : 2 * wo]
    return (v[0::2, 0::2] + v[0::2, 1::2] + v[1::2, 0::2] + v[1::2, 1::2]) / 4.0


CLASSIC_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def msssim_weights_direct(scales):
    """The first `scales` classic MS-SSIM weights, rescaled to sum to 1."""
    w = np.array(CLASSIC_MSSSIM_WEIGHTS[:scales], dtype=np.float64)
    return w / w.sum()


def msssim_direct(ximg, yimg, scales, window=11, sigma=1.5,
                  k1=0.01, k2=0.03, data_range=1.0, floor=1e-6):
    """Direct MS-SSIM on CHW [0,1] images (luma, cs terms at fine scales,
    full SSIM at the coarsest) with the classic weights."""
    weights = msssim_weights_direct(scales)
    x = luma_direct(np.asarray(ximg, dtype=np.float64))
    y = luma_direct(np.asarray(yimg, dtype=np.float64))
    result = 1.0
    for s in range(scales):
        cs_map, ssim_map = ssim_maps_direct(x, y, window, sigma, k1, k2, data_range)
        term = ssim_map.mean() if s == scales - 1 else cs_map.mean()
        result *= max(term, floor) ** weights[s]
        if s != scales - 1:
            x, y = downsample2_direct(x), downsample2_direct(y)
    return result


def feature_loss_direct(maps_x, maps_y):
    """Eq-style nested-loop evaluation: sum_i ||a_i - b_i||^2 / (C H W)_i."""
    total = 0.0
    for a, b in zip(maps_x, maps_y):
        c, h, w = a.shape
        acc = 0.0
        for ci in range(c):
            for yy in range(h):
                for xx in range(w):
                    d = float(a[ci, yy, xx]) - float(b[ci, yy, xx])
                    acc += d * d
        total += acc / (c * h * w)
    return total


def adam_trajectory_direct(theta0, grad_fn, lr, beta1, beta2, eps, steps):
    """Reference Adam on a vector parameter; returns the final theta."""
    theta = np.array(theta0, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def sigmoid(x):
    y = 0.5 * (1.0 + np.tanh(0.5 * x.data))  # 1/(1+exp(-x)), which never overflows
    return ad.record_op(ad.Tensor(y), (x,), (lambda g: g * y * (1.0 - y),))


def mul(a, b):
    a_d, b_d = a.data, b.data
    return ad.record_op(ad.Tensor(a_d * b_d), (a, b), (lambda g: g * b_d, lambda g: g * a_d))


def add_const(x, c):
    return ad.record_op(ad.Tensor(x.data + np.asarray(c, dtype=x.dtype)), (x,), (lambda g: g,))


def conv_gru_cell_composed(x, h, p):
    """One GRU step from primitive ops, one convolution per gate and path:
    u = sig(conv(x)+conv(h)), r = sig(conv(x)+conv(h)),
    c = tanh(conv(x)+conv(r*h)), h' = (h - u*h) + u*c."""
    s = p.stride
    u = sigmoid(ad.add(ad.conv2d(x, p.wxu.tensor, p.bu.tensor, stride=s),
                       ad.conv2d(h, p.whu.tensor)))
    r = sigmoid(ad.add(ad.conv2d(x, p.wxr.tensor, p.br.tensor, stride=s),
                       ad.conv2d(h, p.whr.tensor)))
    c = ad.tanh(ad.add(ad.conv2d(x, p.wxc.tensor, p.bc.tensor, stride=s),
                       ad.conv2d(mul(r, h), p.whc.tensor)))
    return ad.add(ad.sub(h, mul(u, h)), mul(u, c))


def _div(a, b):
    out = ad.Tensor(a.data / b.data)
    num, den = a.data, b.data
    return ad.record_op(out, (a, b), (lambda g: g / den, lambda g: -g * num / (den * den)))


def _pow_const(x, p):
    xd = x.data
    out = ad.Tensor(np.power(xd, p))
    return ad.record_op(out, (x,), (lambda g: g * (p * np.power(xd, p - 1.0)),))


def _clamp_min(x, m):
    xd = x.data
    return ad.record_op(ad.Tensor(np.maximum(xd, m)), (x,), (lambda g: g * (xd > m),))


def _ssim_composed(x, y, window, c1, c2):
    """(mean cs map, mean full SSIM map) of two 1xHxW tensors."""
    mu_x = ad.conv2d(x, window, padding="valid")
    mu_y = ad.conv2d(y, window, padding="valid")
    mxx, myy, mxy = mul(mu_x, mu_x), mul(mu_y, mu_y), mul(mu_x, mu_y)
    sxx = ad.sub(ad.conv2d(mul(x, x), window, padding="valid"), mxx)
    syy = ad.sub(ad.conv2d(mul(y, y), window, padding="valid"), myy)
    sxy = ad.sub(ad.conv2d(mul(x, y), window, padding="valid"), mxy)
    lum = _div(add_const(ad.scale(mxy, 2.0), c1), add_const(ad.add(mxx, myy), c1))
    cs = _div(add_const(ad.scale(sxy, 2.0), c2), add_const(ad.add(sxx, syy), c2))
    return ad.mean(cs), ad.mean(mul(lum, cs))


def ms_ssim_composed(x, y, scales, window=11, sigma=1.5, k1=0.01, k2=0.03,
                     data_range=1.0, floor=1e-6):
    """MS-SSIM of two CHW tensors (1 or 3 channels) from primitive ops: luma
    by a 1x1 convolution, the Gaussian window as an 11x11 `conv2d`, 2x2
    average pooling between scales, and max(term, floor)^weight factors
    multiplied in scale order, all in the tensors' dtype."""
    dt = x.dtype
    win = ad.Tensor(gaussian_window_direct(window, sigma).astype(dt).reshape(1, 1, window, window))
    if x.shape[0] == 3:
        luma = ad.Tensor(np.array([0.299, 0.587, 0.114], dtype=dt).reshape(1, 3, 1, 1))
        x, y = ad.conv2d(x, luma), ad.conv2d(y, luma)
    product = None
    for s, w in enumerate(msssim_weights_direct(scales)):
        cs_mean, ssim_mean = _ssim_composed(x, y, win, (k1 * data_range) ** 2,
                                            (k2 * data_range) ** 2)
        term = ssim_mean if s == scales - 1 else cs_mean
        factor = _pow_const(_clamp_min(term, floor), float(w))
        product = factor if product is None else mul(product, factor)
        if s != scales - 1:
            x, y = ad.avg_pool2(x), ad.avg_pool2(y)
    return product


def resize_bilinear_gather(img, nh, nw):
    """Half-pixel-center bilinear resample of a CHW image (four gathers)."""
    c, h, w = img.shape
    ys = (np.arange(nh, dtype=np.float64) + 0.5) * (h / nh) - 0.5
    xs = (np.arange(nw, dtype=np.float64) + 0.5) * (w / nw) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(np.float32)
    wx = np.clip(xs - x0, 0.0, 1.0).astype(np.float32)
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return (top * (1 - wy)[None, :, None] + bot * wy[None, :, None]).astype(np.float32)


def _rot(yy, xx, theta):
    c, s = np.cos(theta), np.sin(theta)
    return c * yy - s * xx, s * yy + c * xx


def shape_mask_reference(cls, res, rng):
    """Boolean mask at 2x resolution (downsampled later for soft edges)."""
    n = res * 2
    cy = n * (0.5 + rng.uniform(-0.12, 0.12))
    cx = n * (0.5 + rng.uniform(-0.12, 0.12))
    r = n * rng.uniform(0.18, 0.30)
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    yy -= cy
    xx -= cx
    small = rng.uniform(-0.18, 0.18)  # near-axis jitter for oriented classes
    free = rng.uniform(0.0, 2 * np.pi)

    if cls == 0:  # disk
        return yy * yy + xx * xx <= r * r
    if cls == 1:  # ring
        d2 = yy * yy + xx * xx
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if cls == 2:  # square
        ry, rx = _rot(yy, xx, small)
        return np.maximum(np.abs(ry), np.abs(rx)) <= 0.85 * r
    if cls == 3:  # triangle
        ry, rx = _rot(yy, xx, free)
        # equilateral: inside three half-planes
        a = ry <= 0.5 * r
        b = (-0.5 * ry + 0.8660254 * rx) <= 0.5 * r
        c = (-0.5 * ry - 0.8660254 * rx) <= 0.5 * r
        return a & b & c
    if cls == 4:  # plus
        ry, rx = _rot(yy, xx, small)
        bar = 0.33 * r
        return ((np.abs(ry) <= bar) & (np.abs(rx) <= r)) | ((np.abs(rx) <= bar) & (np.abs(ry) <= r))
    if cls == 5:  # four-point star
        ry, rx = _rot(yy, xx, small)
        phi = np.arctan2(ry, rx)
        rad = np.sqrt(ry * ry + rx * rx)
        return rad <= r * (0.35 + 0.65 * np.abs(np.cos(2 * phi)))
    if cls == 6:  # two parallel stripes
        ry, rx = _rot(yy, xx, small)
        bar = 0.22 * r
        return (np.abs(rx) <= r) & ((np.abs(ry - 0.55 * r) <= bar) | (np.abs(ry + 0.55 * r) <= bar))
    if cls == 7:  # ellipse
        ry, rx = _rot(yy, xx, free)
        return (ry / (0.45 * r)) ** 2 + (rx / r) ** 2 <= 1.0
    if cls == 8:  # 2x2 checker inside a square
        ry, rx = _rot(yy, xx, small)
        inside = np.maximum(np.abs(ry), np.abs(rx)) <= 0.9 * r
        return inside & ((ry >= 0) ^ (rx >= 0))
    if cls == 9:  # corner (square minus one quadrant)
        ry, rx = _rot(yy, xx, small)
        sq = np.maximum(np.abs(ry), np.abs(rx)) <= 0.9 * r
        return sq & ~((ry < 0) & (rx > 0))
    raise DatasetError(f"no shape class {cls}")


def render_shape_image_reference(seed, split, index, classes=10, resolution=64):
    """Deterministic (image, label) pair; image is float32 CHW in [0,1]."""
    if split not in _SPLIT_TAGS:
        raise DatasetError(f"unknown split {split!r}; known: {sorted(_SPLIT_TAGS)}")
    if not 2 <= classes <= len(CLASS_NAMES):
        raise DatasetError(f"classes must be in 2..{len(CLASS_NAMES)}, got {classes}")
    label = index % classes
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SPLIT_TAGS[split], index)))

    # smooth colored texture: coarse grid, bilinear blowup, mild noise
    grid = rng.uniform(0.15, 0.85, size=(3, 5, 5)).astype(np.float32)
    bg = resize_bilinear_gather(grid, resolution * 2, resolution * 2)
    bg = bg + 0.015 * rng.standard_normal(bg.shape, dtype=np.float32)

    mask = shape_mask_reference(label, resolution, rng).astype(np.float32)
    local_mean = float(bg.astype(np.float64).mean())
    color = rng.uniform(0.05, 0.95, size=3).astype(np.float32)
    # push the fill color away from the background so shapes stay visible
    for c in range(3):
        if abs(color[c] - local_mean) < 0.25:
            color[c] = np.clip(local_mean + np.sign(color[c] - local_mean + 1e-6) * 0.35, 0.0, 1.0)

    img2x = bg * (1.0 - mask) + color[:, None, None] * mask
    v = img2x.reshape(3, resolution, 2, resolution, 2)
    img = ((v[:, :, 0, :, 0] + v[:, :, 0, :, 1]) + (v[:, :, 1, :, 0] + v[:, :, 1, :, 1])) / 4
    return np.clip(img, 0.0, 1.0), label
