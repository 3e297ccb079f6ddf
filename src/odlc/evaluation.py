"""Measurement protocols: rate-quality and rate-accuracy curves, the
alpha trade-off sweep, and the loss-layer ablation.

The quality parameter of this codec is the iteration count. Codecs are
either CodecParams or any callable (image, iters) -> (decoded image,
payload_bits), which keeps stubs trivial to inject in tests. Classifiers
are never retrained on decoded images anywhere in here.

Every protocol is a reduction over one core, `_decodes`, which gives an
image's (decoded, payload_bits) at each requested level:

- Prefix rule (CodecParams). The codec is additive and progressive, so
  x_hat_t of one T-iteration trace is bit for bit the decode of that
  trace's t-iteration prefix, decompress(compress(image, t)), and the
  prefix carries t * bits_per_iteration payload bits. Each image is
  therefore encoded once, to T = max(levels), and every level is read
  off that trace.
- Stub rule (callables). A stub is called once per (image, level),
  through `roundtrip`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imageops, losses, lossnet as lossnet_mod
from .bitstream import Bitstream
from .codec import CodecError, CodecParams, reconstruct_progressive
# Not called here; both names stay bound because bench/tracing.py rebinds them in this module.
from .codec import compress, decompress  # noqa: F401

CURVE_HEADER = ("level", "bpp", "metric", "n")
SWEEP_HEADER = ("alpha", "iters", "bpp", "msssim", "preservation", "accuracy")
ABLATION_HEADER = ("layers", "iters", "preservation")


class EvalError(ValueError):
    pass


def _check_levels(levels, what: str):
    """A level list is non-empty and holds ints >= 1."""
    if len(levels) == 0:
        raise EvalError(f"{what} must be non-empty")
    for t in levels:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 1:
            raise EvalError(f"{what}: level {t!r} is not an int >= 1")


@dataclass(frozen=True)
class EvalConfig:
    s_comp: int = 64
    s_inf: int = 56
    grid: tuple = (1, 2, 3, 4)
    metric: str = "msssim"

    def __post_init__(self):
        if self.s_comp < self.s_inf:
            raise EvalError(f"s_comp {self.s_comp} must be >= s_inf {self.s_inf}")
        _check_levels(self.grid, "quality grid")
        if self.metric not in ("msssim", "preservation", "accuracy"):
            raise EvalError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class CurvePoint:
    level: int
    bpp: float
    value: float
    n: int

    def __post_init__(self):
        if self.bpp <= 0:
            raise EvalError(f"curve point bpp must be positive, got {self.bpp}")


def roundtrip(codec, img: np.ndarray, iters: int):
    """(decoded, payload_bits) through a real codec or a stub callable."""
    if isinstance(codec, CodecParams):
        return _decodes(codec, img, (iters,))[0]
    out = codec(img, iters)
    if not (isinstance(out, tuple) and len(out) == 2):
        raise EvalError("codec stubs must return (decoded image, payload_bits)")
    return out


def _decodes(codec, img: np.ndarray, levels) -> list:
    """[(decoded, payload_bits)] for each level, in the order given: one
    encode to max(levels) for CodecParams, one stub call per level."""
    if not isinstance(codec, CodecParams):
        return [roundtrip(codec, img, t) for t in levels]
    x = np.asarray(img, dtype=np.float32)
    if x.ndim != 3 or x.shape[0] != 3:
        raise CodecError(f"compress: image must be 3xHxW, got {x.shape}")
    _, h, w = x.shape
    if h > 0xFFFF or w > 0xFFFF:
        raise CodecError(f"compress: dimensions {h}x{w} exceed the u16 header fields")
    t_max = codec.layout.t_max
    for t in levels:
        if not 1 <= t <= t_max:
            raise CodecError(f"compress: {t} iterations outside the trained range 1..{t_max}")
    trace = reconstruct_progressive(x, max(levels), codec, mode="deterministic")
    header = Bitstream.from_codes([c.data for c in trace.codes], width=w, height=h).header
    return [(trace.decoded(t), t * header.bits_per_iteration) for t in levels]


def _per_level(codec, images, levels, *measures) -> list:
    """Per level, in the order given: (payload bits summed over the images,
    one list per measure holding measure(image, decoded) in image order).
    Each image's decodes are reduced before the next image is encoded."""
    bits = [0] * len(levels)
    values = [tuple([] for _ in measures) for _ in levels]
    for img in images:
        for j, (decoded, b) in enumerate(_decodes(codec, img, levels)):
            bits[j] += b
            for out, measure in zip(values[j], measures):
                out.append(measure(img, decoded))
    return list(zip(bits, values))


def _msssim(img: np.ndarray, decoded: np.ndarray) -> float:
    m_cfg = losses.LossConfig().for_min_side(min(img.shape[1:]))
    return losses.ms_ssim(img, decoded, m_cfg).item()


def _label(img: np.ndarray, classifier, s_inf: int) -> int:
    return lossnet_mod.classify(imageops.center_crop(img, s_inf), classifier)[0]


def _labeler(classifier, s_inf: int):
    """A measure: the classifier's label of the decoded image."""
    return lambda _img, decoded: _label(decoded, classifier, s_inf)


def _agree(labels, reference) -> int:
    return sum(int(a == b) for a, b in zip(labels, reference))


def preservation_rate(codec, classifier, images, iters: int) -> float:
    """Fraction of images whose predicted label survives the round trip."""
    if len(images) == 0:
        raise EvalError("preservation_rate: empty image set")
    s_inf = classifier.layout.input_resolution
    clean = [_label(img, classifier, s_inf) for img in images]
    [(_bits, (labels,))] = _per_level(codec, images, (iters,), _labeler(classifier, s_inf))
    return _agree(labels, clean) / len(images)


def _comp_crop(img: np.ndarray, s_comp: int) -> np.ndarray:
    return imageops.center_crop(imageops.resize_smallest_side(img, s_comp), s_comp)


def eval_accuracy_curve(codec, classifier, val_set, cfg: EvalConfig):
    """Per quality level: resize to S_comp, center crop, round trip, center
    crop S_inf, classify. Returns {"accuracy": [CurvePoint], "preservation":
    [CurvePoint]} with bpp averaged over the set at each level."""
    n = len(val_set)
    if n == 0:
        raise EvalError("eval_accuracy_curve: empty validation set")
    if classifier.layout.input_resolution != cfg.s_inf:
        raise EvalError(f"classifier expects {classifier.layout.input_resolution}px inputs, "
                        f"config says s_inf={cfg.s_inf}")
    crops = [_comp_crop(val_set.image(i), cfg.s_comp) for i in range(n)]
    truths = [val_set.label(i) for i in range(n)]
    clean = [_label(c, classifier, cfg.s_inf) for c in crops]
    acc_points, pres_points = [], []
    levels = _per_level(codec, crops, cfg.grid, _labeler(classifier, cfg.s_inf))
    for level, (bits, (labels,)) in zip(cfg.grid, levels):
        bpp = bits / (n * cfg.s_comp * cfg.s_comp)
        acc_points.append(CurvePoint(level=level, bpp=bpp, value=_agree(labels, truths) / n, n=n))
        pres_points.append(CurvePoint(level=level, bpp=bpp, value=_agree(labels, clean) / n, n=n))
    return {"accuracy": acc_points, "preservation": pres_points}


def _quality_inputs(val_set, cfg: EvalConfig):
    """Constant-resolution sets are evaluated at their native size (no
    resize, no crop); mixed sets go through resize + center crop."""
    n = len(val_set)
    imgs = [val_set.image(i) for i in range(n)]
    shapes = {im.shape for im in imgs}
    if len(shapes) == 1:
        return imgs
    return [_comp_crop(im, cfg.s_comp) for im in imgs]


def eval_quality_curve(codec, val_set, cfg: EvalConfig):
    """(bpp, mean MS-SSIM) per quality level between decoded and original."""
    n = len(val_set)
    if n == 0:
        raise EvalError("eval_quality_curve: empty validation set")
    imgs = _quality_inputs(val_set, cfg)
    px_total = sum(img.shape[1] * img.shape[2] for img in imgs)
    levels = _per_level(codec, imgs, cfg.grid, _msssim)
    return [CurvePoint(level=level, bpp=bits / px_total, value=float(np.mean(scores)), n=n)
            for level, (bits, (scores,)) in zip(cfg.grid, levels)]


def tradeoff_sweep(checkpoints: dict, classifier, val_set, t_list, cfg: EvalConfig):
    """Cross product over alpha checkpoints and iteration counts.

    Returns (rows, skipped): rows are (alpha, iters, bpp, msssim,
    preservation, accuracy) tuples; alphas with a missing checkpoint are
    reported in skipped rather than failing the sweep.
    """
    _check_levels(t_list, "tradeoff_sweep t_list")
    present = {a: p for a, p in checkpoints.items() if p is not None}
    if len(present) < 2:
        raise EvalError("tradeoff_sweep needs at least 2 alpha checkpoints")
    skipped = sorted(a for a in checkpoints if checkpoints[a] is None)
    n = len(val_set)
    if n == 0:
        raise EvalError("tradeoff_sweep: empty validation set")
    crops = [_comp_crop(val_set.image(i), cfg.s_comp) for i in range(n)]
    truths = [val_set.label(i) for i in range(n)]
    clean = [_label(c, classifier, cfg.s_inf) for c in crops]
    label = _labeler(classifier, cfg.s_inf)
    rows = []
    for alpha in sorted(present):
        levels = _per_level(present[alpha], crops, t_list, _msssim, label)
        for level, (bits, (scores, labels)) in zip(t_list, levels):
            rows.append((alpha, level, bits / (n * cfg.s_comp * cfg.s_comp),
                         float(np.mean(scores)), _agree(labels, clean) / n,
                         _agree(labels, truths) / n))
    return rows, skipped


def ablate_layers(layer_sets, train_set, val_set, f_lossnet, classifier,
                  loss_cfg_base, train_cfg, t_list, cfg: EvalConfig,
                  layout=None):
    """Train one alpha=1 codec per tap set (from scratch) and measure label
    preservation across iteration counts. Returns (rows, train_logs)."""
    from . import trainer
    from dataclasses import replace

    _check_levels(t_list, "ablate_layers t_list")
    rows = []
    train_logs = {}
    n = len(val_set)
    if n == 0:
        raise EvalError("ablate_layers: empty validation set")
    crops = [_comp_crop(val_set.image(i), cfg.s_comp) for i in range(n)]
    s_inf = classifier.layout.input_resolution
    clean = [_label(c, classifier, s_inf) for c in crops]
    label = _labeler(classifier, s_inf)
    for layer_ids in layer_sets:
        tag = "+".join(layer_ids)
        loss_cfg = replace(loss_cfg_base, alpha=1.0, layer_ids=tuple(layer_ids))
        params, log, _ = trainer.train_codec(train_set, val_set, loss_cfg, train_cfg,
                                             lossnet=f_lossnet, layout=layout)
        train_logs[tag] = log
        levels = _per_level(params, crops, t_list, label)
        for level, (_bits, (labels,)) in zip(t_list, levels):
            rows.append((tag, level, _agree(labels, clean) / n))
    return rows, train_logs
