"""Measurement protocols: rate-quality and rate-accuracy curves, the
alpha trade-off sweep, and the loss-layer ablation.

The quality parameter of this codec is the iteration count; every protocol
takes the counts to measure as ``levels``. Images are resized and
center-cropped to EvalConfig.s_comp, and a classifier reads the center crop
of each decode at its own input side. Classifiers are never retrained on
decoded images anywhere in here.

Every protocol is a reduction over one core, `_decodes`, which gives an
image's (decoded, payload_bits) at each requested level by one rule: the
codec is additive and progressive, so x_hat_t of one T-iteration trace is
bit for bit the decode of that trace's t-iteration prefix,
decompress(compress(image, t)), and the prefix carries
t * bits_per_iteration payload bits. Each image is therefore encoded once,
to T = max(levels), and every level is read off that trace. Every encode
checks its image in `codec.normalized_input`, as compress and training do,
so all three accept the same images.

The (codec, image) traces are independent, so they run through
`parallel.map` on every usable core, each trace whole on one thread with
OpenBLAS at one thread, and a sweep submits all its checkpoints' images as
one map. Each trace reduces its decodes to the protocol's measures before
it returns, and the protocols sum and list those in image order, so every
row holds the same bytes at any worker count. The reference crops are
made and given their clean labels through the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import imageops, losses, lossnet as lossnet_mod, parallel, trainer
from .bitstream import BitstreamHeader
from .codec import MAX_PADDED_PIXELS, CodecParams, reconstruct_progressive
# Not called here; both names stay bound because bench/tracing.py rebinds them in this module.
from .codec import compress, decompress  # noqa: F401

CURVE_HEADER = ("level", "bpp", "metric", "n")
SWEEP_HEADER = ("alpha", "iters", "bpp", "msssim", "preservation", "accuracy")
ABLATION_HEADER = ("layers", "iters", "preservation")
_MAX_S_COMP = isqrt(MAX_PADDED_PIXELS)  # the side of the largest image the codec takes


class EvalError(ValueError):
    pass


def _is_count(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def _check_levels(levels, what: str):
    """A level list is non-empty and holds ints >= 1."""
    if len(levels) == 0:
        raise EvalError(f"{what}: levels must be non-empty")
    for t in levels:
        if not _is_count(t):
            raise EvalError(f"{what}: level {t!r} is not an int >= 1")


@dataclass(frozen=True)
class EvalConfig:
    s_comp: int = 64

    def __post_init__(self):
        if not (_is_count(self.s_comp) and self.s_comp <= _MAX_S_COMP):
            raise EvalError(f"s_comp must be an int in 1..{_MAX_S_COMP}, got {self.s_comp!r}")


@dataclass(frozen=True)
class CurvePoint:
    level: int
    bpp: float
    value: float
    n: int

    def __post_init__(self):
        if self.bpp <= 0:
            raise EvalError(f"curve point bpp must be positive, got {self.bpp}")


def roundtrip(codec: CodecParams, img: np.ndarray, iters: int):
    """(decoded, payload_bits) of one image at one level."""
    return _decodes(codec, img, (iters,))[0]


def _decodes(codec: CodecParams, img: np.ndarray, levels) -> list:
    """[(decoded, payload_bits)] for each level, in the order given, off
    one encode to max(levels)."""
    trace = reconstruct_progressive(img, max(levels), codec)
    _, h, w = np.shape(img)
    per = BitstreamHeader(width=w, height=h, iterations=max(levels),
                          c_b=codec.layout.bottleneck).bits_per_iteration
    return [(trace.decoded(t), t * per) for t in levels]


def _per_level(codecs, images, levels, *measures) -> list:
    """Per codec, then per level in the order given: (payload bits summed
    over the images, one list per measure holding measure(image, decoded)
    in image order). The (codec, image) traces run as one parallel map,
    and each reduces its decodes to its measures before it returns."""
    def trace(job):
        codec, img = job
        return [(b, [measure(img, decoded) for measure in measures])
                for decoded, b in _decodes(codec, img, levels)]

    traces = parallel.map(trace, [(codec, img) for codec in codecs for img in images])
    out = []
    for k in range(len(codecs)):
        bits = [0] * len(levels)
        values = [tuple([] for _ in measures) for _ in levels]
        for per_level in traces[k * len(images):(k + 1) * len(images)]:
            for j, (b, measured) in enumerate(per_level):
                bits[j] += b
                for out_list, v in zip(values[j], measured):
                    out_list.append(v)
        out.append(list(zip(bits, values)))
    return out


def _msssim(img: np.ndarray, decoded: np.ndarray) -> float:
    return losses.ms_ssim(img, decoded).item()


def _label(img: np.ndarray, classifier) -> int:
    return lossnet_mod.classify(imageops.center_crop(img, classifier.layout.input_resolution),
                                classifier)[0]


def _labeler(classifier):
    """A measure: the classifier's label of the decoded image."""
    return lambda _img, decoded: _label(decoded, classifier)


def _agree(labels, reference) -> int:
    return sum(int(a == b) for a, b in zip(labels, reference))


def _comp_crop(img: np.ndarray, s_comp: int) -> np.ndarray:
    return imageops.center_crop(imageops.resize_smallest_side(img, s_comp), s_comp)


def _references(val_set, classifier, cfg: EvalConfig, what: str):
    """(crops, true labels, clean labels) of a labelled set: the s_comp
    crops every classifier protocol encodes, and the labels its decodes are
    compared against. Raises before any encode on an empty set or an s_comp
    below the classifier's input side."""
    n = len(val_set)
    if n == 0:
        raise EvalError(f"{what}: empty validation set")
    side = classifier.layout.input_resolution
    if cfg.s_comp < side:
        raise EvalError(f"{what}: s_comp {cfg.s_comp} is below the classifier's input side {side}")
    def reference(i):
        crop = _comp_crop(val_set.image(i), cfg.s_comp)
        return crop, _label(crop, classifier)

    crops, clean = zip(*parallel.map(reference, range(n)))
    return crops, [val_set.label(i) for i in range(n)], clean


def eval_accuracy_curve(codec, classifier, val_set, levels, cfg: EvalConfig):
    """Per quality level: resize to S_comp, center crop, round trip, crop to
    the classifier's input side, classify. Returns {"accuracy": [CurvePoint],
    "preservation": [CurvePoint]}, bpp averaged over the set at each level."""
    _check_levels(levels, "eval_accuracy_curve")
    crops, truths, clean = _references(val_set, classifier, cfg, "eval_accuracy_curve")
    n = len(crops)
    acc_points, pres_points = [], []
    [per_level] = _per_level([codec], crops, levels, _labeler(classifier))
    for level, (bits, (labels,)) in zip(levels, per_level):
        bpp = bits / (n * cfg.s_comp * cfg.s_comp)
        acc_points.append(CurvePoint(level=level, bpp=bpp, value=_agree(labels, truths) / n, n=n))
        pres_points.append(CurvePoint(level=level, bpp=bpp, value=_agree(labels, clean) / n, n=n))
    return {"accuracy": acc_points, "preservation": pres_points}


def eval_quality_curve(codec, val_set, levels, cfg: EvalConfig):
    """(bpp, mean MS-SSIM) per quality level between decoded and original."""
    _check_levels(levels, "eval_quality_curve")
    n = len(val_set)
    if n == 0:
        raise EvalError("eval_quality_curve: empty validation set")
    imgs = [val_set.image(i) for i in range(n)]
    if len({im.shape for im in imgs}) > 1:  # one size is kept native; mixed sizes are cropped
        imgs = [_comp_crop(im, cfg.s_comp) for im in imgs]
    px_total = sum(img.shape[1] * img.shape[2] for img in imgs)
    [per_level] = _per_level([codec], imgs, levels, _msssim)
    return [CurvePoint(level=level, bpp=bits / px_total, value=float(np.mean(scores)), n=n)
            for level, (bits, (scores,)) in zip(levels, per_level)]


def tradeoff_sweep(checkpoints: dict, classifier, val_set, levels, cfg: EvalConfig):
    """Cross product over alpha checkpoints and iteration counts.

    Returns (rows, skipped): rows are (alpha, iters, bpp, msssim,
    preservation, accuracy) tuples; alphas with a missing checkpoint are
    reported in skipped rather than failing the sweep.
    """
    _check_levels(levels, "tradeoff_sweep")
    present = {a: p for a, p in checkpoints.items() if p is not None}
    if len(present) < 2:
        raise EvalError("tradeoff_sweep needs at least 2 alpha checkpoints")
    skipped = sorted(a for a in checkpoints if checkpoints[a] is None)
    crops, truths, clean = _references(val_set, classifier, cfg, "tradeoff_sweep")
    n = len(crops)
    rows = []
    alphas = sorted(present)
    for alpha, per_level in zip(alphas, _per_level([present[a] for a in alphas], crops, levels,
                                                   _msssim, _labeler(classifier))):
        for level, (bits, (scores, labels)) in zip(levels, per_level):
            rows.append((alpha, level, bits / (n * cfg.s_comp * cfg.s_comp),
                         float(np.mean(scores)), _agree(labels, clean) / n,
                         _agree(labels, truths) / n))
    return rows, skipped


def ablate_layers(layer_sets, train_set, val_set, f_lossnet, classifier, train_cfg, levels,
                  cfg: EvalConfig, layout=None):
    """Train one alpha=1 codec per tap set (from scratch) and measure label
    preservation across iteration counts. Returns (rows, train_logs)."""
    _check_levels(levels, "ablate_layers")
    rows, train_logs = [], {}
    crops, _, clean = _references(val_set, classifier, cfg, "ablate_layers")
    n = len(crops)
    for layer_ids in layer_sets:
        tag = "+".join(layer_ids)
        loss_cfg = losses.LossConfig(alpha=1.0, layer_ids=tuple(layer_ids))
        params, log, _ = trainer.train_codec(train_set, val_set, loss_cfg, train_cfg,
                                             lossnet=f_lossnet, layout=layout)
        train_logs[tag] = log
        [per_level] = _per_level([params], crops, levels, _labeler(classifier))
        for level, (_bits, (labels,)) in zip(levels, per_level):
            rows.append((tag, level, _agree(labels, clean) / n))
    return rows, train_logs
