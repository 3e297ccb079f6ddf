"""Measurement protocols: rate-quality and rate-accuracy curves, the
alpha trade-off sweep, and the loss-layer ablation.

The quality parameter of this codec is the iteration count. Classifiers
are never retrained on decoded images anywhere in here.

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

import numpy as np

from . import imageops, losses, lossnet as lossnet_mod, parallel
from .bitstream import BitstreamHeader
from .codec import CodecParams, reconstruct_progressive
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

    def __post_init__(self):
        if self.s_comp < self.s_inf:
            raise EvalError(f"s_comp {self.s_comp} must be >= s_inf {self.s_inf}")
        _check_levels(self.grid, "quality grid")


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


def _label(img: np.ndarray, classifier, s_inf: int) -> int:
    return lossnet_mod.classify(imageops.center_crop(img, s_inf), classifier)[0]


def _labeler(classifier, s_inf: int):
    """A measure: the classifier's label of the decoded image."""
    return lambda _img, decoded: _label(decoded, classifier, s_inf)


def _agree(labels, reference) -> int:
    return sum(int(a == b) for a, b in zip(labels, reference))


def _comp_crop(img: np.ndarray, s_comp: int) -> np.ndarray:
    return imageops.center_crop(imageops.resize_smallest_side(img, s_comp), s_comp)


def _references(val_set, classifier, cfg: EvalConfig, what: str):
    """(crops, true labels, clean labels) of a labelled set: the s_comp
    crops every classifier protocol encodes, and the labels its decodes are
    compared against. Raises before any encode on an empty set or a
    classifier that does not read s_inf-pixel inputs."""
    n = len(val_set)
    if n == 0:
        raise EvalError(f"{what}: empty validation set")
    if classifier.layout.input_resolution != cfg.s_inf:
        raise EvalError(f"classifier expects {classifier.layout.input_resolution}px inputs, "
                        f"config says s_inf={cfg.s_inf}")
    def reference(i):
        crop = _comp_crop(val_set.image(i), cfg.s_comp)
        return crop, _label(crop, classifier, cfg.s_inf)

    crops, clean = zip(*parallel.map(reference, range(n)))
    return crops, [val_set.label(i) for i in range(n)], clean


def eval_accuracy_curve(codec, classifier, val_set, cfg: EvalConfig):
    """Per quality level: resize to S_comp, center crop, round trip, center
    crop S_inf, classify. Returns {"accuracy": [CurvePoint], "preservation":
    [CurvePoint]} with bpp averaged over the set at each level."""
    crops, truths, clean = _references(val_set, classifier, cfg, "eval_accuracy_curve")
    n = len(crops)
    acc_points, pres_points = [], []
    [levels] = _per_level([codec], crops, cfg.grid, _labeler(classifier, cfg.s_inf))
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
    [levels] = _per_level([codec], imgs, cfg.grid, _msssim)
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
    crops, truths, clean = _references(val_set, classifier, cfg, "tradeoff_sweep")
    n = len(crops)
    label = _labeler(classifier, cfg.s_inf)
    rows = []
    alphas = sorted(present)
    for alpha, levels in zip(alphas, _per_level([present[a] for a in alphas], crops, t_list,
                                                _msssim, label)):
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
    crops, _, clean = _references(val_set, classifier, cfg, "ablate_layers")
    n = len(crops)
    label = _labeler(classifier, cfg.s_inf)
    for layer_ids in layer_sets:
        tag = "+".join(layer_ids)
        loss_cfg = replace(loss_cfg_base, alpha=1.0, layer_ids=tuple(layer_ids))
        params, log, _ = trainer.train_codec(train_set, val_set, loss_cfg, train_cfg,
                                             lossnet=f_lossnet, layout=layout)
        train_logs[tag] = log
        [levels] = _per_level([params], crops, t_list, label)
        for level, (_bits, (labels,)) in zip(t_list, levels):
            rows.append((tag, level, _agree(labels, clean) / n))
    return rows, train_logs
