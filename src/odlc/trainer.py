"""Training: data pipeline, Adam, and the one minibatch loop
(``_minibatch_adam``) that trains both the codec and the classifier.
Both fit their normalization and augment their crops the same way.

The codec's per-image loss averages the observer distortion over every
unrolled reconstruction, L = (1/T) * sum_t d(x, x_hat_t), with stochastic
binarization during training. There is no entropy term, so TrainConfig
has no rate weight: the bit rate is set by the iteration count alone.
The classifier's is the cross-entropy of its logits, unclipped.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import imageops, losses, parallel
from .autodiff import Parameter, Tensor
from .codec import (DOWNSAMPLE, MAX_SIDE, CodecLayout, CodecParams, normalized_input,
                    progressive_from_normalized, reconstruct_progressive)
from .lossnet import ClassifierLayout, ClassifierParams, classify

TRAIN_LOG_HEADER = ("step", "loss", "d_H", "d_C", "lr", "wall_time")
VAL_LOG_HEADER = ("step", "val_loss", "val_msssim")
VAL_PROBE_IMAGES = 16  # the val images each validation probe decodes
GRAD_CLIP = 5.0  # the global gradient norm each codec step is clipped to


class TrainError(ValueError):
    pass


class NonFiniteGradientError(TrainError):
    """An optimizer step was rejected because a gradient went non-finite."""


class TrainingDiverged(TrainError):
    """A loss, a training image or a parameter went non-finite; the last
    good checkpoint was kept."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 4e-4
    batch_size: int = 4
    epochs: int = 3
    unroll_steps: int = 8
    seed: int = 0
    resize_side: int = 256
    crop_size: int = 224
    val_interval: int = 200
    normalization: tuple | None = None  # ((mean r,g,b), (std r,g,b)); None = fit to data

    def __post_init__(self):
        if self.unroll_steps < 1:
            raise TrainError(f"unroll_steps must be >= 1, got {self.unroll_steps}")
        if not 1 <= self.resize_side <= MAX_SIDE:
            raise TrainError(f"resize_side must be in 1..{MAX_SIDE}, got {self.resize_side}")
        if self.crop_size > self.resize_side:
            raise TrainError(f"crop {self.crop_size} exceeds resize side {self.resize_side}")
        if self.batch_size < 1 or self.epochs < 1:
            raise TrainError("batch_size and epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.crop_size < 1:
            raise TrainError(f"crop_size must be >= 1, got {self.crop_size}")
        if self.val_interval < 0:
            raise TrainError(f"val_interval must be >= 0, got {self.val_interval}")

    @staticmethod
    def desk(**overrides) -> "TrainConfig":
        """64px-image defaults that keep the paper-scale optimizer constants."""
        base = dict(resize_side=64, crop_size=56, unroll_steps=4)
        base.update(overrides)
        return TrainConfig(**base)


# ---------------------------------------------------------------------------
# data pipeline


def augment_geometry(x: np.ndarray, split: str, rng, cfg: TrainConfig) -> np.ndarray:
    """Resize + crop (+ flip on the train split), without normalization."""
    img = imageops.resize_smallest_side(np.asarray(x, dtype=np.float32), cfg.resize_side)
    _, h, w = img.shape
    if h < cfg.crop_size or w < cfg.crop_size:
        raise TrainError(f"image {h}x{w} smaller than crop {cfg.crop_size} after resize")
    if split == "train":
        if rng is None:
            raise TrainError("train-split augmentation needs a seeded generator")
        img = imageops.random_crop(img, cfg.crop_size, rng)
        if rng.random() < 0.5:
            img = imageops.hflip(img)
    elif split == "val":
        img = imageops.center_crop(img, cfg.crop_size)
    else:
        raise TrainError(f"unknown split {split!r}")
    return np.ascontiguousarray(img)


def fit_normalization(dataset, cfg: TrainConfig, sample: int = 256) -> tuple:
    """Per-channel stats from a deterministic prefix of the training set."""
    n = min(len(dataset), sample)
    imgs = (imageops.resize_smallest_side(dataset.image(i), cfg.resize_side) for i in range(n))
    return imageops.channel_stats(imgs)


# ---------------------------------------------------------------------------
# optimizer and the training loop


class Adam:
    """Bias-corrected Adam over Parameter objects (reads .grad in place),
    at Kingma & Ba's constants β1 = 0.9, β2 = 0.999, ε = 1e-8. Nothing is
    written past a non-finite gradient, update or updated value: each
    raises, naming it."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        for p in self.params:
            if not np.isfinite(p.grad).all():
                raise NonFiniteGradientError(f"non-finite gradient in {p.name}; step rejected")
        self.t += 1
        lr = self.lr / (1.0 - self.beta1 ** self.t)  # bias-corrected for m
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            with np.errstate(over="ignore", invalid="ignore"):  # named below instead
                update = (lr * m / (np.sqrt(v / bc2) + self.eps)).astype(p.value.dtype, copy=False)
                np.subtract(p.value, update, out=update)
            if not np.isfinite(update).all():
                raise TrainingDiverged(f"parameter {p.name} became non-finite by step {self.t}")
            p.value[...] = update


def clip_global_norm(params: list, max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        total += float(np.square(p.grad, dtype=np.float64).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        s = max_norm / norm
        for p in params:
            p.grad *= s
    return norm


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _minibatch_adam(train_set, params, cfg: TrainConfig, stream: int, image_loss,
                    clip: float, on_step):
    """Minibatch Adam over per-image losses, in full batches of a
    permutation seeded from (cfg.seed, stream). ``image_loss(epoch, i)``
    runs on its own tape and returns (loss, info); the mean gradient is
    clipped to a global norm of ``clip`` (0 = off). After every step it
    calls ``on_step(step, epoch, mean loss, infos, wall time)``, unless a
    loss or, after the update, a parameter went non-finite: that raises
    TrainingDiverged naming the step.
    """
    n = len(train_set)
    if n < cfg.batch_size:
        raise TrainError(f"training set of {n} images smaller than one batch of {cfg.batch_size}")
    opt = Adam(params.parameters(), cfg.learning_rate)
    order_rng = _rng(cfg.seed, stream)
    step = 0
    t0 = time.time()
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n)
        for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
            params.zero_grads()
            total, infos = 0.0, []
            for i in perm[start : start + cfg.batch_size]:
                with ad.Tape() as tape:
                    loss, info = image_loss(epoch, int(i))
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(f"loss became {value} at step {step + 1}")
                ad.backward(loss, tape)
                total += value
                infos.append(info)
            for p in params.parameters():
                p.grad /= cfg.batch_size
            clip_global_norm(params.parameters(), clip)
            opt.step()
            step += 1
            for p in params.parameters():
                if not np.isfinite(p.value).all():
                    raise TrainingDiverged(f"parameter {p.name} became non-finite by step {step}")
            on_step(step, epoch, total / cfg.batch_size, infos, time.time() - t0)


# ---------------------------------------------------------------------------
# codec training


def step_loss(x01_padded: np.ndarray, iterations: int, params: CodecParams,
              loss_cfg: losses.LossConfig, lossnet=None, rng=None):
    """Forward the progressive loop and build the averaged per-step loss,
    binarizing stochastically from ``rng`` when given (training) and
    deterministically without it. The loss scores every pixel of
    ``x01_padded``: `train_codec` hands it the crop padded to multiples of
    DOWNSAMPLE (16), so the padding, which no decode shows, is scored too.

    Returns (loss tensor, info) where info carries the d_H / d_C component
    means over the iterations (nan when a component is not part of the
    objective).
    """
    x01_t = Tensor(x01_padded.astype(params.dtype))
    # the whole loop goes on the tape before any loss term: tape order sets
    # the order in which backward sums the gradients
    recons = [xhat for xhat, _ in progressive_from_normalized(
        normalized_input(x01_padded, params), iterations, params, rng=rng)]
    x_taps = losses.reference_taps(x01_t, loss_cfg, lossnet)
    terms = []
    dh_vals, dc_vals = [], []
    for recon in recons:
        y01 = ad.channel_affine(recon, params.norm_std, params.norm_mean)  # denorm, unclamped
        term, d_h, d_c = losses.observer_distortion(x01_t, y01, loss_cfg, lossnet, x_taps)
        if d_h is not None:
            dh_vals.append(d_h.item())
        if d_c is not None:
            dc_vals.append(d_c.item())
        terms.append(term)
    loss = ad.scale(reduce(ad.add, terms), 1.0 / iterations)
    return loss, {"d_h": float(np.mean(dh_vals)) if dh_vals else float("nan"),
                  "d_c": float(np.mean(dc_vals)) if dc_vals else float("nan")}


def _val_probe(val_set, params, cfg, loss_cfg, lossnet=None):
    """(val_loss, val_msssim) of deterministic reconstructions on the first
    VAL_PROBE_IMAGES val images: the training objective averaged over the
    unrolled steps, and the MS-SSIM of the last step, each a mean over them
    in image order. The images are probed through `parallel.map`."""
    n = min(len(val_set), VAL_PROBE_IMAGES)
    if n == 0:
        return float("nan"), float("nan")

    def probe(i):
        img = augment_geometry(val_set.image(i), "val", None, cfg)
        decodes = reconstruct_progressive(img, cfg.unroll_steps, params).decodes
        x_taps = losses.reference_taps(img, loss_cfg, lossnet)
        objective = np.mean([losses.observer_distortion(img, y, loss_cfg, lossnet, x_taps)[0].item()
                             for y in decodes])
        return objective, losses.ms_ssim(img, decodes[-1]).item()

    objective, scores = zip(*parallel.map(probe, range(n)))
    return float(np.mean(objective)), float(np.mean(scores))


def train_codec(train_set, val_set, loss_cfg: losses.LossConfig, cfg: TrainConfig,
                lossnet=None, layout: CodecLayout | None = None, out_dir=None,
                progress=None):
    """Train the codec under the interpolated objective.

    Returns (CodecParams, train log rows, val log rows). Emits checkpoints
    and CSV logs under out_dir when given. Raises TrainingDiverged, naming
    the last good checkpoint written, if the loss goes non-finite, or a
    training image does, which the codec's input check would refuse, or a
    parameter does in any optimizer step.
    """
    if loss_cfg.alpha > 0.0 and lossnet is None:
        raise TrainError("alpha > 0 needs a frozen loss network")
    if lossnet is not None:
        lossnet.freeze()
    layout = layout or CodecLayout()
    if cfg.unroll_steps > layout.t_max:
        raise TrainError(f"unroll_steps {cfg.unroll_steps} exceeds layout t_max {layout.t_max}")

    mean, std = cfg.normalization or fit_normalization(train_set, cfg)
    params = CodecParams(layout, seed=cfg.seed, norm_mean=mean, norm_std=std)
    steps_per_epoch = len(train_set) // cfg.batch_size
    log, val_log = [], []
    last_good = None

    def image_loss(epoch, i):
        crop = augment_geometry(train_set.image(i), "train", _rng(cfg.seed, 2, epoch, i), cfg)
        if not np.isfinite(crop).all():
            raise TrainingDiverged(f"training image {i} has non-finite pixels at step "
                                   f"{len(log) + 1}")
        loss, info = step_loss(imageops.pad_to_multiple(crop, DOWNSAMPLE), cfg.unroll_steps,
                               params, loss_cfg, lossnet=lossnet, rng=_rng(cfg.seed, 3, epoch, i))
        return loss, (info["d_h"], info["d_c"])

    def save(tag):
        nonlocal last_good
        os.makedirs(out_dir, exist_ok=True)
        last_good = os.path.join(out_dir, f"codec_{tag}.ckpt")
        params.save(last_good)

    def on_step(step, epoch, loss, infos, wall_time):
        d_h, d_c = (float(np.mean(v)) for v in zip(*infos))
        log.append((step, loss, d_h, d_c, cfg.learning_rate, wall_time))
        if progress is not None:
            progress(step, log[-1])
        if cfg.val_interval and step % cfg.val_interval == 0:
            val_log.append((step, *_val_probe(val_set, params, cfg, loss_cfg, lossnet)))
        if step % steps_per_epoch == 0 and out_dir is not None:
            save(f"epoch{epoch + 1}")

    try:
        _minibatch_adam(train_set, params, cfg, 0xB0, image_loss, GRAD_CLIP, on_step)
    except TrainingDiverged as e:
        raise TrainingDiverged(f"{e}; last good checkpoint: {last_good}") if last_good else e
    if out_dir is not None:
        from .configio import write_csv
        save("final")
        write_csv(os.path.join(out_dir, "train_log.csv"), TRAIN_LOG_HEADER, log)
        write_csv(os.path.join(out_dir, "val_log.csv"), VAL_LOG_HEADER, val_log)
    return params, log, val_log


# ---------------------------------------------------------------------------
# classifier training


def train_classifier(dataset, cfg: TrainConfig, layout: ClassifierLayout | None = None):
    """Cross-entropy training on (image, label) pairs with the same loop,
    geometry and normalization rule as the codec, without clipping.

    Returns the frozen parameter snapshot and one log row per step:
    (step, loss, lr, wall_time).
    """
    layout = layout or ClassifierLayout(classes=max(dataset.class_count, 2),
                                        input_resolution=cfg.crop_size)
    for i in range(min(len(dataset), 512)):
        lbl = dataset.label(i)
        if not 0 <= lbl < layout.classes:
            raise TrainError(f"train_classifier: degenerate label {lbl} outside "
                             f"0..{layout.classes - 1}")
    mean, std = cfg.normalization or fit_normalization(dataset, cfg)
    params = ClassifierParams(layout, seed=cfg.seed, norm_mean=mean, norm_std=std)
    log = []

    def image_loss(epoch, i):
        img = augment_geometry(dataset.image(i), "train", _rng(cfg.seed, 1, epoch, i), cfg)
        return ad.cross_entropy_logits(params.logits(img), dataset.label(i)), None

    def on_step(step, epoch, loss, infos, wall_time):
        log.append((step, loss, cfg.learning_rate, wall_time))

    _minibatch_adam(dataset, params, cfg, 0x04DE, image_loss, 0.0, on_step)
    params.freeze()
    return params, log


def evaluate_accuracy(params: ClassifierParams, dataset, cfg: TrainConfig) -> float:
    """Top-1 accuracy on the val-split geometry (resize, center crop); the
    images are classified through `parallel.map`."""
    def correct(i):
        label, _ = classify(augment_geometry(dataset.image(i), "val", None, cfg), params)
        return int(label == dataset.label(i))

    return sum(parallel.map(correct, range(len(dataset)))) / len(dataset)
