"""VGG-style desk-scale classifier.

Five blocks of 3x3 conv + ReLU with 2x average pooling between blocks,
then global average pooling and a linear head. Feature taps are named
"i.j" (j-th convolution of block i; one conv per block here, so "1.1"
through "5.1") and are taken after the activation.

The same network serves two roles: frozen loss network for the feature
distortion, and evaluation classifier. The two are always trained from
different seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import imageops
from .autodiff import Parameter, Tensor


class LossnetError(ValueError):
    pass


@dataclass(frozen=True)
class ClassifierLayout:
    widths: tuple = (16, 32, 64, 96, 128)
    kernel: int = 3
    classes: int = 10
    input_resolution: int = 56


class ClassifierParams:
    def __init__(self, layout: ClassifierLayout, seed: int = 0,
                 norm_mean=None, norm_std=None, dtype=np.float32):
        self.layout = layout
        self.dtype = np.dtype(dtype)
        self.norm_mean = np.asarray(norm_mean if norm_mean is not None else [0.5, 0.5, 0.5],
                                    dtype=np.float32)
        self.norm_std = np.asarray(norm_std if norm_std is not None else [0.5, 0.5, 0.5],
                                   dtype=np.float32)
        rng = np.random.default_rng(seed)
        k = layout.kernel
        chans = (3,) + tuple(layout.widths)
        self.blocks = []
        for i in range(len(layout.widths)):
            kern = Parameter(f"block{i+1}.conv1.kernel",
                             ad.xavier_uniform(rng, (chans[i + 1], chans[i], k, k)), dtype=dtype)
            bias = Parameter(f"block{i+1}.conv1.bias", np.zeros(chans[i + 1]), dtype=dtype)
            self.blocks.append((kern, bias))
        self.head_w = Parameter("head.weight",
                                ad.xavier_uniform(rng, (layout.classes, layout.widths[-1])),
                                dtype=dtype)
        self.head_b = Parameter("head.bias", np.zeros(layout.classes), dtype=dtype)

    def layer_names(self) -> tuple:
        return tuple(f"{i+1}.1" for i in range(len(self.blocks)))

    def parameters(self) -> list:
        ps = []
        for kern, bias in self.blocks:
            ps += [kern, bias]
        return ps + [self.head_w, self.head_b]

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    def freeze(self):
        for p in self.parameters():
            p.freeze()

    # -- forward ----------------------------------------------------------

    def _normalize(self, x: Tensor) -> Tensor:
        inv = 1.0 / self.norm_std
        return ad.channel_affine(x, inv, -self.norm_mean * inv)

    def _block_outputs(self, x):
        """Yields each block's post-activation output, in block order."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        t = self._normalize(x)
        for i, (kern, bias) in enumerate(self.blocks):
            t = ad.relu(ad.conv2d(t, kern.tensor, bias.tensor))
            yield t
            if i != len(self.blocks) - 1:
                t = ad.avg_pool2(t)

    def features(self, x, layer_ids) -> list:
        """Post-activation feature tensors for the requested "i.j" taps,
        in request order. x is a [0,1] CHW image (Tensor or array). Blocks
        past the deepest requested tap are not run."""
        names = self.layer_names()
        for lid in layer_ids:
            if lid not in names:
                raise LossnetError(f"unknown layer id {lid!r}; declared layers: {list(names)}")
        depth = max((names.index(lid) + 1 for lid in layer_ids), default=0)
        taps = dict(zip(names[:depth], self._block_outputs(x)))
        return [taps[lid] for lid in layer_ids]

    def logits(self, x) -> Tensor:
        """Head logits as a tensor (differentiable path for training)."""
        *_, t = self._block_outputs(x)
        pooled = ad.global_avg_pool(t)
        return ad.dense(pooled, self.head_w.tensor, self.head_b.tensor)

    # -- persistence ------------------------------------------------------

    def save(self, path):
        ckpt.save_params(path, "classifier", self)

    @staticmethod
    def load(path) -> "ClassifierParams":
        params = ckpt.load_params(path, "classifier", ClassifierParams, ClassifierLayout)
        params.freeze()
        return params


def classify(x, params: ClassifierParams):
    """(label, logits) for a [0,1] image at the declared resolution.

    Ties break toward the lowest class index.
    """
    x = np.asarray(x, dtype=params.dtype)
    res = params.layout.input_resolution
    if x.shape != (3, res, res):
        raise LossnetError(f"classify: expected a 3x{res}x{res} image, got {x.shape}")
    logits = params.logits(x).data
    return int(np.argmax(logits)), logits


def train_classifier(dataset, cfg, seed: int, layout: ClassifierLayout | None = None,
                     log_every: int = 50):
    """Cross-entropy training on (image, label) pairs; returns the frozen
    parameter snapshot and the training log rows (step, loss, lr, wall_time).
    """
    from . import trainer  # deferred: trainer builds on losses/lossnet types

    n = len(dataset)
    if n == 0:
        raise LossnetError("train_classifier: empty dataset")
    layout = layout or ClassifierLayout(classes=max(dataset.class_count, 2),
                                        input_resolution=cfg.crop_size)
    if layout.classes < 2:
        raise LossnetError("train_classifier: a classifier needs at least 2 classes")
    for i in range(min(n, 512)):
        lbl = dataset.label(i)
        if not 0 <= lbl < layout.classes:
            raise LossnetError(f"train_classifier: degenerate label {lbl} outside "
                               f"0..{layout.classes - 1}")
    stat_imgs = (dataset.image(i) for i in range(min(n, 256)))
    mean, std = imageops.channel_stats(stat_imgs)
    params = ClassifierParams(layout, seed=seed, norm_mean=mean, norm_std=std)

    adam = trainer.Adam(params.parameters(), lr=cfg.learning_rate,
                        beta1=cfg.adam.beta1, beta2=cfg.adam.beta2, eps=cfg.adam.eps)
    log = []
    step = 0
    t0 = time.time()
    order_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x04DE)))
    batch = cfg.batch_size
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n)
        for start in range(0, n - batch + 1, batch):
            idxs = perm[start : start + batch]
            params.zero_grads()
            total = 0.0
            for j, i in enumerate(idxs):
                i = int(i)
                aug_rng = np.random.default_rng(np.random.SeedSequence((seed, 1, epoch, i)))
                img = trainer.augment_geometry(dataset.image(i), "train", aug_rng, cfg)
                with ad.Tape() as tape:
                    loss = ad.cross_entropy_logits(params.logits(img), dataset.label(i))
                ad.backward(loss, tape)
                total += loss.item()
            for p in params.parameters():
                p.grad /= batch
            adam.step()
            step += 1
            if step % log_every == 0 or step == 1:
                log.append((step, total / batch, cfg.learning_rate, time.time() - t0))
    params.freeze()
    return params, log


def evaluate_accuracy(params: ClassifierParams, dataset, cfg) -> float:
    """Top-1 accuracy with validation preprocessing (center crop)."""
    from . import trainer

    correct = 0
    n = len(dataset)
    for i in range(n):
        img = trainer.augment_geometry(dataset.image(i), "val", None, cfg)
        label, _ = classify(img, params)
        correct += int(label == dataset.label(i))
    return correct / n
