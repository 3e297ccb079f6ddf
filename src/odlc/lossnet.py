"""VGG-style desk-scale classifier.

Five blocks of 3x3 conv + ReLU with 2x average pooling between blocks,
then global average pooling and a linear head. Feature taps are named
"i.j" (j-th convolution of block i; one conv per block here, so "1.1"
through "5.1") and are taken after the activation.

The same network serves two roles: frozen loss network for the feature
distortion, and evaluation classifier. The two are always trained from
different seeds. This module is the network alone; it is trained by
``trainer.train_classifier``, in the same loop as the codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .autodiff import Tensor


class LossnetError(ValueError):
    pass


@dataclass(frozen=True)
class ClassifierLayout:
    widths: tuple = (16, 32, 64, 96, 128)
    kernel: int = 3
    classes: int = 10
    input_resolution: int = 56

    def __post_init__(self):
        if len(self.widths) == 0:
            raise LossnetError("layout needs at least one block width")
        ckpt.check_layout(self.widths, self.kernel, LossnetError)
        if type(self.classes) is not int or self.classes < 2:
            raise LossnetError(f"classes must be an int >= 2, got {self.classes!r}")

    def shapes(self) -> list:
        """The ordered (name, shape) table of the classifier's tensors,
        which is also their init draw order and checkpoint order."""
        chans = (3,) + tuple(self.widths)
        rows = []
        for i in range(len(self.widths)):
            rows += ad.conv_shapes(f"block{i+1}.conv1", chans[i], chans[i + 1], self.kernel)
        return rows + [("head.weight", (self.classes, self.widths[-1])),
                       ("head.bias", (self.classes,))]


class ClassifierParams(ckpt.ParamSet):
    """The classifier's tensors: drawn from ``seed``, copied from ``arrays``,
    or uninitialised for ``load`` to fill (``seed=None``)."""

    kind = "classifier"
    layout_cls = ClassifierLayout

    def __init__(self, layout: ClassifierLayout, seed: int | None = 0,
                 norm_mean=None, norm_std=None, arrays=None):
        self._init_params(layout, seed, norm_mean, norm_std, arrays)
        self.blocks = [self._conv(f"block{i+1}.conv1") for i in range(len(layout.widths))]
        self.head_w, self.head_b = self._params["head.weight"], self._params["head.bias"]

    def layer_names(self) -> tuple:
        return tuple(f"{i+1}.1" for i in range(len(self.blocks)))

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

    @classmethod
    def load(cls, path) -> "ClassifierParams":
        params = super().load(path)
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
