"""odlc: observer-dependent lossy image compression.

A progressive recurrent image codec whose training objective interpolates
between a human-perception distortion (1 - MS-SSIM) and a
classifier-feature distortion, plus the evaluation harness for the
rate / quality / label-preservation trade-off.
"""

__version__ = "0.1.0"

from . import autodiff, bitstream, codec, datasets, evaluation, gradcheck  # noqa: F401
from . import imageops, losses, lossnet, ppm, trainer  # noqa: F401
from .autodiff import Parameter, Tape, Tensor, backward  # noqa: F401
from .codec import (  # noqa: F401
    CodecLayout, CodecParams, binarize, compress, decompress, reconstruct_progressive,
)
from .losses import (  # noqa: F401
    LossConfig, feature_distortion, human_distortion, ms_ssim, observer_distortion,
)
from .lossnet import ClassifierLayout, ClassifierParams, classify  # noqa: F401
from .trainer import Adam, TrainConfig, train_codec  # noqa: F401
