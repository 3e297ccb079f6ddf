"""The benchmark's tracer (bench/tracing.py) patches odlc names from outside
the package. A refactor that deletes or moves one of them, or changes the
tape the tracer reads, fails here, in the tier-1 suite, and not only when
the benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

from odlc import autodiff, codec, evaluation, losses, trainer

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_tracer_installs_and_restores_its_hooks():
    def hooks():
        return (codec.compress, evaluation.compress, evaluation.decompress, evaluation.roundtrip,
                codec.progressive_from_normalized, trainer.progressive_from_normalized,
                codec.CodecParams.__init__)
    before = hooks()
    with tracing.Tracer().installed():
        assert all(a is not b for a, b in zip(hooks(), before))
    assert hooks() == before


def test_tracer_counts_the_tape_of_one_training_step():
    layout = codec.CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4)
    params = codec.CodecParams(layout, seed=1)
    x = np.random.default_rng(0).random((3, 32, 32), dtype=np.float32)
    tracer = tracing.Tracer()
    with tracer.installed():
        with autodiff.Tape() as tape:
            loss, _ = trainer.step_loss(x, 2, params, losses.LossConfig(alpha=0.0),
                                        rng=np.random.default_rng(1))
        records = len(tape)
        autodiff.backward(loss, tape)
    assert records > 0
    assert tracer.counts["tape_records"] == records
    assert tracer.counts["backward_calls"] == 1
