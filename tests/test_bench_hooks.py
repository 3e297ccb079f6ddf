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


def test_tracer_times_every_gru_layer_forward_and_backward():
    # the codec.*.gru* metrics need conv_gru_cell as the patched entry point
    # and each layer's wxu tensor as its naming key
    layout = codec.CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4)
    x = np.random.default_rng(0).random((3, 32, 32), dtype=np.float32)
    tracer = tracing.Tracer()
    with tracer.installed():
        params = codec.CodecParams(layout, seed=1)
        with autodiff.Tape() as tape:
            loss, _ = trainer.step_loss(x, 2, params, losses.LossConfig(alpha=0.0),
                                        rng=np.random.default_rng(1))
        autodiff.backward(loss, tape)
    times = tracing.summarize(tracer.spans)
    layers = [f"codec.enc.gru{i}" for i in (1, 2, 3)] + [f"codec.dec.gru{i}" for i in (1, 2, 3, 4)]
    for name in layers:
        assert times["calls"][name] == 2, name  # one span per unrolled iteration
        assert times["fwd"][name] > 0 and times["bwd"][name] > 0, name


def test_tracer_times_ms_ssim_forward_and_backward():
    # losses.ms_ssim.{fwd,bwd}_s need human_distortion to call ms_ssim through
    # the module attribute, and the fused op to record through
    # autodiff.record_op, whose VJPs the tracer times
    layout = codec.CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4)
    params = codec.CodecParams(layout, seed=1)
    x = np.random.default_rng(0).random((3, 32, 32), dtype=np.float32)
    tracer = tracing.Tracer()
    with tracer.installed():
        with autodiff.Tape() as tape:
            loss, _ = trainer.step_loss(x, 2, params, losses.LossConfig(alpha=0.0),
                                        rng=np.random.default_rng(1))
        autodiff.backward(loss, tape)
    times = tracing.summarize(tracer.spans)
    assert times["calls"]["losses.ms_ssim"] == 2  # one per unrolled iteration
    assert times["fwd"]["losses.ms_ssim"] > 0 and times["bwd"]["losses.ms_ssim"] > 0
