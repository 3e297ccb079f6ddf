"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of BENCHMARK.json
(``python3 bench/run.py --write-spec`` regenerates it) and of the metric
names the workloads emit. It imports nothing from odlc or numpy.

Every workload reports every end-to-end metric, so the end-to-end set is
the one shape of cost all workloads share: wall time per unit of work,
set-up time and peak memory. The unit of work is one codec iteration of a
round trip, one optimizer step, or one evaluation point (checkpoint,
level, image); see ``WORKLOADS``.
"""

from __future__ import annotations

import json

RUN_SECONDS = 16
SETUP_REPEATS = 5

# name -> (unit of work, why the workload is in the benchmark)
WORKLOADS = {
    "codec_roundtrip.64px": (
        "codec iteration",
        "compress, to_bytes, from_bytes, decompress of 64 px images, T cycling 1..8: "
        "no tape, small conv matrices, Python overhead dominates"),
    "codec_roundtrip.256px": (
        "codec iteration",
        "the same round trip on 256 px images: no tape, BLAS and copies dominate"),
    "train_desk.alpha0": (
        "optimizer step (batch 4)",
        "desk train_codec steps at alpha=0: tape, backward, Adam and MS-SSIM; never touches the lossnet"),
    "train_desk.alpha05": (
        "optimizer step (batch 4)",
        "desk train_codec steps at alpha=0.5: both MS-SSIM and lossnet feature distortion"),
    "train_desk.alpha1": (
        "optimizer step (batch 4)",
        "desk train_codec steps at alpha=1: lossnet feature distortion only; never computes MS-SSIM"),
    "eval_sweep": (
        "evaluation point",
        "tradeoff_sweep over 2 codec checkpoints at levels 1..4: inference, MS-SSIM and classify; "
        "re-encodes every level"),
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("ms_per_unit", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

CODEC_LAYERS = (
    "enc.conv_in", "enc.gru1", "enc.gru2", "enc.gru3", "enc.conv_code", "binarize",
    "dec.conv_expand", "dec.gru1", "dec.gru2", "dec.gru3", "dec.gru4", "dec.conv_out",
)
LOSSNET_BLOCKS = tuple(f"block{i}" for i in range(1, 6))


def _per_layer():
    out = [
        ("autodiff.conv2d.calls", "count/unit", "lower"),
        ("autodiff.conv2d.gmac", "GMAC/unit", "lower"),
        ("autodiff.conv2d.im2col_mb", "MB/unit", "lower"),
        ("autodiff.conv2d.fwd_s", "s/unit", "lower"),
        ("autodiff.conv2d.bwd_s", "s/unit", "lower"),
        ("autodiff.backward.s", "s/unit", "lower"),
        ("autodiff.tape_records", "count/img-step", "lower"),
    ]
    for layer in CODEC_LAYERS:
        out += [(f"codec.{layer}.fwd_s", "s/unit", "lower"),
                (f"codec.{layer}.bwd_s", "s/unit", "lower")]
    out += [
        ("codec.compress.s", "s/unit", "lower"),
        ("codec.decompress.s", "s/unit", "lower"),
        ("codec.encode_iters", "count/unit", "lower"),
        ("evaluation.useful_iter_ratio", "ratio", "higher"),
        ("evaluation.roundtrip.s", "s/unit", "lower"),
        ("evaluation.roundtrip.calls", "count/unit", "lower"),
        ("bitstream.pack_s", "s/unit", "lower"),
        ("bitstream.parse_s", "s/unit", "lower"),
        ("bitstream.payload_bytes", "B/unit", "lower"),
        ("losses.ms_ssim.fwd_s", "s/unit", "lower"),
        ("losses.ms_ssim.bwd_s", "s/unit", "lower"),
        ("losses.ms_ssim.calls", "count/unit", "lower"),
        ("losses.feature_distortion.fwd_s", "s/unit", "lower"),
        ("losses.feature_distortion.bwd_s", "s/unit", "lower"),
    ]
    for block in LOSSNET_BLOCKS:
        out += [(f"lossnet.{block}.fwd_s", "s/unit", "lower"),
                (f"lossnet.{block}.bwd_s", "s/unit", "lower")]
    out += [
        ("lossnet.classify.s", "s/unit", "lower"),
        ("lossnet.classify.calls", "count/unit", "lower"),
        ("trainer.step_loss.s", "s/unit", "lower"),
        ("trainer.adam.s", "s/unit", "lower"),
        ("trainer.clip.s", "s/unit", "lower"),
        ("trainer.augment.s", "s/unit", "lower"),
        ("trainer.fit_normalization.s", "s/setup", "lower"),
        ("checkpoint.load_s", "s/setup", "lower"),
        ("checkpoint.save_s", "s/setup", "lower"),
        ("datasets.image.s", "s/unit", "lower"),
        ("datasets.image.calls", "count/unit", "lower"),
        ("imageops.s", "s/unit", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()

# per-layer metrics computed from tensor shapes rather than measured
COMPUTED = ("autodiff.conv2d.gmac", "autodiff.conv2d.im2col_mb")

# counts that must repeat exactly between runs and between operations
EXACT_COUNTS = (
    "autodiff.conv2d.calls", "autodiff.conv2d.gmac", "autodiff.conv2d.im2col_mb",
    "autodiff.tape_records", "codec.encode_iters", "evaluation.useful_iter_ratio",
    "bitstream.payload_bytes", "losses.ms_ssim.calls", "lossnet.classify.calls",
    "evaluation.roundtrip.calls", "datasets.image.calls",
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, (_, w) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
