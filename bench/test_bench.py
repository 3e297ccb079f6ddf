"""Tests of the benchmark itself: python3 -m pytest bench -q

Each workload runs at a tiny size (one set-up, one operation per phase).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from odlc import bitstream, codec, trainer  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name, tmp_path, trace=False, seed=3):
    return workloads.run_workload(name, seed, 0.0, trace, tmp_path, setups=1)


class TestSpec:
    def test_benchmark_json_is_generated_from_spec(self):
        assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()

    def test_names_units_and_bounds_fit_the_format(self):
        doc = spec.benchmark_json()
        assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert 2 <= len(doc["workloads"]) <= 8
        assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
        names = [w["name"] for w in doc["workloads"]]
        names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        assert len(names) == len(set(names))
        for n in names:
            assert NAME.match(n), n
        for w in doc["workloads"]:
            assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        for m in doc["end_to_end"] + doc["per_layer"]:
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_cannot_run_without_the_sources(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval_sweep",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert "correct" not in out.stdout


class TestEndToEnd:
    @pytest.mark.parametrize("name", list(spec.WORKLOADS))
    def test_every_metric_present_and_positive(self, name, tmp_path):
        res = tiny(name, tmp_path)
        assert res.correct and res.failed == 0 and res.attempted >= 1, res.errors
        assert set(res.metrics) == {m[0] for m in spec.END_TO_END}
        for v in res.metrics.values():
            assert math.isfinite(v) and v > 0

    @pytest.mark.parametrize("trace", [0, 1])
    def test_command_prints_the_result_line(self, trace, tmp_path):
        spans = tmp_path / "spans.jsonl"
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "codec_roundtrip.64px",
                              "--seed", "2", "--seconds", "0.5", "--trace", str(trace),
                              "--spans", str(spans)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        last = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        metrics = [m[:3] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
        assert {n: m["unit"] for n, m in last["metrics"].items()} == {n: u for n, u, _ in metrics}
        for n, u, b in metrics:  # the report names unit and direction
            assert re.search(rf"^{re.escape(n)} \S+ {re.escape(u)} \({b} is better", out.stdout, re.M)
        assert spans.exists() == bool(trace)
        if trace:
            rows = [json.loads(line) for line in spans.read_text().splitlines()]
            assert all(r["parent"] < i and r["start"] <= r["end"] for i, r in enumerate(rows))
            assert {"codec.compress", "codec.enc.gru1", "codec.enc.gru1.wxu"} <= {r["name"] for r in rows}


# layers that must run (> 0) and must not run (== 0) in each workload
CODEC_FWD = [f"codec.{layer}.fwd_s" for layer in spec.CODEC_LAYERS]
CODEC_BWD = [f"codec.{layer}.bwd_s" for layer in spec.CODEC_LAYERS]
LOSSNET_FWD = [f"lossnet.{b}.fwd_s" for b in spec.LOSSNET_BLOCKS]
LOSSNET_BWD = [f"lossnet.{b}.bwd_s" for b in spec.LOSSNET_BLOCKS]
TRAIN = ["trainer.step_loss.s", "trainer.adam.s", "trainer.clip.s", "trainer.augment.s",
         "autodiff.backward.s", "autodiff.conv2d.bwd_s", "autodiff.tape_records"] + CODEC_BWD
ROUNDTRIP = ["codec.compress.s", "codec.decompress.s", "bitstream.pack_s", "bitstream.parse_s",
             "bitstream.payload_bytes"]
MS_SSIM = ["losses.ms_ssim.fwd_s", "losses.ms_ssim.calls"]
FEATURES = ["losses.feature_distortion.fwd_s", "losses.feature_distortion.bwd_s"] + LOSSNET_BWD
EXPECT = {
    "codec_roundtrip.64px": (CODEC_FWD + ROUNDTRIP, TRAIN + MS_SSIM + LOSSNET_FWD),
    "codec_roundtrip.256px": (CODEC_FWD + ROUNDTRIP, TRAIN + MS_SSIM + LOSSNET_FWD),
    "train_desk.alpha0": (CODEC_FWD + TRAIN + MS_SSIM + ["losses.ms_ssim.bwd_s"],
                          ROUNDTRIP + FEATURES + LOSSNET_FWD),
    "train_desk.alpha05": (CODEC_FWD + TRAIN + MS_SSIM + FEATURES + LOSSNET_FWD, ROUNDTRIP),
    "train_desk.alpha1": (CODEC_FWD + TRAIN + FEATURES + LOSSNET_FWD, ROUNDTRIP + MS_SSIM),
    "eval_sweep": (CODEC_FWD + ROUNDTRIP + MS_SSIM + LOSSNET_FWD +
                   ["lossnet.classify.s", "evaluation.roundtrip.s"], TRAIN + FEATURES),
}


class TestTrace:
    @pytest.mark.parametrize("name", list(spec.WORKLOADS))
    def test_layers_that_run_and_layers_bypassed(self, name, tmp_path):
        res = tiny(name, tmp_path, trace=True)
        assert res.correct, res.errors
        assert set(res.metrics) == {m[0] for m in spec.PER_LAYER}
        runs, bypassed = EXPECT[name]
        assert [m for m in runs if not res.metrics[m] > 0] == []
        assert [m for m in bypassed if res.metrics[m] != 0] == []
        assert res.metrics["trace.coverage"] >= 0.9

    @pytest.mark.parametrize("name", ["codec_roundtrip.64px", "train_desk.alpha05", "eval_sweep"])
    def test_exact_counts_repeat_on_another_seed(self, name, tmp_path):
        a = tiny(name, tmp_path, trace=True, seed=3).metrics
        b = tiny(name, tmp_path, trace=True, seed=4).metrics
        assert {k: a[k] for k in spec.EXACT_COUNTS} == {k: b[k] for k in spec.EXACT_COUNTS}

    def test_sweep_counts(self, tmp_path):
        m = tiny("eval_sweep", tmp_path, trace=True).metrics
        assert m["evaluation.useful_iter_ratio"] == 0.4  # grid 1..4: 4 of 1+2+3+4 iterations
        assert m["codec.encode_iters"] == 2.5
        assert m["bitstream.payload_bytes"] == 64 * 2.5  # 512 bits per 64 px iteration


class TestFailuresAreCounted:
    def _codec_loop(self, tmp_path, monkeypatch, attr, replacement):
        wl = workloads.CodecRoundtrip(64)
        state = wl.setup(5, tmp_path)
        monkeypatch.setattr(*attr, replacement)
        loop = workloads.Loop(0.0)
        wl.run(state, loop)
        return loop

    def test_truncated_bitstream(self, tmp_path, monkeypatch):
        write = bitstream.Bitstream.to_bytes
        loop = self._codec_loop(tmp_path, monkeypatch, (bitstream.Bitstream, "to_bytes"),
                                lambda bs: write(bs)[:-1])
        assert (loop.attempted, loop.failed, loop.per_unit) == (1, 1, [])

    def test_bitstream_with_a_flipped_header_byte(self, tmp_path, monkeypatch):
        write = bitstream.Bitstream.to_bytes

        def corrupt(bs):
            data = bytearray(write(bs))
            data[5] ^= 0x01  # low byte of the width
            return bytes(data)
        loop = self._codec_loop(tmp_path, monkeypatch, (bitstream.Bitstream, "to_bytes"), corrupt)
        assert (loop.attempted, loop.failed) == (1, 1)

    def test_decoded_image_outside_unit_range(self, tmp_path, monkeypatch):
        decode = codec.decompress
        loop = self._codec_loop(tmp_path, monkeypatch, (codec, "decompress"),
                                lambda bs, p: decode(bs, p) * 1.5 + 0.5)
        assert (loop.attempted, loop.failed) == (1, 1)
        assert "[0,1]" in loop.errors[0]

    def test_non_finite_gradient(self, tmp_path, monkeypatch):
        wl = workloads.TrainDesk(1.0)
        state = wl.setup(5, tmp_path)

        def poison(params, max_norm):
            params[0].grad[...] = np.nan
            return float("nan")
        monkeypatch.setattr(trainer, "clip_global_norm", poison)
        loop = workloads.Loop(0.0)
        wl.run(state, loop)
        assert loop.failed == loop.attempted == 1
        assert "NonFiniteGradientError" in loop.errors[0]

    def test_failed_operation_leaves_the_exact_counts_of_the_others(self, tmp_path):
        wl = workloads.CodecRoundtrip(64)
        tracer = tracing.Tracer()
        with tracer.installed():
            state = wl.setup(5, tmp_path)
            decode = codec.decompress
            calls = []

            def first_fails(bs, params):
                calls.append(bs)
                return decode(bs, params) + (2.0 if len(calls) == 1 else 0.0)
            codec.decompress = first_fails
            try:
                loop = workloads.Loop(0.3, tracer)
                wl.run(state, loop)
            finally:
                codec.decompress = decode
        assert loop.attempted > 2 and loop.failed == 1, loop.errors

    def test_sweep_rows_that_break_the_bit_law(self):
        cfg = workloads.evaluation.EvalConfig()
        good = [(0.0, t, 0.125 * t, 0.5, 1.0, 0.0) for t in (1, 2)]
        assert workloads.check_sweep(good, [], 1, (1, 2), cfg, 32) is None
        bad = [good[0], (0.0, 2, 0.3, 0.5, 1.0, 0.0)]
        assert "bit law" in workloads.check_sweep(bad, [], 1, (1, 2), cfg, 32)
        assert "MS-SSIM" in workloads.check_sweep([(0.0, 1, 0.125, 0.0, 1.0, 0.0)], [], 1, (1,), cfg, 32)
