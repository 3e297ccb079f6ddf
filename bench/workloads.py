"""Workloads of the odlc benchmark: set-up, the timed loop and the checks.

Each workload runs in one process as a closed loop with one caller: the
next operation starts when the previous one has returned. Inputs and
models come from the workload seed; models are seeded random
initialisations, saved and re-loaded through ``checkpoint`` during
set-up. Timings do not depend on weight values, so untrained weights
measure the same work as trained ones.

An operation fails when it raises or when its correctness check fails.
Failed operations are counted, never timed.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from odlc import bitstream, codec, datasets, evaluation, losses, lossnet, trainer

import spec
import tracing

_perf = time.perf_counter

class Loop:
    """Closed-loop measurement of one workload phase.

    ``record`` takes one finished operation: its units of work, its wall
    time (None when it is not timed) and its problem (None when it passed
    its checks). Under a tracer, it also checks that the exact counters per
    unit of work repeat from operation to operation.
    """

    def __init__(self, seconds: float, tracer=None):
        self.tracer = tracer
        self.per_unit = []
        self.details = defaultdict(list)
        self.attempted = self.failed = self.units = 0
        self.errors = []
        self._counts = tracer.end_op() if tracer else None
        self._reference = None
        self.started = _perf()
        self.deadline = self.started + seconds
        self.ended = self.started

    def expired(self) -> bool:
        return _perf() >= self.deadline

    def record(self, units: int, seconds=None, problem=None, **details):
        with self.tracer.span("bench.record") if self.tracer else nullcontext():
            self.attempted += 1
            self.units += units
            if self.tracer is not None:
                mismatch = self._check_counts(units, counted=problem is None)
                problem = mismatch if problem is None else problem
            if problem is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(problem)
            elif seconds is not None:
                self.per_unit.append(seconds / units)
                for k, v in details.items():
                    self.details[k].append(v)
        self.ended = _perf()

    def attempt(self, units: int, op):
        """Run ``op() -> (seconds, problem, details)``; an exception is a
        failed operation."""
        try:
            seconds, problem, details = op()
        except Exception as e:  # every failure of the program under test is counted
            self.record(units, problem=f"{type(e).__name__}: {e}")
        else:
            self.record(units, seconds, problem, **details)

    def _check_counts(self, units: int, counted: bool):
        """Compare this operation's exact counters per unit with the first
        counted operation's; a failed operation only moves the baseline."""
        now = self.tracer.end_op()
        delta = {k: now[k] - self._counts[k] for k in tracing.EXACT_KEYS}
        self._counts = now
        if not counted:
            return None
        if self._reference is None:
            self._reference = (delta, units)
            return None
        ref, ref_units = self._reference
        for k in tracing.EXACT_KEYS:
            if delta[k] * ref_units != ref[k] * units:
                return (f"count {k} not exact: {delta[k]} over {units} units, "
                        f"first operation {ref[k]} over {ref_units}")
        return None


def _saved_and_loaded(params, load, path: Path):
    params.save(path)
    return load(path)


# ---------------------------------------------------------------------------
# codec round trip


def check_roundtrip(img, iterations, bs, parsed, out, c_b):
    """None when one compress -> bytes -> parse -> decompress round trip is
    sound, else what is wrong with it."""
    _, h, w = img.shape
    hdr = bs.header
    if (hdr.width, hdr.height, hdr.iterations, hdr.c_b) != (w, h, iterations, c_b):
        return f"header {hdr} does not describe a {h}x{w} image at T={iterations}"
    want = iterations * c_b * (-(-h // 16)) * (-(-w // 16))
    if bs.payload_bits != want or len(bs.payload) != -(-want // 8):
        return f"payload of {len(bs.payload)} bytes / {bs.payload_bits} bits, bit law says {want} bits"
    if parsed.header != hdr or parsed.payload != bs.payload:
        return "re-parsed bitstream differs from the one written"
    if out.shape != img.shape:
        return f"decoded shape {out.shape} differs from input {img.shape}"
    if not (np.isfinite(out).all() and out.min() >= 0.0 and out.max() <= 1.0):
        return f"decoded image leaves [0,1]: min {out.min()}, max {out.max()}"
    return None


@dataclass
class CodecState:
    images: list
    params: codec.CodecParams


class CodecRoundtrip:
    pool = 8         # distinct images per run, cycled
    t_cycle = 8      # T runs through 1..8
    reference_t = 2

    def __init__(self, resolution: int):
        self.resolution = resolution

    def setup(self, seed: int, workdir: Path) -> CodecState:
        ds = datasets.ShapesDataset(datasets.ShapesSpec(
            seed=seed, split="test", size=self.pool, resolution=self.resolution))
        images = [ds.image(i) for i in range(self.pool)]
        params = _saved_and_loaded(codec.CodecParams(codec.CodecLayout(), seed=seed),
                                   codec.CodecParams.load, workdir / "codec.ckpt")
        state = CodecState(images, params)
        self._op(state, 0)  # warm-up
        return state

    def _op(self, state: CodecState, i: int):
        img = state.images[i % self.pool]
        t = 1 + i % self.t_cycle
        t0 = _perf()
        bs = codec.compress(img, t, state.params)
        data = bs.to_bytes()
        t1 = _perf()
        parsed = bitstream.Bitstream.from_bytes(data)
        out = codec.decompress(parsed, state.params)
        t2 = _perf()
        problem = check_roundtrip(img, t, bs, parsed, out, state.params.layout.bottleneck)
        details = {"compress_ms_per_iter": (t1 - t0) / t * 1e3,
                   "decompress_ms_per_iter": (t2 - t1) / t * 1e3}
        return t2 - t0, problem, details

    def reference_check(self, state: CodecState):
        """decompress(compress(x)) equals the progressive trace's decode."""
        img, t = state.images[0], self.reference_t
        got = codec.decompress(codec.compress(img, t, state.params), state.params)
        want = codec.reconstruct_progressive(img, t, state.params).decoded()
        err = float(np.abs(got - want).max())
        return None if err <= 1e-5 else f"decode differs from progressive trace by {err}"

    def run(self, state: CodecState, loop: Loop):
        i = 0
        while True:
            loop.attempt(1 + i % self.t_cycle, lambda: self._op(state, i))
            i += 1
            if loop.expired():
                return

    @staticmethod
    def report(loop: Loop) -> dict:
        return {k: (_median(v), "ms", "lower") for k, v in loop.details.items()}


# ---------------------------------------------------------------------------
# desk training


class _Stop(Exception):
    """Raised from the progress callback to end train_codec early."""


@dataclass
class TrainState:
    train_set: datasets.ShapesDataset
    cfg: trainer.TrainConfig
    loss_cfg: losses.LossConfig
    lossnet: lossnet.ClassifierParams


class TrainDesk:
    train_images = 4000   # more than any run can consume in one epoch
    norm_sample = 64

    def __init__(self, alpha: float):
        self.alpha = alpha

    def setup(self, seed: int, workdir: Path) -> TrainState:
        train_set = datasets.ShapesDataset(datasets.ShapesSpec(
            seed=seed, split="train", size=self.train_images, resolution=64))
        cfg = trainer.TrainConfig.desk(batch_size=4, unroll_steps=4, val_interval=0,
                                       epochs=1, seed=seed)
        norm = trainer.fit_normalization(train_set, cfg, sample=self.norm_sample)
        cfg = replace(cfg, normalization=norm)
        net = _saved_and_loaded(
            lossnet.ClassifierParams(lossnet.ClassifierLayout(input_resolution=56), seed=seed + 1),
            lossnet.ClassifierParams.load, workdir / "lossnet.ckpt")
        state = TrainState(train_set, cfg, losses.LossConfig(alpha=self.alpha), net)
        # warm-up: one step of batch 1 runs every code path at a quarter of the cost
        self._train(state, lambda step, seconds, loss: True, replace(cfg, batch_size=1))
        return state

    def _train(self, state: TrainState, on_step, cfg=None):
        """Run train_codec; ``on_step(step, seconds, loss)`` is called after
        every optimizer step and returns True to stop."""
        last = _perf()

        def progress(step, row):
            nonlocal last
            now = _perf()
            stop = on_step(step, now - last, row[1])
            last = _perf()
            if stop:
                raise _Stop

        try:
            trainer.train_codec(state.train_set, None, state.loss_cfg, cfg or state.cfg,
                                lossnet=state.lossnet, progress=progress)
        except _Stop:
            pass

    def run(self, state: TrainState, loop: Loop):
        def on_step(step, seconds, loss):
            problem = None if math.isfinite(loss) else f"loss {loss} at step {step}"
            loop.record(1, seconds, problem, train_step_s=seconds)
            return loop.expired()

        while True:
            try:
                self._train(state, on_step)
            except Exception as e:  # NonFiniteGradientError, TrainingDiverged, or a defect
                loop.record(1, problem=f"{type(e).__name__}: {e}")
            if loop.expired():
                return

    @staticmethod
    def report(loop: Loop) -> dict:
        return {"train_step_s": (_median(loop.details["train_step_s"]), "s", "lower")}


# ---------------------------------------------------------------------------
# evaluation sweep


@dataclass
class EvalState:
    seed: int
    checkpoints: dict
    classifier: lossnet.ClassifierParams
    cfg: evaluation.EvalConfig = field(default_factory=evaluation.EvalConfig)


def check_sweep(rows, skipped, n_ckpt: int, grid, cfg: evaluation.EvalConfig, c_b: int):
    """None when a tradeoff_sweep result obeys the bit law and stays in
    range, else what is wrong with it."""
    if skipped or len(rows) != n_ckpt * len(grid):
        return f"{len(rows)} rows with {skipped} skipped, expected {n_ckpt * len(grid)}"
    bits_per_iter = c_b * (-(-cfg.s_comp // 16)) ** 2
    for alpha, level, bpp, msssim, pres, acc in rows:
        if not math.isclose(bpp, level * bits_per_iter / cfg.s_comp ** 2, rel_tol=1e-12):
            return f"alpha {alpha} level {level}: bpp {bpp} breaks the bit law"
        if not 0.0 < msssim <= 1.0:
            return f"alpha {alpha} level {level}: MS-SSIM {msssim} outside (0,1]"
        if not (0.0 <= pres <= 1.0 and 0.0 <= acc <= 1.0):
            return f"alpha {alpha} level {level}: preservation {pres} / accuracy {acc} outside [0,1]"
    return None


class EvalSweep:
    grid = (1, 2, 3, 4)
    val_images = 2

    def setup(self, seed: int, workdir: Path) -> EvalState:
        ckpts = {}
        for alpha, offset in ((0.0, 1), (1.0, 2)):
            ckpts[alpha] = _saved_and_loaded(
                codec.CodecParams(codec.CodecLayout(), seed=seed + offset),
                codec.CodecParams.load, workdir / f"codec_{offset}.ckpt")
        clf = _saved_and_loaded(
            lossnet.ClassifierParams(lossnet.ClassifierLayout(input_resolution=56), seed=seed + 3),
            lossnet.ClassifierParams.load, workdir / "classifier.ckpt")
        state = EvalState(seed, ckpts, clf)
        self._sweep(state, 0, images=1)  # warm-up
        return state

    def _val_set(self, state: EvalState, i: int, images: int):
        return datasets.ShapesDataset(datasets.ShapesSpec(
            seed=(state.seed << 20) + i, split="val", size=images, resolution=state.cfg.s_comp))

    def _sweep(self, state: EvalState, i: int, images: int):
        val = self._val_set(state, i, images)
        t0 = _perf()
        rows, skipped = evaluation.tradeoff_sweep(state.checkpoints, state.classifier, val,
                                                  self.grid, state.cfg)
        seconds = _perf() - t0
        c_b = next(iter(state.checkpoints.values())).layout.bottleneck
        problem = check_sweep(rows, skipped, len(state.checkpoints), self.grid, state.cfg, c_b)
        points = len(state.checkpoints) * len(self.grid) * images
        return seconds, problem, {"eval_points_per_s": points / seconds}

    def run(self, state: EvalState, loop: Loop):
        points = len(state.checkpoints) * len(self.grid) * self.val_images
        i = 1
        while True:
            loop.attempt(points, lambda: self._sweep(state, i, self.val_images))
            i += 1
            if loop.expired():
                return

    @staticmethod
    def report(loop: Loop) -> dict:
        return {"eval_points_per_s": (_median(loop.details["eval_points_per_s"]), "1/s", "higher")}


# ---------------------------------------------------------------------------


def make(name: str):
    return {
        "codec_roundtrip.64px": lambda: CodecRoundtrip(64),
        "codec_roundtrip.256px": lambda: CodecRoundtrip(256),
        "train_desk.alpha0": lambda: TrainDesk(0.0),
        "train_desk.alpha05": lambda: TrainDesk(0.5),
        "train_desk.alpha1": lambda: TrainDesk(1.0),
        "eval_sweep": EvalSweep,
    }[name]()


def _median(values):
    return statistics.median(values) if values else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # name -> value
    samples: dict            # end-to-end name -> sample values
    details: dict            # report-only name -> (value, unit, better)
    errors: list
    spans: list = None


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 setups: int = spec.SETUP_REPEATS) -> Result:
    wl = make(name)
    tracer = tracing.Tracer() if trace else None
    setup_s = []
    with tracer.installed() if tracer else nullcontext():
        for _ in range(setups):
            t0 = _perf()
            state = wl.setup(seed, workdir)
            setup_s.append(_perf() - t0)
    setup_spans = tracer.take()[0] if tracer else None

    attempted = failed = 0
    errors = []
    if hasattr(wl, "reference_check"):
        attempted += 1
        try:
            problem = wl.reference_check(state)
        except Exception as e:  # a raising reference check is a failed check
            problem = f"{type(e).__name__}: {e}"
        if problem is not None:
            failed += 1
            errors.append(problem)

    if trace:
        plain = Loop(seconds / 3)
        wl.run(state, plain)
        with tracer.installed():
            loop = Loop(seconds - seconds / 3, tracer)
            wl.run(state, loop)
        spans, counts = tracer.take()
        metrics = tracing.layer_metrics(spans, counts, loop.units, setup_spans, setups,
                                        loop.ended - loop.started)
        metrics["trace.overhead_frac"] = _median(loop.per_unit) / _median(plain.per_unit) - 1.0
        loops = (plain, loop)
        samples = {}
    else:
        loop = Loop(seconds)
        wl.run(state, loop)
        metrics = {
            "ms_per_unit": _median(loop.per_unit) * 1e3,
            "setup_s": _median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        loops = (loop,)
        spans = None
        samples = {"ms_per_unit": [v * 1e3 for v in loop.per_unit], "setup_s": setup_s}
    for lp in loops:
        attempted += lp.attempted
        failed += lp.failed
        errors += lp.errors
    correct = failed == 0 and all(lp.per_unit for lp in loops)
    return Result(correct, attempted, failed, metrics, samples, wl.report(loop), errors, spans)
