"""Span tracing of odlc, installed from outside the package.

``Tracer.installed()`` replaces public odlc functions with wrappers that
open a span per call, restoring the originals on exit. Names a module
bound with ``from ... import`` are replaced at that binding site too
(``evaluation.compress``, ``trainer.progressive_from_normalized``).

- A ``conv2d`` or ``conv_gru_cell`` span is named after the Parameter that
  owns its kernel tensor, found by object identity, which yields the codec
  sub-layers (``codec.enc.gru1``) and the lossnet blocks
  (``lossnet.block3``). Kernels that belong to no Parameter (the MS-SSIM
  window, the luma weights) give ``autodiff.conv2d``.
- The wrapper around ``autodiff.record_op`` times every VJP of a record
  and charges it to the span that was innermost when the record was made,
  so backward time rolls up per layer like forward time. The same time is
  child time of the span open while backward runs, so self times never
  count it twice.
- Spans (name, kind, start, end, parent) stay in memory; ``summarize``
  turns them into per-layer metrics at the end of a run.
- Counts that depend only on tensor shapes (conv calls, MACs, im2col
  bytes, tape records, encode iterations, payload bytes) are kept as exact
  integers.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from odlc import (autodiff, bitstream, checkpoint, codec, datasets, evaluation, imageops,
                  lossnet, losses, trainer)

import spec

BENCH_PREFIX = "bench."  # spans of the benchmark's own code; not a layer

# fields of a span record
NAME, KIND, START, END, PARENT, CHILD, BWD = range(7)

# exact counters that every operation of a workload repeats per unit of work
EXACT_KEYS = ("conv2d.calls", "conv2d.macs", "conv2d.im2col_bytes", "tape_records",
              "backward_calls", "encode_iters", "useful_iters", "payload_bytes")

_perf = time.perf_counter


def _conv_out(h: int, w: int, k: int, stride: int, padding: str):
    if padding == "same":
        return -(-h // stride), -(-w // stride)
    return (h - k) // stride + 1, (w - k) // stride + 1


class Tracer:
    """In-memory span recorder plus exact counters for one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._kernels = {}     # id(tensor) -> (tensor, layer name); holds the tensor alive
        self._compress_max = {}  # (id(params), id(image)) -> largest T in this operation
        self._compress_depth = 0

    # -- spans -----------------------------------------------------------

    def open(self, name: str, kind: str = "") -> int:
        idx = len(self.spans)
        self.spans.append([name, kind, _perf(), 0.0, self.stack[-1] if self.stack else -1, 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span[END] = _perf()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    @contextmanager
    def span(self, name: str, kind: str = ""):
        idx = self.open(name, kind)
        try:
            yield
        finally:
            self.close(idx)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh
        (the kernel registry is kept)."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        self._compress_max.clear()
        return spans, counts

    # -- operations ------------------------------------------------------

    def end_op(self) -> Counter:
        """Close one benchmark operation; returns the exact counters so far."""
        self.counts["useful_iters"] += sum(self._compress_max.values())
        self._compress_max.clear()
        return Counter(self.counts)

    # -- kernel names ----------------------------------------------------

    def register(self, owner: str, params):
        for p in params.parameters():
            name = p.name[: -len(".kernel")] if p.name.endswith(".kernel") else p.name
            if owner == "lossnet":
                name = name.split(".")[0]  # block3.conv1 -> block3
            self._kernels[id(p.tensor)] = (p.tensor, f"{owner}.{name}")

    def kernel_name(self, tensor, default: str) -> str:
        hit = self._kernels.get(id(tensor))
        return hit[1] if hit is not None and hit[0] is tensor else default

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _conv2d(self, fn):
        tracer = self

        def conv2d(x, kernel, bias=None, stride=1, padding="same"):
            idx = tracer.open(tracer.kernel_name(kernel, "autodiff.conv2d"), "conv2d")
            try:
                out = fn(x, kernel, bias, stride, padding)
            finally:
                tracer.close(idx)
            c_in, h, w = x.shape
            c_out, _, k, _ = kernel.shape
            ho, wo = _conv_out(h, w, k, stride, padding)
            cols = c_in * k * k * ho * wo
            counts = tracer.counts
            counts["conv2d.calls"] += 1
            counts["conv2d.macs"] += c_out * cols
            counts["conv2d.im2col_bytes"] += cols * x.data.itemsize
            return out
        return conv2d

    def _gru(self, fn):
        tracer = self

        def conv_gru_cell(x, h, p):
            gate = tracer.kernel_name(p.wxu.tensor, "")
            name = gate.rsplit(".", 1)[0] if gate else "autodiff.conv_gru_cell"
            idx = tracer.open(name, "gru")
            try:
                return fn(x, h, p)
            finally:
                tracer.close(idx)
        return conv_gru_cell

    def _record_op(self, fn):
        tracer = self

        def timed(vjp, owner):
            spans, stack = tracer.spans, tracer.stack

            def run(g):
                t0 = _perf()
                r = vjp(g)
                dt = _perf() - t0
                spans[owner][BWD] += dt
                if stack:
                    spans[stack[-1]][CHILD] += dt
                return r
            return run

        def record_op(out, inputs, vjps):
            if not tracer.stack or autodiff.active_tape() is None:
                return fn(out, inputs, vjps)
            owner = tracer.stack[-1]
            return fn(out, inputs, tuple(None if v is None else timed(v, owner) for v in vjps))
        return record_op

    def _backward(self, fn):
        tracer = self

        def backward(loss, tape):
            tracer.counts["tape_records"] += len(tape.records)
            tracer.counts["backward_calls"] += 1
            idx = tracer.open("autodiff.backward")
            try:
                return fn(loss, tape)
            finally:
                tracer.close(idx)
        return backward

    def _compress(self, fn):
        tracer = self

        def compress(x, iterations, params):
            tracer._compress_depth += 1
            idx = tracer.open("codec.compress")
            try:
                bs = fn(x, iterations, params)
            finally:
                tracer.close(idx)
                tracer._compress_depth -= 1
            key = (id(params), id(x))
            tracer._compress_max[key] = max(tracer._compress_max.get(key, 0), iterations)
            tracer.counts["payload_bytes"] += len(bs.payload)
            return bs
        return compress

    def _progressive(self, fn):
        tracer = self

        def progressive_from_normalized(xn, iterations, params, *args, **kwargs):
            tracer.counts["encode_iters"] += iterations
            if not tracer._compress_depth:  # a compress call counts its own useful work
                tracer.counts["useful_iters"] += iterations
            idx = tracer.open("codec.progressive")
            try:
                return fn(xn, iterations, params, *args, **kwargs)
            finally:
                tracer.close(idx)
        return progressive_from_normalized

    def _registering_init(self, fn, owner: str):
        tracer = self

        def __init__(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            tracer.register(owner, obj)
        return __init__

    def _patches(self):
        """(holder, attribute, replacement) for every wrapped name."""
        conv = self._conv2d(autodiff.conv2d)
        compress = self._compress(codec.compress)
        decompress = self._wrap(codec.decompress, "codec.decompress")
        progressive = self._progressive(codec.progressive_from_normalized)
        w = self._wrap
        patches = [
            (autodiff, "conv2d", conv),
            (autodiff, "conv_gru_cell", self._gru(autodiff.conv_gru_cell)),
            (autodiff, "record_op", self._record_op(autodiff.record_op)),
            (autodiff, "backward", self._backward(autodiff.backward)),
            (codec, "compress", compress),
            (evaluation, "compress", compress),
            (codec, "decompress", decompress),
            (evaluation, "decompress", decompress),
            (codec, "progressive_from_normalized", progressive),
            (trainer, "progressive_from_normalized", progressive),
            (codec, "binarize", w(codec.binarize, "codec.binarize")),
            (codec.CodecParams, "__init__", self._registering_init(codec.CodecParams.__init__, "codec")),
            (lossnet.ClassifierParams, "__init__",
             self._registering_init(lossnet.ClassifierParams.__init__, "lossnet")),
            (bitstream, "pack_bits", w(bitstream.pack_bits, "bitstream.pack")),
            (bitstream.Bitstream, "to_bytes", w(bitstream.Bitstream.to_bytes, "bitstream.pack")),
            (bitstream.Bitstream, "from_bytes",
             staticmethod(w(bitstream.Bitstream.from_bytes, "bitstream.parse"))),
            (bitstream.Bitstream, "iteration_codes",
             w(bitstream.Bitstream.iteration_codes, "bitstream.parse")),
            (losses, "ms_ssim", w(losses.ms_ssim, "losses.ms_ssim")),
            (losses, "feature_distortion", w(losses.feature_distortion, "losses.feature_distortion")),
            (lossnet, "classify", w(lossnet.classify, "lossnet.classify")),
            (evaluation, "roundtrip", w(evaluation.roundtrip, "evaluation.roundtrip")),
            (evaluation, "tradeoff_sweep", w(evaluation.tradeoff_sweep, "evaluation.tradeoff_sweep")),
            (trainer, "train_codec", w(trainer.train_codec, "trainer.train_codec")),
            (trainer, "step_loss", w(trainer.step_loss, "trainer.step_loss")),
            (trainer.Adam, "step", w(trainer.Adam.step, "trainer.adam")),
            (trainer, "clip_global_norm", w(trainer.clip_global_norm, "trainer.clip")),
            (trainer, "augment_geometry", w(trainer.augment_geometry, "trainer.augment")),
            (trainer, "fit_normalization", w(trainer.fit_normalization, "trainer.fit_normalization")),
            (checkpoint, "save", w(checkpoint.save, "checkpoint.save")),
            (checkpoint, "load", w(checkpoint.load, "checkpoint.load")),
            (datasets.ShapesDataset, "image", w(datasets.ShapesDataset.image, "datasets.image")),
        ]
        patches += [(imageops, n, w(f, "imageops")) for n, f in vars(imageops).items()
                    if inspect.isfunction(f) and f.__module__ == imageops.__name__]
        return patches

    @contextmanager
    def installed(self):
        saved = []
        try:
            for holder, attr, replacement in self._patches():
                saved.append((holder, attr, holder.__dict__[attr]))
                setattr(holder, attr, replacement)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# from spans to metrics


def summarize(spans):
    """Per-name inclusive forward and backward time, self time by kind,
    span counts and the total self time of program (non-bench) spans."""
    fwd = defaultdict(float)       # inclusive, outermost span of a name only
    bwd = defaultdict(float)       # VJP time of records made under a span of that name
    kind_self = defaultdict(float)
    kind_bwd = defaultdict(float)
    calls = Counter()
    layer_self = 0.0
    for span in spans:
        name, kind = span[NAME], span[KIND]
        dur = span[END] - span[START]
        names = {name}
        outermost = True
        p = span[PARENT]
        while p >= 0:
            pname = spans[p][NAME]
            if pname == name:
                outermost = False
            names.add(pname)
            p = spans[p][PARENT]
        calls[name] += 1
        if outermost:
            fwd[name] += dur
        if span[BWD]:
            for n in names:
                bwd[n] += span[BWD]
        self_time = dur - span[CHILD]
        kind_self[kind] += self_time
        kind_bwd[kind] += span[BWD]
        if not name.startswith(BENCH_PREFIX):
            layer_self += self_time + span[BWD]
    return {"fwd": fwd, "bwd": bwd, "kind_self": kind_self, "kind_bwd": kind_bwd,
            "calls": calls, "layer_self": layer_self}


def exact_metrics(counts: Counter, units: int) -> dict:
    """The exact, shape-derived per-layer counts, normalized per unit."""
    def per(key):
        return counts[key] / units

    encode = counts["encode_iters"]
    return {
        "autodiff.conv2d.calls": per("conv2d.calls"),
        "autodiff.conv2d.gmac": per("conv2d.macs") / 1e9,
        "autodiff.conv2d.im2col_mb": per("conv2d.im2col_bytes") / 1e6,
        "autodiff.tape_records": (counts["tape_records"] / counts["backward_calls"]
                                  if counts["backward_calls"] else 0.0),
        "codec.encode_iters": per("encode_iters"),
        "evaluation.useful_iter_ratio": counts["useful_iters"] / encode if encode else 0.0,
        "bitstream.payload_bytes": per("payload_bytes"),
    }


def layer_metrics(spans, counts: Counter, units: int, setup_spans, setups: int,
                  wall_s: float) -> dict:
    """Every per-layer metric of spec.PER_LAYER except the trace.* ones."""
    s = summarize(spans)
    fwd, bwd, calls = s["fwd"], s["bwd"], s["calls"]
    setup = summarize(setup_spans)["fwd"]
    out = exact_metrics(counts, units)
    out.update({
        "autodiff.conv2d.fwd_s": s["kind_self"]["conv2d"] / units,
        "autodiff.conv2d.bwd_s": s["kind_bwd"]["conv2d"] / units,
        "autodiff.backward.s": fwd["autodiff.backward"] / units,
    })
    for layer in spec.CODEC_LAYERS:
        out[f"codec.{layer}.fwd_s"] = fwd[f"codec.{layer}"] / units
        out[f"codec.{layer}.bwd_s"] = bwd[f"codec.{layer}"] / units
    for block in spec.LOSSNET_BLOCKS:
        out[f"lossnet.{block}.fwd_s"] = fwd[f"lossnet.{block}"] / units
        out[f"lossnet.{block}.bwd_s"] = bwd[f"lossnet.{block}"] / units
    out.update({
        "codec.compress.s": fwd["codec.compress"] / units,
        "codec.decompress.s": fwd["codec.decompress"] / units,
        "evaluation.roundtrip.s": fwd["evaluation.roundtrip"] / units,
        "evaluation.roundtrip.calls": calls["evaluation.roundtrip"] / units,
        "bitstream.pack_s": fwd["bitstream.pack"] / units,
        "bitstream.parse_s": fwd["bitstream.parse"] / units,
        "losses.ms_ssim.fwd_s": fwd["losses.ms_ssim"] / units,
        "losses.ms_ssim.bwd_s": bwd["losses.ms_ssim"] / units,
        "losses.ms_ssim.calls": calls["losses.ms_ssim"] / units,
        "losses.feature_distortion.fwd_s": fwd["losses.feature_distortion"] / units,
        "losses.feature_distortion.bwd_s": bwd["losses.feature_distortion"] / units,
        "lossnet.classify.s": fwd["lossnet.classify"] / units,
        "lossnet.classify.calls": calls["lossnet.classify"] / units,
        "trainer.step_loss.s": fwd["trainer.step_loss"] / units,
        "trainer.adam.s": fwd["trainer.adam"] / units,
        "trainer.clip.s": fwd["trainer.clip"] / units,
        "trainer.augment.s": fwd["trainer.augment"] / units,
        "trainer.fit_normalization.s": setup["trainer.fit_normalization"] / setups,
        "checkpoint.load_s": setup["checkpoint.load"] / setups,
        "checkpoint.save_s": setup["checkpoint.save"] / setups,
        "datasets.image.s": fwd["datasets.image"] / units,
        "datasets.image.calls": calls["datasets.image"] / units,
        "imageops.s": fwd["imageops"] / units,
        "trace.coverage": s["layer_self"] / wall_s,
    })
    return out
