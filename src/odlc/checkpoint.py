"""Versioned checkpoint container and the parameter-set base of the codec
and the classifier.

Layout: one ASCII header line, one JSON manifest line (metadata plus the
ordered tensor table of names/shapes/dtype), then raw little-endian
float32 tensor data in manifest order, with nothing after the last
tensor. Writing is deterministic byte for byte, so reproducibility tests
can compare files directly.

``save``/``load`` move the raw (kind, meta, tensors) triple. A
``ParamSet`` (``CodecParams``, ``ClassifierParams``) stores its layout
dataclass fields plus ``norm_mean`` and ``norm_std`` as the meta and its
parameters as the tensors. ``ParamSet.load`` rebuilds and validates the
layout, then compares the file's tensor table with ``layout.shapes()`` by
name and shape: a missing, extra or misshapen tensor is rejected before
any parameter exists. The parameters then wrap the file's arrays; no
random init runs. Since the tensor table is checked against the file
size, the file bounds what a load allocates. Every malformed file raises
CheckpointError naming the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .autodiff import make_parameters

HEADER_PREFIX = b"ODLC-CKPT 1 "


class CheckpointError(ValueError):
    pass


class Meta(dict):
    """Manifest metadata; a missing key is a CheckpointError naming it."""

    def __init__(self, path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise CheckpointError(f"{self.path}: manifest lacks meta key {key!r}")


def save(path, kind: str, meta: dict, tensors: dict):
    """tensors: ordered name -> ndarray mapping; stored as float32 LE. A
    tensor holding nan or inf is refused with a CheckpointError naming it,
    before anything is written, so no writer leaves a broken model behind.
    The file is written beside ``path`` and renamed onto it, so an
    interrupted save leaves the previous file at ``path`` whole."""
    table = []
    blobs = []
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values; not saved")
        table.append({"name": name, "shape": list(a.shape), "dtype": "f32"})
        blobs.append(a.tobytes())
    manifest = json.dumps({"meta": meta, "tensors": table}, sort_keys=True,
                          separators=(",", ":"))
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(HEADER_PREFIX + kind.encode("ascii") + b"\n")
            f.write(manifest.encode("utf-8") + b"\n")
            for b in blobs:
                f.write(b)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _tensor_table(path, manifest) -> list:
    """The validated tensor table: dicts with a unique str name, a list of
    non-negative int dims and dtype f32."""
    table = manifest.get("tensors")
    if not isinstance(table, list):
        raise CheckpointError(f"{path}: bad manifest: no tensor table")
    names = set()
    for entry in table:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"{path}: bad tensor table entry {str(entry)[:80]}")
        if entry.get("dtype") != "f32":
            raise CheckpointError(f"{path}: unsupported tensor dtype {str(entry.get('dtype'))[:20]}")
        if entry["name"] in names:
            raise CheckpointError(f"{path}: duplicate tensor {entry['name']}")
        names.add(entry["name"])
    return table


def load(path, expect_kind: str | None = None):
    """Returns (kind, meta, tensors dict of float32 arrays); ``meta`` raises
    CheckpointError, not KeyError, for a key the manifest lacks."""
    with open(path, "rb") as f:
        header = f.readline()
        if not header.startswith(HEADER_PREFIX):
            raise CheckpointError(f"{path}: not an ODLC checkpoint")
        try:
            kind = header[len(HEADER_PREFIX):].strip().decode("ascii")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: non-ASCII checkpoint kind") from None
        if expect_kind is not None and kind != expect_kind:
            raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected {expect_kind!r}")
        try:
            manifest = json.loads(f.readline().decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise CheckpointError(f"{path}: bad manifest: {e}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("meta"), dict):
            raise CheckpointError(f"{path}: bad manifest: no meta object")
        table = _tensor_table(path, manifest)
        counts = [math.prod(entry["shape"]) for entry in table]
        declared = 4 * sum(counts)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if declared > left:
            raise CheckpointError(f"{path}: truncated tensor data: the manifest declares "
                                  f"{declared} bytes, {left} follow it")
        if declared < left:
            raise CheckpointError(f"{path}: {left - declared} trailing bytes after the "
                                  f"last tensor")
        tensors = {}
        for entry, count in zip(table, counts):
            raw = f.read(count * 4)
            tensors[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).copy()
        return kind, Meta(path, manifest["meta"]), tensors


class ParamSet:
    """Base of the codec and classifier parameter sets: normalization stats,
    the parameters its layout's ``shapes()`` table names, and checkpoints.
    A subclass sets ``kind`` and ``layout_cls``; its ``__init__`` calls
    ``_init_params`` and then binds its layers."""

    kind: str
    layout_cls: type

    def _init_params(self, layout, seed, norm_mean, norm_std, arrays, stacks=()):
        """``stacks`` names the tensor groups that share one buffer (see
        autodiff.make_parameters)."""
        self.layout = layout
        self.norm_mean = np.asarray([0.5] * 3 if norm_mean is None else norm_mean, dtype=np.float32)
        self.norm_std = np.asarray([0.5] * 3 if norm_std is None else norm_std, dtype=np.float32)
        self._params = make_parameters(layout.shapes(), seed if arrays is None else arrays,
                                       stacks=stacks)
        self.dtype = next(iter(self._params.values())).value.dtype

    def _conv(self, name) -> tuple:
        return self._params[f"{name}.kernel"], self._params[f"{name}.bias"]

    def parameters(self) -> list:
        return list(self._params.values())

    def zero_grads(self):
        for p in self._params.values():
            p.zero_grad()

    def freeze(self):
        for p in self._params.values():
            p.freeze()

    def save(self, path):
        meta = dataclasses.asdict(self.layout)
        meta["norm_mean"] = [float(v) for v in self.norm_mean]
        meta["norm_std"] = [float(v) for v in self.norm_std]
        save(path, self.kind, meta, {name: p.value for name, p in self._params.items()})

    @classmethod
    def load(cls, path):
        _, meta, tensors = load(path, expect_kind=cls.kind)
        fields = {f.name: meta[f.name] for f in dataclasses.fields(cls.layout_cls)}
        stats = meta["norm_mean"], meta["norm_std"]
        try:
            layout = cls.layout_cls(**{k: tuple(v) if isinstance(v, list) else v
                                       for k, v in fields.items()})
            norm = [np.asarray(v, dtype=np.float32) for v in stats]
        except (ValueError, TypeError) as e:
            raise CheckpointError(f"{path}: bad layout meta: {e}") from None
        if any(v.shape != (3,) for v in norm):
            raise CheckpointError(f"{path}: normalization stats must hold 3 channels")
        want = dict(layout.shapes())
        for name in [*want, *tensors]:
            if name not in tensors:
                raise CheckpointError(f"{path}: missing tensor {name}")
            if name not in want:
                raise CheckpointError(f"{path}: extra tensor {name} not in the {cls.kind} layout")
            if tensors[name].shape != want[name]:
                raise CheckpointError(f"{path}: parameter {name}: file holds shape "
                                      f"{tensors[name].shape}, the layout wants {want[name]}")
        return cls(layout, norm_mean=norm[0], norm_std=norm[1], arrays=tensors)


def check_layout(widths, kernel, error: type):
    """Raise ``error`` unless every width is an int >= 1 and the kernel an
    odd int >= 1."""
    for w in widths:
        if type(w) is not int or w < 1:
            raise error(f"layer width {w!r} is not an int >= 1")
    if type(kernel) is not int or kernel < 1 or kernel % 2 == 0:
        raise error(f"kernel size {kernel!r} is not an odd int >= 1")
