"""Versioned checkpoint container and the parameter-set base of the codec
and the classifier.

Layout: one ASCII header line, one JSON manifest line (metadata plus the
ordered tensor table of names/shapes/dtype), then raw little-endian
float32 tensor data in manifest order, with nothing after the last
tensor. Writing is deterministic byte for byte, so reproducibility tests
can compare files directly.

``save``/``load`` move the raw (kind, meta, tensors) triple, and a
tensor's data passes through memory once: ``save`` writes each tensor
from its own buffer, and ``load``, once the tensor table has been checked
against the file size, reads each one straight into its destination
array.

A ``ParamSet`` (``CodecParams``, ``ClassifierParams``) stores its layout
dataclass fields plus ``norm_mean`` and ``norm_std`` as the meta and its
parameters as the tensors. ``ParamSet.load`` validates: it rebuilds the
layout and compares the file's tensor table with ``layout.shapes()`` by
name and shape, so a missing, extra or misshapen tensor is rejected
before any parameter exists. It then allocates: the set is built with
uninitialised buffers, GRU gate stacks included, and no random init
runs. Last it reads the file into those buffers, in file order, by name.
The file thus bounds what a load allocates: one copy of its tensors.
Every malformed file raises CheckpointError naming the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

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


def _f32le(arr) -> np.ndarray:
    """``arr`` as a C-contiguous little-endian float32 array; no copy when
    it is one already, as every float32 parameter is."""
    return np.ascontiguousarray(arr, dtype="<f4")


def _all_finite(a: np.ndarray) -> bool:
    """No nan or inf in ``a``, read without a temporary the size of ``a``:
    min and max propagate nan, and an infinity is one of them."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def save(path, kind: str, meta: dict, tensors: dict):
    """tensors: ordered name -> ndarray mapping; stored as float32 LE, each
    written from its own buffer. A tensor holding nan or inf is refused
    with a CheckpointError naming it, before anything is written, so no
    writer leaves a broken model behind. The file is written beside
    ``path`` and renamed onto it, so an interrupted save leaves the
    previous file at ``path`` whole."""
    table = []
    for name, arr in tensors.items():
        a = _f32le(arr)
        if not _all_finite(a):
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values; not saved")
        table.append({"name": name, "shape": list(a.shape), "dtype": "f32"})
    manifest = json.dumps({"meta": meta, "tensors": table}, sort_keys=True,
                          separators=(",", ":"))
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(HEADER_PREFIX + kind.encode("ascii") + b"\n")
            f.write(manifest.encode("utf-8") + b"\n")
            for arr in tensors.values():
                f.write(_f32le(arr).data)
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


def _allocate(meta, table) -> dict:
    return {entry["name"]: np.empty(entry["shape"], dtype=np.float32) for entry in table}


def load(path, expect_kind: str | None = None, into=_allocate):
    """Returns (kind, meta, tensors); ``meta`` raises CheckpointError, not
    KeyError, for a key the manifest lacks.

    Once the file has passed every check, ``into(meta, table)`` gives the
    name -> destination mapping that comes back as ``tensors``: for each
    table entry a C-contiguous native float32 array of its shape, which
    the entry's data is read straight into. The default allocates one
    ``np.empty`` array per entry, in file order. A file that ends before
    its last tensor raises CheckpointError."""
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
        declared = 4 * sum(math.prod(entry["shape"]) for entry in table)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if declared > left:
            raise CheckpointError(f"{path}: truncated tensor data: the manifest declares "
                                  f"{declared} bytes, {left} follow it")
        if declared < left:
            raise CheckpointError(f"{path}: {left - declared} trailing bytes after the "
                                  f"last tensor")
        meta = Meta(path, manifest["meta"])
        tensors = into(meta, table)
        for entry in table:
            dest = tensors[entry["name"]]
            if dest.shape != tuple(entry["shape"]) or dest.dtype != np.float32:
                raise ValueError(f"destination of tensor {entry['name']} is {dest.dtype} "
                                 f"{dest.shape}, not float32 {tuple(entry['shape'])}")
            got = f.readinto(dest)
            if got != dest.nbytes:
                raise CheckpointError(f"{path}: truncated tensor data: tensor {entry['name']} "
                                      f"ends after {got} of {dest.nbytes} bytes")
            if sys.byteorder == "big":
                dest.byteswap(inplace=True)
        return kind, meta, tensors


class ParamSet:
    """Base of the codec and classifier parameter sets: normalization stats,
    the parameters its layout's ``shapes()`` table names, and checkpoints.
    A subclass sets ``kind`` and ``layout_cls``; its ``__init__`` calls
    ``_init_params`` and then binds its layers. ``seed=None`` leaves every
    parameter buffer uninitialised, for ``load`` to read the file into."""

    kind: str
    layout_cls: type

    def _init_params(self, layout, seed, norm_mean, norm_std, stacks=()):
        """``stacks`` names the tensor groups that share one buffer (see
        autodiff.make_parameters)."""
        self.layout = layout
        self.norm_mean = np.asarray([0.5] * 3 if norm_mean is None else norm_mean, dtype=np.float32)
        self.norm_std = np.asarray([0.5] * 3 if norm_std is None else norm_std, dtype=np.float32)
        self._params = make_parameters(layout.shapes(), seed, stacks=stacks)
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
        """The set a checkpoint holds: validated against its layout, built
        uninitialised and filled from the file, one copy of its tensors."""
        loaded = None

        def allocate(meta, table):
            nonlocal loaded
            loaded = cls._uninitialised(path, meta, table)
            return {name: p.value for name, p in loaded._params.items()}

        load(path, cls.kind, allocate)
        return loaded

    @classmethod
    def _uninitialised(cls, path, meta, table):
        """The set the layout meta describes, with uninitialised buffers,
        once the file's tensor table matches the layout's by name and
        shape."""
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
        have = {entry["name"]: tuple(entry["shape"]) for entry in table}
        for name in [*want, *have]:
            if name not in have:
                raise CheckpointError(f"{path}: missing tensor {name}")
            if name not in want:
                raise CheckpointError(f"{path}: extra tensor {name} not in the {cls.kind} layout")
            if have[name] != want[name]:
                raise CheckpointError(f"{path}: parameter {name}: file holds shape "
                                      f"{have[name]}, the layout wants {want[name]}")
        return cls(layout, seed=None, norm_mean=norm[0], norm_std=norm[1])


def check_layout(widths, kernel, error: type):
    """Raise ``error`` unless every width is an int >= 1 and the kernel an
    odd int >= 1."""
    for w in widths:
        if type(w) is not int or w < 1:
            raise error(f"layer width {w!r} is not an int >= 1")
    if type(kernel) is not int or kernel < 1 or kernel % 2 == 0:
        raise error(f"kernel size {kernel!r} is not an odd int >= 1")
