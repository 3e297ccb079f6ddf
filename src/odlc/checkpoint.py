"""Versioned checkpoint container shared by codec and classifier params.

Layout: one ASCII header line, one JSON manifest line (metadata plus the
ordered tensor table of names/shapes/dtype), then raw little-endian
float32 tensor data in manifest order, with nothing after the last
tensor. Writing is deterministic byte for byte, so reproducibility tests
can compare files directly.

``save``/``load`` move the raw (kind, meta, tensors) triple. A parameter
set (``CodecParams``, ``ClassifierParams``) goes through
``save_params``/``load_params``: its layout dataclass fields plus
``norm_mean`` and ``norm_std`` are the meta, its parameters the tensors.
Every malformed file raises CheckpointError naming the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .autodiff import ShapeError

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
    """tensors: ordered name -> ndarray mapping; stored as float32 LE."""
    table = []
    blobs = []
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        table.append({"name": name, "shape": list(a.shape), "dtype": "f32"})
        blobs.append(a.tobytes())
    manifest = json.dumps({"meta": meta, "tensors": table}, sort_keys=True,
                          separators=(",", ":"))
    with open(path, "wb") as f:
        f.write(HEADER_PREFIX + kind.encode("ascii") + b"\n")
        f.write(manifest.encode("utf-8") + b"\n")
        for b in blobs:
            f.write(b)


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


def save_params(path, kind: str, params):
    """Checkpoint a parameter set: layout fields and normalization stats as
    meta, every parameter tensor under its name."""
    meta = dataclasses.asdict(params.layout)
    meta["norm_mean"] = [float(v) for v in params.norm_mean]
    meta["norm_std"] = [float(v) for v in params.norm_std]
    save(path, kind, meta, {p.name: p.value for p in params.parameters()})


def load_params(path, kind: str, params_cls, layout_cls):
    """Inverse of save_params: rebuild the layout from its dataclass fields,
    construct params_cls around it and fill every tensor by name."""
    _, meta, tensors = load(path, expect_kind=kind)
    fields = {}
    for fld in dataclasses.fields(layout_cls):
        value = meta[fld.name]
        fields[fld.name] = tuple(value) if isinstance(value, list) else value
    norm_mean, norm_std = meta["norm_mean"], meta["norm_std"]
    try:
        params = params_cls(layout_cls(**fields), norm_mean=norm_mean, norm_std=norm_std)
    except (ValueError, TypeError) as e:
        raise CheckpointError(f"{path}: bad layout meta: {e}") from None
    if params.norm_mean.shape != (3,) or params.norm_std.shape != (3,):
        raise CheckpointError(f"{path}: normalization stats must hold 3 channels")
    for p in params.parameters():
        if p.name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {p.name}")
        try:
            p.value = tensors[p.name]
        except ShapeError as e:
            raise CheckpointError(f"{path}: {e}") from None
    return params
