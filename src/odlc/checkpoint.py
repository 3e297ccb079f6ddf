"""Versioned checkpoint container shared by codec and classifier params.

Layout: one ASCII header line, one JSON manifest line (metadata plus the
ordered tensor table of names/shapes/dtype), then raw little-endian
float32 tensor data in manifest order. Writing is deterministic byte for
byte, so reproducibility tests can compare files directly.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

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


def load(path, expect_kind: str | None = None):
    """Returns (kind, meta, tensors dict of float32 arrays); ``meta`` raises
    CheckpointError, not KeyError, for a key the manifest lacks."""
    with open(path, "rb") as f:
        header = f.readline()
        if not header.startswith(HEADER_PREFIX):
            raise CheckpointError(f"{path}: not an ODLC checkpoint")
        kind = header[len(HEADER_PREFIX):].strip().decode("ascii")
        if expect_kind is not None and kind != expect_kind:
            raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected {expect_kind!r}")
        try:
            manifest = json.loads(f.readline().decode("utf-8"))
        except ValueError as e:
            raise CheckpointError(f"{path}: bad manifest: {e}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("meta"), dict):
            raise CheckpointError(f"{path}: bad manifest: no meta object")
        tensors = {}
        for entry in manifest["tensors"]:
            shape = tuple(entry["shape"])
            if entry["dtype"] != "f32":
                raise CheckpointError(f"{path}: unsupported tensor dtype {entry['dtype']}")
            count = int(np.prod(shape)) if shape else 1
            raw = f.read(count * 4)
            if len(raw) != count * 4:
                raise CheckpointError(f"{path}: truncated tensor data at {entry['name']}")
            tensors[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        return kind, Meta(path, manifest["meta"]), tensors


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
