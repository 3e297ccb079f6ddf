"""key = value config files, CSV emission, and run manifests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time


class ConfigError(ValueError):
    pass


def read_kv(path) -> dict:
    """Parse "key = value" lines; '#' starts a comment, blanks ignored."""
    out = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{ln}: empty key")
            out[key] = value
    return out


def _coerce(text: str, pytype):
    if pytype in (int, float, str):
        return pytype(text)
    if pytype is tuple:
        return tuple(v.strip() for v in text.split(",") if v.strip())
    raise ConfigError(f"unsupported config field type {pytype}")


def apply_kv(cfg, kv: dict):
    """Rebuild a (frozen) dataclass with fields overridden from a kv dict.

    Unknown keys raise. A field is typed by its current value, so a
    None-valued field cannot be set from text.
    """
    fields = {f.name for f in dataclasses.fields(cfg)}
    updates = {}
    for key, text in kv.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}; known: {sorted(fields)}")
        try:
            updates[key] = _coerce(text, type(getattr(cfg, key)))
        except ValueError as e:
            raise ConfigError(f"config key {key!r}: {e}") from None
    return dataclasses.replace(cfg, **updates)


def config_digest(cfg) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".8g")
    return str(v)


def file_digest(path) -> str:
    """sha256 of a file's bytes; of a directory, over each regular file's
    path relative to it, in sorted order, and that file's digest."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for rel in sorted(os.path.relpath(os.path.join(d, name), path)
                          for d, _, names in os.walk(path) for name in names):
            if os.path.isfile(os.path.join(path, rel)):
                h.update(f"{rel}\0{file_digest(os.path.join(path, rel))}\n".encode())
        return h.hexdigest()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, configs: dict, seed, inputs: list,
                   tool_version: str):
    """Text run manifest: command, config digests, seed, input digests (a
    folder's over its files), version and timestamps."""
    lines = [
        f"command: {command}",
        f"tool_version: {tool_version}",
        f"seed: {seed}",
        f"started_utc: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
    ]
    for name, cfg in configs.items():
        lines.append(f"config.{name}: {config_digest(cfg)}")
    for p in inputs:
        if p and (os.path.isfile(p) or os.path.isdir(p)):
            lines.append(f"input: {p} sha256={file_digest(p)}")
        elif p:
            lines.append(f"input: {p}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
