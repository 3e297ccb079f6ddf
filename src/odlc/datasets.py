"""Datasets: a deterministic procedural shape generator and folder ingestion.

The generator renders one of ten colored geometric shapes over a smooth
random color texture. Every image is a pure function of
(seed, split, index), so train/val/lossnet splits are disjoint by split
tag and runs are reproducible without any files on disk. Labels cycle
through the classes, keeping every split balanced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imageops, ppm
from .codec import MAX_SIDE

CLASS_NAMES = (
    "disk", "ring", "square", "triangle", "plus",
    "star", "stripes", "ellipse", "checker", "corner",
)

_SPLIT_TAGS = {"train": 0x11, "val": 0x22, "test": 0x33, "lossnet": 0x44, "extra": 0x55}


class DatasetError(ValueError):
    pass


def _check_render_args(split: str, classes: int, resolution: int):
    if split not in _SPLIT_TAGS:
        raise DatasetError(f"unknown split {split!r}; known: {sorted(_SPLIT_TAGS)}")
    if not 2 <= classes <= len(CLASS_NAMES):
        raise DatasetError(f"classes must be in 2..{len(CLASS_NAMES)}, got {classes}")
    # a render at MAX_SIDE peaks at 576.5 MiB (tracemalloc, every class), set by
    # the noise beside resize_bilinear's output and its one temporary, 192 MiB each
    if not 1 <= resolution <= MAX_SIDE:
        raise DatasetError(f"resolution must be in 1..{MAX_SIDE}, got {resolution}")


def _rot(yy, xx, theta):
    c, s = np.cos(theta), np.sin(theta)
    return c * yy - s * xx, s * yy + c * xx


# Most elements of one row band of `_shape_mask`'s float64 grids (1 MiB each).
_MASK_BAND = 1 << 17


def _shape_mask(cls: int, res: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask at 2x resolution (downsampled later for soft edges),
    evaluated one band of rows at a time, so that the class formula's
    float64 grids hold at most _MASK_BAND elements each."""
    n = res * 2
    cy = n * (0.5 + rng.uniform(-0.12, 0.12))
    cx = n * (0.5 + rng.uniform(-0.12, 0.12))
    r = n * rng.uniform(0.18, 0.30)
    # open grids: (n, 1) and (1, n); the class formulas broadcast them
    yy = np.arange(n, dtype=np.float64)[:, None] - cy
    xx = np.arange(n, dtype=np.float64)[None, :] - cx
    small = rng.uniform(-0.18, 0.18)  # near-axis jitter for oriented classes
    free = rng.uniform(0.0, 2 * np.pi)
    if cls not in range(len(CLASS_NAMES)):
        raise DatasetError(f"no shape class {cls}")
    mask = np.empty((n, n), dtype=bool)
    rows = max(1, _MASK_BAND // n)
    for a in range(0, n, rows):
        mask[a : a + rows] = _class_mask(cls, yy[a : a + rows], xx, r, small, free)
    return mask


def _class_mask(cls: int, yy, xx, r: float, small: float, free: float) -> np.ndarray:
    """The mask of shape class ``cls`` of radius ``r`` over the grids yy
    and xx, centred on the shape; ``small`` and ``free`` are its angles."""
    if cls == 0:  # disk
        return yy * yy + xx * xx <= r * r
    if cls == 1:  # ring
        d2 = yy * yy + xx * xx
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if cls == 2:  # square
        ry, rx = _rot(yy, xx, small)
        return np.maximum(np.abs(ry), np.abs(rx)) <= 0.85 * r
    if cls == 3:  # triangle
        ry, rx = _rot(yy, xx, free)
        # equilateral: inside three half-planes
        a = ry <= 0.5 * r
        b = (-0.5 * ry + 0.8660254 * rx) <= 0.5 * r
        c = (-0.5 * ry - 0.8660254 * rx) <= 0.5 * r
        return a & b & c
    if cls == 4:  # plus
        ry, rx = _rot(yy, xx, small)
        bar = 0.33 * r
        return ((np.abs(ry) <= bar) & (np.abs(rx) <= r)) | ((np.abs(rx) <= bar) & (np.abs(ry) <= r))
    if cls == 5:  # four-point star
        ry, rx = _rot(yy, xx, small)
        phi = np.arctan2(ry, rx)
        rad = np.sqrt(ry * ry + rx * rx)
        return rad <= r * (0.35 + 0.65 * np.abs(np.cos(2 * phi)))
    if cls == 6:  # two parallel stripes
        ry, rx = _rot(yy, xx, small)
        bar = 0.22 * r
        return (np.abs(rx) <= r) & ((np.abs(ry - 0.55 * r) <= bar) | (np.abs(ry + 0.55 * r) <= bar))
    if cls == 7:  # ellipse
        ry, rx = _rot(yy, xx, free)
        return (ry / (0.45 * r)) ** 2 + (rx / r) ** 2 <= 1.0
    if cls == 8:  # 2x2 checker inside a square
        ry, rx = _rot(yy, xx, small)
        inside = np.maximum(np.abs(ry), np.abs(rx)) <= 0.9 * r
        return inside & ((ry >= 0) ^ (rx >= 0))
    # cls == 9: corner (square minus one quadrant)
    ry, rx = _rot(yy, xx, small)
    sq = np.maximum(np.abs(ry), np.abs(rx)) <= 0.9 * r
    return sq & ~((ry < 0) & (rx > 0))


def render_shape_image(seed: int, split: str, index: int, classes: int = 10,
                       resolution: int = 64):
    """Deterministic (image, label) pair; image is float32 CHW in [0,1]."""
    _check_render_args(split, classes, resolution)
    label = index % classes
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SPLIT_TAGS[split], index)))

    # smooth colored texture: coarse grid, bilinear blowup, mild noise
    grid = rng.uniform(0.15, 0.85, size=(3, 5, 5)).astype(np.float32)
    bg = rng.standard_normal((3, resolution * 2, resolution * 2), dtype=np.float32)
    bg *= 0.015
    bg += imageops.resize_bilinear(grid, resolution * 2, resolution * 2)

    mask = _shape_mask(label, resolution, rng)
    local_mean = float(bg.mean(dtype=np.float64))
    color = rng.uniform(0.05, 0.95, size=3).astype(np.float32)
    # push the fill color away from the background so shapes stay visible
    for c in range(3):
        if abs(color[c] - local_mean) < 0.25:
            color[c] = np.clip(local_mean + np.sign(color[c] - local_mean + 1e-6) * 0.35, 0.0, 1.0)

    # bg*(1-m) + color*m with m in {0, 1} is exactly bg or color
    np.copyto(bg, color[:, None, None], where=mask)
    img = ad._pool2(bg)
    return np.clip(img, 0.0, 1.0, out=img), label


@dataclass(frozen=True)
class ShapesSpec:
    seed: int = 0
    split: str = "train"
    size: int = 2000
    classes: int = 10
    resolution: int = 64

    def __post_init__(self):
        _check_render_args(self.split, self.classes, self.resolution)


class ShapesDataset:
    """Procedural dataset; images are regenerated on demand."""

    def __init__(self, spec: ShapesSpec):
        if spec.size < 1:
            raise DatasetError("dataset size must be >= 1")
        self.spec = spec

    def __len__(self):
        return self.spec.size

    @property
    def class_count(self):
        return self.spec.classes

    def image(self, i: int) -> np.ndarray:
        if not 0 <= i < self.spec.size:
            raise IndexError(i)
        img, _ = render_shape_image(self.spec.seed, self.spec.split, i,
                                    self.spec.classes, self.spec.resolution)
        return img

    def label(self, i: int) -> int:
        if not 0 <= i < self.spec.size:
            raise IndexError(i)
        return i % self.spec.classes


class FolderDataset:
    """Images from a directory plus a labels file of "<name> <class>" lines."""

    def __init__(self, root: str):
        self.root = root
        path = os.path.join(root, "labels.txt")
        if not os.path.exists(path):
            raise DatasetError(f"labels file not found: {path}")
        self.entries = []
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise DatasetError(f"{path}:{ln}: expected '<file> <label>'")
                try:
                    label = int(parts[1])
                except ValueError:
                    raise DatasetError(f"{path}:{ln}: label {parts[1]!r} is not an int") from None
                if label < 0:
                    raise DatasetError(f"{path}:{ln}: label {label} is negative")
                self.entries.append((parts[0], label))
        if not self.entries:
            raise DatasetError(f"{path}: no entries")

    def __len__(self):
        return len(self.entries)

    @property
    def class_count(self):
        return max(lbl for _, lbl in self.entries) + 1

    def image(self, i: int) -> np.ndarray:
        return ppm.read_ppm(os.path.join(self.root, self.entries[i][0]))

    def label(self, i: int) -> int:
        return self.entries[i][1]


# the int keys of a shapes spec -> their ShapesSpec fields
_INT_KEYS = {"seed": "seed", "n": "size", "classes": "classes", "res": "resolution"}


def parse_spec(text: str, default_split: str = "train"):
    """Dataset spec strings: "shapes:seed=0,split=train,n=2000[,classes=,res=]"
    or a directory path containing labels.txt."""
    if text.startswith("shapes:") or text == "shapes":
        fields, given = {"split": default_split}, {}
        for part in filter(None, text.partition(":")[2].split(",")):
            if "=" not in part:
                raise DatasetError(f"bad spec fragment {part!r}")
            key, value = (s.strip() for s in part.split("=", 1))
            if key in given:
                raise DatasetError(f"shapes spec key {key!r} is given twice: "
                                   f"{given[key]!r} and {part!r}")
            given[key] = part
            if key == "split":
                fields["split"] = value
            elif key not in _INT_KEYS:
                raise DatasetError(f"unknown shapes spec key {key!r}; "
                                   "known: seed, split, n, classes, res")
            else:
                try:
                    fields[_INT_KEYS[key]] = int(value)
                except ValueError:
                    raise DatasetError(f"shapes spec {key}={value!r} is not an int") from None
        return ShapesDataset(ShapesSpec(**fields))
    if os.path.isdir(text):
        return FolderDataset(text)
    raise DatasetError(f"dataset spec {text!r} is neither 'shapes:...' nor a directory")


def materialize(dataset, out_dir: str) -> str:
    """Write a dataset to disk as PPM files + labels.txt; returns the dir."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i in range(len(dataset)):
        name = f"img_{i:05d}.ppm"
        ppm.write_ppm(os.path.join(out_dir, name), dataset.image(i))
        lines.append(f"{name} {dataset.label(i)}")
    with open(os.path.join(out_dir, "labels.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return out_dir
