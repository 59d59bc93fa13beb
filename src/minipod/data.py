"""Dataset ingestion: IDX image files and deterministic synthetic generators.

The synthetic generator draws its float64 noise one block of rows at a time
(NOISE_BLOCK_BYTES) and writes float32 pixels into one preallocated array, so
it holds the set plus one block, never a float64 copy of the whole set.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import stream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# float64 noise gen_synthetic draws and works at a time: 256 rows of 16x16x1.
NOISE_BLOCK_BYTES = 1 << 19


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    """Images scaled to [0,1] plus integer labels."""

    images: np.ndarray  # [n, H, W, C] float32
    labels: np.ndarray  # [n] int64
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or len(self.images) < 1:
            raise ValueError(f"images must be [n,H,W,C], got {self.images.shape}")
        if self.labels.shape != (len(self.images),):
            raise ValueError(
                f"{len(self.images)} images but {self.labels.shape} labels"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"found {self.labels.min()}..{self.labels.max()}"
            )

    def __len__(self) -> int:
        return len(self.images)


def _read_exact(f, nbytes: int, path, what: str) -> bytes:
    # Sized against the file first: a header may claim far more than it holds.
    have = os.fstat(f.fileno()).st_size - f.tell()
    if have < nbytes:
        raise IdxFormatError(
            f"{path}: truncated file while reading {what} "
            f"({have} of {nbytes} bytes)"
        )
    return f.read(nbytes)


def load_idx(images_path, labels_path) -> Dataset:
    """Load a big-endian IDX image/label file pair (u8 pixels, u8 labels)."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, images_path, "image header")
        )
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, "
                f"expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        if rows < 1 or cols < 1:
            raise IdxFormatError(f"{images_path}: images of {rows}x{cols} pixels")
        if n < 1:
            raise IdxFormatError(f"{images_path}: holds no images")
        raw = _read_exact(f, n * rows * cols, images_path, f"{n} images")
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(
            ">II", _read_exact(f, 8, labels_path, "label header")
        )
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, "
                f"expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        label_raw = _read_exact(f, n_labels, labels_path, f"{n_labels} labels")
    if n != n_labels:
        raise IdxFormatError(
            f"count mismatch: {n} images in {images_path} but "
            f"{n_labels} labels in {labels_path}"
        )
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols, 1)
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return Dataset(
        images=images.astype(np.float32) / np.float32(255.0),
        labels=labels,
        num_classes=int(labels.max()) + 1,
    )


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write u8 images/labels in IDX format (inverse of load_idx).

    Every pixel and label must be a whole number in 0..255, so that the file
    holds the values given; any dtype is accepted.
    """
    if images.ndim != 4 or images.shape[3] != 1:
        raise ValueError(f"writer expects [n,H,W,1] u8 images, got {images.shape}")
    images, labels = _as_u8(images, "pixel"), _as_u8(labels, "label")
    if labels.shape != (len(images),):
        raise ValueError(f"{len(images)} images but labels of shape {labels.shape}")
    n, rows, cols, _ = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.tobytes())


def _as_u8(values, what: str) -> np.ndarray:
    values = np.asarray(values)
    bad = ~((values >= 0) & (values <= 255) & (values == np.floor(values)))
    if bad.any():
        raise ValueError(f"write_idx: {what} {values[bad][0]} is not "
                         f"a whole number in 0..255")
    return np.ascontiguousarray(values, dtype=np.uint8)


def class_templates(
    num_classes: int, height: int, width: int, channels: int, seed: int
) -> np.ndarray:
    """Fixed per-class template images, independent of dataset size."""
    out = np.empty((num_classes, height, width, channels), dtype=np.float32)
    for k in range(num_classes):
        out[k] = stream(seed, "template", k).random(
            (height, width, channels), dtype=np.float32
        )
    return out


def gen_synthetic(
    num_classes: int,
    n: int,
    height: int,
    width: int,
    channels: int,
    seed: int,
    noise_stream: int = 0,
) -> Dataset:
    """Class-conditional images: per-class template plus Gaussian pixel noise.

    sigma=0.1, clamped to [0,1]; linearly separable enough that a nearest-
    template classifier exceeds 99%. noise_stream picks an independent noise
    draw over the same templates (0 = train split, 1 = eval split).
    """
    if min(num_classes, n, height, width, channels) < 1:
        raise ValueError("all synthetic dataset dimensions must be >= 1")
    templates = class_templates(num_classes, height, width, channels, seed)
    labels = np.arange(n, dtype=np.int64) % num_classes
    images = np.empty((n, height, width, channels), dtype=np.float32)
    # Sequential draws continue one stream, so the blocks hold the bytes of a
    # single draw of all n rows: template + 0.1 * noise, clamped, in float64.
    noise = stream(seed, "noise", noise_stream)
    rows = max(1, NOISE_BLOCK_BYTES // (8 * height * width * channels))
    for start in range(0, n, rows):
        block = noise.standard_normal((min(rows, n - start), height, width, channels))
        block *= 0.1
        block += templates[labels[start:start + len(block)]]
        np.clip(block, 0.0, 1.0, out=block)
        images[start:start + len(block)] = block
    return Dataset(images=images, labels=labels, num_classes=num_classes)
