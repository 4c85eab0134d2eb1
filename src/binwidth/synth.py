"""Deterministic synthetic image sets in the two supported file formats.

Samples are rendered digit glyphs with jittered placement, intensity,
and noise: enough signal that small nets learn them quickly, enough
variation that accuracy is not trivially 100%. Generators emit raw
format bytes so the regular parsers stay the only ingestion path, and
one loop writes the train and test files of either format.
"""

from __future__ import annotations

import os

import numpy as np

from .checkpoint import atomic_write_bytes
from .data import pack_cifar10_bin, pack_mnist_idx
from .errors import InputError
from .seeding import derive_seed, rng_from

_GLYPHS = (
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
)

CLASS_COUNT = len(_GLYPHS)


def _glyph_mask(label: int, scale: int) -> np.ndarray:
    rows = _GLYPHS[label]
    bits = np.array([[ch == "1" for ch in row] for row in rows], dtype=bool)
    return np.kron(bits, np.ones((scale, scale), dtype=bool))


def _render(label: int, size: int, scale: int, rng: np.random.Generator) -> np.ndarray:
    """One grayscale glyph image as uint8 [size, size]."""
    mask = _glyph_mask(label, scale)
    gh, gw = mask.shape
    max_y, max_x = size - gh, size - gw
    oy = int(rng.integers(max(0, max_y // 2 - 2), min(max_y, max_y // 2 + 2) + 1))
    ox = int(rng.integers(max(0, max_x // 2 - 2), min(max_x, max_x // 2 + 2) + 1))
    canvas = rng.integers(0, 31, size=(size, size)).astype(np.uint8)
    ink = int(rng.integers(190, 256))
    region = canvas[oy : oy + gh, ox : ox + gw]
    region[mask] = ink
    return canvas


def _labels(per_class: int, rng: np.random.Generator) -> np.ndarray:
    if per_class < 1:
        raise InputError(f"per_class must be >= 1, got {per_class}")
    labels = np.repeat(np.arange(CLASS_COUNT), per_class)
    return labels[rng.permutation(labels.size)]


def synth_gray_images(per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """uint8 images [N,1,28,28] plus labels, shuffled across classes."""
    rng = rng_from(seed, "gray")
    labels = _labels(per_class, rng)
    images = np.stack([_render(int(c), 28, 3, rng)[None] for c in labels])
    return images, labels


def synth_rgb_images(per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """uint8 images [N,3,32,32]; class is the glyph shape, color is noise."""
    rng = rng_from(seed, "rgb")
    labels = _labels(per_class, rng)
    images = np.empty((labels.size, 3, 32, 32), dtype=np.uint8)
    for i, c in enumerate(labels):
        gray = _render(int(c), 32, 4, rng).astype(np.float32) / 255.0
        tint = rng.uniform(0.55, 1.0, size=3).astype(np.float32)
        background = rng.uniform(0.0, 0.25, size=3).astype(np.float32)
        planes = gray[None] * tint[:, None, None] + (1.0 - gray[None]) * background[:, None, None]
        images[i] = np.rint(np.clip(planes, 0.0, 1.0) * 255.0).astype(np.uint8)
    return images, labels


def idx_bytes(per_class: int, seed: int) -> tuple[bytes, bytes]:
    """Grayscale set as (image file bytes, label file bytes) in IDX layout."""
    return pack_mnist_idx(*synth_gray_images(per_class, seed))


def rgb_record_bytes(per_class: int, seed: int) -> bytes:
    """RGB set as concatenated binary records (`data.pack_cifar10_bin`)."""
    return pack_cifar10_bin(*synth_rgb_images(per_class, seed))


def _write_files(directory: str, keys: tuple[str, ...], suffix: str, blobs, train_per_class: int,
                 test_per_class: int, seed: int) -> dict[str, str]:
    """The train set's then the test set's `blobs(per_class, seed)`, one
    file per key, named after it; returns the paths by key."""
    paths = {key: os.path.join(directory, key.replace("_", "-") + suffix) for key in keys}
    data = blobs(train_per_class, derive_seed(seed, "train")) + blobs(test_per_class, derive_seed(seed, "test"))
    for path, blob in zip(paths.values(), data):
        atomic_write_bytes(path, blob)
    return paths


def write_gray_files(directory: str, train_per_class: int, test_per_class: int, seed: int = 0) -> dict[str, str]:
    """IDX train/test pairs on disk; returns the four paths."""
    keys = ("train_images", "train_labels", "test_images", "test_labels")
    return _write_files(directory, keys, ".idx", idx_bytes, train_per_class, test_per_class, seed)


def write_rgb_files(directory: str, train_per_class: int, test_per_class: int, seed: int = 0) -> dict[str, str]:
    """Record-format train/test files on disk; returns the two paths."""
    return _write_files(directory, ("train", "test"), ".bin", lambda n, s: (rgb_record_bytes(n, s),),
                        train_per_class, test_per_class, seed)
