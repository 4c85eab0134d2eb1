"""Dataset ingestion, subsetting, and batching.

Parsers ingest the two classic image formats bit-exactly: IDX (big-endian
magic and dims, raw ubyte payload) and the 3073-byte-record binary layout
(label byte, then R/G/B planes row-major). Parsed pixels are the file's
bytes over 255, in [0,1]; standardization with fixed per-channel
statistics happens at batch time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InputError
from .seeding import rng_from

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
RGB_RECORD_BYTES = 3073

# Standardization statistics, by channel count of the incoming images.
RGB_MEAN = (0.4914, 0.4822, 0.4465)
RGB_STD = (0.2470, 0.2435, 0.2616)
GRAY_MEAN = (0.1307,)
GRAY_STD = (0.3081,)

AUGMENT_PAD = 4


@dataclass
class Dataset:
    """Images in [0,1], NCHW float32; treat as immutable after construction."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str = "train"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise InputError(f"images must be [N,C,H,W], got {self.images.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.images.shape[0]:
            raise InputError(f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images")
        if self.class_count < 1:
            raise InputError(f"class_count must be >= 1, got {self.class_count}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise InputError(f"labels outside [0, {self.class_count})")
        if self.split not in ("train", "val", "test"):
            raise InputError(f"split must be train|val|test, got '{self.split}'")
        self.images.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return int(self.images.shape[0])


def _idx_header(data: bytes, magic: int, rank: int, what: str) -> tuple[int, ...]:
    need = 4 * (1 + rank)
    if len(data) < need:
        raise FormatError(f"{what} header needs {need} bytes, file has {len(data)}", offset=len(data))
    got = struct.unpack(">I", data[:4])[0]
    if got != magic:
        raise FormatError(f"{what} magic 0x{got:08x} != 0x{magic:08x}", offset=0)
    return struct.unpack(f">{rank}I", data[4:need])


def parse_mnist_idx(image_bytes: bytes, label_bytes: bytes, split: str = "train") -> Dataset:
    """Parse paired IDX image/label files into a 1-channel Dataset."""
    n, h, w = _idx_header(image_bytes, IDX_IMAGE_MAGIC, 3, "image")
    (n_labels,) = _idx_header(label_bytes, IDX_LABEL_MAGIC, 1, "label")
    if n != n_labels:
        raise FormatError(f"image file holds {n} items but label file holds {n_labels}", offset=4)
    expected = 16 + n * h * w
    if len(image_bytes) != expected:
        raise FormatError(f"image payload should end at byte {expected}, file has {len(image_bytes)}",
                          offset=min(expected, len(image_bytes)))
    if len(label_bytes) != 8 + n:
        raise FormatError(f"label payload should end at byte {8 + n}, file has {len(label_bytes)}",
                          offset=min(8 + n, len(label_bytes)))
    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16).reshape(n, 1, h, w)
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise FormatError(f"label byte {labels.max()} > 9", offset=8 + int(labels.argmax()))
    return Dataset(pixels.astype(np.float32) / 255.0, labels, class_count=10, split=split)


def pack_mnist_idx(pixels: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    """uint8 images [N,1,H,W] and their labels as (image file bytes, label file bytes)."""
    n, c, h, w = pixels.shape
    if c != 1:
        raise InputError(f"IDX serialization needs 1-channel images, got {c}")
    image_bytes = struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w) + pixels.astype(np.uint8, copy=False).tobytes()
    label_bytes = struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.astype(np.uint8).tobytes()
    return image_bytes, label_bytes


def parse_cifar10_bin(data: bytes, split: str = "train") -> Dataset:
    """Parse 3073-byte records (label, R plane, G plane, B plane)."""
    if len(data) % RGB_RECORD_BYTES != 0:
        raise FormatError(
            f"length {len(data)} is not a multiple of {RGB_RECORD_BYTES}",
            offset=len(data) - len(data) % RGB_RECORD_BYTES,
        )
    n = len(data) // RGB_RECORD_BYTES
    records = np.frombuffer(data, dtype=np.uint8).reshape(n, RGB_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(labels.argmax())
        raise FormatError(f"record {bad} label byte {labels[bad]} > 9", offset=bad * RGB_RECORD_BYTES)
    images = records[:, 1:].reshape(n, 3, 32, 32).astype(np.float32) / 255.0
    return Dataset(images, labels, class_count=10, split=split)


def pack_cifar10_bin(pixels: np.ndarray, labels: np.ndarray) -> bytes:
    """uint8 images [N,3,32,32] and their labels as concatenated records."""
    if pixels.shape[1:] != (3, 32, 32):
        raise InputError(f"record serialization needs [N,3,32,32] images, got {pixels.shape}")
    records = np.empty((pixels.shape[0], RGB_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels.reshape(pixels.shape[0], RGB_RECORD_BYTES - 1)
    return records.tobytes()


def stratified_split(dataset: Dataset, per_class_a: int, per_class_b: int, seed: int) -> tuple[Dataset, Dataset]:
    """Two disjoint stratified subsets from one pool (e.g. proxy train/val):
    the first per_class_a and the next per_class_b of each class's seeded
    shuffle, classes in order; the second subset's split is "val"."""
    if per_class_a < 1 or per_class_b < 1:
        raise InputError("both split sizes must be >= 1")
    need = per_class_a + per_class_b
    parts_a, parts_b = [], []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < need:
            raise InputError(f"class {c} has {idx.size} samples, need {need}")
        perm = idx[rng_from(seed, "class", c).permutation(idx.size)]
        parts_a.append(perm[:per_class_a])
        parts_b.append(perm[per_class_a:need])
    a, b = np.concatenate(parts_a), np.concatenate(parts_b)
    return (Dataset(dataset.images[a], dataset.labels[a], dataset.class_count, dataset.split),
            Dataset(dataset.images[b], dataset.labels[b], dataset.class_count, "val"))


def _stats_for(channels: int) -> tuple[np.ndarray, np.ndarray]:
    if channels == 3:
        mean, std = RGB_MEAN, RGB_STD
    elif channels == 1:
        mean, std = GRAY_MEAN, GRAY_STD
    else:
        raise InputError(f"no standardization statistics for {channels}-channel images")
    shape = (1, channels, 1, 1)
    return (np.asarray(mean, dtype=np.float32).reshape(shape),
            np.asarray(std, dtype=np.float32).reshape(shape))


def _augment(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reflect-pad by 4, random crop back to size, random horizontal flip."""
    n, _, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (AUGMENT_PAD, AUGMENT_PAD), (AUGMENT_PAD, AUGMENT_PAD)),
                    mode="reflect")
    offsets = rng.integers(0, 2 * AUGMENT_PAD + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    out = np.empty_like(images)
    for i in range(n):
        oy, ox = offsets[i]
        crop = padded[i, :, oy : oy + h, ox : ox + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def make_batches(dataset: Dataset, batch_size: int, seed: int, augment: bool = False, shuffle: bool = True):
    """Yield (standardized images, labels) covering the dataset once.

    Shuffle order and augmentation draws are fully determined by `seed`.
    The final short batch is kept.
    """
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    mean, std = _stats_for(dataset.images.shape[1])
    rng = rng_from(seed, "batches")
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        take = order[start : start + batch_size]
        images = dataset.images[take]
        if augment:
            images = _augment(images, rng)
        yield (images - mean) / std, dataset.labels[take]
