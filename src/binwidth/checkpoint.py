"""Checkpoint persistence, atomic file writes, and supernet slicing.

Checkpoint files are little-endian throughout:

    magic "BNASCKPT"
    format version       u32
    entry count          u32
    per entry: name length u16, UTF-8 name, rank u32, one u32 per dim,
               raw float32 payload in C order
    metadata length      u32
    metadata             UTF-8 JSON {template, ratios, seed}

Read errors carry the byte offset of the first bad field; the metadata,
read by `space.read_json`, must hold exactly its three keys, or its fault
is a `FormatError` at the metadata's offset.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError
from .space import CodeFile, ExpansionCode, ratio_list, read_json, uniform_code, validate_code
from .templates import NetworkTemplate

MAGIC = b"BNASCKPT"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """Named float32 arrays plus the identity of the network they belong to."""

    arrays: dict[str, np.ndarray]
    template: str
    code: ExpansionCode
    seed: int


@dataclass(frozen=True)
class _Metadata(CodeFile):
    seed: int  # the metadata object: a code file's keys plus the network's seed


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via the same-directory temp file `.tmp-<name>` and rename, so
    readers never observe a partial file; makes the directory first, so
    callers do not. The temp name is fixed per target, so a temp file that
    a killed write left is truncated and replaced by the next write of the
    same target; the open refuses a symlink planted at that name."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, ".tmp-" + name)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_NOFOLLOW", 0), 0o600)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def serialize_checkpoint(ckpt: Checkpoint) -> bytes:
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(ckpt.arrays))]
    for name, arr in ckpt.arrays.items():
        if arr.dtype != np.float32:
            raise InputError(f"checkpoint array '{name}' must be float32, got {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise InputError(f"checkpoint array name too long ({len(encoded)} bytes)")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    meta = json.dumps({"template": ckpt.template, "ratios": ratio_list(ckpt.code), "seed": ckpt.seed},
                      sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(meta)))
    parts.append(meta)
    return b"".join(parts)


def write_checkpoint(path: str, ckpt: Checkpoint) -> None:
    atomic_write_bytes(path, serialize_checkpoint(ckpt))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(f"truncated while reading {what}", offset=self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def deserialize_checkpoint(data: bytes) -> Checkpoint:
    r = _Reader(data)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad magic", offset=0)
    version_at = r.offset
    version = r.u32("format version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", offset=version_at)
    count = r.u32("entry count")
    arrays: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u16(f"entry {i} name length")
        name_at = r.offset
        try:
            name = r.take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"entry {i} name is not valid UTF-8", offset=name_at) from None
        if name in arrays:
            raise FormatError(f"duplicate entry name '{name}'", offset=name_at)
        rank = r.u32(f"entry '{name}' rank")
        shape = tuple(r.u32(f"entry '{name}' dim {d}") for d in range(rank))
        payload = r.take(4 * math.prod(shape), f"entry '{name}' payload")
        arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    meta_len = r.u32("metadata length")
    meta_at = r.offset
    raw = r.take(meta_len, "metadata")
    if r.offset != len(data):
        raise FormatError("trailing bytes after metadata", offset=r.offset)
    meta = read_json(raw, _Metadata, lambda message: FormatError(f"metadata: {message}", offset=meta_at))
    return Checkpoint(arrays=arrays, template=meta.template, code=meta.ratios, seed=meta.seed)


def read_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        return deserialize_checkpoint(f.read())


def inherit_weights(supernet: Checkpoint, template: NetworkTemplate, code) -> Checkpoint:
    """Slice a 4x-uniform supernet down to (template, code).

    The supernet must hold every array of the 4x network and nothing else.
    Each entry must have its full supernet shape, and keeps the leading
    prefix of every axis up to the child's shape: conv weights
    [out, in, kh, kw], fc weights [flattened-in, out] (rows are
    channel-major so a channel prefix is a row prefix), per-channel
    vectors [c]. No ratio exceeds 4, so every child extent fits. With the
    all-4 code the result is an unchanged copy.
    """
    code = validate_code(code, template.n_genes)
    if supernet.template != template.name:
        raise InputError(f"supernet is for template '{supernet.template}', not '{template.name}'")
    if supernet.code != uniform_code(4, template.n_genes):
        raise InputError(f"supernet code {supernet.code} is not uniform 4x")
    target = {g.spec.name: g.shapes for g in template.plan.layers(code)}
    source = {g.spec.name: g.shapes for g in template.plan.layers(supernet.code)}
    missing = [f"{layer}.{field}" for layer, shapes in source.items() for field in shapes
               if f"{layer}.{field}" not in supernet.arrays]
    if missing:
        raise InputError(f"supernet lacks {len(missing)} array(s) of '{template.name}': {', '.join(missing)}")
    sliced: dict[str, np.ndarray] = {}
    for name, arr in supernet.arrays.items():
        layer, _, field = name.rpartition(".")
        have = source.get(layer, {}).get(field)
        if have is None:
            raise InputError(f"checkpoint entry '{name}' matches no array of '{template.name}'")
        if arr.shape != have:
            raise InputError(f"'{name}' has shape {arr.shape}, expected {have} for the supernet")
        sliced[name] = np.ascontiguousarray(arr[tuple(map(slice, target[layer][field]))])
    return Checkpoint(arrays=sliced, template=template.name, code=code, seed=supernet.seed)
