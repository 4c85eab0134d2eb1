"""1-bit quantizers and their straight-through-estimator backward rules.

Weights binarize to sign(w) scaled by the layer-wide mean absolute value
(a single scalar per layer). Activations binarize to round(clip(x, 0, 1)),
with halves rounding away from zero. The backward rules are the
straight-through estimators: identity for the weight quantizer, the
clip-window indicator for the activation quantizer.

There is no fused binary conv: `net` applies these functions in its own
units, an activation unit ahead of each binarized conv or fc unit.

The activation quantizer and its straight-through estimator run over
batch chunks on `ops`' lanes, into outputs that the calling thread
allocates; they are elementwise, so any chunking gives the same bits.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import InputError, ShapeError


@dataclass
class BinarizedWeights:
    """signs in {-1,+1} with one positive scalar scale for the whole layer."""

    signs: np.ndarray
    scale: float

    @property
    def values(self) -> np.ndarray:
        return self.signs * np.asarray(self.scale, dtype=self.signs.dtype)


@dataclass
class QuantizedActivations:
    """values in {0,1}; pass_mask marks source entries inside [0, 1]."""

    values: np.ndarray
    pass_mask: np.ndarray


def binarize_weights(w: np.ndarray) -> BinarizedWeights:
    """sign(w) * mean(|w|), with sign(0) := +1."""
    if w.size == 0:
        raise InputError("cannot binarize an empty weight tensor")
    scale = float(np.abs(w).mean())
    signs = np.where(w < 0, w.dtype.type(-1), w.dtype.type(1))
    return BinarizedWeights(signs=signs, scale=scale)


def _over_batch(work, a: np.ndarray) -> None:
    # work(chunk) for chunks of a's first axis, on ops' lanes.
    if a.ndim == 0:
        raise ShapeError("an activation quantizer needs a batch axis, got a 0-d array")
    ops._on_lanes(work, len(a), a.nbytes // max(1, len(a)))


def binarize_activations(x: np.ndarray) -> QuantizedActivations:
    """round(clip(x, 0, 1)) elementwise; 0.5 rounds up. Each chunk is
    clipped, raised by 0.5 and floored in place in the output; np.round is
    round-half-even, and on [0, 1] floor(x + 0.5) rounds halves up."""
    values = np.empty(x.shape, x.dtype)
    pass_mask = np.empty(x.shape, np.bool_)

    def run(chunk):
        v = np.clip(x[chunk], 0.0, 1.0, out=values[chunk])
        np.equal(v, x[chunk], out=pass_mask[chunk])  # clip leaves x as it is exactly where 0 <= x <= 1
        v += 0.5
        np.floor(v, out=v)

    _over_batch(run, x)
    return QuantizedActivations(values=values, pass_mask=pass_mask)


def ste_weight_grad(upstream: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Identity pass-through of the upstream gradient."""
    if upstream.shape != w.shape:
        raise ShapeError(f"upstream shape {upstream.shape} != weight shape {w.shape}")
    return upstream


def ste_activation_grad(upstream: np.ndarray, pass_mask: np.ndarray) -> np.ndarray:
    """Upstream gradient masked to the clip window: `pass_mask` is
    `binarize_activations(x).pass_mask` of the forward input x."""
    if pass_mask.dtype != np.bool_ or upstream.shape != pass_mask.shape:
        raise ShapeError(f"pass_mask must be a bool array of the upstream shape {upstream.shape}, "
                         f"got {pass_mask.dtype} {pass_mask.shape}")
    out = np.empty(upstream.shape, upstream.dtype)
    # np.where(pass_mask, upstream, 0) on the bit patterns: a pattern times
    # True is itself and times False is +0.0's, with no temporary, several
    # times faster than np.where.
    bits = np.dtype(f"u{upstream.itemsize}")

    def run(chunk):
        np.multiply(upstream[chunk].view(bits), pass_mask[chunk], out=out[chunk].view(bits))

    _over_batch(run, upstream)
    return out
