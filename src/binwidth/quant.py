"""1-bit quantizers and their straight-through-estimator backward rules.

Weights binarize to sign(w) scaled by the layer-wide mean absolute value
(a single scalar per layer). Activations binarize to round(clip(x, 0, 1)),
with halves rounding away from zero. The backward rules are the
straight-through estimators: identity for the weight quantizer, the
clip-window indicator for the activation quantizer.

There is no fused binary conv: `net` applies these functions in its own
units, an activation unit ahead of each binarized conv or fc unit.
"""

from dataclasses import dataclass

import numpy as np

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
    signs = np.where(w < 0, -1.0, 1.0).astype(w.dtype)
    return BinarizedWeights(signs=signs, scale=scale)


def binarize_activations(x: np.ndarray) -> QuantizedActivations:
    """round(clip(x, 0, 1)) elementwise; 0.5 rounds up."""
    clipped = np.clip(x, 0.0, 1.0)
    # np.round is round-half-even; values are in [0,1] so floor(x+0.5) is
    # round-half-away-from-zero here.
    values = np.floor(clipped + 0.5).astype(x.dtype)
    pass_mask = (x >= 0.0) & (x <= 1.0)
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
    return np.where(pass_mask, upstream, np.zeros((), dtype=upstream.dtype))
