"""1-bit quantizers and their straight-through-estimator backward rules.

Weights binarize to sign(w) scaled by the layer-wide mean absolute value
(a single scalar per layer). Activations binarize to round(clip(x, 0, 1)),
with halves rounding away from zero. The backward rules are the
straight-through estimators: identity for the weight quantizer, the
clip-window indicator for the activation quantizer. Each returns arrays,
as the `ops` kernels do; the activation quantizer's pass mask is its ctx.

There is no fused binary conv: `net` applies these functions in its own
units, an activation unit ahead of each binarized conv or fc unit.

The activation quantizer and its straight-through estimator run over
batch chunks on `ops`' lanes, into outputs that the calling thread
allocates; they are elementwise, so any chunking gives the same bits.
"""

import numpy as np

from . import ops
from .errors import InputError, ShapeError


def binarize_weights(w: np.ndarray) -> np.ndarray:
    """sign(w) * mean(|w|), with sign(0) := +1, in w's dtype. Multiplying
    the scale by -1 rather than negating it keeps a NaN scale's sign bit
    as sign * scale would."""
    if w.size == 0:
        raise InputError("cannot binarize an empty weight tensor")
    scale = np.asarray(float(np.abs(w).mean()), w.dtype)
    # np.where(w < 0, scale * -1, scale) on the bit patterns: the patterns
    # of the two values differ by `flip`, which w < 0 switches on, several
    # times faster than np.where.
    bits = np.dtype(f"u{w.itemsize}")
    flip = scale.view(bits) ^ (scale * w.dtype.type(-1)).view(bits)
    out = np.empty(w.shape, w.dtype)
    np.multiply(w < 0, flip, out=out.view(bits))
    out.view(bits)[...] ^= scale.view(bits)
    return out


def _over_batch(work, a: np.ndarray, buffers=lambda size: ()) -> None:
    # work(chunk, *buffers) for chunks of a's first axis, on ops' lanes.
    if a.ndim == 0:
        raise ShapeError("an activation quantizer needs a batch axis, got a 0-d array")
    ops._on_lanes(work, len(a), a.nbytes // max(1, len(a)), buffers)


def binarize_activations(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(values, pass_mask): round(clip(x, 0, 1)) elementwise, 0.5 rounding
    up, and where 0 <= x <= 1. Each chunk's mask is taken first; the chunk
    is then clipped, raised by 0.5 and floored in place in the values,
    which are `out` when it is given (an array of x's shape and dtype, x
    itself included). np.round is round-half-even, and on [0, 1]
    floor(x + 0.5) rounds halves up."""
    values = np.empty(x.shape, x.dtype) if out is None else out
    if values.shape != x.shape or values.dtype != x.dtype:
        raise ShapeError(f"out is {values.dtype} {values.shape}, the input {x.dtype} {x.shape}")
    pass_mask = np.empty(x.shape, np.bool_)

    def run(chunk, below):
        np.greater_equal(x[chunk], 0.0, out=pass_mask[chunk])
        pass_mask[chunk] &= np.less_equal(x[chunk], 1.0, out=below[: chunk.stop - chunk.start])
        v = np.clip(x[chunk], 0.0, 1.0, out=values[chunk])
        v += 0.5
        np.floor(v, out=v)

    _over_batch(run, x, lambda size: (np.empty((size, *x.shape[1:]), np.bool_),))
    return values, pass_mask


def ste_weight_grad(upstream: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Identity pass-through of the upstream gradient."""
    if upstream.shape != w.shape:
        raise ShapeError(f"upstream shape {upstream.shape} != weight shape {w.shape}")
    return upstream


def ste_activation_grad(upstream: np.ndarray, pass_mask: np.ndarray) -> np.ndarray:
    """Upstream gradient masked to the clip window: `pass_mask` is the
    second array `binarize_activations(x)` returned for the forward input x."""
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
