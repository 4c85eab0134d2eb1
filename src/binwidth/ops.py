"""Dense tensor kernels: forward passes with exact hand-written backwards.

Conventions
-----------
* 4-D tensors are NCHW, fully-connected inputs are [N, D].
* Production code runs in float32; every kernel also works in float64 so
  that finite-difference checks can use higher-precision accumulation.
* Convolution is cross-correlation (no kernel flip). Output sizes use
  floor division: Hout = (H + 2*pad - kh) // stride + 1.
* `*_forward` returns (output, ctx); the matching `*_backward` consumes
  ctx and the upstream gradient and returns exact gradients of the
  forward map.
"""

import numpy as np

from .errors import InputError, ShapeError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    if size + 2 * pad < k:
        raise ShapeError(f"window {k} exceeds padded input extent {size + 2 * pad}")
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"non-positive output extent for size={size}, k={k}, stride={stride}, pad={pad}")
    return out


def _pad_nchw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _im2col(x_pad: np.ndarray, kh: int, kw: int, stride: int, hout: int, wout: int) -> np.ndarray:
    """[N,C,Hp,Wp] -> [N, C*kh*kw, hout*wout] patch matrix (copies)."""
    n, c, _, _ = x_pad.shape
    sn, sc, sh, sw = x_pad.strides
    patches = np.lib.stride_tricks.as_strided(
        x_pad,
        shape=(n, c, kh, kw, hout, wout),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return patches.reshape(n, c * kh * kw, hout * wout)


def _col2im(cols: np.ndarray, x_pad_shape, kh: int, kw: int, stride: int, hout: int, wout: int) -> np.ndarray:
    """Scatter-add the inverse of `_im2col`."""
    n, c, hp, wp = x_pad_shape
    x = np.zeros(x_pad_shape, dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, hout, wout)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride] += cols[:, :, i, j]
    return x


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0):
    """Cross-correlate x [N,Cin,H,W] with w [Cout,Cin,kh,kw]."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weight, got {x.shape} and {w.shape}")
    n, cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} != weight in-channels {cin_w}")
    hout = _out_size(h, kh, stride, pad)
    wout = _out_size(wid, kw, stride, pad)

    x_pad = _pad_nchw(x, pad)
    cols = _im2col(x_pad, kh, kw, stride, hout, wout)
    wmat = w.reshape(cout, -1)
    out = np.matmul(wmat, cols).reshape(n, cout, hout, wout)
    ctx = (cols, w, x_pad.shape, stride, pad, hout, wout)
    return out, ctx


def conv2d_backward(ctx, gout: np.ndarray):
    """Gradients (gx, gw) of conv2d_forward."""
    cols, w, x_pad_shape, stride, pad, hout, wout = ctx
    n = gout.shape[0]
    cout, cin, kh, kw = w.shape
    go = gout.reshape(n, cout, hout * wout)
    gw = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(w.reshape(cout, -1).T, go)
    gx_pad = _col2im(gcols, x_pad_shape, kh, kw, stride, hout, wout)
    if pad > 0:
        gx = gx_pad[:, :, pad:-pad, pad:-pad]
    else:
        gx = gx_pad
    return gx, gw


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    out, _ = conv2d_forward(x, w, stride, pad)
    return out


def fully_connected_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map x [N,D] @ w [D,M] + b [M]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"fully_connected expects 2-D input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"inner dims disagree: input {x.shape} vs weight {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[1]},)")
    return x @ w + b, (x, w)


def fully_connected_backward(ctx, gout: np.ndarray):
    x, w = ctx
    gx = gout @ w.T
    gw = x.T @ gout
    gb = gout.sum(axis=0)
    return gx, gw, gb


def fully_connected(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out, _ = fully_connected_forward(x, w, b)
    return out


def _bn_axes(x: np.ndarray):
    # Accepts [N,C,H,W] (per-channel over N,H,W) or [N,C] (per-feature over N).
    if x.ndim == 4:
        return (0, 2, 3), x.shape[1], x.shape[0] * x.shape[2] * x.shape[3]
    if x.ndim == 2:
        return (0,), x.shape[1], x.shape[0]
    raise ShapeError(f"batch_norm expects 2-D or 4-D input, got {x.shape}")


def _bn_reshape(v: np.ndarray, ndim: int) -> np.ndarray:
    return v.reshape(1, -1, 1, 1) if ndim == 4 else v.reshape(1, -1)


def batch_norm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
    eps: float = BN_EPS,
    momentum: float = BN_MOMENTUM,
):
    """Batch normalization. Train mode updates running stats in place.

    Normalization uses the biased batch variance; the running variance is
    updated with the unbiased estimate (the dominant framework convention).
    """
    axes, c, m = _bn_axes(x)
    for name, arr in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise ShapeError(f"{name} shape {arr.shape} != ({c},) for input {x.shape}")
    if train:
        mean = x.mean(axis=axes, keepdims=True)
        xhat = x - mean  # centred once; scaled into xhat in place below
        var = np.square(xhat).sum(axis=axes) / m  # np.var's own steps, so np.var's bits
        running_var *= 1 - momentum
        running_var += momentum * var * (m / (m - 1)) if m > 1 else momentum * var
        running_mean *= 1 - momentum
        running_mean += momentum * mean.reshape(c)
    else:
        xhat = x - _bn_reshape(running_mean, x.ndim)
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= _bn_reshape(inv_std, x.ndim)
    out = _bn_reshape(gamma, x.ndim) * xhat
    out += _bn_reshape(beta, x.ndim)
    ctx = (xhat, gamma, inv_std, train, m)
    return out.astype(x.dtype, copy=False), ctx


def batch_norm_backward(ctx, gout: np.ndarray):
    """Gradients (gx, ggamma, gbeta); exact for the train-mode map."""
    xhat, gamma, inv_std, train, m = ctx
    axes, _, _ = _bn_axes(gout)
    tmp = gout * xhat
    ggamma = tmp.sum(axis=axes)
    gbeta = gout.sum(axis=axes)
    gx = gout * _bn_reshape(gamma, gout.ndim)  # d/dxhat, turned into d/dx in place
    if train:
        # d/dx of (x - mean)/sqrt(var + eps) with batch mean/var as functions of x
        mean_g = gx.sum(axis=axes) / m
        proj = np.multiply(gx, xhat, out=tmp).sum(axis=axes) / m
        gx -= _bn_reshape(mean_g, gout.ndim)
        gx -= np.multiply(xhat, _bn_reshape(proj, gout.ndim), out=tmp)
    gx *= _bn_reshape(inv_std, gout.ndim)
    return gx.astype(gout.dtype, copy=False), ggamma, gbeta


def _pool_views(x_pad: np.ndarray, k: int, stride: int, hout: int, wout: int) -> list:
    """The k*k strided [N,C,hout,wout] views of x_pad, window offsets in row-major order."""
    return [x_pad[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride]
            for i in range(k) for j in range(k)]


def max_pool2d_forward(x: np.ndarray, k: int, stride: int, pad: int = 0):
    """Max over k*k windows, as a running maximum over the k*k window offsets.

    ctx holds the -inf padded input and the output themselves, not copies
    (neither may be written to before the backward pass), and the backward
    pass finds each window's maximum from them.
    """
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    hout = _out_size(h, k, stride, pad)
    wout = _out_size(w, k, stride, pad)
    if pad > 0:
        x_eff = np.full((n, c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
        x_eff[:, :, pad : pad + h, pad : pad + w] = x
    else:
        x_eff = x
    views = _pool_views(x_eff, k, stride, hout, wout)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(view, out, out=out)  # an equal value keeps the earlier one (its sign of zero)
    return out, (x_eff, out, k, stride, pad)


def max_pool2d_backward(ctx, gout: np.ndarray) -> np.ndarray:
    """Routes each window's gradient to its first maximum in row-major order (the tie rule)."""
    x_eff, out, k, stride, pad = ctx
    hout, wout = out.shape[2:]
    gx_pad = np.zeros(x_eff.shape, dtype=gout.dtype)
    free = np.ones(out.shape, dtype=bool)  # windows whose first maximum is still unseen
    hits = []
    for view in _pool_views(x_eff, k, stride, hout, wout):
        hits.append((view == out) & free)
        free ^= hits[-1]
    # Offsets in reverse row-major order add the windows that overlap on an
    # input in row-major window order, the summation order the tests pin.
    for gview, hit in zip(_pool_views(gx_pad, k, stride, hout, wout)[::-1], hits[::-1]):
        gview += gout * hit
    return gx_pad[:, :, pad : gx_pad.shape[2] - pad, pad : gx_pad.shape[3] - pad]


def max_pool2d(x: np.ndarray, k: int, stride: int, pad: int = 0) -> np.ndarray:
    out, _ = max_pool2d_forward(x, k, stride, pad)
    return out


def global_avg_pool_forward(x: np.ndarray):
    """[N,C,H,W] -> [N,C] spatial mean."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {x.shape}")
    return x.mean(axis=(2, 3)), x.shape


def global_avg_pool_backward(ctx, gout: np.ndarray) -> np.ndarray:
    n, c, h, w = ctx
    return np.broadcast_to(gout[:, :, None, None] / (h * w), (n, c, h, w)).astype(gout.dtype, copy=False)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Numerically stabilized by per-row max subtraction. The gradient is
    (softmax - onehot) / N.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [N,K], got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InputError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, labels].mean())
    grad = probs
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)
