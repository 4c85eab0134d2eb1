"""Shared test oracles: loop-based references, finite differences, the
network's binary act -> conv path with its differentiable surrogate, a
whole-network gradient check through frozen quantizers, and the per-call
geometry walk and pricing that the geometry plan replaced."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from binwidth import cost, net, ops, space, templates
from binwidth.errors import InputError


def conv2d_loops(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Direct six-loop convolution; the reference the fast path must match."""
    n, cin, h, wdt = x.shape
    cout, cin_w, kh, kw = w.shape
    assert cin == cin_w
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hout = (h + 2 * pad - kh) // stride + 1
    wout = (wdt + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, hout, wout), dtype=x.dtype)
    for b in range(n):
        for co in range(cout):
            for i in range(hout):
                for j in range(wout):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, co, i, j] = np.sum(patch * w[co])
    return out


def numeric_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    x = x.astype(np.float64, copy=True)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / denom)


def act_conv_pass(x: np.ndarray, w: np.ndarray, tangent: np.ndarray):
    """Forward and backward through the act1 -> conv2 units of a
    vgg_small_mini network: the binary path that training runs.

    conv2 (3x3, pad 1) gets weight `w`, whose shape picks the widths.
    Returns (conv output, gradient at the activation input, weight
    gradient as stored in the network).
    """
    cout, cin = w.shape[:2]
    network = net.instantiate(templates.vgg_small_mini(), (cin / 16, cout / 16, 1.0, 1.0), seed=0)
    network.params["conv2.weight"][...] = w
    units = {unit.spec.name: unit for unit in network.units}
    act, conv = units["act1"], units["conv2"]
    out = conv.forward(network, act.forward(network, x, True), True)
    gx = act.backward(network, [conv.backward(network, [tangent])])
    return out, gx, network.grads["conv2.weight"]


def surrogate_conv_grads(x: np.ndarray, w: np.ndarray, tangent: np.ndarray, pad: int = 1):
    """Exact gradients of the surrogate y = conv(clip(x, 0, 1), w)."""
    _, ctx = ops.conv2d_forward(np.clip(x, 0.0, 1.0), w, 1, pad)
    gxc, gw = ops.conv2d_backward(ctx, tangent)
    return gxc * ((x > 0) & (x < 1)), gw


class _BasePoint:
    """Per-call records of one base forward, recalled in call order after it:
    a network's forward calls each stand-in in the same order every time."""

    def __init__(self):
        self.records = []
        self.next = None  # None during the base forward, which records

    def recall(self, make):
        if self.next is None:
            self.records.append(make())
            return self.records[-1]
        self.next += 1
        return self.records[self.next - 1]


def network_gradient_errors(monkeypatch, template, code, seed: int = 0, n: int = 4, eps: float = 1e-6) -> dict:
    """Relative error of `Network.backward` against a central difference, per
    parameter tensor, along one seeded random direction per tensor.

    The network runs in float64 through stand-ins for the quantizers and
    max-pool, bound where `net` and `ops` look them up. After one base
    forward each is a frozen linear map: an activation quantizer gives
    q0 + (x - x0) * mask0 with ctx mask0, a weight quantizer b0 + (w - w0),
    and a max-pool gathers and scatters at the base point's first-max
    routing. The surrogate's true gradient is then the straight-through
    gradient that training runs, and the rest of the backward pass (batch
    norm in train mode, residual adds, projections, global pooling, the fc
    reshape) is checked as it is.
    """
    binarize_activations, binarize_weights = net.binarize_activations, net.binarize_weights
    base = _BasePoint()

    def activations(x):
        x0, q0, mask0 = base.recall(lambda: (x.copy(), *binarize_activations(x)))
        return q0 + (x - x0) * mask0, mask0

    def weights(w):
        w0, b0 = base.recall(lambda: (w.copy(), binarize_weights(w)))
        return b0 + (w - w0)

    def pool_forward(x, k, stride, pad=0):
        x_eff, routing = max_pool_routing(x, k, stride, pad)
        flat_idx = base.recall(lambda: routing)
        return x_eff.reshape(-1)[flat_idx], (flat_idx, x_eff.shape, pad)

    def pool_backward(ctx, gout):
        flat_idx, padded_shape, pad = ctx
        return _scatter_to_input(flat_idx, gout, padded_shape, pad)

    monkeypatch.setattr(net, "binarize_activations", activations)
    monkeypatch.setattr(net, "binarize_weights", weights)
    monkeypatch.setattr(ops, "max_pool2d_forward", pool_forward)
    monkeypatch.setattr(ops, "max_pool2d_backward", pool_backward)

    network = net.instantiate(template, code, seed)
    network.params = {name: p.astype(np.float64) for name, p in network.params.items()}
    network.buffers = {name: b.astype(np.float64) for name, b in network.buffers.items()}
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, *template.input_shape))
    logits = network.forward(x, train=True)
    labels = np.arange(n) % logits.shape[1]
    network.backward(ops.softmax_cross_entropy(logits, labels)[1])

    def loss() -> float:
        base.next = 0
        return ops.softmax_cross_entropy(network.forward(x, train=True), labels)[0]

    errors = {}
    for name, p in network.params.items():
        direction = rng.standard_normal(p.shape)
        p0 = p.copy()
        p[...] = p0 + eps * direction
        hi = loss()
        p[...] = p0 - eps * direction
        lo = loss()
        p[...] = p0
        numeric, analytic = (hi - lo) / (2 * eps), float((network.grads[name] * direction).sum())
        errors[name] = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
    return errors


def conv2d_reference(x: np.ndarray, w: np.ndarray, stride: int, pad: int, gout: np.ndarray):
    """Whole-batch im2col convolution: output, input gradient and weight gradient.

    The bitwise oracle for `ops.conv2d_forward/backward`: one patch matrix
    for the whole batch, the weight gradient as a batched matmul followed
    by `sum(axis=0)`, and the input gradient scattered back window offset
    by window offset in row-major order.
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hout, wout = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = x_pad.strides
    cols = np.lib.stride_tricks.as_strided(
        x_pad, shape=(n, cin, kh, kw, hout, wout), strides=(sn, sc, sh, sw, stride * sh, stride * sw)
    ).reshape(n, cin * kh * kw, hout * wout)
    wmat = w.reshape(cout, -1)
    out = np.matmul(wmat, cols).reshape(n, cout, hout, wout)
    go = gout.reshape(n, cout, hout * wout)
    gw = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(wmat.T, go).reshape(n, cin, kh, kw, hout, wout)
    gx_pad = np.zeros(x_pad.shape, dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx_pad[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride] += gcols[:, :, i, j]
    return out, gx_pad[:, :, pad : pad + h, pad : pad + wd], gw


def max_pool_routing(x: np.ndarray, k: int, stride: int, pad: int):
    """The -inf padded input and, per output element, the flat index into it
    of its window's first maximum in row-major order (the tie rule)."""
    n, c, h, w = x.shape
    hout, wout = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    hp, wp = h + 2 * pad, w + 2 * pad
    x_eff = np.full((n, c, hp, wp), -np.inf, dtype=x.dtype)
    x_eff[:, :, pad : pad + h, pad : pad + w] = x
    sn, sc, sh, sw = x_eff.strides
    windows = np.lib.stride_tricks.as_strided(
        x_eff, shape=(n, c, hout, wout, k, k), strides=(sn, sc, stride * sh, stride * sw, sh, sw)
    )
    arg = windows.reshape(n, c, hout, wout, k * k).argmax(axis=-1)
    rows = (np.arange(hout) * stride)[None, None, :, None] + arg // k
    cols = (np.arange(wout) * stride)[None, None, None, :] + arg % k
    return x_eff, (np.arange(n)[:, None, None, None] * (c * hp * wp)
                   + np.arange(c)[None, :, None, None] * (hp * wp) + rows * wp + cols)


def _scatter_to_input(flat_idx: np.ndarray, gout: np.ndarray, padded_shape, pad: int) -> np.ndarray:
    # np.add.at sums the gradients of overlapping windows in row-major window order.
    gx_pad = np.zeros(math.prod(padded_shape), dtype=gout.dtype)
    np.add.at(gx_pad, flat_idx.ravel(), gout.ravel())
    hp, wp = padded_shape[2:]
    return gx_pad.reshape(padded_shape)[:, :, pad : hp - pad, pad : wp - pad]


def max_pool2d_reference(x: np.ndarray, k: int, stride: int, pad: int, gout: np.ndarray):
    """The argmax-and-scatter-add max-pool: output and input gradient.

    The bitwise oracle for `ops.max_pool2d_forward/backward`. Ties route to
    the first element of a window in row-major order, and `np.add.at` sums
    overlapping windows in row-major window order.
    """
    x_eff, flat_idx = max_pool_routing(x, k, stride, pad)
    return x_eff.reshape(-1)[flat_idx], _scatter_to_input(flat_idx, gout, x_eff.shape, pad)


def batch_norm_reference(x, gamma, beta, running_mean, running_var, train, gout,
                         eps=ops.BN_EPS, momentum=ops.BN_MOMENTUM):
    """Batch norm through `np.mean`/`np.var`, one expression per step.

    The bitwise oracle for `ops.batch_norm_forward/backward`: returns
    (out, gx, ggamma, gbeta) in train mode, (out,) in eval mode, which has
    no backward pass, and updates the running stats in place.
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    m = x.size // x.shape[1]
    r = (lambda v: v.reshape(1, -1, 1, 1)) if x.ndim == 4 else (lambda v: v.reshape(1, -1))
    if train:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        running_var *= 1 - momentum
        running_var += momentum * var * (m / (m - 1)) if m > 1 else momentum * var
        running_mean *= 1 - momentum
        running_mean += momentum * mean
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - r(mean)) * r(inv_std)
    out = (r(gamma) * xhat + r(beta)).astype(x.dtype, copy=False)
    if not train:
        return (out,)
    ggamma, gbeta = (gout * xhat).sum(axis=axes), gout.sum(axis=axes)
    gxhat = gout * r(gamma)
    gx = (gxhat - r(gxhat.sum(axis=axes) / m) - xhat * r((gxhat * xhat).sum(axis=axes) / m)) * r(inv_std)
    return out, gx.astype(gout.dtype, copy=False), ggamma, gbeta


# --- per-call geometry walk and pricing ----------------------------------------


def _scaled_reference(ratio: float, base: int) -> int:
    value = ratio * base
    width = int(round(value))
    if abs(value - width) > 1e-9 or width < 1:
        raise InputError(f"ratio {ratio} on base {base} does not give a positive integer width")
    return width


def _conv_out_reference(size: int, k: int, stride: int, pad: int) -> int:
    if size + 2 * pad < k:
        raise InputError(f"kernel {k} exceeds padded extent {size + 2 * pad}")
    return (size + 2 * pad - k) // stride + 1


def _norm_shapes_reference(c: int) -> dict:
    return {"gamma": (c,), "beta": (c,), "running_mean": (c,), "running_var": (c,)}


def specs(template):
    """Every `LayerSpec` of `template` in walk order: a block's main path, then its shortcut."""
    for item in template.layers:
        if isinstance(item, templates.BlockSpec):
            yield from item.main + item.shortcut
        else:
            yield item


def replace_layer(items, name: str, **changes) -> tuple:
    """`items` with the layer called `name`, at any depth, given `changes`."""
    return tuple(
        dataclasses.replace(item, main=replace_layer(item.main, name, **changes),
                            shortcut=replace_layer(item.shortcut, name, **changes))
        if isinstance(item, templates.BlockSpec)
        else dataclasses.replace(item, **changes) if item.name == name else item
        for item in items)


def layer_geometry_reference(template, code) -> list:
    """The whole walk on every call: the oracle for `space.layer_geometry`.

    A block walks its main path, then its shortcut, both from the block
    input's width and extent. An ungened conv takes the block input's width
    on an identity block's main path and the main path's output width on a
    shortcut.
    """
    code = space.validate_code(code, template.n_genes)
    geoms = []

    def walk(items, c, h, w, tie=None):
        for i, spec in enumerate(items):
            if isinstance(spec, templates.BlockSpec):
                main = walk(spec.main, c, h, w, tie=None if spec.shortcut else c)
                shortcut = walk(spec.shortcut, c, h, w, tie=main[0])
                if shortcut[0] != main[0]:
                    if not spec.shortcut:
                        raise InputError(f"identity shortcut of block '{spec.name}' sees {shortcut[0]} vs {main[0]} channels")
                    raise InputError(f"shortcut of block '{spec.name}' ends at '{spec.shortcut[-1].name}' "
                                     f"with {shortcut[0]} channels, its main path with {main[0]}")
                c, h, w = main
                continue
            cin = c
            if spec.kind == "conv":
                if spec.gene_index is not None:
                    c = _scaled_reference(code[spec.gene_index], spec.base_out)
                elif tie is None:
                    raise InputError(f"conv '{spec.name}' has no gene and no identity block to tie to")
                else:
                    c = tie
                h = _conv_out_reference(h, spec.kernel, spec.stride, spec.pad)
                w = _conv_out_reference(w, spec.kernel, spec.stride, spec.pad)
                geoms.append(space.LayerGeom(spec, cin, c, h, w, {"weight": (c, cin, spec.kernel, spec.kernel)}))
            elif spec.kind == "fc":
                c = _scaled_reference(code[spec.gene_index], spec.base_out) if spec.gene_index is not None else spec.base_out
                n_in = cin * h * w
                shapes = {"weight": (n_in, c)}
                if i + 1 == len(items) or not (isinstance(items[i + 1], templates.LayerSpec) and items[i + 1].kind == "bn"):
                    shapes["bias"] = (c,)
                geoms.append(space.LayerGeom(spec, cin, c, 1, 1, shapes))
                h = w = 1
            elif spec.kind == "pool":
                h = _conv_out_reference(h, spec.kernel, spec.stride, spec.pad)
                w = _conv_out_reference(w, spec.kernel, spec.stride, spec.pad)
                geoms.append(space.LayerGeom(spec, c, c, h, w, {}))
            elif spec.kind == "gap":
                h = w = 1
                geoms.append(space.LayerGeom(spec, c, c, h, w, {}))
            elif spec.kind == "bn":
                geoms.append(space.LayerGeom(spec, c, c, h, w, _norm_shapes_reference(c)))
            else:  # act
                geoms.append(space.LayerGeom(spec, c, c, h, w, {}))
        return c, h, w

    walk(template.layers, *template.input_shape)
    return geoms


def _weighted_reference(template, code):
    for geom in layer_geometry_reference(template, code):
        if "weight" in geom.shapes:
            weights = math.prod(geom.shapes["weight"])
            yield geom.spec, weights * geom.h_out * geom.w_out, weights


def _flops_reference(macs: int, binarized: bool) -> float:
    return macs / cost.BINARY_SPEEDUP if binarized else float(macs)


def count_cost_reference(template, code, binary: bool = True):
    """A fresh walk per report and per baseline: the oracle for `cost.count_cost`."""
    code = space.validate_code(code, template.n_genes)
    layers = []
    weight_bits = 0
    for spec, macs, weights in _weighted_reference(template, code):
        one_bit = binary and spec.binarized
        layers.append(cost.LayerCost(spec.name, spec.kind, one_bit, macs, _flops_reference(macs, one_bit)))
        weight_bits += weights + 32 if one_bit else 32 * weights
    total = sum(layer.flops for layer in layers)
    base = list(_weighted_reference(template, space.uniform_code(1, template.n_genes)))
    base_binary = sum(_flops_reference(macs, spec.binarized) for spec, macs, _ in base)
    base_full = sum(float(macs) for _, macs, _ in base)
    return cost.CostReport(
        template=template.name,
        code=code,
        layers=tuple(layers),
        flops=total,
        flops_norm=total / base_binary,
        speedup=base_full / total,
        weight_bits=weight_bits,
    )
