"""Concrete networks: template + expansion code + seed -> trainable model.

A Network owns flat name->array dicts for parameters, gradients, and
batch-norm running stats, plus an execution list of layer units. Each
unit keeps just enough context (its `ctx`) from a train-mode forward pass
to run the matching backward pass, which consumes it. An eval-mode
forward keeps no context, so no layer's input or intermediate outlives
it. Layers marked binarized quantize their weights on every
forward; activation quantization is an explicit layer in the templates,
so the data entering a binary conv/fc is already 1-bit. These units are
the package's only binary conv/fc path: training runs them, and the
straight-through gradient checks run against them.

Which arrays a layer owns, and their shapes, come from the template's
geometry plan (`space.GeometryPlan.layers`, the walk behind
`space.layer_geometry`); the network creates them in its walk order.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import InputError, ShapeError
from .quant import binarize_activations, binarize_weights, ste_activation_grad, ste_weight_grad
from .seeding import rng_from
from .space import ExpansionCode, geometry_plan, validate_code
from .templates import BlockSpec, LayerSpec, NetworkTemplate


class _ConvUnit:
    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.key = spec.name + ".weight"
        self.ctx = None

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        w = net.params[self.key]
        if self.spec.binarized:
            w = binarize_weights(w).values
        y, ctx = ops.conv2d_forward(x, w, self.spec.stride, self.spec.pad)
        self.ctx = ctx if train else None
        return y

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gx, gw = ops.conv2d_backward(self.ctx, g)
        self.ctx = None
        if self.spec.binarized:
            gw = ste_weight_grad(gw, net.params[self.key])
        net.grads[self.key] = gw
        return gx


class _FCUnit:
    def __init__(self, spec: LayerSpec, has_bias: bool):
        self.spec = spec
        self.wkey = spec.name + ".weight"
        self.bkey = spec.name + ".bias" if has_bias else None
        self.ctx = None
        self.in_shape: tuple[int, ...] = ()

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        self.in_shape = x.shape
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        w = net.params[self.wkey]
        if self.spec.binarized:
            w = binarize_weights(w).values
        b = net.params[self.bkey] if self.bkey else np.zeros(w.shape[1], dtype=w.dtype)
        y, ctx = ops.fully_connected_forward(x, w, b)
        self.ctx = ctx if train else None
        return y

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gx, gw, gb = ops.fully_connected_backward(self.ctx, g)
        self.ctx = None
        if self.spec.binarized:
            gw = ste_weight_grad(gw, net.params[self.wkey])
        net.grads[self.wkey] = gw
        if self.bkey:
            net.grads[self.bkey] = gb
        return gx.reshape(self.in_shape)


class _BNUnit:
    def __init__(self, spec: LayerSpec):
        self.spec = spec
        name = spec.name
        self.gkey, self.bkey = name + ".gamma", name + ".beta"
        self.mkey, self.vkey = name + ".running_mean", name + ".running_var"
        self.ctx = None

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        y, ctx = ops.batch_norm_forward(
            x, net.params[self.gkey], net.params[self.bkey],
            net.buffers[self.mkey], net.buffers[self.vkey], train,
        )
        self.ctx = ctx if train else None
        return y

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gx, ggamma, gbeta = ops.batch_norm_backward(self.ctx, g)
        self.ctx = None
        net.grads[self.gkey] = ggamma
        net.grads[self.bkey] = gbeta
        return gx


class _ActUnit:
    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.ctx = None

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        q = binarize_activations(x)
        self.ctx = q.pass_mask if train else None
        return q.values

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gx = ste_activation_grad(g, self.ctx)
        self.ctx = None
        return gx


class _MaxPoolUnit:
    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.ctx = None

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        y, ctx = ops.max_pool2d_forward(x, self.spec.kernel[0], self.spec.stride, self.spec.pad)
        self.ctx = ctx if train else None
        return y

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gx = ops.max_pool2d_backward(self.ctx, g)
        self.ctx = None
        return gx


class _GapUnit:
    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.ctx = None

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        y, ctx = ops.global_avg_pool_forward(x)
        self.ctx = ctx if train else None
        return y

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gx = ops.global_avg_pool_backward(self.ctx, g)
        self.ctx = None
        return gx


class _AddUnit:
    """Residual join: main path + (optionally projected) block input."""

    def __init__(self, spec: LayerSpec, block: BlockSpec, proj_conv: _ConvUnit | None, proj_bn: _BNUnit | None):
        self.spec = spec
        self.block = block
        self.proj_conv = proj_conv
        self.proj_bn = proj_bn

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        s = net._block_in.pop(self.block.name)  # the add's backward pass does not need it
        if self.proj_conv is not None:
            s = self.proj_conv.forward(net, s, train)
            s = self.proj_bn.forward(net, s, train)
        if s.shape != x.shape:
            raise ShapeError(f"residual shapes disagree at '{self.spec.name}': {s.shape} vs {x.shape}")
        return x + s

    def backward(self, net: "Network", g: np.ndarray) -> np.ndarray:
        gs = g
        if self.proj_conv is not None:
            gs = self.proj_bn.backward(net, gs)
            gs = self.proj_conv.backward(net, gs)
        net._short_grad[self.block.name] = gs
        return g


# Initial value of each array that is not a weight.
_FILL = {"bias": 0.0, "gamma": 1.0, "beta": 0.0, "running_mean": 0.0, "running_var": 1.0}


class Network:
    """An instantiated template, ready for forward/backward/SGD."""

    def __init__(self, template: NetworkTemplate, code, seed: int):
        self.template = template
        self.code: ExpansionCode = validate_code(code, template.n_genes)
        self.seed = int(seed)
        geoms = geometry_plan(template).layers(self.code)
        self.channels = {g.spec.name: (g.in_ch, g.out_ch) for g in geoms}
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        for g in geoms:
            for field, shape in g.shapes.items():
                if field == "weight":  # He init; a weight's size is fan_in * out_ch
                    std = np.sqrt(2.0 / (math.prod(shape) // g.out_ch))
                    arr = rng_from(self.seed, "init", g.spec.name).normal(0.0, std, size=shape).astype(np.float32)
                else:
                    arr = np.full(shape, _FILL[field], dtype=np.float32)
                store = self.buffers if field.startswith("running_") else self.params
                store[f"{g.spec.name}.{field}"] = arr
        self.units = []
        for i, spec in enumerate(template.layers):
            if spec.kind == "conv":
                self.units.append(_ConvUnit(spec))
            elif spec.kind == "fc":
                self.units.append(_FCUnit(spec, spec.name + ".bias" in self.params))
            elif spec.kind == "bn":
                self.units.append(_BNUnit(spec))
            elif spec.kind == "act":
                self.units.append(_ActUnit(spec))
            elif spec.kind == "pool":
                self.units.append(_GapUnit(spec) if spec.pool_op == "global_avg" else _MaxPoolUnit(spec))
            elif spec.kind == "residual-add":
                block = template.block_at(i)
                proj_conv = proj_bn = None
                if block.proj_conv is not None:
                    proj_conv = _ConvUnit(block.proj_conv)
                    proj_bn = _BNUnit(block.proj_bn)
                self.units.append(_AddUnit(spec, block, proj_conv, proj_bn))
            else:
                raise ShapeError(f"unknown layer kind '{spec.kind}'")
        self._block_in: dict[str, np.ndarray] = {}
        self._short_grad: dict[str, np.ndarray] = {}
        self._has_train_ctx = False  # the units hold the ctx of a train-mode forward

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1:] != self.template.input_shape:
            raise ShapeError(f"input shape {x.shape} != (N, {', '.join(map(str, self.template.input_shape))})")
        self._block_in.clear()
        self._has_train_ctx = False
        for i, unit in enumerate(self.units):
            block = self.template.block_at(i)
            if block is not None and i == block.first_layer:
                self._block_in[block.name] = x
            x = unit.forward(self, x, train)
        self._has_train_ctx = train
        return x

    def backward(self, grad_logits: np.ndarray) -> None:
        """Populate self.grads; call once after each forward(train=True)."""
        if not self._has_train_ctx:
            raise InputError("backward needs a preceding forward(train=True); "
                             "an eval-mode forward keeps no context and a backward pass consumes it")
        self._has_train_ctx = False
        g = grad_logits
        self._short_grad.clear()
        for i in reversed(range(len(self.units))):
            g = self.units[i].backward(self, g)
            block = self.template.block_at(i)
            if block is not None and i == block.first_layer:
                g = g + self._short_grad.pop(block.name)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters then running stats, copied, in construction order."""
        out = {name: arr.copy() for name, arr in self.params.items()}
        for name, arr in self.buffers.items():
            out[name] = arr.copy()
        return out

    def load_state_dict(self, arrays: dict[str, np.ndarray]) -> None:
        own = dict(self.params, **self.buffers)
        if set(arrays) != set(own):
            missing = sorted(set(own) - set(arrays))
            extra = sorted(set(arrays) - set(own))
            raise ShapeError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, arr in arrays.items():
            if arr.shape != own[name].shape:
                raise ShapeError(f"'{name}' shape {arr.shape} != expected {own[name].shape}")
            own[name][...] = arr

    def param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())


def instantiate(template: NetworkTemplate, code, seed: int) -> Network:
    """Build and He-initialize a network; deterministic in (template, code, seed)."""
    return Network(template, code, seed)
