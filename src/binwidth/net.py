"""Concrete networks: template + expansion code + seed -> trainable model.

A Network owns flat name->array dicts for parameters, gradients, and
batch-norm running stats, plus `units`, which forward runs in order and
backward in reverse. Each layer is a `_Unit`: the base class alone keeps
a kernel's ctx, only from a train-mode forward, and hands it once to the
backward pass, which clears it, so an eval-mode forward leaves no input
or intermediate behind. In eval mode, batch norm and activation units
write their output over an input that they own (`_Unit.owns_input`).
A residual block is one `_BlockUnit`: it owns the
units of its main path and of its shortcut, built by the same recursion
over the template's items, and holds the block input as a local.

Binarized layers quantize their weights on every forward; activation
quantization is an explicit layer in the templates, so the data entering
a binary conv/fc is already 1-bit. These units are the package's only
binary conv/fc path: training runs them, and the straight-through
gradient checks run against them.

Which arrays a layer owns, and their shapes, come from the geometry plan
the template built with itself (`template.plan.layers`, the walk behind
`space.layer_geometry`); the network creates them in its walk order.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import InputError, ShapeError
from .quant import binarize_activations, binarize_weights, ste_activation_grad, ste_weight_grad
from .seeding import rng_from
from .space import ExpansionCode, resolve_channels, validate_code
from .templates import BlockSpec, LayerSpec, NetworkTemplate


class _Unit:
    """One layer step; a subclass gives `_forward(net, x, train) -> (y, ctx)`
    and `_backward(net, ctx, g) -> gx`. `forward` keeps the ctx only when
    `train` is true; `backward` takes it, and the gradient in `slot`, once.

    `owns_input` is true unless the unit starts its list (the network's
    units, or a block's main path or shortcut): then the caller or the
    other branch still holds its input. Otherwise the unit before it made
    the input, and in eval mode nothing else reads it."""

    def __init__(self, spec: LayerSpec, owns_input: bool):
        self.spec = spec
        self.owns_input = owns_input
        self.ctx = None

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        y, ctx = self._forward(net, x, train)
        self.ctx = ctx if train else None
        return y

    def backward(self, net: "Network", slot: list[np.ndarray]) -> np.ndarray:
        ctx, self.ctx = self.ctx, None
        return self._backward(net, ctx, slot.pop())

    def _in_place(self, x: np.ndarray, train: bool) -> dict:
        """The keyword that makes an elementwise kernel write its output over
        x: in eval mode, when the unit owns its input."""
        return {"out": x} if self.owns_input and not train else {}


class _WeightedUnit(_Unit):
    """A conv or fc. A binarized one binarizes its weight on every forward
    and passes the weight gradient through the straight-through estimator."""

    def __init__(self, spec: LayerSpec, owns_input: bool):
        super().__init__(spec, owns_input)
        self.key = spec.name + ".weight"

    def _weight(self, net: "Network") -> np.ndarray:
        w = net.params[self.key]
        return binarize_weights(w) if self.spec.binarized else w

    def _store_weight_grad(self, net: "Network", gw: np.ndarray) -> None:
        if self.spec.binarized:
            gw = ste_weight_grad(gw, net.params[self.key])
        net.grads[self.key] = gw


class _ConvUnit(_WeightedUnit):
    def _forward(self, net, x, train):
        return ops.conv2d_forward(x, self._weight(net), self.spec.stride, self.spec.pad)

    def _backward(self, net, ctx, g):
        gx, gw = ops.conv2d_backward(ctx, g)
        self._store_weight_grad(net, gw)
        return gx


class _FCUnit(_WeightedUnit):
    def _forward(self, net, x, train):
        w = self._weight(net)
        b = net.params.get(self.spec.name + ".bias")
        b = np.zeros(w.shape[1], dtype=w.dtype) if b is None else b
        y, ctx = ops.fully_connected_forward(x.reshape(x.shape[0], -1) if x.ndim > 2 else x, w, b)
        return y, (x.shape, ctx)

    def _backward(self, net, ctx, g):
        in_shape, ctx = ctx
        gx, gw, gb = ops.fully_connected_backward(ctx, g)
        self._store_weight_grad(net, gw)
        bkey = self.spec.name + ".bias"
        if bkey in net.params:
            net.grads[bkey] = gb
        return gx.reshape(in_shape)


class _BNUnit(_Unit):
    def __init__(self, spec: LayerSpec, owns_input: bool):
        super().__init__(spec, owns_input)
        self.gkey, self.bkey, self.mkey, self.vkey = (
            f"{spec.name}.{field}" for field in ("gamma", "beta", "running_mean", "running_var"))

    def _forward(self, net, x, train):
        return ops.batch_norm_forward(x, net.params[self.gkey], net.params[self.bkey],
                                      net.buffers[self.mkey], net.buffers[self.vkey], train, **self._in_place(x, train))

    def _backward(self, net, ctx, g):
        gx, net.grads[self.gkey], net.grads[self.bkey] = ops.batch_norm_backward(ctx, g)
        return gx


class _ActUnit(_Unit):
    def _forward(self, net, x, train):
        return binarize_activations(x, **self._in_place(x, train))

    def _backward(self, net, ctx, g):
        return ste_activation_grad(g, ctx)


class _PoolUnit(_Unit):
    def _forward(self, net, x, train):
        return ops.max_pool2d_forward(x, self.spec.kernel, self.spec.stride, self.spec.pad)

    def _backward(self, net, ctx, g):
        return ops.max_pool2d_backward(ctx, g)


class _GapUnit(_Unit):
    def _forward(self, net, x, train):
        return ops.global_avg_pool_forward(x)

    def _backward(self, net, ctx, g):
        return ops.global_avg_pool_backward(ctx, g)


_LAYER_UNITS = {"conv": _ConvUnit, "fc": _FCUnit, "bn": _BNUnit, "act": _ActUnit, "pool": _PoolUnit, "gap": _GapUnit}


def _units(items) -> list:
    """One unit per template item, in order; a block becomes one `_BlockUnit`.
    Every layer unit but the first owns its input."""
    units = []
    for item in items:
        if isinstance(item, BlockSpec):
            units.append(_BlockUnit(item, _units(item.main), _units(item.shortcut)))
        else:
            units.append(_LAYER_UNITS[item.kind](item, bool(units)))  # the template has checked every kind
    return units


class _BlockUnit:
    """A residual block: its main-path units and its shortcut units, both
    run from the block input, then added. The shortcut runs after the main
    path in forward and first in backward, as in the walk."""

    def __init__(self, block: BlockSpec, main: list[_Unit], shortcut: list[_Unit]):
        self.spec = block
        self.main = main
        self.shortcut = shortcut

    def forward(self, net: "Network", x: np.ndarray, train: bool) -> np.ndarray:
        s = x
        for unit in self.main:
            x = unit.forward(net, x, train)
        for unit in self.shortcut:
            s = unit.forward(net, s, train)
        return x + s  # the template has checked that both branches meet at one shape

    def backward(self, net: "Network", slot: list[np.ndarray]) -> np.ndarray:
        g = gs = slot.pop()
        for unit in reversed(self.shortcut):
            gs = unit.backward(net, [gs])
        for unit in reversed(self.main):
            g = unit.backward(net, [g])
        return g + gs


# Initial value of each array that is not a weight.
_FILL = {"bias": 0.0, "gamma": 1.0, "beta": 0.0, "running_mean": 0.0, "running_var": 1.0}


class Network:
    """An instantiated template, ready for forward/backward/SGD."""

    def __init__(self, template: NetworkTemplate, code, seed: int):
        self.template = template
        self.code: ExpansionCode = validate_code(code, template.n_genes)
        self.seed = int(seed)
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        for g in template.plan.layers(self.code):
            for field, shape in g.shapes.items():
                if field == "weight":  # He init; a weight's size is fan_in * out_ch
                    std = np.sqrt(2.0 / (math.prod(shape) // g.out_ch))
                    arr = rng_from(self.seed, "init", g.spec.name).normal(0.0, std, size=shape).astype(np.float32)
                else:
                    arr = np.full(shape, _FILL[field], dtype=np.float32)
                store = self.buffers if field.startswith("running_") else self.params
                store[f"{g.spec.name}.{field}"] = arr
        self.units = _units(template.layers)
        self._has_train_ctx = False  # the units hold the ctx of a train-mode forward

    @property
    def channels(self) -> dict[str, tuple[int, int]]:
        """Per-layer (in, out) channel counts: `space.resolve_channels`."""
        return resolve_channels(self.template, self.code)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Logits of x. A train-mode forward keeps every unit's ctx for one
        backward pass: each conv's input, each batch norm's `xhat` and each
        quantizer's pass mask. An eval-mode forward keeps nothing and holds
        one unit's input and output at a time. It writes batch norm's and
        the quantizer's output over their input unless the unit starts a
        list: x and each block's input are left as they were."""
        if x.ndim != 4 or x.shape[1:] != self.template.input_shape:
            raise ShapeError(f"input shape {x.shape} != (N, {', '.join(map(str, self.template.input_shape))})")
        self._has_train_ctx = False
        for unit in self.units:
            x = unit.forward(self, x, train)
        self._has_train_ctx = train
        return x

    def backward(self, grad_logits: np.ndarray) -> None:
        """Populate self.grads; call once after each forward(train=True)."""
        if not self._has_train_ctx:
            raise InputError("backward needs a preceding forward(train=True); "
                             "an eval-mode forward keeps no context and a backward pass consumes it")
        self._has_train_ctx = False
        # Each unit takes its gradient out of the slot: a local here would keep
        # a projection block's incoming gradient alive through its main path.
        slot = [grad_logits]
        for unit in reversed(self.units):
            slot.append(unit.backward(self, slot))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters then running stats, copied, in construction order."""
        return {name: arr.copy() for name, arr in dict(self.params, **self.buffers).items()}

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
