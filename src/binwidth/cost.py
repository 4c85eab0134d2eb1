"""FLOPs and weight-storage accounting for templated networks.

One multiply-accumulate counts as one FLOP. Layers running on 1-bit
weights and activations get their MAC count divided by 64; pooling,
batch norm, activations, and residual adds count as zero. Reported
numbers are per input image.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

from .space import ExpansionCode, layer_geometry, uniform_code, validate_code
from .templates import NetworkTemplate

BINARY_SPEEDUP = 64


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    binarized: bool
    macs: int
    flops: float


@dataclass(frozen=True)
class CostReport:
    template: str
    code: ExpansionCode
    binary: bool
    layers: tuple[LayerCost, ...]
    flops: float
    flops_norm: float
    speedup: float
    weight_bits: int


def _weighted(template: NetworkTemplate, code: ExpansionCode):
    """(spec, MACs, weight count) of each conv/fc layer, in execution order.

    Each weight is used once per output position: h_out * w_out times for
    a conv, once for an fc.
    """
    for geom in layer_geometry(template, code):
        if "weight" in geom.shapes:
            weights = math.prod(geom.shapes["weight"])
            yield geom.spec, weights * geom.h_out * geom.w_out, weights


def _flops(macs: int, binarized: bool) -> float:
    return macs / BINARY_SPEEDUP if binarized else float(macs)


@functools.cache
def _baseline(template: NetworkTemplate) -> tuple[float, float]:
    """FLOPs of the uniform-1x network: (binary, full precision)."""
    base = list(_weighted(template, uniform_code(1, template.n_genes)))
    return sum(_flops(macs, spec.binarized) for spec, macs, _ in base), sum(float(macs) for _, macs, _ in base)


def count_cost(template: NetworkTemplate, code: Iterable[float], binary: bool = True) -> CostReport:
    """Cost report for (template, code).

    `binary=False` prices the same widths with every layer at full
    precision. flops_norm is always relative to the binary uniform-1x
    network, and speedup to the full-precision uniform-1x network, so the
    two ratios stay comparable across codes. weight_bits is the storage
    for conv/fc weight tensors; 1-bit weights carry one 32-bit scale per
    layer. Biases and norm parameters are not modeled.
    """
    code = validate_code(code, template.n_genes)
    layers = []
    weight_bits = 0
    for spec, macs, weights in _weighted(template, code):
        one_bit = binary and spec.binarized
        layers.append(LayerCost(spec.name, spec.kind, one_bit, macs, _flops(macs, one_bit)))
        weight_bits += weights + 32 if one_bit else 32 * weights
    total = sum(layer.flops for layer in layers)
    base_binary, base_full = _baseline(template)
    return CostReport(
        template=template.name,
        code=code,
        binary=binary,
        layers=tuple(layers),
        flops=total,
        flops_norm=total / base_binary,
        speedup=base_full / total,
        weight_bits=weight_bits,
    )
