"""FLOPs and weight-storage accounting for templated networks.

One multiply-accumulate counts as one FLOP. Layers running on 1-bit
weights and activations get their MAC count divided by 64; pooling,
batch norm, activations, and residual adds count as zero. Reported
numbers are per input image.

A report is priced from the geometry plan the template built with itself
(`template.plan`): each call resolves only the conv/fc widths. The
uniform-1x baseline is priced once per template instance and kept on the
instance, like the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .space import ExpansionCode, uniform_code, validate_code
from .templates import GeometryPlan, NetworkTemplate

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
    layers: tuple[LayerCost, ...]
    flops: float
    flops_norm: float
    speedup: float
    weight_bits: int


def _priced(plan: GeometryPlan, code: ExpansionCode, binary: bool) -> tuple[list[LayerCost], int]:
    """Per-layer costs and weight bits of a validated code, in execution order.

    Each weight is used once per output position: h_out * w_out times for
    a conv, once for an fc.
    """
    counts = plan.channels(code)
    layers = []
    weight_bits = 0
    for spec, cin, cout, per_pair, positions in plan.weighted:
        weights = counts[cin] * counts[cout] * per_pair
        macs = weights * positions
        one_bit = binary and spec.binarized
        layers.append(LayerCost(spec.name, spec.kind, one_bit, macs, macs / BINARY_SPEEDUP if one_bit else float(macs)))
        weight_bits += weights + 32 if one_bit else 32 * weights
    return layers, weight_bits


def _baseline(template: NetworkTemplate) -> tuple[float, float]:
    """Binary and full-precision FLOPs of the uniform-1x code, priced on
    first use and kept on the template instance."""
    baseline = template.__dict__.get("_cost_baseline")
    if baseline is None:
        one = uniform_code(1, template.n_genes)
        baseline = tuple(sum(layer.flops for layer in _priced(template.plan, one, b)[0]) for b in (True, False))
        object.__setattr__(template, "_cost_baseline", baseline)
    return baseline


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
    layers, weight_bits = _priced(template.plan, code, binary)
    total = sum(layer.flops for layer in layers)
    base_binary, base_full = _baseline(template)
    return CostReport(
        template=template.name,
        code=code,
        layers=tuple(layers),
        flops=total,
        flops_norm=total / base_binary,
        speedup=base_full / total,
        weight_bits=weight_bits,
    )
