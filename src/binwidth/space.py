"""Expansion codes and their application to network templates.

An expansion code is one ratio per gene, drawn from the fixed candidate
set. The walk over a template comes in two parts. `GeometryPlan` holds
what no code changes: every layer's spatial extent, kernel, fc bias rule
and projection placement, and where its channel counts come from (a gene
times a base width, or a fixed count). It is built once per template
instance, on first use, and kept on the instance. Per call,
`layer_geometry` validates the code once and resolves the plan into
per-layer channel counts, extents and parameter shapes, enforcing the
residual tying rules; `resolve_channels` is its channel view. The
network builder and checkpoint slicing validate the code themselves and
resolve the plan (`GeometryPlan.layers`); the cost model resolves only
the plan's conv/fc entries.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FormatError, InputError
from .templates import LayerSpec, NetworkTemplate

RATIOS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)

ExpansionCode = tuple[float, ...]


_RATIO_SET = frozenset(RATIOS)


def validate_code(code: Iterable[float], n_genes: int | None = None) -> ExpansionCode:
    code = tuple(code)
    for i, r in enumerate(code):
        if type(r) is float or type(r) is int:  # exact types: a set lookup suffices
            if r in _RATIO_SET:
                continue
        elif not isinstance(r, bool) and isinstance(r, numbers.Real) and r in RATIOS:
            continue
        raise InputError(f"ratio {r!r} at gene {i} is not one of {RATIOS}")
    code = tuple(map(float, code))
    if n_genes is not None and len(code) != n_genes:
        raise InputError(f"code has {len(code)} genes, template expects {n_genes}")
    return code


def uniform_code(ratio: float, n: int) -> ExpansionCode:
    return validate_code((ratio,) * n)


def random_code(n: int, rng: np.random.Generator) -> ExpansionCode:
    return tuple(float(RATIOS[i]) for i in rng.integers(0, len(RATIOS), size=n))


def _scaled(ratio: float, base: int) -> int:
    value = ratio * base
    width = int(round(value))
    if abs(value - width) > 1e-9 or width < 1:
        raise InputError(f"ratio {ratio} on base {base} does not give a positive integer width")
    return width


@dataclass(frozen=True)
class LayerGeom:
    """One executed layer: its spec, resolved channels, output extent, and
    the shape of each array it owns, by field name in storage order."""

    spec: LayerSpec
    in_ch: int
    out_ch: int
    h_out: int
    w_out: int
    shapes: dict[str, tuple[int, ...]]
    in_features: int = 0  # fc only: flattened input size
    proj_of: str | None = None  # set on projection-shortcut entries


def _norm_shapes(c: int) -> dict[str, tuple[int, ...]]:
    return {"gamma": (c,), "beta": (c,), "running_mean": (c,), "running_var": (c,)}


def _conv_out(size: int, k: int, stride: int, pad: int) -> int:
    if size + 2 * pad < k:
        raise InputError(f"kernel {k} exceeds padded extent {size + 2 * pad}")
    return (size + 2 * pad - k) // stride + 1


class GeometryPlan:
    """The part of the geometry walk that no code changes, for one template.

    `entries` holds every executed layer in walk order as (spec, in
    source, out source, h_out, w_out, fc input extent, fc bias flag,
    proj_of). `weighted` holds every conv/fc entry as (spec, in source,
    out source, weights per in/out channel pair, output positions). A
    source indexes the vector `channels` returns: gene widths by gene
    index, then fixed counts (the image channels, an ungened fc's width).

    `steps` lists, in walk order, every check a code can fail: each gene
    width, each identity tie whose two sides can differ, and the first
    structural error, where the walk stopped. `channels` runs them on
    each call, so every error keeps the walk's order and message.
    """

    __slots__ = ("entries", "weighted", "fixed", "steps")

    def __init__(self, template: NetworkTemplate):
        self.entries: list[tuple] = []
        self.weighted: list[tuple] = []
        self.steps: list[tuple] = []
        n = template.n_genes
        self.fixed = fixed = [template.input_shape[0]]
        c = n  # source of the current channel count
        h, w = template.input_shape[1:]
        block_inputs: dict[str, int] = {}
        try:
            for i, spec in enumerate(template.layers):
                block = template.block_at(i)
                if block is not None and i == block.first_layer:
                    block_inputs[block.name] = c
                cin = c
                if spec.kind == "conv":
                    if spec.gene_index is not None:
                        c = self._gene(spec)
                    elif block is None or block.proj_conv is not None:
                        raise InputError(f"conv '{spec.name}' has no gene and no identity block to tie to")
                    else:
                        c = block_inputs[block.name]
                    h = _conv_out(h, spec.kernel[0], spec.stride, spec.pad)
                    w = _conv_out(w, spec.kernel[1], spec.stride, spec.pad)
                    self._conv_entry(spec, cin, c, h, w)
                elif spec.kind == "fc":
                    if spec.gene_index is not None:
                        c = self._gene(spec)
                    else:
                        c = n + len(fixed)
                        fixed.append(spec.base_out)
                    bias = i + 1 == len(template.layers) or template.layers[i + 1].kind != "bn"
                    self.entries.append((spec, cin, c, 1, 1, h * w, bias, None))
                    self.weighted.append((spec, cin, c, h * w, 1))
                    h = w = 1
                elif spec.kind == "pool":
                    if spec.pool_op == "global_avg":
                        h = w = 1
                    else:
                        h = _conv_out(h, spec.kernel[0], spec.stride, spec.pad)
                        w = _conv_out(w, spec.kernel[1], spec.stride, spec.pad)
                    self.entries.append((spec, c, c, h, w, 0, False, None))
                elif spec.kind == "residual-add":
                    shortcut = block_inputs[block.name]
                    if block.proj_conv is not None:
                        self._conv_entry(block.proj_conv, shortcut, c, h, w, proj_of=block.name)
                        self.entries.append((block.proj_bn, c, c, h, w, 0, False, block.name))
                    elif shortcut != c:
                        self.steps.append(("tie", block.name, shortcut, c))
                    self.entries.append((spec, c, c, h, w, 0, False, None))
                else:  # bn, act
                    self.entries.append((spec, c, c, h, w, 0, False, None))
        except InputError as e:
            self.steps.append(("error", str(e)))

    def _gene(self, spec: LayerSpec) -> int:
        self.steps.append(("gene", spec.gene_index, spec.base_out))
        return spec.gene_index

    def _conv_entry(self, spec: LayerSpec, cin: int, c: int, h: int, w: int, proj_of: str | None = None) -> None:
        self.entries.append((spec, cin, c, h, w, 0, False, proj_of))
        self.weighted.append((spec, cin, c, spec.kernel[0] * spec.kernel[1], h * w))

    def channels(self, code: ExpansionCode) -> list[int]:
        """The channel count of every source, for a validated code."""
        counts = [0] * len(code) + self.fixed
        for kind, *args in self.steps:
            if kind == "gene":
                gene, base = args
                counts[gene] = _scaled(code[gene], base)
            elif kind == "tie":
                block, shortcut, c = args
                if counts[shortcut] != counts[c]:
                    raise InputError(f"identity shortcut of block '{block}' sees {counts[shortcut]} vs {counts[c]} channels")
            else:
                raise InputError(args[0])
        return counts

    def layers(self, code: ExpansionCode) -> list[LayerGeom]:
        """Every entry's `LayerGeom`, for a validated code."""
        counts = self.channels(code)
        geoms = []
        for spec, i, o, h, w, extent, bias, proj_of in self.entries:
            cin, c = counts[i], counts[o]
            n_in = 0
            if spec.kind == "conv":
                shapes = {"weight": (c, cin, *spec.kernel)}
            elif spec.kind == "fc":
                n_in = cin * extent
                shapes = {"weight": (n_in, c), "bias": (c,)} if bias else {"weight": (n_in, c)}
            elif spec.kind == "bn":
                shapes = _norm_shapes(c)
            else:
                shapes = {}
            geoms.append(LayerGeom(spec, cin, c, h, w, shapes, n_in, proj_of))
        return geoms


def geometry_plan(template: NetworkTemplate) -> GeometryPlan:
    """The plan of `template`, built on first use and kept on the instance.

    Keyed by the instance, not by value: a frozen template never changes,
    and an attribute read costs no hash of its layers.
    """
    plan = template.__dict__.get("_geometry_plan")
    if plan is None:
        plan = GeometryPlan(template)
        object.__setattr__(template, "_geometry_plan", plan)
    return plan


def layer_geometry(template: NetworkTemplate, code: Iterable[float]) -> list[LayerGeom]:
    """Execution-ordered channels, extents and array shapes; projection
    entries precede their add.

    Gened layers scale their base width by the gene's ratio. A block with
    an identity shortcut has its last conv's output tied to the block
    input; a projection shortcut adopts the block's output gene. The first
    conv's input and the classifier's output stay fixed at the image
    channel count and the class count.

    A conv owns `weight` [out, in, kh, kw]; an fc owns `weight`
    [in_features, out] and, when no norm layer follows it, `bias` [out];
    a bn owns `gamma`, `beta`, `running_mean` and `running_var`, each [c].
    Convs carry no bias because a norm layer always follows them.
    """
    code = validate_code(code, template.n_genes)
    return geometry_plan(template).layers(code)


def resolve_channels(template: NetworkTemplate, code: Iterable[float]) -> dict[str, tuple[int, int]]:
    """Per-layer (in, out) channel counts, projection shortcuts included."""
    return {g.spec.name: (g.in_ch, g.out_ch) for g in layer_geometry(template, code)}


def ratio_list(code: Iterable[float]) -> list:
    """Ratios as JSON values: whole ratios as integers, the rest as floats."""
    return [int(r) if float(r).is_integer() else float(r) for r in code]


def code_file_text(template_name: str, code: Iterable[float]) -> str:
    """Code file body: template name plus exact-decimal ratio list."""
    code = validate_code(code)
    payload = {"template": template_name, "ratios": ratio_list(code)}
    return json.dumps(payload, indent=2) + "\n"


def write_code_file(path: str, template_name: str, code: Iterable[float]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(code_file_text(template_name, code))


def read_code_file(path: str) -> tuple[str, ExpansionCode]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"code file {path} is not valid JSON: {e}") from e
    if (not isinstance(payload, dict) or set(payload) != {"template", "ratios"}
            or not isinstance(payload["template"], str) or not isinstance(payload["ratios"], list)):
        raise FormatError(f"code file {path} must contain exactly a 'template' string and a 'ratios' list")
    return payload["template"], validate_code(payload["ratios"])
