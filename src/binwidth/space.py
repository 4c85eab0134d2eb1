"""Expansion codes and their application to network templates.

An expansion code is one ratio per gene, drawn from the fixed candidate
set. `layer_geometry` turns (template, code) into concrete per-layer
channel counts, spatial extents and parameter shapes, enforcing the
residual tying rules, in one walk that the cost model, the network
builder and checkpoint slicing share; `resolve_channels` is its channel
view.
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


def validate_code(code: Iterable[float], n_genes: int | None = None) -> ExpansionCode:
    code = tuple(code)
    for i, r in enumerate(code):
        if isinstance(r, bool) or not isinstance(r, numbers.Real) or r not in RATIOS:
            raise InputError(f"ratio {r!r} at gene {i} is not one of {RATIOS}")
    code = tuple(float(r) for r in code)
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
    geoms: list[LayerGeom] = []
    c, h, w = template.input_shape
    block_inputs: dict[str, int] = {}
    for i, spec in enumerate(template.layers):
        block = template.block_at(i)
        if block is not None and i == block.first_layer:
            block_inputs[block.name] = c
        cin = c
        if spec.kind == "conv":
            if spec.gene_index is not None:
                c = _scaled(code[spec.gene_index], spec.base_out)
            elif block is None or block.proj_conv is not None:
                raise InputError(f"conv '{spec.name}' has no gene and no identity block to tie to")
            else:
                c = block_inputs[block.name]
            h = _conv_out(h, spec.kernel[0], spec.stride, spec.pad)
            w = _conv_out(w, spec.kernel[1], spec.stride, spec.pad)
            geoms.append(LayerGeom(spec, cin, c, h, w, {"weight": (c, cin, *spec.kernel)}))
        elif spec.kind == "fc":
            c = _scaled(code[spec.gene_index], spec.base_out) if spec.gene_index is not None else spec.base_out
            n_in = cin * h * w
            shapes = {"weight": (n_in, c)}
            if i + 1 == len(template.layers) or template.layers[i + 1].kind != "bn":
                shapes["bias"] = (c,)
            geoms.append(LayerGeom(spec, cin, c, 1, 1, shapes, in_features=n_in))
            h = w = 1
        elif spec.kind == "pool":
            if spec.pool_op == "global_avg":
                h = w = 1
            else:
                h = _conv_out(h, spec.kernel[0], spec.stride, spec.pad)
                w = _conv_out(w, spec.kernel[1], spec.stride, spec.pad)
            geoms.append(LayerGeom(spec, c, c, h, w, {}))
        elif spec.kind == "residual-add":
            shortcut = block_inputs[block.name]
            if block.proj_conv is not None:
                geoms.append(LayerGeom(block.proj_conv, shortcut, c, h, w,
                                       {"weight": (c, shortcut, *block.proj_conv.kernel)}, proj_of=block.name))
                geoms.append(LayerGeom(block.proj_bn, c, c, h, w, _norm_shapes(c), proj_of=block.name))
            elif shortcut != c:
                raise InputError(f"identity shortcut of block '{block.name}' sees {shortcut} vs {c} channels")
            geoms.append(LayerGeom(spec, c, c, h, w, {}))
        elif spec.kind == "bn":
            geoms.append(LayerGeom(spec, c, c, h, w, _norm_shapes(c)))
        else:  # act
            geoms.append(LayerGeom(spec, c, c, h, w, {}))
    return geoms


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
            or not isinstance(payload["ratios"], list)):
        raise FormatError(f"code file {path} must contain exactly 'template' and a 'ratios' list")
    return str(payload["template"]), validate_code(payload["ratios"])
