"""Expansion codes and their application to network templates.

An expansion code is one ratio per gene, drawn from the fixed candidate
set. A template checks its own structure when it is built and keeps the
result as `template.plan` (`templates.GeometryPlan`), so a call here
checks only what a code can break: its ratios and gene count
(`validate_code`) and the identity ties. `layer_geometry` resolves the
plan into per-layer channel counts, extents and parameter shapes;
`resolve_channels` is its channel view. The network builder and
checkpoint slicing validate the code themselves and resolve the plan
(`GeometryPlan.layers`); the cost model resolves only the plan's conv/fc
entries.
"""

from __future__ import annotations

import json
import numbers
from typing import Iterable

import numpy as np

from .errors import FormatError, InputError
from .templates import LayerGeom, NetworkTemplate

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


def layer_geometry(template: NetworkTemplate, code: Iterable[float]) -> list[LayerGeom]:
    """Execution-ordered channels, extents and array shapes; a block's
    shortcut entries follow its main path's.

    Gened layers scale their base width by the gene's ratio. A block with
    an identity shortcut has its ungened convs' output tied to the block
    input; an ungened conv on a shortcut adopts the main path's output
    width, so a projection takes the block's output gene. The first
    conv's input and an ungened fc's output stay fixed: the image channel
    count, and the fc's base width (the class count, at the final fc).

    A conv owns `weight` [out, in, k, k]; an fc owns `weight` [flattened
    input, out] and, when no norm layer follows it, `bias` [out]; a bn
    owns `gamma`, `beta`, `running_mean` and `running_var`, each [c].
    Convs carry no bias because a norm layer always follows them.
    """
    code = validate_code(code, template.n_genes)
    return template.plan.layers(code)


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
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"code file {path} is not valid JSON: {e}") from e
    if (not isinstance(payload, dict) or set(payload) != {"template", "ratios"}
            or not isinstance(payload["template"], str) or not isinstance(payload["ratios"], list)):
        raise FormatError(f"code file {path} must contain exactly a 'template' string and a 'ratios' list")
    try:
        return payload["template"], validate_code(payload["ratios"])
    except InputError as e:
        raise FormatError(f"code file {path}: {e}") from None
