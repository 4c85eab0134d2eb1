"""Expansion codes, their application to network templates, the JSON reader.

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

`read_json` reads every JSON object the program reads (run config, log
lines, code files, checkpoint metadata) into a dataclass: an unknown key,
a missing one, a value of the wrong JSON type or text that is not UTF-8
JSON raises the caller's error, naming the key at fault.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import sys
import typing
from dataclasses import dataclass
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


# Field type -> (what its JSON value must be, the test, the conversion).
# `type(v) is int` keeps bools, an int subclass, out of the numbers; NaN,
# infinities and ints beyond the largest float fail the float's bound.
_JSON_TYPES = {
    bool: ("true or false", lambda v: type(v) is bool, bool),
    int: ("an integer", lambda v: type(v) is int, int),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float),
    str: ("a string", lambda v: type(v) is str, str),
    tuple[int, ...]: ("a list of integers", lambda v: type(v) is list and all(type(x) is int for x in v), tuple),
    ExpansionCode: ("a list of ratios", lambda v: type(v) is list, validate_code),
}


@functools.cache  # get_type_hints evaluates the string annotations anew on every call
def json_fields(cls: type) -> dict[str, tuple]:
    """JSON key (the field name, less the trailing `_` that dodges a keyword,
    as in `lambda_`) -> (field name, `_JSON_TYPES` entry or nested
    dataclass, null allowed, default) of dataclass `cls`."""
    hints, table = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        hint, options = hints[f.name], typing.get_args(hints[f.name])
        if type(None) in options:  # X | None
            (hint,) = (t for t in options if t is not type(None))
        kind = hint if dataclasses.is_dataclass(hint) else _JSON_TYPES[hint]
        table[f.name.rstrip("_")] = (f.name, kind, type(None) in options, f.default)
    return table


def read_json(source, cls: type, error=FormatError, where: str = "", base: dict | None = None):
    """Dataclass `cls` from a JSON object (UTF-8 bytes, text or a dict) whose
    keys are its fields; any fault raises `error(message)` naming the key,
    dotted below `where`. A value has its field's JSON type (a bool is no
    number, a float is finite, null fills only an optional field, a nested
    dataclass is an object). An absent key takes `base[field]` (called with
    the values so far if callable), else the field default, else is
    missing; a nested object's absent keys take the fields of that value."""
    if not where and isinstance(source, (str, bytes, bytearray)):  # text; a nested object arrives decoded
        try:
            source = json.loads(source if type(source) is str else source.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise error(f"not valid JSON: {e}") from None
    if type(source) is not dict:
        raise error(f"{repr(where) if where else 'the top level'} must be a JSON object, got {json.dumps(source)}")
    table = json_fields(cls)
    if not source.keys() <= table.keys():
        unknown = sorted(source.keys() - table.keys())
        raise error(f"unknown key(s) {unknown}{f' in {where!r}' if where else ''}; allowed: {sorted(table)}")
    values = {}
    for key, (name, kind, optional, default) in table.items():
        at = f"{where}.{key}" if where else key
        if base is not None and name in base:
            default = base[name](values) if callable(base[name]) else base[name]
        value = source.get(key, dataclasses.MISSING)
        if value is dataclasses.MISSING:
            if default is dataclasses.MISSING:
                raise error(f"missing key '{at}'")
            values[name] = default
        elif value is None and optional:
            values[name] = None
        elif type(kind) is not tuple:
            values[name] = read_json(value, kind, error, at, None if default is dataclasses.MISSING else vars(default))
        elif not kind[1](value):
            raise error(f"'{at}' must be {kind[0]}, got {json.dumps(value)}")
        else:
            try:
                values[name] = kind[2](value)
            except InputError as e:
                raise error(f"'{at}': {e}") from None
    return cls(**values)


@dataclass(frozen=True)
class CodeFile:
    """A code file's object: the template a code is for, and its ratios."""

    template: str
    ratios: ExpansionCode


def read_code_file(path: str) -> tuple[str, ExpansionCode]:
    with open(path, "rb") as f:
        got = read_json(f.read(), CodeFile, lambda message: FormatError(f"code file {path}: {message}"))
    return got.template, got.ratios
