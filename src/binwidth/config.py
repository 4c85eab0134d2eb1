"""Run configuration: one JSON file describing an end-to-end run.

Each section is a dataclass: its keys are the field names, its values
must have the JSON type of the field's annotation, and absent keys take
the field defaults. Every section rejects unknown keys so a typo in a
hyper-parameter name fails loudly instead of silently training with a
default, and a value of the wrong type fails naming its dotted key.

`proxy_train` is the schedule each search candidate trains on; its
`epochs` default to `search.proxy_epochs`, and its `seed` is replaced by
each candidate's derived seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass

from .data import Dataset, parse_cifar10_bin, parse_mnist_idx, stratified_split
from .errors import ConfigError
from .search import SearchConfig, json_value
from .templates import TEMPLATES
from .train import LrSchedule, TrainConfig

# Field name -> JSON key, where the field name had to dodge a keyword.
_JSON_KEYS = {"lambda_": "lambda"}


def _value(value, hint, where: str, default):
    """`value` checked against the field type `hint`. A dataclass type
    parses `value` as a section whose absent keys come from `default`."""
    options = typing.get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = (t for t in options if t is not type(None))
    if dataclasses.is_dataclass(hint):
        return _section(hint, value, where, default)
    return json_value(value, hint, where, ConfigError)


def _section(cls, section, where: str, base=dataclasses.MISSING, derived=None):
    """Build dataclass `cls` from a JSON object.

    An absent key takes, in order: `derived[field](values parsed so far)`,
    the field of `base` (an instance of `cls`), the field default. A field
    with none of these is required.
    """
    name = where or "run config"
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object, got {type(section).__name__}")
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in '{name}'; allowed: {sorted(fields)}")
    hints = _HINTS[cls]
    values: dict = {}
    for key, f in fields.items():
        if derived and f.name in derived:
            default = derived[f.name](values)
        elif base is not dataclasses.MISSING:
            default = getattr(base, f.name)
        else:
            default = f.default
        if key in section:
            values[f.name] = _value(section[key], hints[f.name], f"{where}.{key}" if where else key, default)
        elif default is dataclasses.MISSING:
            raise ConfigError(f"{name} needs '{key}'")
        else:
            values[f.name] = default
    return cls(**values)


@dataclass(frozen=True)
class DatasetConfig:
    """Where the data lives and how the proxy splits are carved from it."""

    kind: str  # "idx" (image/label file pairs) or "records" (3073-byte records)
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    train: str | None = None
    test: str | None = None
    proxy_train_per_class: int = 500
    proxy_val_per_class: int = 100
    subset_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("idx", "records"):
            raise ConfigError(f"dataset.kind must be 'idx' or 'records', got {self.kind!r}")

    def _read(self, *names: str) -> list[bytes]:
        """Contents of the files named by these path fields."""
        contents = []
        for name in names:
            path = getattr(self, name)
            if path is None:
                raise ConfigError(f"dataset kind '{self.kind}' needs '{name}'")
            if not os.path.exists(path):
                raise ConfigError(f"dataset file '{path}' ({name}) does not exist")
            with open(path, "rb") as f:
                contents.append(f.read())
        return contents

    def load_train(self) -> Dataset:
        if self.kind == "idx":
            return parse_mnist_idx(*self._read("train_images", "train_labels"), split="train")
        return parse_cifar10_bin(*self._read("train"), split="train")

    def has_test(self) -> bool:
        return (self.test_images is not None) if self.kind == "idx" else (self.test is not None)

    def load_test(self) -> Dataset:
        if self.kind == "idx":
            return parse_mnist_idx(*self._read("test_images", "test_labels"), split="test")
        return parse_cifar10_bin(*self._read("test"), split="test")

    def proxy_splits(self) -> tuple[Dataset, Dataset]:
        """Disjoint stratified train/val pools for candidate scoring."""
        return stratified_split(
            self.load_train(), self.proxy_train_per_class, self.proxy_val_per_class, self.subset_seed,
        )


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    template: str
    dataset: DatasetConfig
    search: SearchConfig = SearchConfig()
    proxy_train: TrainConfig
    full_train: TrainConfig = TrainConfig(epochs=200, augment=True)
    supernet_init: bool = False
    output_dir: str

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ConfigError(f"template must be one of {sorted(TEMPLATES)}, got {self.template!r}")
        if not self.output_dir:
            raise ConfigError("run config needs an 'output_dir'")


# Resolved field types of each section. get_type_hints evaluates the string
# annotations afresh on every call, at about 0.1 ms a class.
_HINTS = {cls: typing.get_type_hints(cls) for cls in (RunConfig, DatasetConfig, SearchConfig, TrainConfig, LrSchedule)}


def parse_run_config(payload: dict) -> RunConfig:
    # Proxy training runs the search's proxy_epochs unless told otherwise.
    return _section(RunConfig, payload, "", derived={
        "proxy_train": lambda got: TrainConfig(epochs=got["search"].proxy_epochs),
    })


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file '{path}' does not exist") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"config file '{path}' is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config file '{path}' must hold a JSON object")
    return parse_run_config(payload)
