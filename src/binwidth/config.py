"""Run configuration: one JSON file describing an end-to-end run.

Each section is a dataclass, read by `space.read_json`: its keys are the
field names, its values must have the JSON type of the field's
annotation, and absent keys take the field defaults. Every section
rejects unknown keys so a typo in a hyper-parameter name fails loudly
instead of silently training with a default, and a value of the wrong
type fails naming its dotted key; so does a dataset path that the
dataset's kind does not read. Every fault is a `ConfigError`, prefixed
with the file's path when read from a file.

`proxy_train` is the schedule each search candidate trains on; its
`epochs` default to `search.proxy_epochs`, and its `seed` is replaced by
each candidate's derived seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .data import Dataset, parse_cifar10_bin, parse_mnist_idx, stratified_split
from .errors import ConfigError
from .search import SearchConfig
from .space import read_json
from .templates import TEMPLATES
from .train import TrainConfig

# Dataset kind -> split -> the path fields of that split's set.
_PATHS = {"idx": {"train": ("train_images", "train_labels"), "test": ("test_images", "test_labels")},
          "records": {"train": ("train",), "test": ("test",)}}


@dataclass(frozen=True)
class DatasetConfig:
    """Where the data lives, read by `load(split)`, and how the proxy splits
    are carved from it."""

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
        if self.kind not in _PATHS:
            raise ConfigError(f"dataset.kind must be 'idx' or 'records', got {self.kind!r}")
        for kind, sets in _PATHS.items():
            for name in sum(sets.values(), ()):
                if kind != self.kind and getattr(self, name) is not None:
                    raise ConfigError(f"'dataset.{name}' is a path for dataset kind '{kind}', not '{self.kind}'")

    def load(self, split: str) -> Dataset:
        """The "train" or "test" set, parsed from the files its path fields name."""
        contents = []
        for name in _PATHS[self.kind][split]:
            path = getattr(self, name)
            if path is None:
                raise ConfigError(f"dataset kind '{self.kind}' needs '{name}'")
            if not os.path.exists(path):
                raise ConfigError(f"dataset file '{path}' ({name}) does not exist")
            with open(path, "rb") as f:
                contents.append(f.read())
        return (parse_mnist_idx if self.kind == "idx" else parse_cifar10_bin)(*contents, split=split)

    def has_test(self) -> bool:
        return any(getattr(self, name) is not None for name in _PATHS[self.kind]["test"])

    def proxy_splits(self) -> tuple[Dataset, Dataset]:
        """Disjoint stratified train/val pools for candidate scoring."""
        return stratified_split(
            self.load("train"), self.proxy_train_per_class, self.proxy_val_per_class, self.subset_seed,
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


def parse_run_config(payload: dict | str | bytes) -> RunConfig:
    """The run config in `payload`, a JSON object or its text. Proxy
    training runs the search's proxy_epochs unless told otherwise."""
    derived = {"proxy_train": lambda got: TrainConfig(epochs=got["search"].proxy_epochs)}
    return read_json(payload, RunConfig, ConfigError, base=derived)


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "rb") as f:
            return parse_run_config(f.read())
    except FileNotFoundError:
        raise ConfigError(f"config file '{path}' does not exist") from None
    except ConfigError as e:
        raise ConfigError(f"config file '{path}': {e}") from None
