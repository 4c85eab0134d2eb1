"""End-to-end recipes: search runs and full training runs.

A search run owns one output directory:

    search_log.jsonl   one record per evaluated candidate, append-only
    supernet.ckpt      only with supernet_init: the trained 4x supernet
    best_code.json     code file for the fittest individual ever seen
    summary.json       headline numbers for the run

Runs are resumable: an existing log is replayed instead of re-evaluated,
so a killed run continues where it stopped, and a finished run is a
no-op that reproduces the same summary.
"""

from __future__ import annotations

import dataclasses
import json
import os

from . import ops
from .checkpoint import (
    Checkpoint,
    atomic_write_text,
    inherit_weights,
    read_checkpoint,
    write_checkpoint,
)
from .config import RunConfig
from .data import Dataset
from .errors import FormatError, InputError
from .net import instantiate
from .search import SearchLogRecord, evolve, make_proxy_evaluator
from .seeding import derive_seed
from .space import code_file_text, ratio_list, uniform_code
from .templates import NetworkTemplate, get_template
from .train import TrainConfig, accuracy, train_network

LOG_NAME = "search_log.jsonl"
SUPERNET_NAME = "supernet.ckpt"
BEST_CODE_NAME = "best_code.json"
SUMMARY_NAME = "summary.json"


def read_search_log(path: str) -> list[SearchLogRecord]:
    records = []
    with open(path, "rb") as f:  # decoded per line, so a bad byte is reported at its line
        for lineno, raw in enumerate(f, start=1):
            if not raw.isspace():
                try:
                    records.append(SearchLogRecord.from_json(raw))
                except FormatError as e:
                    raise FormatError(f"{path}:{lineno}: {e}") from None
    return records


def _drop_torn_tail(path: str) -> bool:
    """Truncate a log whose last line has no newline, the mark of a write
    cut short by a kill, to its last complete line; True if it did."""
    with open(path, "rb+") as f:
        text = f.read()
        if not text or text.endswith(b"\n"):
            return False
        f.truncate(text.rfind(b"\n") + 1)
    return True


def check_fits(template: NetworkTemplate, *datasets: Dataset | None) -> None:
    """Refuse data that holds no images, or images not of the template's
    (C, H, W), before any work on it."""
    for data in datasets:
        if data is None:
            continue
        if not len(data):
            raise InputError(f"template '{template.name}' got {data.split} data with no images")
        if data.images.shape[1:] != template.input_shape:
            raise InputError(f"template '{template.name}' takes {template.input_shape} images (C, H, W), "
                             f"but the data holds {data.images.shape[1:]}")


def _train_supernet(cfg: RunConfig, template: NetworkTemplate, proxy_train: Dataset, path: str) -> Checkpoint:
    code = uniform_code(4, template.n_genes)
    seed = derive_seed(cfg.search.master_seed, "supernet")
    net = instantiate(template, code, seed=seed)
    supernet_cfg = dataclasses.replace(cfg.full_train, seed=derive_seed(seed, "train"))
    train_network(net, proxy_train, supernet_cfg)
    ckpt = Checkpoint(net.state_dict(), template.name, code, seed)
    write_checkpoint(path, ckpt)
    return ckpt


def run_search(cfg: RunConfig, echo=lambda line: None) -> dict:
    """Execute (or resume) the search described by cfg; returns the summary."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    template = get_template(cfg.template)
    proxy_train, proxy_val = cfg.dataset.proxy_splits()
    check_fits(template, proxy_train)
    echo(f"proxy data: {len(proxy_train)} train / {len(proxy_val)} val images")

    supernet = None
    if cfg.supernet_init:
        supernet_path = os.path.join(cfg.output_dir, SUPERNET_NAME)
        if os.path.exists(supernet_path):
            supernet = read_checkpoint(supernet_path)
            echo(f"loaded supernet from {supernet_path}")
        else:
            echo(f"pre-training 4x supernet for {cfg.full_train.epochs} epochs")
            supernet = _train_supernet(cfg, template, proxy_train, supernet_path)

    log_path = os.path.join(cfg.output_dir, LOG_NAME)
    prior = []
    if os.path.exists(log_path):
        if _drop_torn_tail(log_path):
            echo(f"dropped the unterminated last line of {log_path}; its slot is evaluated again")
        prior = read_search_log(log_path)
    if prior:
        echo(f"resuming: {len(prior)} evaluations already logged")

    evaluator = make_proxy_evaluator(
        template, proxy_train, proxy_val, cfg.search,
        train_config=cfg.proxy_train, supernet=supernet,
    )
    with open(log_path, "a", encoding="utf-8") as log_file:

        def sink(record: SearchLogRecord) -> None:
            log_file.write(record.to_json() + "\n")
            log_file.flush()
            echo(
                f"gen {record.generation} idx {record.index}: "
                f"acc {record.acc:.2f} norm {record.flops_norm:.3f} fitness {record.fitness:.2f}"
            )

        best, records = evolve(template, cfg.search, evaluator, log_sink=sink, prior_records=prior,
                               workers=ops.usable_cpus())

    atomic_write_text(os.path.join(cfg.output_dir, BEST_CODE_NAME), code_file_text(template.name, best.code))
    summary = {
        "template": template.name,
        "best_code": ratio_list(best.code),
        "best_fitness": best.fitness,
        "best_acc": best.acc,
        "best_flops": best.flops,
        "best_flops_norm": best.flops_norm,
        "generations": cfg.search.generations,
        "population_size": cfg.search.population_size,
        "evaluations": len(records),
    }
    atomic_write_text(os.path.join(cfg.output_dir, SUMMARY_NAME), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    echo(f"best fitness {best.fitness:.2f} at code {summary['best_code']}")
    return summary


def run_train(
    template_name: str,
    code,
    train_set: Dataset,
    train_cfg: TrainConfig,
    test_set: Dataset | None = None,
    supernet: Checkpoint | None = None,
    out_path: str | None = None,
) -> dict:
    """Train (template, code) from scratch or from an inherited supernet;
    with out_path, write the checkpoint there, making its directory."""
    template = get_template(template_name)
    check_fits(template, train_set, test_set)
    net = instantiate(template, code, seed=train_cfg.seed)
    if supernet is not None:
        net.load_state_dict(inherit_weights(supernet, template, net.code).arrays)
    history = train_network(net, train_set, train_cfg)
    result = {
        "train_acc": accuracy(net, train_set),
        "test_acc": accuracy(net, test_set) if test_set is not None else None,
        "loss_history": history,
    }
    ckpt = Checkpoint(net.state_dict(), template.name, net.code, train_cfg.seed)
    if out_path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        write_checkpoint(out_path, ckpt)
        result["checkpoint"] = out_path
    result["network"] = net
    return result
