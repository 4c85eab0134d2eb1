"""Golden gate: a fixed search and a fixed training run must reproduce
their recorded outputs exactly.

The fixtures under tests/golden/ were recorded from the reference
implementation. A refactor that claims "same behaviour" must leave the
search log byte-identical apart from `wall_time` and the checkpoint
bytes identical. To re-record them after an intended behaviour change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import os
import re

from binwidth import config as cm
from binwidth import runner, space, synth, train
from binwidth.data import parse_cifar10_bin

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
LOG_FIXTURE = os.path.join(GOLDEN, "resnet_mini_search_log.jsonl")
CKPT_FIXTURE = os.path.join(GOLDEN, "resnet_mini_train_1x.sha256")
_WALL_TIME = re.compile(r'"wall_time": [^,}]+')


def _data(directory: str) -> dict:
    return synth.write_rgb_files(os.path.join(directory, "data"), 8, 2, 0)


def search_log_text(directory: str) -> str:
    """The search log with every wall_time replaced by 0.0."""
    files = _data(directory)
    cfg = cm.parse_run_config({
        "template": "resnet_mini",
        "dataset": {"kind": "records", "train": files["train"], "test": files["test"],
                    "proxy_train_per_class": 5, "proxy_val_per_class": 2},
        "search": {"population_size": 4, "generations": 2, "proxy_epochs": 1,
                   "elitism_count": 1, "master_seed": 5},
        "proxy_train": {"batch_size": 25},
        "output_dir": os.path.join(directory, "run"),
    })
    runner.run_search(cfg)
    with open(os.path.join(cfg.output_dir, runner.LOG_NAME), encoding="utf-8") as f:
        return _WALL_TIME.sub('"wall_time": 0.0', f.read())


def checkpoint_sha256(directory: str) -> str:
    files = _data(directory)
    with open(files["train"], "rb") as f:
        train_set = parse_cifar10_bin(f.read(), split="train")
    cfg = train.TrainConfig(epochs=1, batch_size=25, seed=2, augment=True)
    out_path = os.path.join(directory, "model.ckpt")
    runner.run_train("resnet_mini", space.uniform_code(1, 6), train_set, cfg, out_path=out_path)
    with open(out_path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_search_log_matches_golden_apart_from_wall_time(tmp_path):
    with open(LOG_FIXTURE, encoding="utf-8") as f:
        want = f.read()
    assert search_log_text(str(tmp_path)) == want


def test_trained_checkpoint_matches_golden_hash(tmp_path):
    with open(CKPT_FIXTURE, encoding="utf-8") as f:
        want = f.read().strip()
    assert checkpoint_sha256(str(tmp_path)) == want


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        text = search_log_text(os.path.join(d, "search"))
        digest = checkpoint_sha256(os.path.join(d, "train"))
    with open(LOG_FIXTURE, "w", encoding="utf-8") as f:
        f.write(text)
    with open(CKPT_FIXTURE, "w", encoding="utf-8") as f:
        f.write(digest + "\n")
