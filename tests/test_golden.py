"""Golden gate: a fixed search and two fixed training runs must reproduce
their recorded outputs exactly.

The fixtures under tests/golden/ were recorded from the reference
implementation. A refactor that claims "same behaviour" must leave the
search log byte-identical apart from `wall_time` and the checkpoint
bytes identical. The resnet_mini run has no max-pool; the vgg_small_mini
run pins the max-pool and 2-D batch-norm kernels. To re-record them after
an intended behaviour change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import os
import re
import subprocess
import sys

from binwidth import config as cm
from binwidth import runner, space, synth, train
from binwidth.data import parse_cifar10_bin, parse_mnist_idx

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
LOG_FIXTURE = os.path.join(GOLDEN, "resnet_mini_search_log.jsonl")
CKPT_FIXTURE = os.path.join(GOLDEN, "resnet_mini_train_1x.sha256")
POOL_CKPT_FIXTURE = os.path.join(GOLDEN, "vgg_small_mini_train_1x.sha256")
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


def _trained_sha256(directory: str, template: str, code, train_set, augment: bool) -> str:
    cfg = train.TrainConfig(epochs=1, batch_size=25, seed=2, augment=augment)
    out_path = os.path.join(directory, "model.ckpt")
    runner.run_train(template, code, train_set, cfg, out_path=out_path)
    with open(out_path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def checkpoint_sha256(directory: str) -> str:
    files = _data(directory)
    with open(files["train"], "rb") as f:
        train_set = parse_cifar10_bin(f.read(), split="train")
    return _trained_sha256(directory, "resnet_mini", space.uniform_code(1, 6), train_set, augment=True)


def pool_checkpoint_sha256(directory: str) -> str:
    """A mixed-width vgg_small_mini run: max-pool, and batch norm in 4-D and 2-D."""
    files = synth.write_gray_files(os.path.join(directory, "data"), 8, 2, 0)
    with open(files["train_images"], "rb") as fi, open(files["train_labels"], "rb") as fl:
        train_set = parse_mnist_idx(fi.read(), fl.read(), split="train")
    return _trained_sha256(directory, "vgg_small_mini", (0.5, 2, 4, 1), train_set, augment=False)


def test_search_log_matches_golden_apart_from_wall_time(tmp_path):
    with open(LOG_FIXTURE, encoding="utf-8") as f:
        want = f.read()
    assert search_log_text(str(tmp_path)) == want


def test_trained_checkpoint_matches_golden_hash(tmp_path):
    with open(CKPT_FIXTURE, encoding="utf-8") as f:
        want = f.read().strip()
    assert checkpoint_sha256(str(tmp_path)) == want


def test_trained_pool_checkpoint_matches_golden_hash(tmp_path):
    with open(POOL_CKPT_FIXTURE, encoding="utf-8") as f:
        want = f.read().strip()
    assert pool_checkpoint_sha256(str(tmp_path)) == want


def test_pool_checkpoint_hash_holds_with_blas_threads_unset(tmp_path):
    # With no thread variable, OpenBLAS starts one thread per CPU; the
    # conv lanes set it to one thread in-process, and the bits must hold.
    with open(POOL_CKPT_FIXTURE, encoding="utf-8") as f:
        want = f.read().strip()
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, here])
    script = "import sys\nfrom test_golden import pool_checkpoint_sha256\nprint(pool_checkpoint_sha256(sys.argv[1]))\n"
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == want


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        text = search_log_text(os.path.join(d, "search"))
        digest = checkpoint_sha256(os.path.join(d, "train"))
        pool_digest = pool_checkpoint_sha256(os.path.join(d, "pool"))
    with open(LOG_FIXTURE, "w", encoding="utf-8") as f:
        f.write(text)
    with open(CKPT_FIXTURE, "w", encoding="utf-8") as f:
        f.write(digest + "\n")
    with open(POOL_CKPT_FIXTURE, "w", encoding="utf-8") as f:
        f.write(pool_digest + "\n")
