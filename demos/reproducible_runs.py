"""
Reproducible search runs on disk
================================

The runner owns a run directory: a JSONL log of every evaluation, the
best code, and a summary. Interrupted runs resume by replaying the log,
and a finished run is a no-op to rerun. This script drives it the same
way the command line does, on files in a temp directory that is removed
at the end.
"""

import json
import os
import tempfile

from binwidth import load_run_config, synth
from binwidth import runner, report

with tempfile.TemporaryDirectory(prefix="binwidth_demo_") as workdir:
    data_dir = os.path.join(workdir, "data")
    run_dir = os.path.join(workdir, "run")

    # Synthetic glyphs written in the real on-disk format, so the loader
    # exercises the actual parsers.
    paths = synth.write_gray_files(data_dir, train_per_class=30, test_per_class=5, seed=0)
    print("dataset files:", sorted(os.path.basename(p) for p in paths.values()))

    config_path = os.path.join(workdir, "run.json")
    with open(config_path, "w") as f:
        json.dump({
            "template": "vgg_small_mini",
            "dataset": {
                "kind": "idx",
                "train_images": paths["train_images"],
                "train_labels": paths["train_labels"],
                "test_images": paths["test_images"],
                "test_labels": paths["test_labels"],
                "proxy_train_per_class": 20,
                "proxy_val_per_class": 5,
            },
            "search": {
                "population_size": 4,
                "generations": 2,
                "proxy_epochs": 1,
                "elitism_count": 1,
                "master_seed": 11,
            },
            "output_dir": run_dir,
        }, f, indent=2)

    cfg = load_run_config(config_path)
    summary = runner.run_search(cfg, echo=print)
    print()
    print("best code:", summary["best_code"], " fitness:", round(summary["best_fitness"], 2))
    print("artifacts:", sorted(os.listdir(run_dir)))

    # Rerunning a finished run changes nothing; the log is the ground truth.
    log_path = os.path.join(run_dir, "search_log.jsonl")
    with open(log_path, "rb") as f:
        before = f.read()
    runner.run_search(cfg)
    with open(log_path, "rb") as f:
        after = f.read()
    print("rerun left the log untouched:", before == after)

    # Reports are plain CSV derived from the log and the winning code.
    out = report.write_run_report(run_dir)
    for name, path in sorted(out.items()):
        print()
        print(f"--- {os.path.basename(path)} ---")
        with open(path) as f:
            for line in f.read().splitlines()[:6]:
                print(line)
