"""Search-run orchestration: artifacts, resumability, report tables."""

import csv
import json
import os

import pytest

from binwidth import config as cm
from binwidth import report as rp
from binwidth import runner, search, space, synth, templates, train
from binwidth.checkpoint import read_checkpoint
from binwidth.errors import FormatError


def run_config(tmp_path, **overrides):
    paths = synth.write_gray_files(str(tmp_path / "data"), train_per_class=8, test_per_class=2, seed=0)
    payload = {
        "template": "vgg_small_mini",
        "dataset": {
            "kind": "idx",
            "train_images": paths["train_images"],
            "train_labels": paths["train_labels"],
            "test_images": paths["test_images"],
            "test_labels": paths["test_labels"],
            "proxy_train_per_class": 5,
            "proxy_val_per_class": 2,
        },
        "search": {
            "population_size": 4,
            "generations": 2,
            "proxy_epochs": 1,
            "elitism_count": 1,
            "master_seed": 11,
        },
        "proxy_train": {"batch_size": 25},
        "full_train": {"epochs": 1, "batch_size": 25, "augment": False},
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            payload[key].update(value)
        else:
            payload[key] = value
    return cm.parse_run_config(payload)


def log_lines(cfg):
    with open(os.path.join(cfg.output_dir, runner.LOG_NAME)) as f:
        return [l for l in f.read().splitlines() if l]


def strip_wall(lines):
    out = []
    for line in lines:
        payload = json.loads(line)
        payload["wall_time"] = 0.0
        out.append(json.dumps(payload, sort_keys=True))
    return out


class TestRunSearch:
    def test_produces_all_artifacts(self, tmp_path):
        cfg = run_config(tmp_path)
        summary = runner.run_search(cfg)
        for name in (runner.LOG_NAME, runner.BEST_CODE_NAME, runner.SUMMARY_NAME):
            assert os.path.exists(os.path.join(cfg.output_dir, name)), name
        assert summary["evaluations"] == 4 + 3  # K + (G-1)*(K-E)
        assert summary["best_fitness"] >= 0
        name, code = space.read_code_file(os.path.join(cfg.output_dir, runner.BEST_CODE_NAME))
        assert name == "vgg_small_mini"
        assert tuple(code) == tuple(summary["best_code"])

    def test_summary_file_matches_return(self, tmp_path):
        cfg = run_config(tmp_path)
        summary = runner.run_search(cfg)
        on_disk = json.loads(open(os.path.join(cfg.output_dir, runner.SUMMARY_NAME)).read())
        assert on_disk == json.loads(json.dumps(summary))

    def test_finished_run_is_a_reproducing_no_op(self, tmp_path):
        cfg = run_config(tmp_path)
        first = runner.run_search(cfg)
        before = log_lines(cfg)
        second = runner.run_search(cfg)
        assert second == first
        assert log_lines(cfg) == before  # nothing re-evaluated or re-appended

    def test_interrupted_run_resumes_equivalently(self, tmp_path):
        cfg = run_config(tmp_path)
        summary = runner.run_search(cfg)
        full = log_lines(cfg)

        cfg2 = run_config(tmp_path, output_dir=str(tmp_path / "run2"))
        os.makedirs(cfg2.output_dir)
        cut = os.path.join(cfg2.output_dir, runner.LOG_NAME)
        with open(cut, "w") as f:
            f.write("\n".join(full[:5]) + "\n")
        resumed = runner.run_search(cfg2)
        assert strip_wall(log_lines(cfg2)) == strip_wall(full)
        assert resumed == summary

    def test_torn_final_line_is_evaluated_again(self, tmp_path):
        # A kill mid-write leaves the last line without its newline.
        cfg = run_config(tmp_path)
        summary = runner.run_search(cfg)
        full = log_lines(cfg)

        cfg2 = run_config(tmp_path, output_dir=str(tmp_path / "run2"))
        os.makedirs(cfg2.output_dir)
        with open(os.path.join(cfg2.output_dir, runner.LOG_NAME), "w") as f:
            f.write("\n".join(full[:5]) + "\n" + full[5][: len(full[5]) // 2])
        echoes = []
        resumed = runner.run_search(cfg2, echo=echoes.append)
        assert strip_wall(log_lines(cfg2)) == strip_wall(full)
        assert resumed == summary
        assert any("unterminated" in e for e in echoes)

    def test_one_worker_per_cpu_in_the_affinity_mask(self, tmp_path, monkeypatch):
        # Whether the platform can fork is for `evolve` to decide (tests/test_search.py).
        seen = []
        real = runner.evolve

        def spy(*args, **kwargs):
            seen.append(kwargs["workers"])
            return real(*args, **{**kwargs, "workers": 1})

        monkeypatch.setattr(runner, "evolve", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        runner.run_search(run_config(tmp_path))
        assert seen == [3]

    def test_two_seeds_behave_identically(self, tmp_path):
        cfg_a = run_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = run_config(tmp_path, output_dir=str(tmp_path / "b"))
        sum_a = runner.run_search(cfg_a)
        sum_b = runner.run_search(cfg_b)
        assert sum_a == sum_b
        assert strip_wall(log_lines(cfg_a)) == strip_wall(log_lines(cfg_b))

    # A string replaces the line; a dict retypes keys of the real line.
    @pytest.mark.parametrize("corrupt", [
        '{"not": "a record"}', "5", "null",
        {"acc": "high"}, {"generation": "0"}, {"index": 2.0}, {"eval_seed": True}, {"flops": False},
        {"fitness": None}, {"diverged": 0}, {"random_parents": "false"}, {"code": 1},
        {"acc": float("nan"), "fitness": float("nan")},
    ], ids=["wrong_keys", "number", "null", "acc_string", "generation_string", "index_float", "eval_seed_bool",
            "flops_bool", "fitness_null", "diverged_number", "random_parents_string", "code_number", "acc_nan"])
    def test_corrupt_log_line_names_file_and_line(self, tmp_path, corrupt):
        cfg = run_config(tmp_path)
        runner.run_search(cfg)
        log_path = os.path.join(cfg.output_dir, runner.LOG_NAME)
        lines = log_lines(cfg)
        lines[2] = corrupt if isinstance(corrupt, str) else json.dumps({**json.loads(lines[2]), **corrupt})
        with open(log_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as e:
            runner.run_search(cfg)
        assert f"{runner.LOG_NAME}:3" in str(e.value)
        if isinstance(corrupt, dict):
            assert f"'{next(iter(corrupt))}'" in str(e.value)

    def test_foreign_log_rejected(self, tmp_path):
        # A log from a different master seed fails replay validation.
        cfg = run_config(tmp_path)
        runner.run_search(cfg)
        moved = run_config(tmp_path, output_dir=str(tmp_path / "moved"), search={"master_seed": 99})
        os.makedirs(moved.output_dir)
        with open(os.path.join(moved.output_dir, runner.LOG_NAME), "w") as f:
            f.write("\n".join(log_lines(cfg)) + "\n")
        with pytest.raises(FormatError):
            runner.run_search(moved)

    def test_supernet_trained_once_then_loaded(self, tmp_path):
        cfg = run_config(tmp_path, supernet_init=True)
        echoes = []
        runner.run_search(cfg, echo=echoes.append)
        sup_path = os.path.join(cfg.output_dir, runner.SUPERNET_NAME)
        assert os.path.exists(sup_path)
        sup = read_checkpoint(sup_path)
        assert sup.code == space.uniform_code(4, 4)
        assert any("pre-training" in e for e in echoes)

        echoes.clear()
        runner.run_search(cfg, echo=echoes.append)
        assert any("loaded supernet" in e for e in echoes)
        assert not any("pre-training" in e for e in echoes)


class TestRunTrain:
    def test_returns_metrics_and_checkpoint(self, tmp_path):
        cfg = run_config(tmp_path)
        train_set = cfg.dataset.load_train()
        test_set = cfg.dataset.load_test()
        out = str(tmp_path / "model.ckpt")
        sched = train.LrSchedule(base_lr=0.05)
        result = runner.run_train(
            "vgg_small_mini", space.uniform_code(1, 4), train_set,
            train.TrainConfig(epochs=1, batch_size=20, schedule=sched, seed=2),
            test_set=test_set, out_path=out,
        )
        assert 0 <= result["train_acc"] <= 100
        assert 0 <= result["test_acc"] <= 100
        assert len(result["loss_history"]) == 1
        ckpt = read_checkpoint(out)
        assert ckpt.template == "vgg_small_mini"
        result["network"].load_state_dict(ckpt.arrays)  # same shapes, same net

    def test_no_test_set_reports_none(self, tmp_path):
        cfg = run_config(tmp_path)
        result = runner.run_train(
            "vgg_small_mini", space.uniform_code(1, 4), cfg.dataset.load_train(),
            train.TrainConfig(epochs=0),
        )
        assert result["test_acc"] is None


class TestReports:
    def finished_run(self, tmp_path):
        cfg = run_config(tmp_path)
        runner.run_search(cfg)
        return cfg

    def parse(self, path):
        with open(path) as f:
            return list(csv.reader(f))

    def test_files_written(self, tmp_path):
        cfg = self.finished_run(tmp_path)
        paths = rp.write_run_report(cfg.output_dir)
        for p in paths.values():
            assert os.path.exists(p)

    def test_fitness_table_shape_and_monotonicity(self, tmp_path):
        cfg = self.finished_run(tmp_path)
        paths = rp.write_run_report(cfg.output_dir)
        rows = self.parse(paths["fitness"])
        assert rows[0] == ["generation", "evaluations", "best_fitness", "mean_fitness", "best_acc"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert [r[1] for r in rows[1:]] == ["4", "3"]
        best = [float(r[2]) for r in rows[1:]]
        assert best == sorted(best)

    def test_channels_table_matches_resolver(self, tmp_path):
        cfg = self.finished_run(tmp_path)
        paths = rp.write_run_report(cfg.output_dir)
        rows = self.parse(paths["channels"])
        t = templates.vgg_small_mini()
        _, code = space.read_code_file(os.path.join(cfg.output_dir, runner.BEST_CODE_NAME))
        resolved = space.resolve_channels(t, code)
        for row in rows[1:]:
            layer, kind, searched = row[0], row[1], int(row[2])
            assert kind in ("conv", "fc")
            assert searched == resolved[layer][1]
        uniform4 = space.resolve_channels(t, space.uniform_code(4, t.n_genes))
        for row in rows[1:]:
            assert int(row[6]) == uniform4[row[0]][1]

    def test_flops_table_rows(self, tmp_path):
        cfg = self.finished_run(tmp_path)
        paths = rp.write_run_report(cfg.output_dir, out_dir=str(tmp_path / "rep"))
        rows = self.parse(paths["flops"])
        labels = [r[0] for r in rows[1:]]
        assert labels == ["full_precision_1x", "uniform_1x", "uniform_2x", "uniform_3x", "uniform_4x", "searched"]
        fp = float(rows[1][3])
        u1 = float(rows[2][3])
        assert fp > u1
        assert float(rows[2][4]) == pytest.approx(1.0)  # uniform-1x norm

    def test_report_from_empty_log_has_header_only(self, tmp_path):
        assert rp.fitness_csv([]).splitlines() == [
            "generation,evaluations,best_fitness,mean_fitness,best_acc"
        ]
