"""The benchmark's three jobs: input set-up, one timed execution, checks.

Each job class has the same four steps:

    setup(directory, tick)  write every input from the seed, return them
    run(inputs, directory, tick)
                            one execution of the job; returns a sample.
                            `tick()` runs after each small unit of work
                            (a candidate, a cost chunk, a checkpoint round
                            trip) and its time is kept out of the sample.
    check(inputs, sample, checks)
                            verify the outputs (never timed or traced)
    metrics(samples, inputs, scale)
                            end-to-end metrics from one or more samples

Only `run` is timed and, in a traced run, traced. The library is always
reached through module attributes (`runner.run_search`, not an imported
name), so a tracer that re-binds those attributes sees every call.

Timings average several repeats of the same work, spread over the
measured window, and are scaled to a reference machine speed:
`scale[kind]` comes from `speed.Meter`: "np" for ops-bound work, "py"
for interpreter-bound work and "mix" for the search, which is both.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np

from binwidth import checkpoint, config, cost, data, net, runner, search, space, synth, templates, train
from binwidth.seeding import derive_seed, rng_from

from tracer import median, tail_percentile

CHECKPOINT_ROUND_TRIPS = 20
COST_CHUNK = 50
COST_PASSES = 2
EVAL_PASSES = 2


class Checks:
    """Counts output checks; a failed one keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def _no_tick() -> None:
    pass


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _same_arrays(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


# --- search_mini ---------------------------------------------------------------


class SearchJob:
    """`runner.run_search` on vgg_small_mini over synthetic IDX files.

    The search config is part of the workload and fixed; the seed sets the
    data. Proxy training runs without augmentation, as configured by
    default for searches. Generation 0 (the two anchors and 22 random codes)
    depends only on the fixed master seed; with elitism 20 of 24 only four
    children are bred from it, so the codes evaluated, and the work, depend
    little on the seed's data while breeding still runs.
    """

    name = "search_mini"
    template = "vgg_small_mini"
    train_per_class = 10
    proxy_train_per_class = 5
    proxy_val_per_class = 5
    search = {"population_size": 24, "generations": 2, "elitism_count": 20, "proxy_epochs": 1,
              "lambda": 4.0, "master_seed": 0}
    proxy_train = {"batch_size": 50, "schedule": {"base_lr": 0.1, "decay_epochs": []}}

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def expected_records(self) -> int:
        k, g, e = (self.search[key] for key in ("population_size", "generations", "elitism_count"))
        return k + (g - 1) * (k - e)

    def setup(self, directory: str, tick=_no_tick) -> dict:
        files = synth.write_gray_files(os.path.join(directory, "data"), self.train_per_class, 1,
                                       seed=derive_seed(self.seed, "search_mini"))
        payload = {
            "template": self.template,
            "dataset": {"kind": "idx", **files, "proxy_train_per_class": self.proxy_train_per_class,
                        "proxy_val_per_class": self.proxy_val_per_class, "subset_seed": self.seed},
            "search": self.search,
            "proxy_train": self.proxy_train,
            "output_dir": os.path.join(directory, "run"),
        }
        config_path = os.path.join(directory, "run.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        cfg = config.load_run_config(config_path)
        cfg.dataset.proxy_splits()  # parse and split once, so bad inputs fail here
        return {"config": cfg}

    def run(self, inputs: dict, directory: str, tick=_no_tick) -> dict:
        cfg = dataclasses.replace(inputs["config"], output_dir=directory)
        evals: list[float] = []
        mark = tick_s = 0.0

        def echo(line: str) -> None:
            # "proxy data: ..." opens the loop; each "gen ..." line closes one evaluation.
            nonlocal mark, tick_s
            if line.startswith("gen "):
                evals.append(time.perf_counter() - mark)
            if line.startswith("proxy data:") or line.startswith("gen "):
                began = time.perf_counter()
                tick()
                mark = time.perf_counter()
                tick_s += mark - began

        started = time.perf_counter()
        summary = runner.run_search(cfg, echo=echo)
        elapsed = time.perf_counter() - started - tick_s
        return {"search_s": elapsed, "eval_s": evals, "summary": summary, "best_fitness": summary["best_fitness"],
                "directory": directory, "config": cfg}

    def check(self, inputs: dict, sample: dict, checks: Checks) -> None:
        cfg = sample["config"]
        log_path = os.path.join(sample["directory"], runner.LOG_NAME)
        records = runner.read_search_log(log_path)
        checks.expect(len(records) == self.expected_records,
                      f"search_mini: {len(records)} records, expected {self.expected_records}")
        checks.expect(len(sample["eval_s"]) == len(records), "search_mini: one echo per logged record")
        tmpl = templates.get_template(cfg.template)
        lam = cfg.search.lambda_
        checks.expect(all(r.fitness == max(r.acc - lam * r.flops_norm, 0.0) for r in records),
                      "search_mini: fitness != max(acc - lambda * flops_norm, 0)")
        checks.expect(all(r.flops_norm == cost.count_cost(tmpl, r.code).flops_norm for r in records),
                      "search_mini: flops_norm != count_cost")
        summary = sample["summary"]
        checks.expect(summary["best_fitness"] == max(r.fitness for r in records),
                      "search_mini: summary best_fitness is not the best logged fitness")
        log_before = _read(log_path)
        new_records = []
        rerun = runner.run_search(cfg, echo=lambda line: new_records.append(line) if line.startswith("gen ") else None)
        checks.expect(rerun == summary and not new_records and _read(log_path) == log_before,
                      "search_mini: rerunning the finished directory is not a no-op")

    def metrics(self, samples: list[dict], inputs: dict, scale: dict) -> dict:
        # Repeats of one seed evaluate the same candidates: average each
        # candidate over its repeats, then take the distribution over candidates.
        per_candidate = [scale["mix"] * _mean(times) for times in zip(*(s["eval_s"] for s in samples))]
        pct, tail, count = tail_percentile(per_candidate)
        self.tail_note = f"proxy_eval_ms_tail is p{pct:.1f} of {count} candidates x {len(samples)} repeats"
        return {
            "search_s": _metric(scale["mix"] * _mean(s["search_s"] for s in samples), "s"),
            "proxy_eval_ms_p50": _metric(1e3 * median(per_candidate), "ms/candidate"),
            "proxy_eval_ms_tail": _metric(1e3 * tail, "ms/candidate"),
        }

    def same_result(self, a: dict, b: dict) -> bool:
        return a["summary"] == b["summary"]


# --- train_resnet --------------------------------------------------------------


class TrainJob:
    """`runner.run_train` on resnet_mini over synthetic 3073-byte records,
    with augmentation and a fixed code mixing 1x and 4x genes. run_train
    ends with an eval-mode accuracy pass over the training images and a
    checkpoint write; the job then scores the test set EVAL_PASSES times.
    No test set goes to run_train, so the eval time taken out of its run
    time to leave the training time is small."""

    name = "train_resnet"
    template = "resnet_mini"
    code = (1.0, 4.0, 1.0, 4.0, 1.0, 4.0)
    train_per_class = 7
    test_per_class = 10
    epochs = 1
    batch_size = 35

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: str, tick=_no_tick) -> dict:
        files = synth.write_rgb_files(directory, self.train_per_class, self.test_per_class,
                                      seed=derive_seed(self.seed, "train_resnet"))
        return {
            "train": data.parse_cifar10_bin(_read(files["train"]), split="train"),
            "test": data.parse_cifar10_bin(_read(files["test"]), split="test"),
            "config": train.TrainConfig(epochs=self.epochs, batch_size=self.batch_size, augment=True,
                                        seed=derive_seed(self.seed, "train")),
        }

    def run(self, inputs: dict, directory: str, tick=_no_tick) -> dict:
        train_set, test_set = inputs["train"], inputs["test"]
        out_path = os.path.join(directory, "model.ckpt")
        started = time.perf_counter()
        result = runner.run_train(self.template, self.code, train_set, inputs["config"], out_path=out_path)
        run_s = time.perf_counter() - started
        eval_s, eval_accs = [], []
        for _ in range(EVAL_PASSES):
            started = time.perf_counter()
            eval_accs.append(train.accuracy(result["network"], test_set))
            eval_s.append(time.perf_counter() - started)
            tick()
        return {
            "run_s": run_s,
            "eval_s": _mean(eval_s),
            "eval_acc": eval_accs[0],
            "eval_accs": eval_accs,
            "result": result,
            "checkpoint": out_path,
        }

    def check(self, inputs: dict, sample: dict, checks: Checks) -> None:
        result = sample["result"]
        network = result["network"]
        history = result["loss_history"]
        checks.expect(len(history) == self.epochs and all(math.isfinite(x) for x in history),
                      "train_resnet: loss is not finite")
        saved = checkpoint.read_checkpoint(sample["checkpoint"])
        checks.expect(_same_arrays(saved.arrays, network.state_dict()),
                      "train_resnet: checkpoint differs from state_dict()")
        checks.expect(len(set(sample["eval_accs"])) == 1, "train_resnet: repeated accuracy passes disagree")
        reloaded = net.instantiate(templates.get_template(self.template), self.code, seed=0)
        reloaded.load_state_dict(saved.arrays)
        checks.expect(train.accuracy(reloaded, inputs["test"]) == sample["eval_acc"],
                      "train_resnet: accuracy changed after reloading the checkpoint")

    def metrics(self, samples: list[dict], inputs: dict, scale: dict) -> dict:
        n_train, n_test = len(inputs["train"]), len(inputs["test"])
        eval_s_per_img = scale["np"] * _mean(s["eval_s"] for s in samples) / n_test
        # run_train also scores the training images; take that eval time
        # out at the measured eval rate to leave the training time.
        run_s = scale["np"] * _mean(s["run_s"] for s in samples)
        train_s = run_s - n_train * eval_s_per_img
        return {
            "train_img_per_s": _metric(self.epochs * n_train / train_s, "img/s"),
            "eval_img_per_s": _metric(1.0 / eval_s_per_img, "img/s"),
            "final_loss": _metric(samples[-1]["result"]["loss_history"][-1], "loss"),
        }

    def same_result(self, a: dict, b: dict) -> bool:
        return (a["result"]["loss_history"] == b["result"]["loss_history"]
                and _same_arrays(a["result"]["network"].state_dict(), b["result"]["network"].state_dict()))


# --- replay_resnet18 -----------------------------------------------------------


def closed_form_score(tmpl, lambda_: float):
    """Evaluator with no training: accuracy rises with width, plus seeded noise."""
    reports: dict = {}

    def evaluate(code, gen: int, idx: int, eval_seed: int) -> search.Individual:
        report = reports.get(code)
        if report is None:
            report = reports[code] = cost.count_cost(tmpl, code)
        widening = float(np.mean(np.log2(code)))
        acc = float(np.clip(60.0 + 6.0 * widening + rng_from(eval_seed, "acc").normal(0.0, 3.0), 0.0, 100.0))
        return search.Individual(code=report.code, acc=acc, cost=report,
                                 fitness=search.fitness(acc, report.flops_norm, lambda_), eval_seed=eval_seed)

    return evaluate


def _no_evaluation(code, gen, idx, eval_seed):
    raise RuntimeError(f"replay evaluated generation {gen} index {idx} instead of replaying it")


class ReplayJob:
    """The control path: no training, no ops.

    Set-up writes a paper-scale search log on resnet18 (K=32, 50
    generations) from a closed-form scorer, and a 4x resnet_mini supernet
    checkpoint. A run reads and replays the log, sweeps the cost model
    over random codes, and round-trips the checkpoint into a child.
    """

    name = "replay_resnet18"
    template = "resnet18"
    search_config = dict(population_size=32, generations=50, lambda_=4.0)
    cost_codes_per_template = 300
    supernet_template = "resnet_mini"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: str, tick=_no_tick) -> dict:
        os.makedirs(directory, exist_ok=True)
        tmpl = templates.get_template(self.template)
        cfg = search.SearchConfig(master_seed=self.seed, **self.search_config)
        lines: list[str] = []

        def sink(record) -> None:
            lines.append(record.to_json())
            if len(lines) % 50 == 0:
                tick()

        best, _ = search.evolve(tmpl, cfg, closed_form_score(tmpl, cfg.lambda_), log_sink=sink)
        log_path = os.path.join(directory, runner.LOG_NAME)
        with open(log_path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))

        super_tmpl = templates.get_template(self.supernet_template)
        super_code = space.uniform_code(4, super_tmpl.n_genes)
        super_seed = derive_seed(self.seed, "supernet")
        supernet = net.instantiate(super_tmpl, super_code, seed=super_seed)
        supernet_path = os.path.join(directory, "supernet.ckpt")
        checkpoint.write_checkpoint(
            supernet_path, checkpoint.Checkpoint(supernet.state_dict(), super_tmpl.name, super_code, super_seed))

        rng = rng_from(self.seed, "replay_resnet18", "codes")
        pair = [templates.get_template(name) for name in ("vgg_small", "resnet18")]
        sweep = [(t, space.random_code(t.n_genes, rng)) for _ in range(self.cost_codes_per_template) for t in pair]
        return {
            "config": cfg,
            "log": log_path,
            "lines": lines,
            "best_code": best.code,
            "supernet": supernet_path,
            "supernet_bytes": _read(supernet_path),
            "child_code": space.random_code(super_tmpl.n_genes, rng),
            "sweep": sweep,
        }

    def run(self, inputs: dict, directory: str, tick=_no_tick) -> dict:
        tmpl = templates.get_template(self.template)
        started = time.perf_counter()
        records = runner.read_search_log(inputs["log"])
        best, replayed = search.evolve(tmpl, inputs["config"], _no_evaluation, prior_records=records)
        replay_s = time.perf_counter() - started

        sweep = inputs["sweep"]
        cost_s = []
        for _ in range(COST_PASSES):
            reports = []
            for start in range(0, len(sweep), COST_CHUNK):
                started = time.perf_counter()
                reports.extend(cost.count_cost(t, code) for t, code in sweep[start : start + COST_CHUNK])
                cost_s.append(time.perf_counter() - started)
                tick()

        super_tmpl = templates.get_template(self.supernet_template)
        copy_path = os.path.join(directory, "supernet-copy.ckpt")
        checkpoint_s = []
        for _ in range(CHECKPOINT_ROUND_TRIPS):
            started = time.perf_counter()
            loaded = checkpoint.read_checkpoint(inputs["supernet"])
            checkpoint.write_checkpoint(copy_path, loaded)
            reread = checkpoint.read_checkpoint(copy_path)
            child = checkpoint.inherit_weights(reread, super_tmpl, inputs["child_code"])
            checkpoint_s.append(time.perf_counter() - started)
            tick()
        return {
            "replay_s": replay_s,
            "cost_s": cost_s,
            "checkpoint_s": checkpoint_s,
            "best_code": best.code,
            "best_fitness": best.fitness,
            "records": replayed,
            "reports": reports,
            "copy": copy_path,
            "reread": reread,
            "child": child,
        }

    def check(self, inputs: dict, sample: dict, checks: Checks) -> None:
        checks.expect([r.to_json() for r in sample["records"]] == inputs["lines"],
                      "replay_resnet18: replayed records differ from the generated log")
        checks.expect(sample["best_code"] == inputs["best_code"],
                      "replay_resnet18: replay found a different best code")
        checks.expect(all(math.isfinite(r.flops_norm) and r.flops_norm > 0 for r in sample["reports"]),
                      "replay_resnet18: cost report with a non-positive flops_norm")
        checks.expect(_read(sample["copy"]) == inputs["supernet_bytes"],
                      "replay_resnet18: checkpoint round trip is not byte-identical")
        super_tmpl = templates.get_template(self.supernet_template)
        identity = checkpoint.inherit_weights(sample["reread"], super_tmpl, space.uniform_code(4, super_tmpl.n_genes))
        checks.expect(_same_arrays(identity.arrays, sample["reread"].arrays),
                      "replay_resnet18: inheriting the all-4x code is not the identity")

    def metrics(self, samples: list[dict], inputs: dict, scale: dict) -> dict:
        records = len(samples[0]["records"])
        replay_s = scale["py"] * _mean(s["replay_s"] for s in samples)
        sweep_s = scale["py"] * sum(t for s in samples for t in s["cost_s"]) / (len(samples) * COST_PASSES)
        round_trip_s = scale["np"] * _mean(t for s in samples for t in s["checkpoint_s"])
        megabytes = 3 * len(inputs["supernet_bytes"]) / 1e6  # read, write, read again
        return {
            "replay_records_per_s": _metric(records / replay_s, "records/s"),
            "cost_reports_per_s": _metric(len(inputs["sweep"]) / sweep_s, "reports/s"),
            "checkpoint_mb_per_s": _metric(megabytes / round_trip_s, "MB/s"),
        }

    def same_result(self, a: dict, b: dict) -> bool:
        return a["best_code"] == b["best_code"] and len(a["records"]) == len(b["records"])


JOBS = {job.name: job for job in (SearchJob, TrainJob, ReplayJob)}


def search_ratios(records) -> dict[str, float]:
    """Wasted-work ratios of a search log: diverged candidates, and
    children whose code had already been evaluated."""
    seen: set = set()
    repeats = children = 0
    for rec in records:
        if rec.generation > 0:
            children += 1
            repeats += rec.code in seen
        seen.add(rec.code)
    return {
        "search.diverged_frac": sum(r.diverged for r in records) / len(records) if records else 0.0,
        "search.repeat_code_frac": repeats / children if children else 0.0,
    }
