"""Fitness, evolutionary operators, the generational loop, log replay."""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binwidth import net, ops, search, seeding, space, synth, templates, train
from binwidth.cost import count_cost
from binwidth.data import Dataset
from binwidth.errors import FormatError, InputError

ratio = st.sampled_from(space.RATIOS)


class StubRng:
    """Plays back scripted draws; raises IndexError when over-consumed."""

    def __init__(self, randoms=(), ints=(), choices=()):
        self.randoms = list(randoms)
        self.ints = list(ints)
        self.choices = list(choices)

    def random(self, size=None):
        if size is None:
            return self.randoms.pop(0)
        return np.array([self.randoms.pop(0) for _ in range(size)])

    def integers(self, low, high):
        v = self.ints.pop(0)
        assert low <= v < high
        return v

    def choice(self, n, size, replace):
        assert not replace
        return np.array(self.choices.pop(0))

    def exhausted(self):
        return not (self.randoms or self.ints or self.choices)


def population(*fitnesses):
    return [
        search.SearchLogRecord(generation=0, index=i, code=(1.0,), acc=f, flops=0.0, flops_norm=0.0,
                               fitness=f, eval_seed=i, wall_time=0.0, diverged=False, random_parents=False)
        for i, f in enumerate(fitnesses)
    ]


def score_distance_to(target):
    """Closed-form evaluator on resnet_mini codes: 100 minus the L1
    distance to the target code, with the code priced by the cost model."""
    t = templates.resnet_mini()

    def run(code, gen, idx, eval_seed):
        score = 100.0 - float(sum(abs(r - target) for r in code))
        return search.Individual(
            code=tuple(code), acc=score, cost=count_cost(t, code), fitness=score, eval_seed=eval_seed
        )

    return run


class TestFitness:
    def test_published_operating_point(self):
        assert search.fitness(68.64, 495 / 149, 4.0) == pytest.approx(55.35, abs=0.01)

    def test_clamped_at_zero(self):
        assert search.fitness(1.0, 10.0, 4.0) == 0.0

    def test_lambda_zero_is_accuracy(self):
        assert search.fitness(73.2, 3.0, 0.0) == 73.2

    def test_validation(self):
        with pytest.raises(InputError):
            search.fitness(-0.1, 1.0, 4.0)
        with pytest.raises(InputError):
            search.fitness(101.0, 1.0, 4.0)
        with pytest.raises(InputError):
            search.fitness(50.0, 0.0, 4.0)


class TestSelectParent:
    def test_higher_fitness_wins(self):
        pop = population(1.0, 5.0)
        rng = StubRng(choices=[[0, 1]])
        assert search.select_parent(pop, rng) is pop[1]

    def test_tie_goes_to_lowest_index(self):
        pop = population(3.0, 3.0, 1.0)
        rng = StubRng(choices=[[1, 0]])  # drawn out of order on purpose
        assert search.select_parent(pop, rng) is pop[0]

    def test_empty_population_rejected(self):
        with pytest.raises(InputError):
            search.select_parent([], np.random.default_rng(0))

    def test_tournament_capped_at_population(self):
        pop = population(2.0, 9.0)
        rng = StubRng(choices=[[0, 1]])
        assert search.select_parent(pop, rng, tournament_size=10) is pop[1]


class TestCrossover:
    def test_uniform_mix_follows_mask(self):
        a, b = (1.0, 2.0, 4.0), (0.5, 3.0, 1.0)
        rng = StubRng(randoms=[0.0, 0.4, 0.6, 0.2])  # cross; a, b, a
        assert search.crossover(a, b, rng, crossover_rate=0.9) == (1.0, 3.0, 4.0)
        assert rng.exhausted()

    def test_skipped_cross_copies_parent_a_but_consumes_mask(self):
        a, b = (1.0, 2.0), (4.0, 0.5)
        rng = StubRng(randoms=[0.95, 0.1, 0.9])
        assert search.crossover(a, b, rng, crossover_rate=0.9) == a
        assert rng.exhausted()  # the mask draw happened anyway

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            search.crossover((1.0,), (1.0, 2.0), np.random.default_rng(0))

    @given(st.lists(ratio, min_size=1, max_size=10), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_child_genes_come_from_parents(self, code_a, seed):
        rng = np.random.default_rng(seed)
        code_b = tuple(rng.choice(space.RATIOS, size=len(code_a)))
        child = search.crossover(tuple(code_a), code_b, rng)
        assert all(c == a or c == b for c, a, b in zip(child, code_a, code_b))


class TestMutate:
    def test_rate_zero_is_identity(self):
        code = (1.0, 4.0, 0.25)
        rng = StubRng(randoms=[0.5, 0.5, 0.5])
        assert search.mutate(code, rng, 0.0) == code
        assert rng.exhausted()  # no resampling draws

    def test_triggered_gene_resamples_from_others(self):
        # Gene 1.0 with others (0.25, 0.5, 2, 3, 4): pick index 2 -> 2.0.
        rng = StubRng(randoms=[0.0], ints=[2])
        assert search.mutate((1.0,), rng, 0.5) == (2.0,)

    @given(st.lists(ratio, min_size=1, max_size=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_forced_change_at_rate_one(self, code, seed):
        out = search.mutate(tuple(code), np.random.default_rng(seed), 1.0)
        assert all(o != c for o, c in zip(out, code))
        assert all(o in space.RATIOS for o in out)

    @given(st.lists(ratio, min_size=1, max_size=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_outputs_stay_in_candidate_set(self, code, seed):
        out = search.mutate(tuple(code), np.random.default_rng(seed), 0.3)
        assert all(o in space.RATIOS for o in out)


class TestSearchConfig:
    def test_defaults_match_reference_recipe(self):
        cfg = search.SearchConfig()
        assert cfg.population_size == 32
        assert cfg.generations == 50
        assert cfg.lambda_ == 4.0
        assert cfg.proxy_epochs == 10
        assert cfg.elitism_count == 2

    def test_validation(self):
        with pytest.raises(InputError):
            search.SearchConfig(population_size=1)
        with pytest.raises(InputError):
            search.SearchConfig(generations=0)
        with pytest.raises(InputError):
            search.SearchConfig(lambda_=-1)
        with pytest.raises(InputError):
            search.SearchConfig(crossover_rate=1.5)
        with pytest.raises(InputError):
            search.SearchConfig(mutation_rate=-0.1)
        with pytest.raises(InputError):
            search.SearchConfig(population_size=4, elitism_count=4)
        with pytest.raises(InputError):
            search.SearchConfig(population_size=4, tournament_size=5)


class TestLogRecords:
    def record(self, **kw):
        base = dict(
            generation=1, index=3, code=(1.0, 0.5), acc=42.5, flops=1e6,
            flops_norm=1.25, fitness=37.5, eval_seed=123, wall_time=1000.5, diverged=False, random_parents=False,
        )
        base.update(kw)
        return search.SearchLogRecord(**base)

    def test_round_trip(self):
        r = self.record(diverged=True, random_parents=True)
        assert search.SearchLogRecord.from_json(r.to_json()) == r

    def test_whole_ratios_serialize_as_integers(self):
        payload = json.loads(self.record().to_json())
        assert payload["code"] == [1, 0.5]
        assert isinstance(payload["code"][0], int)

    def test_json_is_key_sorted(self):
        keys = list(json.loads(self.record().to_json()))
        assert keys == sorted(keys)

    def test_bad_json_rejected(self):
        with pytest.raises(FormatError):
            search.SearchLogRecord.from_json("{oops")

    def test_missing_key_rejected(self):
        keys = list(json.loads(self.record().to_json()))
        assert {"diverged", "random_parents"} < set(keys)
        for key in keys:
            payload = json.loads(self.record().to_json())
            payload.pop(key)
            with pytest.raises(FormatError, match=f"^missing key '{key}'$"):
                search.SearchLogRecord.from_json(json.dumps(payload))

    def test_extra_key_rejected(self):
        payload = json.loads(self.record().to_json())
        payload["bonus"] = 1
        with pytest.raises(FormatError):
            search.SearchLogRecord.from_json(json.dumps(payload))

    def test_foreign_ratio_rejected(self):
        payload = json.loads(self.record().to_json())
        payload["code"] = [1.7, 0.5]
        with pytest.raises(FormatError, match="^'code': ratio 1.7 at gene 0 "):
            search.SearchLogRecord.from_json(json.dumps(payload))


def small_config(**kw):
    base = dict(population_size=6, generations=4, elitism_count=2, master_seed=7)
    base.update(kw)
    return search.SearchConfig(**base)


def strip_wall_time(records):
    return [dataclasses.replace(r, wall_time=0.0) for r in records]


class TestEvolve:
    def test_anchors_lead_generation_zero(self):
        t = templates.resnet_mini()
        _, records = search.evolve(t, small_config(), score_distance_to(2.0))
        assert records[0].code == space.uniform_code(1, t.n_genes)
        assert records[1].code == space.uniform_code(4, t.n_genes)

    def test_record_layout(self):
        t = templates.resnet_mini()
        cfg = small_config()
        _, records = search.evolve(t, cfg, score_distance_to(2.0))
        k, e, g = cfg.population_size, cfg.elitism_count, cfg.generations
        assert len(records) == k + (g - 1) * (k - e)
        gen0 = [r for r in records if r.generation == 0]
        assert [r.index for r in gen0] == list(range(k))
        for gen in range(1, g):
            idxs = [r.index for r in records if r.generation == gen]
            assert idxs == list(range(e, k))  # elites are never re-logged

    def test_best_ever_is_max_over_records(self):
        t = templates.resnet_mini()
        best, records = search.evolve(t, small_config(), score_distance_to(2.0))
        assert best.fitness == max(r.fitness for r in records)

    def test_deterministic_modulo_wall_time(self):
        t = templates.resnet_mini()
        best_a, rec_a = search.evolve(t, small_config(), score_distance_to(2.0))
        best_b, rec_b = search.evolve(t, small_config(), score_distance_to(2.0))
        assert strip_wall_time(rec_a) == strip_wall_time(rec_b)
        assert best_a.code == best_b.code

    def test_master_seed_changes_trajectory(self):
        t = templates.resnet_mini()
        _, rec_a = search.evolve(t, small_config(master_seed=1), score_distance_to(2.0))
        _, rec_b = search.evolve(t, small_config(master_seed=2), score_distance_to(2.0))
        assert [r.code for r in rec_a] != [r.code for r in rec_b]

    def test_log_sink_sees_every_new_record_in_order(self):
        t = templates.resnet_mini()
        seen = []
        _, records = search.evolve(
            t, small_config(), score_distance_to(2.0), log_sink=seen.append
        )
        assert seen == records

    def test_optimum_found_on_synthetic_landscape(self):
        t = templates.resnet_mini()
        cfg = search.SearchConfig(
            population_size=12, generations=20, elitism_count=2, master_seed=3
        )
        best, _ = search.evolve(t, cfg, score_distance_to(2.0))
        assert best.code == space.uniform_code(2, t.n_genes)
        assert best.fitness == 100.0

    def test_all_zero_fitness_falls_back_to_random_parents(self):
        t = templates.resnet_mini()

        def hopeless(code, gen, idx, eval_seed):
            return search.Individual(code=tuple(code), acc=0.0, cost=count_cost(t, code), fitness=0.0, eval_seed=eval_seed)

        _, records = search.evolve(t, small_config(generations=2), hopeless)
        later = [r for r in records if r.generation == 1]
        assert later and all(r.random_parents for r in later)

    def test_anchor_injection_can_be_disabled(self):
        t = templates.resnet_mini()
        cfg = small_config(generations=1, inject_anchors=False, master_seed=12)
        _, records = search.evolve(t, cfg, score_distance_to(2.0))
        codes = [r.code for r in records]
        assert (
            codes[0] != space.uniform_code(1, t.n_genes)
            or codes[1] != space.uniform_code(4, t.n_genes)
        )


class TestReplay:
    def run_once(self, generations=4):
        t = templates.resnet_mini()
        cfg = small_config(generations=generations)
        return (t, cfg) + search.evolve(t, cfg, score_distance_to(2.0))

    def test_full_replay_reproduces_without_calling_evaluator(self, monkeypatch):
        t, cfg, best, records = self.run_once()

        def priced(template, code, binary=True):
            raise AssertionError(f"replay priced code {code}")

        monkeypatch.setattr(search, "count_cost", priced)
        calls = []

        def spy(code, gen, idx, eval_seed):
            calls.append((gen, idx))
            return score_distance_to(2.0)(code, gen, idx, eval_seed)

        sink = []
        best2, records2 = search.evolve(t, cfg, spy, log_sink=sink.append, prior_records=records)
        assert calls == []
        assert sink == []
        assert best2.code == best.code
        assert strip_wall_time(records2) == strip_wall_time(records)

    def test_partial_replay_extends_the_run(self):
        t, cfg, best, records = self.run_once(generations=4)
        head = [r for r in records if r.generation < 2]
        fresh = []
        best2, records2 = search.evolve(
            t, cfg, score_distance_to(2.0), log_sink=fresh.append, prior_records=head
        )
        assert strip_wall_time(records2) == strip_wall_time(records)
        assert all(r.generation >= 2 for r in fresh)
        assert best2.code == best.code

    def test_mismatched_code_rejected(self):
        t, cfg, _, records = self.run_once()
        bad = list(records)
        bad[3] = dataclasses.replace(bad[3], code=space.uniform_code(3, t.n_genes))
        with pytest.raises(FormatError):
            search.evolve(t, cfg, score_distance_to(2.0), prior_records=bad)

    def test_duplicate_record_rejected(self):
        t, cfg, _, records = self.run_once()
        with pytest.raises(FormatError):
            search.evolve(t, cfg, score_distance_to(2.0), prior_records=records + [records[0]])

    def test_leftover_records_rejected(self):
        t, cfg, _, records = self.run_once(generations=4)
        short = small_config(generations=2)
        with pytest.raises(FormatError):
            search.evolve(t, short, score_distance_to(2.0), prior_records=records)


class TestWorkers:
    def proxy_setup(self):
        images, labels = synth.synth_gray_images(per_class=8, seed=0)
        t = templates.vgg_small_mini()
        cfg = search.SearchConfig(population_size=4, generations=2, proxy_epochs=1, elitism_count=1, master_seed=4)
        evaluator = search.make_proxy_evaluator(
            t, Dataset(images[:60], labels[:60], class_count=10), Dataset(images[60:80], labels[60:80], class_count=10),
            cfg, train_config=train.TrainConfig(epochs=1, batch_size=25),
        )
        return t, cfg, evaluator

    def test_proxy_records_match_a_serial_run(self):
        t, cfg, evaluator = self.proxy_setup()
        best, serial = search.evolve(t, cfg, evaluator)
        seen = []
        best2, parallel = search.evolve(t, cfg, evaluator, log_sink=seen.append, workers=2)
        assert strip_wall_time(parallel) == strip_wall_time(serial)
        assert seen == parallel
        assert best2.code == best.code
        # Two of generation 0's four slots replayed, the rest evaluated in workers.
        seen = []
        _, resumed = search.evolve(t, cfg, evaluator, log_sink=seen.append, prior_records=serial[:2], workers=2)
        assert strip_wall_time(resumed) == strip_wall_time(serial)
        assert strip_wall_time(seen) == strip_wall_time(serial[2:])
        assert multiprocessing.active_children() == []

    def test_a_search_after_training_on_lanes_runs_workers_on_one_lane(self, tmp_path, monkeypatch):
        # A training step first starts this process's helper threads, as a
        # supernet or a benchmark's train job does before a search.
        monkeypatch.setattr(ops, "_lanes", 2)
        monkeypatch.setattr(ops, "CHUNK_BYTES", 1)
        t, cfg, evaluator = self.proxy_setup()
        images, labels = synth.synth_gray_images(per_class=8, seed=1)
        network = net.instantiate(t, space.uniform_code(1, t.n_genes), seed=0)
        train.train_network(network, Dataset(images[:25], labels[:25], class_count=10),
                            train.TrainConfig(epochs=1, batch_size=25))
        assert ops._helpers is not None

        def reporting(code, gen, idx, eval_seed):
            (tmp_path / str(os.getpid())).write_text(str(ops._lanes))
            return evaluator(code, gen, idx, eval_seed)

        done = []
        search_thread = threading.Thread(target=lambda: done.append(search.evolve(t, cfg, reporting, workers=2)),
                                         daemon=True)
        search_thread.start()
        search_thread.join(timeout=120)
        assert not search_thread.is_alive(), "the search hung"
        assert done
        lanes = {int(path.name): path.read_text() for path in tmp_path.iterdir()}
        assert lanes and os.getpid() not in lanes
        assert set(lanes.values()) == {"1"}

    def test_full_replay_starts_no_pool(self, monkeypatch):
        t, cfg = templates.resnet_mini(), small_config()
        _, records = search.evolve(t, cfg, score_distance_to(2.0))

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a replayed run")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _, replayed = search.evolve(t, cfg, score_distance_to(2.0), prior_records=records, workers=2)
        assert replayed == records

    def test_without_fork_runs_serially(self, monkeypatch):
        t, cfg = templates.resnet_mini(), small_config()
        _, serial = search.evolve(t, cfg, score_distance_to(2.0))

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started on a platform without fork")

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _, records = search.evolve(t, cfg, score_distance_to(2.0), workers=2)
        assert strip_wall_time(records) == strip_wall_time(serial)

    def test_pool_is_sized_by_the_population_not_the_first_pooled_generation(self, monkeypatch):
        # A resumed run whose first pooled generation has two fresh slots
        # still evaluates the later generations' seven on four workers.
        t = templates.resnet_mini()
        cfg = search.SearchConfig(population_size=8, generations=3, elitism_count=1, master_seed=3)
        _, serial = search.evolve(t, cfg, score_distance_to(2.0))
        sizes = []
        real = concurrent.futures.ProcessPoolExecutor

        def spy(max_workers, **kwargs):
            sizes.append(max_workers)
            return real(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        _, resumed = search.evolve(t, cfg, score_distance_to(2.0), prior_records=serial[:6], workers=4)
        assert sizes == [4]
        assert strip_wall_time(resumed) == strip_wall_time(serial)

    def test_worker_exception_names_the_slot(self):
        t, cfg = templates.resnet_mini(), small_config()
        _, records = search.evolve(t, cfg, score_distance_to(2.0))
        failing = next(r for r in records if (r.generation, r.index) == (1, 3))

        def evaluator(code, gen, idx, eval_seed):
            if (gen, idx) == (1, 3):
                raise ValueError("proxy data exhausted")
            return score_distance_to(2.0)(code, gen, idx, eval_seed)

        seen = []
        with pytest.raises(RuntimeError) as e:
            search.evolve(t, cfg, evaluator, log_sink=seen.append, workers=2)
        assert f"generation 1 index 3 (code {space.ratio_list(failing.code)})" in str(e.value)
        assert isinstance(e.value.__cause__, ValueError)
        assert str(e.value.__cause__) == "proxy data exhausted"
        assert strip_wall_time(seen) == strip_wall_time(records[: records.index(failing)])
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self):
        t, cfg = templates.resnet_mini(), small_config()

        def evaluator(code, gen, idx, eval_seed):
            if (gen, idx) == (0, 3):
                os._exit(7)
            return score_distance_to(2.0)(code, gen, idx, eval_seed)

        with pytest.raises(RuntimeError, match="evaluation at generation 0 index [0-3] ") as e:
            search.evolve(t, cfg, evaluator, workers=2)
        assert isinstance(e.value.__cause__, BrokenProcessPool)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="parent-death signal is Linux only")
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        script = (
            "import os, sys, time\n"
            "from binwidth import search, templates\n"
            "def stall(code, gen, idx, eval_seed):\n"
            "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
            "    time.sleep(60)\n"
            "search.evolve(templates.resnet_mini(), search.SearchConfig(population_size=4, generations=1),\n"
            "              stall, workers=2)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        parent = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline and parent.poll() is None:
                time.sleep(0.05)
                workers = [int(name) for name in os.listdir(tmp_path)]
            assert len(workers) == 2, "the workers never started"
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 10
            while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(alive(pid) for pid in workers)
        finally:
            parent.kill()
            for pid in workers:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


def alive(pid: int) -> bool:
    """Whether `pid` runs and is not a zombie left for its new parent to reap."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestEvaluateCandidate:
    def setup_method(self):
        images, labels = synth.synth_gray_images(per_class=8, seed=0)
        self.train_set = Dataset(images[:60], labels[:60], class_count=10)
        self.val_set = Dataset(images[60:80], labels[60:80], class_count=10)
        self.t = templates.vgg_small_mini()

    def test_scores_are_consistent(self):
        cfg = search.SearchConfig(population_size=4, generations=1, proxy_epochs=1)
        code = space.uniform_code(1, self.t.n_genes)
        ind = search.evaluate_candidate(code, self.t, self.train_set, self.val_set, cfg, eval_seed=5)
        assert 0.0 <= ind.acc <= 100.0
        assert ind.cost.flops_norm == pytest.approx(1.0)
        assert ind.fitness == search.fitness(ind.acc, ind.cost.flops_norm, cfg.lambda_)
        assert not ind.diverged

    def test_deterministic_in_eval_seed(self):
        cfg = search.SearchConfig(population_size=4, generations=1, proxy_epochs=1)
        code = space.uniform_code(1, self.t.n_genes)
        a = search.evaluate_candidate(code, self.t, self.train_set, self.val_set, cfg, eval_seed=9)
        b = search.evaluate_candidate(code, self.t, self.train_set, self.val_set, cfg, eval_seed=9)
        assert a.acc == b.acc

    def test_divergence_scores_zero_and_flags(self):
        cfg = search.SearchConfig(population_size=4, generations=1, proxy_epochs=3)
        wild = train.TrainConfig(
            epochs=3, batch_size=32, schedule=train.LrSchedule(base_lr=1e18), weight_decay=1e-4
        )
        code = space.uniform_code(1, self.t.n_genes)
        with np.errstate(all="ignore"):
            ind = search.evaluate_candidate(
                code, self.t, self.train_set, self.val_set, cfg, eval_seed=1, train_config=wild
            )
        assert ind.diverged
        assert ind.acc == 0.0
        assert ind.fitness == 0.0

    def test_train_config_epochs_are_kept(self, monkeypatch):
        # proxy_train.epochs in a run config must reach training, not be
        # overwritten by search.proxy_epochs; only the seed is per candidate.
        seen = []
        monkeypatch.setattr(search, "train_network", lambda net, data, cfg: seen.append(cfg))
        cfg = search.SearchConfig(population_size=4, generations=1, proxy_epochs=1)
        explicit = train.TrainConfig(epochs=3, batch_size=32)
        code = space.uniform_code(1, self.t.n_genes)
        search.evaluate_candidate(code, self.t, self.train_set, self.val_set, cfg, eval_seed=2, train_config=explicit)
        search.evaluate_candidate(code, self.t, self.train_set, self.val_set, cfg, eval_seed=2)
        assert seen[0] == dataclasses.replace(explicit, seed=seeding.derive_seed(2, "train"))
        assert seen[1] == train.TrainConfig(epochs=1, seed=seeding.derive_seed(2, "train"))

    def test_code_validated(self):
        cfg = search.SearchConfig(population_size=4, generations=1, proxy_epochs=0)
        with pytest.raises(InputError):
            search.evaluate_candidate((1.0,), self.t, self.train_set, self.val_set, cfg, eval_seed=0)
