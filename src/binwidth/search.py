"""Evolutionary search over expansion codes.

Classic generational loop: seeded random initial population (optionally
anchored by the uniform-1x and uniform-4x codes), tournament selection,
uniform crossover, forced-change mutation, and elitism. Candidate
evaluation trains a short proxy schedule and scores top-1 validation
accuracy against normalized cost.

Determinism contract: breeding for a generation consumes a sequential
generator derived from (master_seed, "breed", generation); every
candidate evaluation is seeded by (master_seed, "eval", generation,
index). The trajectory therefore depends only on the config and data,
never on evaluation scheduling, and scheduling does vary: `evolve` may
evaluate a generation's children one after another in-process or at
once in worker processes, finishing in any order. Records are built and
logged in index order either way, so the log is the same apart from
`wall_time`, and a killed run can be resumed by replaying its log.

A log line is a `SearchLogRecord` read by `space.read_json`: every field
is required, and any fault (a foreign ratio too) is a `FormatError`.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import dataclasses
import functools
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import ops
from .checkpoint import Checkpoint, inherit_weights
from .cost import CostReport, count_cost
from .data import Dataset
from .errors import BinwidthError, DivergenceError, FormatError, InputError
from .net import instantiate
from .seeding import derive_seed, rng_from
from .space import RATIOS, ExpansionCode, json_fields, random_code, ratio_list, read_json, uniform_code, validate_code
from .templates import NetworkTemplate
from .train import TrainConfig, accuracy, train_network


@dataclass(frozen=True)
class SearchConfig:
    population_size: int = 32
    generations: int = 50
    lambda_: float = 4.0
    proxy_epochs: int = 10
    tournament_size: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # None means 1/n_genes
    elitism_count: int = 2
    master_seed: int = 0
    inject_anchors: bool = True

    def __post_init__(self):
        if self.population_size < 2:
            raise InputError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise InputError(f"generations must be >= 1, got {self.generations}")
        if self.lambda_ < 0:
            raise InputError(f"lambda must be >= 0, got {self.lambda_}")
        if self.proxy_epochs < 0:
            raise InputError(f"proxy_epochs must be >= 0, got {self.proxy_epochs}")
        if not 1 <= self.tournament_size <= self.population_size:
            raise InputError(f"tournament_size must lie in [1, K], got {self.tournament_size}")
        if not 0 <= self.crossover_rate <= 1:
            raise InputError(f"crossover_rate must lie in [0,1], got {self.crossover_rate}")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise InputError(f"mutation_rate must lie in [0,1], got {self.mutation_rate}")
        if not 0 <= self.elitism_count < self.population_size:
            raise InputError(f"elitism_count must lie in [0, K), got {self.elitism_count}")


@dataclass
class Individual:
    """An evaluator's result for one code; `evolve` keeps it as a SearchLogRecord."""

    code: ExpansionCode
    acc: float
    cost: CostReport
    fitness: float
    eval_seed: int
    diverged: bool = False


@dataclass
class SearchLogRecord:
    generation: int
    index: int
    code: ExpansionCode
    acc: float
    flops: float
    flops_norm: float
    fitness: float
    eval_seed: int
    wall_time: float
    diverged: bool
    random_parents: bool

    def to_json(self) -> str:
        payload = {key: getattr(self, field[0]) for key, field in json_fields(SearchLogRecord).items()}
        payload["code"] = ratio_list(self.code)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "SearchLogRecord":
        """A log line's record; every key is required, as no field has a default."""
        return read_json(line, cls)


def fitness(acc_percent: float, flops_norm: float, lambda_: float) -> float:
    """max(acc - lambda * flops_norm, 0); accuracy on the 0..100 scale."""
    if not 0 <= acc_percent <= 100:
        raise InputError(f"accuracy must lie in [0,100], got {acc_percent}")
    if flops_norm <= 0:
        raise InputError(f"flops_norm must be positive, got {flops_norm}")
    return max(acc_percent - lambda_ * flops_norm, 0.0)


def select_parent(population: list[SearchLogRecord], rng: np.random.Generator,
                  tournament_size: int = 2) -> SearchLogRecord:
    """Tournament without replacement; highest fitness wins, ties to the
    lowest population index."""
    if not population:
        raise InputError("population is empty")
    k = min(tournament_size, len(population))
    contestants = sorted(int(i) for i in rng.choice(len(population), size=k, replace=False))
    best = contestants[0]
    for i in contestants[1:]:
        if population[i].fitness > population[best].fitness:
            best = i
    return population[best]


def crossover(parent_a: ExpansionCode, parent_b: ExpansionCode, rng: np.random.Generator,
              crossover_rate: float = 0.9) -> ExpansionCode:
    """Uniform crossover with probability crossover_rate, else a copy of
    parent_a. One rate draw plus one mask draw per call, rate regardless."""
    if len(parent_a) != len(parent_b):
        raise InputError(f"parent lengths differ: {len(parent_a)} vs {len(parent_b)}")
    do_cross = rng.random() < crossover_rate
    mask = rng.random(len(parent_a)) < 0.5
    if not do_cross:
        return tuple(parent_a)
    return tuple(a if take_a else b for a, b, take_a in zip(parent_a, parent_b, mask))


def mutate(code: ExpansionCode, rng: np.random.Generator, mutation_rate: float) -> ExpansionCode:
    """Per-gene resample from the five other ratios with probability
    mutation_rate (a triggered gene always changes)."""
    triggers = rng.random(len(code)) < mutation_rate
    out = []
    for gene, hit in zip(code, triggers):
        if hit:
            others = [r for r in RATIOS if r != gene]
            gene = others[int(rng.integers(0, len(others)))]
        out.append(gene)
    return tuple(out)


def evaluate_candidate(
    code,
    template: NetworkTemplate,
    proxy_train: Dataset,
    proxy_val: Dataset,
    config: SearchConfig,
    eval_seed: int,
    train_config: TrainConfig | None = None,
    supernet: Checkpoint | None = None,
) -> Individual:
    """Train a short proxy schedule and score the candidate.

    Deterministic in (code, eval_seed): the network init and the batch
    order both derive from eval_seed. Training follows `train_config` with
    its seed replaced by the derived one; without a `train_config` it runs
    `config.proxy_epochs` epochs at the `TrainConfig` defaults. A training
    divergence is not fatal; the candidate scores accuracy 0 and is flagged.
    """
    cost = count_cost(template, code)
    code = cost.code
    base = train_config if train_config is not None else TrainConfig(epochs=config.proxy_epochs)
    proxy_cfg = dataclasses.replace(base, seed=derive_seed(eval_seed, "train"))
    net = instantiate(template, code, seed=derive_seed(eval_seed, "init"))
    if supernet is not None:
        net.load_state_dict(inherit_weights(supernet, template, code).arrays)
    diverged = False
    try:
        train_network(net, proxy_train, proxy_cfg)
        acc = accuracy(net, proxy_val)
    except DivergenceError:
        diverged = True
        acc = 0.0
    return Individual(
        code=code,
        acc=acc,
        cost=cost,
        fitness=fitness(acc, cost.flops_norm, config.lambda_),
        eval_seed=eval_seed,
        diverged=diverged,
    )


Evaluator = Callable[[ExpansionCode, int, int, int], Individual]


def _breed(
    population: list[SearchLogRecord],
    config: SearchConfig,
    mutation_rate: float,
    rng: np.random.Generator,
    count: int,
) -> tuple[list[ExpansionCode], bool]:
    """Children for the next generation; sequential draws, no evaluation."""
    random_fallback = all(ind.fitness == 0 for ind in population)
    children = []
    for _ in range(count):
        if random_fallback:
            pa = population[int(rng.integers(0, len(population)))]
            pb = population[int(rng.integers(0, len(population)))]
        else:
            pa = select_parent(population, rng, config.tournament_size)
            pb = select_parent(population, rng, config.tournament_size)
        child = crossover(pa.code, pb.code, rng, config.crossover_rate)
        children.append(mutate(child, rng, mutation_rate))
    return children, random_fallback


def evolve(
    template: NetworkTemplate,
    config: SearchConfig,
    evaluator: Evaluator,
    log_sink: Callable[[SearchLogRecord], None] | None = None,
    prior_records: Iterable[SearchLogRecord] = (),
    workers: int = 1,
) -> tuple[SearchLogRecord, list[SearchLogRecord]]:
    """Run the generational loop; returns (first best record, all records).

    `evaluator(code, generation, index, eval_seed)` produces the Individual
    that a new record logs; `evaluate_candidate` partially applied is the
    real one, and tests substitute closed-form scorers. Records passed in
    `prior_records` stand in, as they are, for matching evaluations (log
    replay) and are never evaluated again.

    With `workers` > 1, a generation's fresh slots (two or more) are
    evaluated in a pool of up to `workers` forked processes, which inherit
    `evaluator` instead of receiving it pickled. The pool starts with the
    first generation that needs it, is reused by the later ones, and is
    shut down and joined before `evolve` returns or raises. Either way
    the parent builds every record and passes it to `log_sink` in index
    order, so the log matches a serial run's apart from `wall_time`, and
    a killed run leaves a prefix of it. An evaluation that raises, or a
    worker that dies, raises here naming the slot, chained from the cause.
    """
    n = template.n_genes
    mutation_rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / n
    prior = {}
    for rec in prior_records:
        key = (rec.generation, rec.index)
        if key in prior:
            raise FormatError(f"duplicate log record for generation {rec.generation} index {rec.index}")
        prior[key] = rec
    records: list[SearchLogRecord] = []
    pool: concurrent.futures.ProcessPoolExecutor | None = None

    def run_generation(gen: int, first: int, codes: list[ExpansionCode], random_parents: bool) -> list[SearchLogRecord]:
        nonlocal pool
        slots = []
        for idx, code in enumerate(codes, start=first):
            code = validate_code(code, n)
            seed = derive_seed(config.master_seed, "eval", gen, idx)
            rec = prior.pop((gen, idx), None)
            if rec is not None and (rec.code != code or rec.eval_seed != seed):
                raise FormatError(
                    f"log record at generation {gen} index {idx} does not match "
                    f"this configuration (code {rec.code} vs {code})"
                )
            slots.append((idx, code, seed, rec))
        fresh = [(idx, code, seed) for idx, code, seed, rec in slots if rec is None]
        if workers > 1 and len(fresh) > 1:
            if pool is None:  # through the package, which imports its process module (~1 MB) only now
                pool = concurrent.futures.ProcessPoolExecutor(
                    min(workers, len(fresh)), mp_context=multiprocessing.get_context("fork"),
                    initializer=_install_evaluator, initargs=(evaluator, os.getpid()),
                )
            outcomes = {idx: pool.submit(_evaluate_in_worker, code, gen, idx, seed).result
                        for idx, code, seed in fresh}
        else:
            outcomes = {idx: functools.partial(evaluator, code, gen, idx, seed) for idx, code, seed in fresh}
        generation = []
        for idx, code, seed, rec in slots:
            if rec is None:
                ind = _outcome(outcomes[idx], gen, idx, code)
                rec = SearchLogRecord(
                    generation=gen, index=idx, code=ind.code, acc=ind.acc,
                    flops=ind.cost.flops, flops_norm=ind.cost.flops_norm,
                    fitness=ind.fitness, eval_seed=seed, wall_time=time.time(),
                    diverged=ind.diverged, random_parents=random_parents,
                )
                if log_sink is not None:
                    log_sink(rec)
            generation.append(rec)
        records.extend(generation)
        return generation

    try:
        for gen in range(config.generations):
            rng = rng_from(config.master_seed, "breed", gen)
            if gen == 0:
                codes = [uniform_code(1, n), uniform_code(4, n)] if config.inject_anchors else []
                while len(codes) < config.population_size:
                    codes.append(random_code(n, rng))
                population = run_generation(0, 0, codes, False)
                continue
            # sorted is stable, so fitness ties go to the lower population index.
            elites = sorted(population, key=lambda rec: -rec.fitness)[: config.elitism_count]
            children, fallback = _breed(
                population, config, mutation_rate, rng,
                config.population_size - config.elitism_count,
            )
            population = elites + run_generation(gen, config.elitism_count, children, fallback)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if prior:
        leftover = sorted(prior)
        raise FormatError(f"log contains records beyond the configured run: {leftover[:3]}")
    return max(records, key=lambda rec: rec.fitness), records


def _outcome(outcome: Callable[[], Individual], gen: int, idx: int, code: ExpansionCode) -> Individual:
    """`outcome()`, with a failure re-raised naming its slot. A package
    error keeps its type, so the command line's exit code stays the same."""
    try:
        return outcome()
    except Exception as e:
        kind = type(e) if isinstance(e, BinwidthError) else RuntimeError
        raise kind(f"evaluation at generation {gen} index {idx} (code {ratio_list(code)}) failed: {e}") from e


# A pool worker's evaluator, set by the pool initializer in each forked process.
_worker_evaluator: Evaluator | None = None
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _install_evaluator(evaluator: Evaluator, parent: int) -> None:
    """Pool initializer. The workers already keep every CPU busy, so each
    computes on one lane with one BLAS thread: several BLAS threads per
    worker, spinning against each other, made a search two to four times
    slower. On Linux a worker also dies with `parent`: a parent killed
    before it can shut the pool down would otherwise leave its workers
    blocked forever."""
    global _worker_evaluator
    _worker_evaluator = evaluator
    ops.use_one_core()
    libc = ctypes.CDLL(None)
    if hasattr(libc, "prctl"):
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # it died before prctl took effect
            os._exit(1)


def _evaluate_in_worker(code: ExpansionCode, gen: int, idx: int, eval_seed: int) -> Individual:
    return _worker_evaluator(code, gen, idx, eval_seed)


def make_proxy_evaluator(
    template: NetworkTemplate,
    proxy_train: Dataset,
    proxy_val: Dataset,
    config: SearchConfig,
    train_config: TrainConfig | None = None,
    supernet: Checkpoint | None = None,
) -> Evaluator:
    """The production evaluator: proxy training on real data."""

    def run(code: ExpansionCode, gen: int, idx: int, eval_seed: int) -> Individual:
        return evaluate_candidate(
            code, template, proxy_train, proxy_val, config, eval_seed,
            train_config=train_config, supernet=supernet,
        )

    return run
