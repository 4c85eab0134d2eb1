"""A fixed probe that measures how fast the machine runs right now.

On a shared machine the same code runs up to 1.5x to 2x slower, in
swings that last from under a second to minutes, because neighbours
contend for the cores and caches; process CPU time slows down with it.
The benchmark samples this probe often during a run (after every
candidate, cost chunk and checkpoint round trip, and between job runs)
and scales the run's times to the speed at which the probe takes
`REFERENCE_S`. Only frequent samples track the swings: sampled every few
seconds the probe does not help. The probe is benchmark code, so a
change to the library moves the scaled times as much as the raw ones.

Two probes: "py" is interpreter-bound (dict and tuple work, like the cost
model and the search log), "np" is numpy-bound (small matmuls, strided
copies and elementwise passes, like the training ops).
"""

from __future__ import annotations

import time

import numpy as np

# Probe durations in seconds on the machine the benchmark was tuned on
# (2-core x86_64 VM, numpy 2.4 with one OpenBLAS thread). Any fixed values
# would do: they only set the scale of reported times.
REFERENCE_S = {"py": 0.0025, "np": 0.0025}

_MATRIX = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
_IMAGES = np.random.default_rng(1).standard_normal((8, 16, 16, 16)).astype(np.float32)


def _python_work() -> int:
    table: dict = {}
    for i in range(7500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
    return len(table)


def _numpy_work() -> float:
    total = 0.0
    for _ in range(6):
        a = _MATRIX
        for _ in range(8):
            a = np.tanh(a @ _MATRIX * 0.01)
        padded = np.pad(_IMAGES, ((0, 0), (0, 0), (1, 1), (1, 1)))
        total += float(a[0, 0] + padded[:, :, ::2, ::2].sum())
    return total


class Meter:
    """Probe samples of one run; `scale(kind)` turns a time measured in the
    run into a time at the reference speed. Kinds are "py", "np" and
    "mix", the two probes together."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}

    def sample(self) -> None:
        for kind, work in (("py", _python_work), ("np", _numpy_work)):
            started = time.perf_counter()
            work()
            self.samples[kind].append(time.perf_counter() - started)

    def merge(self, other: "Meter") -> None:
        for kind, probes in other.samples.items():
            self.samples[kind].extend(probes)

    def total_s(self) -> float:
        return sum(sum(probes) for probes in self.samples.values())

    def scale(self, kind: str) -> float:
        if kind == "mix":
            probes = [sum(pair) for pair in zip(*self.samples.values())]
            reference = sum(REFERENCE_S.values())
        else:
            probes, reference = self.samples[kind], REFERENCE_S[kind]
        return reference * len(probes) / sum(probes)
