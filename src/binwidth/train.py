"""SGD training primitives: schedules, config, the optimizer step, loops."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, make_batches
from .errors import DivergenceError, InputError, ShapeError
from .net import Network
from .ops import softmax_cross_entropy
from .seeding import derive_seed

EVAL_BATCH_SIZE = 256


@dataclass(frozen=True)
class LrSchedule:
    """Step schedule: multiply base_lr by decay_factor at each decay epoch."""

    base_lr: float
    decay_epochs: tuple[int, ...] = ()
    decay_factor: float = 0.1

    def __post_init__(self):
        if self.base_lr <= 0:
            raise InputError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.decay_factor < 1:
            raise InputError(f"decay_factor must lie in (0,1), got {self.decay_factor}")
        epochs = tuple(self.decay_epochs)
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise InputError(f"decay_epochs must be strictly increasing, got {epochs}")
        object.__setattr__(self, "decay_epochs", epochs)


# Step schedule of the CIFAR reference training recipe.
CIFAR_SCHEDULE = LrSchedule(base_lr=0.1, decay_epochs=(60, 120, 180), decay_factor=0.1)


def lr_at_epoch(schedule: LrSchedule, epoch: int) -> float:
    """base_lr * decay_factor^(number of decay epochs <= epoch)."""
    if epoch < 0:
        raise InputError(f"epoch must be >= 0, got {epoch}")
    n_decays = sum(1 for e in schedule.decay_epochs if e <= epoch)
    return schedule.base_lr * schedule.decay_factor**n_decays


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: LrSchedule = CIFAR_SCHEDULE
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise InputError(f"momentum must lie in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise InputError(f"weight_decay must be >= 0, got {self.weight_decay}")


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
    state: dict[str, np.ndarray],
):
    """In-place SGD with momentum: v <- m*v + g + wd*p; p <- p - lr*v.

    `state` holds one velocity buffer per parameter and is created lazily.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for '{name}'")
        v = state.get(name)
        if v is None:
            v = np.zeros_like(p)
            state[name] = v
        elif v.shape != p.shape:
            raise ShapeError(f"state shape {v.shape} != param shape {p.shape} for '{name}'")
        v *= momentum
        v += g
        if weight_decay:
            v += weight_decay * p
        p -= lr * v
    return params, state


def train_network(net: Network, train_set: Dataset, config: TrainConfig) -> list[float]:
    """Train in place for config.epochs; returns per-epoch mean losses.

    Raises DivergenceError on a non-finite loss. Fully determined by
    (net initial state, train_set, config).
    """
    state: dict[str, np.ndarray] = {}
    history = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config.schedule, epoch)
        epoch_seed = derive_seed(config.seed, "epoch", epoch)
        losses = []
        for images, labels in make_batches(train_set, config.batch_size, epoch_seed, augment=config.augment):
            logits = net.forward(images, train=True)
            loss, dlogits = softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            net.backward(dlogits)
            sgd_step(net.params, net.grads, lr, config.momentum, config.weight_decay, state)
            losses.append(loss)
        history.append(float(np.mean(losses)) if losses else float("nan"))
    return history


def accuracy(net: Network, dataset: Dataset) -> float:
    """Top-1 accuracy in percent, eval mode, unshuffled and unaugmented."""
    correct = 0
    for images, labels in make_batches(dataset, EVAL_BATCH_SIZE, seed=0, augment=False, shuffle=False):
        logits = net.forward(images, train=False)
        correct += int((logits.argmax(axis=1) == labels).sum())
    return 100.0 * correct / dataset.images.shape[0]
