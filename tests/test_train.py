"""Schedules, the SGD step, and the training loop."""

import concurrent.futures

import numpy as np
import pytest

from binwidth import net as net_mod
from binwidth import ops, space, synth, templates, train
from binwidth.data import Dataset, parse_mnist_idx
from binwidth.errors import DivergenceError, InputError, ShapeError


def tiny_dataset(n=64, seed=3):
    images, labels = synth.synth_gray_images(per_class=(n + 9) // 10, seed=seed)
    return Dataset(images[:n], labels[:n], class_count=10)


def mini_net(seed=0, code=None):
    t = templates.vgg_small_mini()
    code = code or space.uniform_code(1, t.n_genes)
    return net_mod.instantiate(t, code, seed=seed)


class TestSchedule:
    def test_reference_decade_steps(self):
        s = train.CIFAR_SCHEDULE
        assert train.lr_at_epoch(s, 0) == pytest.approx(0.1)
        assert train.lr_at_epoch(s, 59) == pytest.approx(0.1)
        assert train.lr_at_epoch(s, 60) == pytest.approx(0.01)
        assert train.lr_at_epoch(s, 119) == pytest.approx(0.01)
        assert train.lr_at_epoch(s, 120) == pytest.approx(0.001)
        assert train.lr_at_epoch(s, 180) == pytest.approx(0.0001)
        assert train.lr_at_epoch(s, 400) == pytest.approx(0.0001)

    def test_no_decay_epochs_is_constant(self):
        s = train.LrSchedule(base_lr=0.5)
        assert train.lr_at_epoch(s, 0) == train.lr_at_epoch(s, 1000) == 0.5

    def test_negative_epoch_rejected(self):
        with pytest.raises(InputError):
            train.lr_at_epoch(train.CIFAR_SCHEDULE, -1)

    def test_validation(self):
        with pytest.raises(InputError):
            train.LrSchedule(base_lr=0.0)
        with pytest.raises(InputError):
            train.LrSchedule(base_lr=0.1, decay_factor=1.0)
        with pytest.raises(InputError):
            train.LrSchedule(base_lr=0.1, decay_epochs=(10, 10))


class TestSgdStep:
    def test_hand_computed_two_steps(self):
        # p0=1, g=0.5 both steps, lr=0.1, m=0.9, wd=0.
        p = {"w": np.array([1.0])}
        state = {}
        train.sgd_step(p, {"w": np.array([0.5])}, 0.1, 0.9, 0.0, state)
        assert p["w"][0] == pytest.approx(1.0 - 0.1 * 0.5)  # v=0.5
        train.sgd_step(p, {"w": np.array([0.5])}, 0.1, 0.9, 0.0, state)
        # v = 0.9*0.5 + 0.5 = 0.95; p = 0.95 - 0.095
        assert p["w"][0] == pytest.approx(0.95 - 0.1 * 0.95)
        assert state["w"][0] == pytest.approx(0.95)

    def test_weight_decay_enters_velocity(self):
        p = {"w": np.array([2.0])}
        state = {}
        train.sgd_step(p, {"w": np.array([0.0])}, 1.0, 0.0, 0.1, state)
        # v = 0 + wd*p = 0.2; p = 2 - 0.2
        assert p["w"][0] == pytest.approx(1.8)

    def test_params_updated_in_place(self):
        w = np.array([1.0, 2.0])
        p = {"w": w}
        train.sgd_step(p, {"w": np.ones(2)}, 0.5, 0.0, 0.0, {})
        assert w is p["w"]
        np.testing.assert_allclose(w, [0.5, 1.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            train.sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, 0.1, 0.9, 0.0, {})
        with pytest.raises(ShapeError):
            train.sgd_step(
                {"w": np.zeros(3)}, {"w": np.zeros(3)}, 0.1, 0.9, 0.0, {"w": np.zeros(4)}
            )


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InputError):
            train.TrainConfig(epochs=-1)
        with pytest.raises(InputError):
            train.TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(InputError):
            train.TrainConfig(epochs=1, momentum=1.0)
        with pytest.raises(InputError):
            train.TrainConfig(epochs=1, weight_decay=-0.1)


class TestTrainLoop:
    def test_zero_epochs_is_a_no_op(self):
        net = mini_net(seed=1)
        before = {k: v.copy() for k, v in net.state_dict().items()}
        history = train.train_network(net, tiny_dataset(), train.TrainConfig(epochs=0))
        assert history == []
        after = net.state_dict()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_loss_history_length_and_decrease(self):
        net = mini_net(seed=2)
        cfg = train.TrainConfig(epochs=3, batch_size=32, seed=5)
        history = train.train_network(net, tiny_dataset(n=128), cfg)
        assert len(history) == 3
        assert all(np.isfinite(history))
        assert history[-1] < history[0]

    def test_same_seed_reproduces_parameters_exactly(self):
        cfg = train.TrainConfig(epochs=2, batch_size=32, seed=9, augment=True)
        data = tiny_dataset(n=96)
        net_a = mini_net(seed=4)
        net_b = mini_net(seed=4)
        train.train_network(net_a, data, cfg)
        train.train_network(net_b, data, cfg)
        sa, sb = net_a.state_dict(), net_b.state_dict()
        assert set(sa) == set(sb)
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)

    def test_different_seed_changes_parameters(self):
        data = tiny_dataset(n=96)
        net_a = mini_net(seed=4)
        net_b = mini_net(seed=4)
        train.train_network(net_a, data, train.TrainConfig(epochs=1, batch_size=32, seed=1))
        train.train_network(net_b, data, train.TrainConfig(epochs=1, batch_size=32, seed=2))
        diffs = [
            not np.array_equal(a, b)
            for (ka, a), (kb, b) in zip(
                sorted(net_a.params.items()), sorted(net_b.params.items())
            )
        ]
        assert any(diffs)

    def test_divergence_raises(self):
        # Normalization bounds the loss for almost any rate; the runaway
        # lr*wd*p feedback is what overflows float32 and turns the loss NaN.
        net = mini_net(seed=3)
        wild = train.LrSchedule(base_lr=1e18)
        cfg = train.TrainConfig(epochs=5, batch_size=32, schedule=wild, weight_decay=1e-4)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                train.train_network(net, tiny_dataset(n=64), cfg)

    def test_a_training_run_builds_the_lane_executor_once(self, monkeypatch):
        # resnet_mini's convs and a short last batch split into 1 to 4+
        # chunks; the executor is sized by the lane cap, not the chunk count.
        real = concurrent.futures.ThreadPoolExecutor
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ops, "_lanes", 4)
        monkeypatch.setattr(ops, "_helpers", None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
        t = templates.resnet_mini()
        network = net_mod.instantiate(t, space.uniform_code(1, t.n_genes), seed=0)
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((26, 3, 32, 32)).astype(np.float32), np.arange(26) % 10, class_count=10)
        try:
            train.train_network(network, data, train.TrainConfig(epochs=2, batch_size=20))
        finally:
            if ops._helpers is not None:
                ops._helpers[1].shutdown()
        assert builds == [(3,)]


class TestAccuracy:
    def test_perfect_and_zero_cases(self):
        # A one-image dataset scored against a net is overkill; use logits
        # indirectly by training to near-memorization on a 2-class subset.
        images, labels = synth.synth_gray_images(per_class=20, seed=6)
        keep = labels < 2
        data = Dataset(images[keep], labels[keep], class_count=10)
        net = mini_net(seed=7)
        sched = train.LrSchedule(base_lr=0.05, decay_epochs=())
        train.train_network(net, data, train.TrainConfig(epochs=15, batch_size=20, schedule=sched, seed=0))
        acc = train.accuracy(net, data)
        assert 0.0 <= acc <= 100.0
        assert acc > 80.0

    def test_accuracy_is_percent_scale(self):
        net = mini_net(seed=8)
        acc = train.accuracy(net, tiny_dataset(n=50))
        assert 0.0 <= acc <= 100.0

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_an_empty_split_is_refused_by_name(self, split):
        empty = Dataset(np.zeros((0, 1, 28, 28), np.float32), np.zeros(0, np.int64), class_count=10, split=split)
        with pytest.raises(InputError, match=f"empty {split} split"):
            train.accuracy(mini_net(), empty)
