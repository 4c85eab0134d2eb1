"""Network assembly: init, forward/backward wiring, state round-trips."""

import tracemalloc
import weakref

import numpy as np
import pytest

from binwidth import net as net_mod
from binwidth import ops, space, templates, train
from binwidth.data import Dataset
from binwidth.errors import InputError, ShapeError

from helpers import rel_err, specs


def build(name="vgg_small_mini", ratio=1, seed=0):
    t = templates.get_template(name)
    return net_mod.instantiate(t, space.uniform_code(ratio, t.n_genes), seed=seed)


def batch_for(net, n=4, seed=0):
    rng = np.random.default_rng(seed)
    c, h, w = net.template.input_shape
    return rng.uniform(-1, 1, size=(n, c, h, w)).astype(np.float32)


def all_units(net):
    """Every unit, with the main-path and projection units inside residual blocks."""
    return [inner for unit in net.units for inner in [unit, *getattr(unit, "main", ()), *getattr(unit, "proj", ())]]


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = build(seed=11), build(seed=11)
        sa, sb = a.state_dict(), b.state_dict()
        assert set(sa) == set(sb)
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)

    def test_different_seeds_differ(self):
        a, b = build(seed=11), build(seed=12)
        assert any(
            not np.array_equal(a.params[k], b.params[k]) for k in a.params
        )

    def test_all_float32(self):
        net = build("resnet_mini", ratio=2)
        for k, v in net.state_dict().items():
            assert v.dtype == np.float32, k

    def test_bn_starts_at_identity(self):
        net = build()
        np.testing.assert_array_equal(net.params["bn1.gamma"], 1.0)
        np.testing.assert_array_equal(net.params["bn1.beta"], 0.0)
        np.testing.assert_array_equal(net.buffers["bn1.running_mean"], 0.0)
        np.testing.assert_array_equal(net.buffers["bn1.running_var"], 1.0)

    @pytest.mark.parametrize("name", sorted(templates.TEMPLATES))
    def test_every_layer_parameterized(self, name):
        net = build(name)
        conv_like = [
            k for k in net.params if k.endswith(".weight") and "fc" not in k
        ]
        t = templates.get_template(name)
        expect = sum(1 for l in specs(t) if l.kind == "conv")
        assert len(conv_like) == expect


class TestForward:
    @pytest.mark.parametrize("name", sorted(templates.TEMPLATES))
    @pytest.mark.parametrize("ratio", [1, 2])
    def test_logits_shape(self, name, ratio):
        t = templates.get_template(name)
        net = build(name, ratio=ratio)
        x = batch_for(net, n=2)
        out = net.forward(x, train=True)
        assert out.shape == (2, t.class_count)
        assert np.isfinite(out).all()

    def test_rejects_wrong_input_shape(self):
        net = build()
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, 3, 28, 28), dtype=np.float32))

    def test_eval_uses_running_stats(self):
        net = build(seed=5)
        x = batch_for(net, n=8, seed=1)
        # Fresh running stats are (0,1); train-mode normalizes by batch
        # stats, so the two modes must disagree before any stat updates.
        out_eval_fresh = net.forward(x, train=False)
        out_train = net.forward(x, train=True)
        assert not np.allclose(out_eval_fresh, out_train)

    def test_train_forward_moves_running_stats(self):
        net = build(seed=5)
        x = batch_for(net, n=8, seed=1)
        before = net.buffers["bn1.running_mean"].copy()
        net.forward(x, train=True)
        assert not np.array_equal(before, net.buffers["bn1.running_mean"])

    def test_eval_forward_keeps_buffers(self):
        net = build(seed=5)
        x = batch_for(net, n=8, seed=1)
        net.forward(x, train=True)
        snap = {k: v.copy() for k, v in net.buffers.items()}
        net.forward(x, train=False)
        for k in snap:
            np.testing.assert_array_equal(snap[k], net.buffers[k], err_msg=k)

    def test_eval_mode_deterministic(self):
        net = build("resnet_mini", seed=2)
        x = batch_for(net, n=4, seed=7)
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_eval_forward_keeps_no_context(self):
        # resnet_mini with code (1, 4, 1, 4, 1, 4) on 256 images
        # (train.accuracy's batch size): an eval forward that kept each
        # unit's backward context held ~1,470 MB after it returned and
        # peaked at ~1,520 MB (tracemalloc counts are deterministic).
        t = templates.resnet_mini()
        net = net_mod.instantiate(t, (1, 4, 1, 4, 1, 4), seed=0)
        x = batch_for(net, n=256)
        net.forward(x[:2], train=True)  # leaves context that the eval forward must drop
        tracemalloc.start()
        try:
            logits = net.forward(x, train=False)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(getattr(u, "ctx", None) is None for u in all_units(net))
        assert live < logits.nbytes + (1 << 20)
        assert peak < 300e6


class TestBackward:
    @pytest.mark.parametrize("name", ["vgg_small_mini", "resnet_mini"])
    def test_grad_for_every_param(self, name):
        net = build(name, ratio=2, seed=3)
        x = batch_for(net, n=4, seed=4)
        logits = net.forward(x, train=True)
        labels = np.arange(4) % net.template.class_count
        _, dlogits = ops.softmax_cross_entropy(logits, labels)
        net.backward(dlogits)
        missing = {k for k in net.params if k not in net.grads}
        assert not missing
        zero = {k for k, g in net.grads.items() if not np.any(g)}
        # BN betas of dead channels may be zero; weights should never be.
        assert not {k for k in zero if k.endswith(".weight")}

    @pytest.mark.parametrize("before", ["no_forward", "eval_forward", "second_backward"])
    def test_requires_a_train_forward(self, before):
        # Only a train-mode forward leaves the context a backward pass uses,
        # and the backward pass consumes it.
        net = build("resnet_mini", seed=3)
        x = batch_for(net, n=2, seed=5)
        dlogits = np.ones((2, net.template.class_count), dtype=np.float32)
        if before == "eval_forward":
            net.forward(x, train=True)
            net.forward(x, train=False)
        elif before == "second_backward":
            net.forward(x, train=True)
            net.backward(dlogits)
        with pytest.raises(InputError, match="forward\\(train=True\\)"):
            net.backward(dlogits)

    def test_projection_block_drops_its_incoming_gradient_before_conv2(self):
        # The projection and bn2 use the gradient entering the block; no
        # frame may keep it alive through the rest of the main path.
        network = net_mod.instantiate(templates.resnet_mini(), (1, 4, 1, 4, 1, 4), seed=3)
        at = [unit.spec.name for unit in network.units].index("s2b1")
        block, after = network.units[at], network.units[at + 1]
        conv2 = next(unit for unit in block.main if unit.spec.name == "s2b1_conv2")
        assert block.shortcut
        entering, dead = [], []

        def after_backward(*args, inner=after.backward):
            g = inner(*args)
            entering.append(weakref.ref(g))
            return g

        def conv2_backward(*args, inner=conv2.backward):
            dead.append(entering[-1]() is None)
            return inner(*args)

        after.backward, conv2.backward = after_backward, conv2_backward
        x = batch_for(network, n=2, seed=5)
        network.forward(x, train=True)
        network.backward(np.ones((2, network.template.class_count), dtype=np.float32))
        assert dead == [True]

    def test_shortcut_carries_gradient(self):
        # Gradient must reach the stem through both the residual main path
        # and the skip connection; compare against a main-path-only sum.
        net = build("resnet_mini", seed=3)
        x = batch_for(net, n=2, seed=5)
        logits = net.forward(x, train=True)
        _, dlogits = ops.softmax_cross_entropy(logits, np.zeros(2, dtype=int))
        net.backward(dlogits)
        assert np.any(net.grads["stem_conv.weight"])


class TestLanes:
    @pytest.mark.parametrize("name", ["resnet_mini", "vgg_small_mini"])
    def test_one_and_three_lanes_give_the_same_bits(self, name, monkeypatch):
        # One unit per chunk: every conv, batch norm and quantizer splits.
        monkeypatch.setattr(ops, "CHUNK_BYTES", 1)
        runs = []
        for lanes in (1, 3):
            monkeypatch.setattr(ops, "_lanes", lanes)
            network = build(name, ratio=2)
            x = batch_for(network, n=6)
            logits = network.forward(x, train=True)
            _, grad = train.softmax_cross_entropy(logits, np.arange(6) % 10)
            network.backward(grad)
            arrays = [network.forward(x, train=False), logits, *network.grads.values()]
            data = Dataset(batch_for(network, n=12, seed=1), np.arange(12) % 10, class_count=10)
            train.train_network(network, data, train.TrainConfig(epochs=1, batch_size=6))
            runs.append(arrays + list(network.state_dict().values()))
        assert len(runs[0]) == len(runs[1])
        for one, three in zip(*runs):
            assert one.dtype == three.dtype and np.array_equal(one.view(np.uint32), three.view(np.uint32))


class TestStateDict:
    def test_round_trip_identical_outputs(self):
        src = build("resnet_mini", ratio=2, seed=6)
        x = batch_for(src, n=3, seed=8)
        src.forward(x, train=True)  # move running stats off init values
        dst = build("resnet_mini", ratio=2, seed=99)
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(src.forward(x), dst.forward(x))

    def test_state_dict_copies(self):
        net = build()
        sd = net.state_dict()
        sd["conv1.weight"][...] = 0
        assert np.any(net.params["conv1.weight"])

    def test_missing_key_rejected(self):
        net = build()
        sd = net.state_dict()
        sd.pop("conv1.weight")
        with pytest.raises(ShapeError):
            net.load_state_dict(sd)

    def test_extra_key_rejected(self):
        net = build()
        sd = net.state_dict()
        sd["ghost"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(ShapeError):
            net.load_state_dict(sd)

    def test_wrong_shape_rejected(self):
        net = build()
        sd = net.state_dict()
        sd["conv1.weight"] = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            net.load_state_dict(sd)

    def test_param_count(self):
        net = build()
        assert net.param_count() == sum(v.size for v in net.params.values())


class TestClassifierGradientIsExact:
    """Finite differences on the classifier head at float32.

    The final fully connected layer sees only quantized (hence locally
    constant) inputs, so its parameter gradients admit a direct numeric
    check through the whole model. Upstream parameters sit behind a
    round(), whose almost-everywhere-zero true derivative is the point
    of using a straight-through estimator instead.
    """

    @pytest.mark.parametrize("pname", ["fc2.weight", "fc2.bias"])
    def test_fd_matches_backprop(self, pname):
        net = build(seed=13)
        x = batch_for(net, n=4, seed=14)
        labels = np.array([0, 1, 2, 3])

        def loss_fn():
            logits = net.forward(x, train=True)
            loss, _ = ops.softmax_cross_entropy(logits, labels)
            return loss

        logits = net.forward(x, train=True)
        _, dlogits = ops.softmax_cross_entropy(logits, labels)
        net.backward(dlogits)
        analytic = net.grads[pname].copy()

        p = net.params[pname]
        fd = np.zeros_like(p, dtype=np.float64)
        eps = 1e-2  # float32 forward noise swamps anything finer
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = loss_fn()
            p[idx] = orig - eps
            lo = loss_fn()
            p[idx] = orig
            fd[idx] = (hi - lo) / (2 * eps)
        assert rel_err(analytic, fd) < 1e-2
