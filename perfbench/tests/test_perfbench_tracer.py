"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

# runner is imported so that it is in the bindings snapshot taken before install().
from binwidth import data, net, ops, runner, search, space, templates  # noqa: E402,F401
from tracer import Tracer, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # a: 0..10, b: 1..6 containing d: 2..5, c: 7..8
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 6, 7, 8, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert tracer.total_s == {"a": 10, "b": 5, "c": 1, "d": 3}
    assert tracer.self_s == {"a": 4, "b": 2, "c": 1, "d": 3}
    assert tracer.edges == {("a", "b"): [1, 5], ("b", "d"): [1, 3], ("a", "c"): [1, 1], ("", "a"): [1, 10]}
    assert tracer.children_total_s("a") == 6


def test_self_time_sums_over_repeated_calls():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 5, 9]))
    with tracer.span("loop"):
        for _ in range(2):
            with tracer.span("step"):
                pass
    assert tracer.calls == {"loop": 1, "step": 2}
    assert tracer.self_s["loop"] == 9 - 3
    assert tracer.self_s["step"] == 3


@pytest.mark.parametrize("n", [11, 12, 30, 100, 257])
def test_tail_percentile_leaves_exactly_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    pct, value, count = tail_percentile(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert value == n - 10


def test_tail_percentile_of_100_samples_is_p90():
    pct, value, count = tail_percentile(range(1, 101))
    assert (pct, value, count) == (90.0, 90, 100)


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _bindings():
    """Every callable bound in a binwidth module, plus the traced class attributes."""
    out = {}
    for key, module in sys.modules.items():
        if key == "binwidth" or key.startswith("binwidth."):
            for name, value in vars(module).items():
                if callable(value) or isinstance(value, classmethod):
                    out[(key, name)] = value
    for cls in (net.Network, search.SearchLogRecord, templates.NetworkTemplate):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = value
    return out


def test_uninstall_restores_every_original_object():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    during = _bindings()
    changed = {key for key in before if during[key] is not before[key]}
    assert ("binwidth.ops", "conv2d_forward") in changed
    assert ("binwidth.net", "binarize_weights") in changed  # bound where net imports it
    assert ("binwidth.train", "softmax_cross_entropy") in changed
    assert ("SearchLogRecord", "from_json") in changed
    assert ("NetworkTemplate", "block_at") in changed
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    ops.conv2d_forward(x, x)
    assert "ops.conv2d_forward" not in tracer.calls  # the untraced call reached the original


def test_installed_wrappers_count_calls_and_generator_waits():
    tracer = Tracer()
    with tracer.installed():
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        ops.conv2d_forward(x, x)
        ds = data.Dataset(np.zeros((5, 1, 2, 2)), np.arange(5), class_count=5)
        for _ in data.make_batches(ds, 2, seed=0):
            break  # an abandoned generator leaves no span open
        templates.vgg_small_mini().block_at(0)
    assert tracer.calls["ops.conv2d_forward"] == 1
    assert tracer.calls["data.make_batches"] == 1
    assert tracer.calls["data.make_batches.wait"] == 1
    assert tracer.calls["templates.NetworkTemplate.block_at"] == 1
    assert tracer._stack == []
    with pytest.raises(RuntimeError):
        with tracer.installed():
            tracer.install()


@pytest.mark.parametrize("name, code", [
    ("vgg_small_mini", (0.25, 2.0, 0.5, 4.0)),
    ("resnet_mini", (0.5, 2.0, 1.0, 4.0, 0.25, 3.0)),
])
def test_conv_and_fc_calls_are_attributed_to_their_template_layers(name, code):
    tmpl = templates.get_template(name)
    network = net.instantiate(tmpl, code, seed=0)
    images = np.random.default_rng(0).standard_normal((2,) + tmpl.input_shape).astype(np.float32)
    tracer = Tracer()
    tracer.unit_log = []
    with tracer.installed():
        logits = network.forward(images, train=True)
        network.backward(np.ones_like(logits))
    order = tracer.layer_order(tmpl)
    layers = [g.spec.name for g in space.layer_geometry(tmpl, code) if g.spec.kind in ("conv", "fc")]
    assert sorted(order["conv"] + order["fc"]) == sorted(layers)
    # Widths differ layer to layer, so each call's output channels name its layer.
    for layer, phase, out_channels in tracer.unit_log:
        assert out_channels == network.channels[layer][1], (layer, phase)
    forward = [layer for layer, phase, _ in tracer.unit_log if phase == "fwd"]
    backward = [layer for layer, phase, _ in tracer.unit_log if phase == "bwd"]
    assert forward == layers
    assert backward == layers[::-1]
    assert set(tracer.unit_s) == {f"net.{layer}.{phase}_ms" for layer in layers for phase in ("fwd", "bwd")}
