"""Acceptance gate for the package's headline guarantees.

One test per guarantee; run with -v to get a pass/fail line for each.
The reference numbers are the published operation counts and speedups
the cost model is calibrated against, plus behavioral bars for the
quantizer, the optimizer, the search loop, and the file formats.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from binwidth import checkpoint as ck
from binwidth import config as cm
from binwidth import net as net_mod
from binwidth import ops, quant, runner, search, space, synth, templates, train
from binwidth.cost import count_cost
from binwidth.data import Dataset, parse_cifar10_bin, stratified_split
from binwidth.seeding import derive_seed

from helpers import act_conv_pass, numeric_grad, rel_err, surrogate_conv_grads


# --- cost model ------------------------------------------------------------

def test_cost_model_resnet18_flops_within_5pct_under_1s():
    t = templates.resnet18()
    started = time.perf_counter()
    fp = count_cost(t, space.uniform_code(1, 12), binary=False).flops
    binary = [count_cost(t, space.uniform_code(r, 12)).flops for r in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - started
    assert fp == pytest.approx(1820e6, rel=0.05)
    for got, want in zip(binary, (149e6, 352e6, 607e6, 915e6)):
        assert got == pytest.approx(want, rel=0.05)
    assert elapsed < 1.0


def test_cost_model_resnet18_speedups_within_5pct():
    t = templates.resnet18()
    speedups = [count_cost(t, space.uniform_code(r, 12)).speedup for r in (1, 2, 3, 4)]
    for got, want in zip(speedups, (12.2, 5.2, 3.0, 2.0)):
        assert got == pytest.approx(want, rel=0.05)


def test_cost_model_vgg_small_flops_within_3pct_under_1s():
    t = templates.vgg_small()
    started = time.perf_counter()
    fp = count_cost(t, space.uniform_code(1, 7), binary=False).flops
    binary = [count_cost(t, space.uniform_code(r, 7)).flops for r in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - started
    assert fp == pytest.approx(608e6, rel=0.03)
    for got, want in zip(binary, (13.2e6, 45.3e6, 96.2e6, 166e6)):
        assert got == pytest.approx(want, rel=0.03)
    assert elapsed < 1.0


def test_fitness_spot_check_reference_operating_point():
    # acc 68.64, 495M FLOPs over a 149M baseline, lambda 4.
    assert search.fitness(68.64, 495 / 149, 4.0) == pytest.approx(55.35, abs=0.01)


# --- quantizer and gradients -------------------------------------------------

def test_quantizer_unit_vectors_exact():
    w = np.array([0.5, -1.5, 0.25, -0.75])
    np.testing.assert_array_equal(quant.binarize_weights(w), [0.75, -0.75, 0.75, -0.75])
    x = np.array([-0.3, 0.2, 0.7, 1.4])
    np.testing.assert_array_equal(quant.binarize_activations(x)[0], [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(quant.binarize_activations(np.array([0.5]))[0], [1.0])


def test_ste_gradient_matches_surrogate_network_to_1e6():
    # Runs the act1 -> conv2 units of a vgg_small_mini network, the path
    # training takes. Scales are dyadic, so mean|w| is exact in float32
    # and the binarized weights equal w bit for bit.
    rng = np.random.default_rng(2)
    # Activation path: inputs strictly inside (0,1), weights at +-c, where
    # the quantizers are locally exact and the surrogate is differentiable.
    x = rng.uniform(0.05, 0.95, size=(2, 4, 6, 6)).astype(np.float32)
    w = (0.75 * np.where(rng.standard_normal((4, 4, 3, 3)) < 0, -1.0, 1.0)).astype(np.float32)
    tangent = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    _, gx, _ = act_conv_pass(x, w, tangent)
    sx, _ = surrogate_conv_grads(x, w, tangent)
    assert rel_err(gx, sx) < 1e-6

    # Weight path: inputs outside [0,1] make the quantized and clipped
    # forwards identical, so the weight gradients must agree too.
    x = np.where(rng.random((2, 4, 6, 6)) < 0.5,
                 rng.uniform(-1.0, -0.05, size=(2, 4, 6, 6)),
                 rng.uniform(1.05, 2.0, size=(2, 4, 6, 6))).astype(np.float32)
    w = (0.375 * np.where(rng.standard_normal((4, 4, 3, 3)) < 0, -1.0, 1.0)).astype(np.float32)
    out, _, gw = act_conv_pass(x, w, tangent)
    assert rel_err(out, ops.conv2d_forward(np.clip(x, 0, 1), w, 1, 1)[0]) < 1e-12
    _, sw = surrogate_conv_grads(x, w, tangent)
    assert rel_err(gw, sw) < 1e-6


def test_full_precision_layers_pass_float32_gradcheck_1e2():
    rng = np.random.default_rng(4)

    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    w = (rng.standard_normal((4, 3, 3, 3)) * 0.5).astype(np.float32)
    _, ctx = ops.conv2d_forward(x, w, stride=1, pad=1)
    gx, gw = ops.conv2d_backward(ctx, np.ones((2, 4, 6, 6), dtype=np.float32))
    fd_x = numeric_grad(lambda v: ops.conv2d_forward(v, w, 1, 1)[0].sum(), x, eps=1e-2)
    fd_w = numeric_grad(lambda v: ops.conv2d_forward(x, v, 1, 1)[0].sum(), w, eps=1e-2)
    assert rel_err(gx, fd_x) < 1e-2
    assert rel_err(gw, fd_w) < 1e-2

    xf = rng.standard_normal((5, 7)).astype(np.float32)
    wf = (rng.standard_normal((7, 3)) * 0.5).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    _, fctx = ops.fully_connected_forward(xf, wf, b)
    gxf, gwf, gb = ops.fully_connected_backward(fctx, np.ones((5, 3), dtype=np.float32))
    assert rel_err(gxf, numeric_grad(lambda v: (v @ wf + b).sum(), xf, eps=1e-2)) < 1e-2
    assert rel_err(gwf, numeric_grad(lambda v: (xf @ v + b).sum(), wf, eps=1e-2)) < 1e-2
    assert rel_err(gb, numeric_grad(lambda v: (xf @ wf + v).sum(), b, eps=1e-2)) < 1e-2

    xb = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
    gamma = np.abs(rng.standard_normal(4)).astype(np.float32) + 0.5
    beta = rng.standard_normal(4).astype(np.float32)
    rm = np.zeros(4, dtype=np.float32)
    rv = np.ones(4, dtype=np.float32)

    def bn_loss(g):
        out, _ = ops.batch_norm_forward(xb, g, beta, rm.copy(), rv.copy(), train=True)
        return (out * out).sum() / 2

    out, bctx = ops.batch_norm_forward(xb, gamma, beta, rm.copy(), rv.copy(), train=True)
    _, ggamma, _ = ops.batch_norm_backward(bctx, out)
    assert rel_err(ggamma, numeric_grad(bn_loss, gamma, eps=1e-2)) < 1e-2


# --- search ------------------------------------------------------------------

def _eight_gene_template():
    layers = [templates._conv("conv1", 16, 3, binarized=False, gene=0)]
    for i in range(2, 9):
        layers.append(templates._conv(f"conv{i}", 16, 3, gene=i - 1))
    layers.append(templates._fc("fc", 10, binarized=False))
    return templates.NetworkTemplate("wide8", tuple(layers), (3, 16, 16))


def test_synthetic_evolution_finds_optimum_9_of_10_seeds_under_10s():
    t = _eight_gene_template()
    target = space.uniform_code(2, 8)

    def score(code, gen, idx, eval_seed):
        value = 100.0 - float(sum(abs(r - 2.0) for r in code))
        return search.Individual(code=tuple(code), acc=value, cost=count_cost(t, code), fitness=value, eval_seed=eval_seed)

    started = time.perf_counter()
    hits = 0
    for seed in range(10):
        cfg = search.SearchConfig(population_size=16, generations=30, master_seed=seed,
                                  inject_anchors=True)
        best, _ = search.evolve(t, cfg, score)
        hits += best.code == target
    elapsed = time.perf_counter() - started
    assert hits >= 9, f"optimum found in only {hits}/10 seeds"
    assert elapsed < 10.0


def test_toy_search_end_to_end_budget_anchor_and_monotonicity():
    # 500 train / 100 val images per class in the handwritten-digit file
    # format, smallest template, K=8, 5 generations, 2 proxy epochs.
    images, labels = synth.synth_gray_images(per_class=600, seed=0)
    full = Dataset(images, labels, class_count=10)
    proxy_train, proxy_val = stratified_split(full, 500, 100, seed=0)
    t = templates.vgg_small_mini()
    cfg = search.SearchConfig(population_size=8, generations=5, proxy_epochs=2, master_seed=0)
    evaluator = search.make_proxy_evaluator(t, proxy_train, proxy_val, cfg, train.TrainConfig(epochs=cfg.proxy_epochs))

    started = time.perf_counter()
    best, records = search.evolve(t, cfg, evaluator, workers=len(os.sched_getaffinity(0)))
    elapsed = time.perf_counter() - started
    assert elapsed < 1800, f"search took {elapsed:.0f}s"

    anchor = records[0]
    assert anchor.code == space.uniform_code(1, t.n_genes)
    assert best.fitness >= anchor.fitness

    running = float("-inf")
    curve = []
    for gen in range(cfg.generations):
        gen_best = max(r.fitness for r in records if r.generation == gen)
        running = max(running, gen_best)
        curve.append(running)
    assert curve == sorted(curve)


def test_search_determinism_identical_logs_and_best_codes(tmp_path):
    paths = synth.write_gray_files(str(tmp_path / "data"), train_per_class=60, test_per_class=5, seed=0)
    payload = {
        "template": "vgg_small_mini",
        "dataset": {
            "kind": "idx",
            "train_images": paths["train_images"],
            "train_labels": paths["train_labels"],
            "proxy_train_per_class": 50,
            "proxy_val_per_class": 10,
        },
        "search": {"population_size": 4, "generations": 2, "proxy_epochs": 1,
                   "elitism_count": 1, "master_seed": 3},
        "output_dir": "",
    }

    def run(out):
        payload["output_dir"] = str(tmp_path / out)
        runner.run_search(cm.parse_run_config(payload))
        with open(os.path.join(payload["output_dir"], runner.LOG_NAME)) as f:
            log = f.read()
        with open(os.path.join(payload["output_dir"], runner.BEST_CODE_NAME)) as f:
            best = f.read()
        return log, best

    log_a, best_a = run("a")
    log_b, best_b = run("b")
    assert best_a == best_b

    def strip(text):
        out = []
        for line in text.splitlines():
            rec = json.loads(line)
            rec["wall_time"] = 0.0
            out.append(json.dumps(rec, sort_keys=True))
        return out

    assert strip(log_a) == strip(log_b)


# --- training sanity ---------------------------------------------------------

def test_training_sanity_90pct_on_1000_images_in_5_epochs():
    images, labels = synth.synth_gray_images(per_class=100, seed=1)
    data = Dataset(images, labels, class_count=10)
    t = templates.vgg_small_mini()
    net = net_mod.instantiate(t, space.uniform_code(1, t.n_genes), seed=0)
    cfg = train.TrainConfig(epochs=5, batch_size=64, seed=0)
    train.train_network(net, data, cfg)
    acc = train.accuracy(net, data)
    assert acc >= 90.0, f"train accuracy {acc:.1f}%"


def test_untrained_accuracy_near_chance_10pct_pm_3():
    images, labels = synth.synth_gray_images(per_class=100, seed=1)
    data = Dataset(images, labels, class_count=10)
    t = templates.vgg_small_mini()
    accs = []
    for seed in range(5):
        net = net_mod.instantiate(t, space.uniform_code(1, t.n_genes), seed=seed)
        accs.append(train.accuracy(net, data))
    mean = float(np.mean(accs))
    assert 7.0 <= mean <= 13.0, f"untrained accuracy {mean:.1f}%"


# --- formats -----------------------------------------------------------------

def test_record_format_round_trip_byte_identical():
    pixels, labels = synth.synth_rgb_images(per_class=20, seed=5)
    parsed = parse_cifar10_bin(synth.rgb_record_bytes(per_class=20, seed=5))
    np.testing.assert_array_equal(parsed.images, pixels.astype(np.float32) / 255)
    np.testing.assert_array_equal(parsed.labels, labels)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    t = templates.vgg_small_mini()
    net = net_mod.instantiate(t, space.uniform_code(2, t.n_genes), seed=9)
    ckpt = ck.Checkpoint(net.state_dict(), t.name, space.uniform_code(2, t.n_genes), 9)
    blob = ck.serialize_checkpoint(ckpt)
    assert ck.serialize_checkpoint(ck.deserialize_checkpoint(blob)) == blob
    path = str(tmp_path / "model.ckpt")
    ck.write_checkpoint(path, ckpt)
    with open(path, "rb") as f:
        assert f.read() == blob


def test_inherit_weights_all_4x_code_is_identity():
    t = templates.vgg_small_mini()
    code4 = space.uniform_code(4, t.n_genes)
    net = net_mod.instantiate(t, code4, seed=17)
    sup = ck.Checkpoint(net.state_dict(), t.name, code4, 17)
    child = ck.inherit_weights(sup, t, code4)
    assert set(child.arrays) == set(sup.arrays)
    for k in sup.arrays:
        np.testing.assert_array_equal(child.arrays[k], sup.arrays[k], err_msg=k)
