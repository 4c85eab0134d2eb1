"""Kernel correctness: forward against loop oracles, backward against
finite differences, conv, max-pool and batch norm bit for bit against
their straightforward references, and the chunks and lanes that conv,
batch norm and the activation quantizer run on, and what they allocate."""

import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binwidth import ops, quant
from binwidth.errors import InputError, ShapeError

from helpers import (
    batch_norm_reference, conv2d_loops, conv2d_reference, max_pool2d_reference, numeric_grad, rel_err,
)

POOL_CONFIGS = [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0), (3, 3, 0), (3, 2, 0)]


def rand(shape, seed, dtype=np.float64, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(dtype)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.dtype(f"u{got.itemsize}")
    assert np.array_equal(np.ascontiguousarray(got).view(uint), np.ascontiguousarray(want).view(uint))


class TestConvForward:
    def test_matches_loop_reference_bitwise_on_integer_grid(self):
        # Integer-valued inputs keep every partial sum exact in float32,
        # so any summation order gives the same bits.
        rng = np.random.default_rng(0)
        x = rng.integers(-4, 5, size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.integers(-4, 5, size=(5, 3, 3, 3)).astype(np.float32)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            fast = ops.conv2d_forward(x, w, stride, pad)[0]
            slow = conv2d_loops(x, w, stride, pad)
            assert fast.shape == slow.shape
            assert np.array_equal(fast, slow)

    def test_matches_loop_reference_float(self):
        x = rand((2, 4, 10, 7), 1)
        w = rand((6, 4, 5, 3), 2)
        got = ops.conv2d_forward(x, w, stride=2, pad=2)[0]
        want = conv2d_loops(x, w, stride=2, pad=2)
        assert rel_err(got, want) < 1e-12

    def test_output_size_floor_division(self):
        # 224 -> 112 with k=7, s=2, p=3 requires floor semantics.
        x = np.zeros((1, 1, 224, 224), dtype=np.float32)
        w = np.zeros((2, 1, 7, 7), dtype=np.float32)
        assert ops.conv2d_forward(x, w, stride=2, pad=3)[0].shape == (1, 2, 112, 112)

    def test_1x1_conv_is_channel_mix(self):
        x = rand((2, 3, 4, 4), 3)
        w = rand((5, 3, 1, 1), 4)
        got = ops.conv2d_forward(x, w)[0]
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        assert rel_err(got, want) < 1e-12

    def test_kernel_larger_than_input_rejected(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d_forward(x, w)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(np.zeros((1, 3, 8, 8), dtype=np.float32), np.zeros((2, 4, 3, 3), dtype=np.float32))

    @given(
        n=st.integers(1, 2), cin=st.integers(1, 3), cout=st.integers(1, 3),
        h=st.integers(3, 9), w=st.integers(3, 9), k=st.integers(1, 3),
        stride=st.integers(1, 2), pad=st.integers(0, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_shape_formula(self, n, cin, cout, h, w, k, stride, pad):
        if h + 2 * pad < k or w + 2 * pad < k:
            return
        x = np.zeros((n, cin, h, w), dtype=np.float32)
        kern = np.zeros((cout, cin, k, k), dtype=np.float32)
        out = ops.conv2d_forward(x, kern, stride, pad)[0]
        assert out.shape == (n, cout, (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1)


class TestConvBackward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_match_finite_differences(self, stride, pad):
        x = rand((2, 2, 6, 5), 5)
        w = rand((3, 2, 3, 3), 6)
        tangent = rand((2, 3, (6 + 2 * pad - 3) // stride + 1, (5 + 2 * pad - 3) // stride + 1), 7)

        def loss_x(xv):
            return float((ops.conv2d_forward(xv, w, stride, pad)[0] * tangent).sum())

        def loss_w(wv):
            return float((ops.conv2d_forward(x, wv, stride, pad)[0] * tangent).sum())

        _, ctx = ops.conv2d_forward(x, w, stride, pad)
        gx, gw = ops.conv2d_backward(ctx, tangent)
        assert rel_err(gx, numeric_grad(loss_x, x)) < 1e-7
        assert rel_err(gw, numeric_grad(loss_w, w)) < 1e-7


def chunk_boundary_sizes(sample_bytes):
    """Batch sizes 1 and below, at and above the sizes at which conv2d's chunk count rises to two and three."""
    step = max(1, ops.CHUNK_BYTES // sample_bytes)
    return sorted({1, step - 1, step, step + 1, 2 * step + 1} - {0})


# (cin, cout, k, size, stride, pad, batch sizes); None picks them at the
# chunk boundaries. The last case is a 1x1 conv from one channel to one,
# whose [N,1,1] weight partials numpy sums pairwise, not one after
# another; 64x64 inputs put chunk boundaries below N=130 in both dtypes.
CONV_BITWISE_CASES = [pytest.param(8, 6, 3, 16, stride, pad, None, id=f"3x3-stride{stride}-pad{pad}")
                      for stride in (1, 2) for pad in (0, 1, 2)]
CONV_BITWISE_CASES.append(pytest.param(1, 1, 1, 64, 1, 0, (9, 130, 200), id="1x1-single-weight"))


# A kernel's lanes: the calling thread alone, and one or two helpers with it.
LANE_COUNTS = (1, 2, 3)
# One sample per chunk, and the default budget.
CHUNK_BUDGETS = (1, ops.CHUNK_BYTES)


def run_lane_kernels(x):
    """Conv, train-mode batch norm and the activation quantizer, forward
    and backward, on x [N, 3, H, W]: every output and gradient, in order."""
    w = np.where(np.arange(5 * 3 * 9).reshape(5, 3, 3, 3) % 2, 0.5, -0.5).astype(x.dtype)
    out, ctx = ops.conv2d_forward(x, w, 1, 1)
    results = [out, *ops.conv2d_backward(ctx, out)]
    ones, zeros = np.ones(3, x.dtype), np.zeros(3, x.dtype)
    rm, rv = zeros.copy(), ones.copy()
    out, ctx = ops.batch_norm_forward(x, ones, zeros, rm, rv, True)
    results += [out, *ops.batch_norm_backward(ctx, x), rm, rv]
    q = quant.binarize_activations(x)
    return results + [q.values, q.pass_mask, quant.ste_activation_grad(x, q.pass_mask)]


class TestChunks:
    def test_a_split_array_takes_a_multiple_of_the_lanes_in_near_equal_chunks(self):
        # resnet_mini's stage-1 batch norm input at batch 35: 32 and 3
        # samples by the budget alone, 17 and 18 balanced.
        sample = 16 * 32 * 32 * 4
        assert ops._chunk_bounds(35, sample, 1) == [0, 17, 35]
        assert ops._chunk_bounds(35, sample, 2) == [0, 17, 35]
        assert ops._chunk_bounds(35, sample, 3) == [0, 11, 23, 35]
        for n in range(1, 40):
            for sample in (1, 3, 50_000, 300_000, ops.CHUNK_BYTES, 3 * ops.CHUNK_BYTES):
                fewest = -(-n // max(1, ops.CHUNK_BYTES // sample))
                for lanes in LANE_COUNTS:
                    bounds = ops._chunk_bounds(n, sample, lanes)
                    sizes = np.diff(bounds)
                    assert bounds[0] == 0 and bounds[-1] == n and sizes.min() >= 1
                    assert sizes.max() * sample <= ops.CHUNK_BYTES or sizes.max() == 1
                    if fewest == 1:
                        assert len(sizes) == 1
                    else:
                        assert sizes.max() - sizes.min() <= 1
                        assert len(sizes) % lanes == 0 or len(sizes) == n

    def test_an_array_that_fits_one_chunk_runs_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(ops, "_lanes", 3)
        calls = []

        def work(chunk):
            calls.append((chunk, threading.get_ident()))

        ops._on_lanes(work, 10, ops.CHUNK_BYTES // 10)
        assert calls == [(slice(0, 10), threading.get_ident())]


class TestConv:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,cout,k,size,stride,pad,sizes", CONV_BITWISE_CASES)
    def test_bitwise_equal_to_whole_batch_reference(self, dtype, cin, cout, k, size, stride, pad, sizes, monkeypatch):
        hout = (size + 2 * pad - k) // stride + 1
        rng = np.random.default_rng(stride * 10 + pad)
        w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
        for n in sizes or chunk_boundary_sizes(cin * k * k * hout * hout * np.dtype(dtype).itemsize):
            x = rng.standard_normal((n, cin, size, size)).astype(dtype)
            gout = rng.standard_normal((n, cout, hout, hout)).astype(dtype)
            want = conv2d_reference(x, w, stride, pad, gout)
            for lanes in LANE_COUNTS:
                monkeypatch.setattr(ops, "_lanes", lanes)
                out, ctx = ops.conv2d_forward(x, w, stride, pad)
                for got, exp in zip((out, *ops.conv2d_backward(ctx, gout)), want):
                    assert_same_bits(got, exp)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_batch(self, dtype, monkeypatch):
        w = np.ones((3, 2, 3, 3), dtype=dtype)
        for lanes in LANE_COUNTS:
            monkeypatch.setattr(ops, "_lanes", lanes)
            out, ctx = ops.conv2d_forward(np.ones((0, 2, 5, 5), dtype=dtype), w, 1, 1)
            gx, gw = ops.conv2d_backward(ctx, np.ones(out.shape, dtype=dtype))
            assert out.shape == (0, 3, 5, 5) and gx.shape == (0, 2, 5, 5)
            assert_same_bits(gw, np.zeros(w.shape, dtype=dtype))

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_a_padded_conv_allocates_no_padded_batch(self, lanes, monkeypatch):
        # Each lane pads its own chunks, so the peak is the output and the
        # lanes' patch and padding buffers, and no padded copy of the batch.
        monkeypatch.setattr(ops, "_lanes", lanes)
        n, cin, cout, size = 64, 8, 16, 32
        x = rand((n, cin, size, size), 43, np.float32)
        w = rand((cout, cin, 3, 3), 44, np.float32)
        tracemalloc.start()
        try:
            out = ops.conv2d_forward(x, w, 1, 1)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes = np.diff(ops._chunk_bounds(n, cin * 9 * size * size * 4, lanes))
        scratch = min(lanes, len(sizes)) * sizes.max() * (cin * 9 * size * size + cin * (size + 2) ** 2) * 4
        padded_batch = n * cin * (size + 2) ** 2 * 4
        assert peak < out.nbytes + scratch + padded_batch // 4

    # The lane machinery's tests run batch norm and the activation quantizer
    # on lanes as well as the conv.
    def test_more_lanes_than_cpus_under_fast_thread_switching(self, monkeypatch):
        # A chunk written twice, lost or written to another's slice changes bits.
        monkeypatch.setattr(ops, "CHUNK_BYTES", 1)
        x = rand((12, 3, 10, 10), 42, np.float32)
        monkeypatch.setattr(ops, "_lanes", 1)
        want = run_lane_kernels(x)
        monkeypatch.setattr(ops, "_lanes", ops.usable_cpus() + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                for got, exp in zip(run_lane_kernels(x), want, strict=True):
                    assert_same_bits(got, exp)
        finally:
            sys.setswitchinterval(interval)

    def test_helper_lanes_keep_the_callers_errstate(self, monkeypatch):
        # One sample per chunk, so every lane runs several chunks; inf against
        # weights of both signs makes inf - inf in every matmul, and in
        # batch norm's centring.
        monkeypatch.setattr(ops, "_lanes", 3)
        monkeypatch.setattr(ops, "CHUNK_BYTES", 1)
        x = np.full((9, 3, 5, 5), np.inf, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                results = run_lane_kernels(x)
        assert all(np.isnan(a).any() for a in results[:5])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_starts_its_own_helpers(self, monkeypatch):
        # The child inherits the parent's executor but none of its threads.
        monkeypatch.setattr(ops, "_lanes", 2)
        monkeypatch.setattr(ops, "CHUNK_BYTES", 1)
        x = rand((8, 3, 16, 16), 40, np.float32)
        want = run_lane_kernels(x)

        def child():
            same = all(np.array_equal(got, exp) for got, exp in zip(run_lane_kernels(x), want, strict=True))
            os._exit(0 if same else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        try:
            assert proc.exitcode == 0
        finally:
            proc.kill()


class TestFullyConnected:
    def test_forward_is_affine(self):
        x, w, b = rand((4, 6), 8), rand((6, 3), 9), rand((3,), 10)
        assert rel_err(ops.fully_connected_forward(x, w, b)[0], x @ w + b) == 0

    def test_gradients_match_finite_differences(self):
        x, w, b = rand((3, 5), 11), rand((5, 4), 12), rand((4,), 13)
        tangent = rand((3, 4), 14)
        _, ctx = ops.fully_connected_forward(x, w, b)
        gx, gw, gb = ops.fully_connected_backward(ctx, tangent)
        assert rel_err(gx, numeric_grad(lambda v: float((ops.fully_connected_forward(v, w, b)[0] * tangent).sum()), x)) < 1e-8
        assert rel_err(gw, numeric_grad(lambda v: float((ops.fully_connected_forward(x, v, b)[0] * tangent).sum()), w)) < 1e-8
        assert rel_err(gb, numeric_grad(lambda v: float((ops.fully_connected_forward(x, w, v)[0] * tangent).sum()), b)) < 1e-8

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ops.fully_connected_forward(rand((2, 3), 0), rand((4, 5), 1), rand((5,), 2))
        with pytest.raises(ShapeError):
            ops.fully_connected_forward(rand((2, 3), 0), rand((3, 5), 1), rand((4,), 2))


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        x = rand((8, 3, 5, 5), 15, scale=3.0) + 2.0
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = np.zeros(3), np.ones(3)
        y, _ = ops.batch_norm_forward(x, gamma, beta, rm, rv, train=True)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-10
        assert rel_err(y.var(axis=(0, 2, 3)), np.ones(3)) < 1e-4

    def test_running_stats_update(self):
        x = rand((16, 2, 4, 4), 16) * 2 + 1
        rm, rv = np.zeros(2), np.ones(2)
        ops.batch_norm_forward(x, np.ones(2), np.zeros(2), rm, rv, train=True)
        m = 16 * 16
        want_rm = 0.1 * x.mean(axis=(0, 2, 3))
        want_rv = 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1)
        assert rel_err(rm, want_rm) < 1e-12
        assert rel_err(rv, want_rv) < 1e-12

    def test_eval_mode_uses_running_stats(self):
        x = rand((4, 2, 3, 3), 17)
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        y, ctx = ops.batch_norm_forward(x, np.ones(2), np.zeros(2), rm.copy(), rv.copy(), train=False)
        want = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        assert rel_err(y, want) < 1e-12
        assert ctx is None  # the backward pass is for the train-mode map

    def test_2d_input_supported(self):
        x = rand((10, 4), 18)
        y, _ = ops.batch_norm_forward(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), train=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-10

    def test_gradients_match_finite_differences(self):
        x = rand((5, 3, 2, 2), 19)
        gamma, beta = rand((3,), 20) + 2.0, rand((3,), 21)
        rm, rv = rand((3,), 22), np.abs(rand((3,), 23)) + 0.5
        tangent = rand((5, 3, 2, 2), 24)

        def loss(xv, gv, bv):
            y, _ = ops.batch_norm_forward(xv, gv, bv, rm.copy(), rv.copy(), train=True)
            return float((y * tangent).sum())

        _, ctx = ops.batch_norm_forward(x, gamma, beta, rm.copy(), rv.copy(), train=True)
        gx, ggamma, gbeta = ops.batch_norm_backward(ctx, tangent)
        assert rel_err(gx, numeric_grad(lambda v: loss(v, gamma, beta), x)) < 1e-6
        assert rel_err(ggamma, numeric_grad(lambda v: loss(x, v, beta), gamma)) < 1e-7
        assert rel_err(gbeta, numeric_grad(lambda v: loss(x, gamma, v), beta)) < 1e-7

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_eval_mode_allocates_only_its_output(self, lanes, monkeypatch):
        # More than one chunk, so the lanes run it; train mode also keeps xhat.
        monkeypatch.setattr(ops, "_lanes", lanes)
        x = rand((35, 16, 32, 32), 45, np.float32)
        ones, zeros = np.ones(16, np.float32), np.zeros(16, np.float32)
        tracemalloc.start()
        try:
            out = ops.batch_norm_forward(x, ones, zeros, zeros.copy(), ones.copy(), train=False)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float32
        assert peak < 1.1 * out.nbytes

    def test_param_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.batch_norm_forward(rand((2, 3, 4, 4), 0), np.ones(2), np.zeros(3), np.zeros(3), np.ones(3), True)

    def test_input_of_another_rank_rejected(self):
        ones, zeros = np.ones(3), np.zeros(3)
        with pytest.raises(ShapeError):
            ops.batch_norm_forward(rand((2, 3, 4), 0), ones, zeros, zeros.copy(), ones.copy(), True)
        _, ctx = ops.batch_norm_forward(rand((2, 3), 0), ones, zeros, zeros.copy(), ones.copy(), True)
        with pytest.raises(ShapeError):
            ops.batch_norm_backward(ctx, rand((2, 3, 1), 1))

    # The 2-D shapes run as [N,C,1,1] planes and take the split path at the
    # 1-byte budget. The last two shapes are one channel, which keeps the
    # whole-array sums, and larger than one default chunk.
    @pytest.mark.parametrize("shape", [(7, 5), (1, 3), (6, 4, 5, 3), (3, 8, 6, 6), (3, 1, 6, 6), (35, 16, 32, 32)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False])
    def test_bitwise_equal_to_np_var_reference(self, shape, dtype, train, monkeypatch):
        rng = np.random.default_rng(41)
        c = shape[1]
        for _ in range(5 if len(shape) == 2 or shape[0] < 35 else 1):
            x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
            gamma, beta = (rng.standard_normal(c) + 1).astype(dtype), rng.standard_normal(c).astype(dtype)
            rm, rv = rng.standard_normal(c).astype(dtype), (np.abs(rng.standard_normal(c)) + 0.5).astype(dtype)
            gout = rng.standard_normal(shape).astype(dtype)
            gout[rng.random(shape) < 0.2] = -0.0
            cases = [(x, gout)]
            if len(shape) == 4:
                # gout read-only and zero-strided, as global_avg_pool_backward
                # returns it; gout as a padded max-pool's backward returns it;
                # x and gout channels-last. The last two keep whole-array sums.
                padded = np.pad(gout, ((0, 0), (0, 0), (1, 1), (1, 1)))[:, :, 1:-1, 1:-1]
                last = [np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2) for a in (x, gout)]
                cases += [(x, ops.global_avg_pool_backward(shape, gout[:, :, 0, 0])), (x, padded), tuple(last)]
            for x, gout in cases:
                rm_want, rv_want = rm.copy(), rv.copy()
                want = (*batch_norm_reference(x, gamma, beta, rm_want, rv_want, train, gout), rm_want, rv_want)
                for lanes in LANE_COUNTS:
                    for chunk_bytes in CHUNK_BUDGETS:
                        monkeypatch.setattr(ops, "_lanes", lanes)
                        monkeypatch.setattr(ops, "CHUNK_BYTES", chunk_bytes)
                        rm_got, rv_got = rm.copy(), rv.copy()
                        y, ctx = ops.batch_norm_forward(x, gamma, beta, rm_got, rv_got, train)
                        grads = ops.batch_norm_backward(ctx, gout) if train else ()
                        got = (y, *grads, rm_got, rv_got)
                        for g, exp in zip(got, want, strict=True):
                            assert_same_bits(g, exp)


class TestMaxPool:
    def test_known_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = ops.max_pool2d_forward(x, k=2, stride=2)[0]
        assert np.array_equal(y[0, 0], np.array([[5, 7], [13, 15]], dtype=np.float32))

    def test_padding_uses_neutral_fill(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        y = ops.max_pool2d_forward(x, k=3, stride=2, pad=1)[0]
        # Padded cells must never win over real (negative) values.
        assert (y == -1).all()

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 3.0], [2.0, 0.0]]]])
        _, ctx = ops.max_pool2d_forward(x, k=2, stride=2)
        gx = ops.max_pool2d_backward(ctx, np.array([[[[5.0]]]]))
        assert np.array_equal(gx, np.array([[[[0.0, 5.0], [0.0, 0.0]]]]))

    def test_tie_routes_to_first_in_row_major_order(self):
        x = np.ones((1, 1, 2, 2))
        _, ctx = ops.max_pool2d_forward(x, k=2, stride=2)
        gx = ops.max_pool2d_backward(ctx, np.array([[[[1.0]]]]))
        assert np.array_equal(gx, np.array([[[[1.0, 0.0], [0.0, 0.0]]]]))

    def test_gradient_matches_finite_differences(self):
        # Distinct values keep the argmax stable under the fd perturbation.
        rng = np.random.default_rng(25)
        x = rng.permutation(6 * 6).reshape(1, 1, 6, 6).astype(np.float64)
        tangent = rand((1, 1, 3, 3), 26)
        _, ctx = ops.max_pool2d_forward(x, k=2, stride=2)
        gx = ops.max_pool2d_backward(ctx, tangent)
        want = numeric_grad(lambda v: float((ops.max_pool2d_forward(v, 2, 2)[0] * tangent).sum()), x, eps=1e-3)
        assert rel_err(gx, want) < 1e-9

    def test_overlapping_windows(self):
        x = rand((2, 3, 7, 7), 27)
        y, ctx = ops.max_pool2d_forward(x, k=3, stride=2, pad=1)
        assert y.shape == (2, 3, 4, 4)
        tangent = rand((2, 3, 4, 4), 28)
        gx = ops.max_pool2d_backward(ctx, tangent)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
        want_gx = np.zeros_like(xp)
        for i in range(4):
            for j in range(4):
                win = xp[:, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                assert rel_err(y[:, :, i, j], win.max(axis=(2, 3))) == 0
                first = win.reshape(2, 3, 9).argmax(axis=-1)
                for b in range(2):
                    for ch in range(3):
                        r, q = divmod(int(first[b, ch]), 3)
                        want_gx[b, ch, 2 * i + r, 2 * j + q] += tangent[b, ch, i, j]
        assert rel_err(gx, want_gx[:, :, 1:-1, 1:-1]) < 1e-15

    @pytest.mark.parametrize("k,stride,pad", POOL_CONFIGS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ties", [True, False])
    def test_bitwise_equal_to_scatter_add_reference(self, k, stride, pad, dtype, ties):
        # Integer-valued inputs tie inside windows; -0.0 inputs and gradients
        # pin the sign of zero in the output and in the summed gradient.
        rng = np.random.default_rng(42)
        for _ in range(10):
            shape = (2, 3, int(rng.integers(5, 12)), int(rng.integers(5, 12)))
            x = (rng.integers(-2, 3, size=shape) if ties else rng.standard_normal(shape)).astype(dtype)
            x[rng.random(shape) < 0.1] = -0.0
            y, ctx = ops.max_pool2d_forward(x, k, stride, pad)
            gout = rng.standard_normal(y.shape).astype(dtype)
            gout[rng.random(y.shape) < 0.2] = -0.0
            want_y, want_gx = max_pool2d_reference(x, k, stride, pad, gout)
            assert_same_bits(y, want_y)
            assert_same_bits(ops.max_pool2d_backward(ctx, gout), want_gx)


class TestGlobalAvgPool:
    def test_forward_is_spatial_mean(self):
        x = rand((3, 4, 5, 6), 28)
        y, _ = ops.global_avg_pool_forward(x)
        assert rel_err(y, x.mean(axis=(2, 3))) < 1e-15

    def test_gradient_matches_finite_differences(self):
        x = rand((2, 3, 4, 4), 29)
        tangent = rand((2, 3), 30)
        _, ctx = ops.global_avg_pool_forward(x)
        gx = ops.global_avg_pool_backward(ctx, tangent)
        want = numeric_grad(lambda v: float((ops.global_avg_pool_forward(v)[0] * tangent).sum()), x)
        assert rel_err(gx, want) < 1e-9


class TestSoftmaxCrossEntropy:
    def test_loss_matches_direct_formula(self):
        logits = rand((4, 5), 31)
        labels = np.array([0, 3, 2, 4])
        loss, _ = ops.softmax_cross_entropy(logits, labels)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = -np.log(p[np.arange(4), labels]).mean()
        assert abs(loss - want) < 1e-12

    def test_gradient_matches_finite_differences(self):
        logits = rand((3, 4), 32)
        labels = np.array([1, 0, 3])
        _, grad = ops.softmax_cross_entropy(logits, labels)
        want = numeric_grad(lambda v: ops.softmax_cross_entropy(v, labels)[0], logits)
        assert rel_err(grad, want) < 1e-8

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        loss, grad = ops.softmax_cross_entropy(logits, np.array([0, 0]))
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            ops.softmax_cross_entropy(rand((2, 3), 33), np.array([0, 3]))

    def test_grad_rows_sum_to_zero(self):
        logits = rand((5, 7), 34)
        _, grad = ops.softmax_cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert np.abs(grad.sum(axis=1)).max() < 1e-12
