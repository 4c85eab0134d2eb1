"""Kernel correctness: forward against loop oracles, backward against
finite differences, conv, max-pool and batch norm bit for bit against
their straightforward references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binwidth import ops
from binwidth.errors import InputError, ShapeError

from helpers import (
    batch_norm_reference, conv2d_loops, conv2d_reference, max_pool2d_reference, numeric_grad, rel_err,
)

POOL_CONFIGS = [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0), (3, 3, 0), (3, 2, 0)]


def rand(shape, seed, dtype=np.float64, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(dtype)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.uint32 if got.dtype == np.float32 else np.uint64
    assert np.array_equal(np.ascontiguousarray(got).view(uint), np.ascontiguousarray(want).view(uint))


class TestConvForward:
    def test_matches_loop_reference_bitwise_on_integer_grid(self):
        # Integer-valued inputs keep every partial sum exact in float32,
        # so any summation order gives the same bits.
        rng = np.random.default_rng(0)
        x = rng.integers(-4, 5, size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.integers(-4, 5, size=(5, 3, 3, 3)).astype(np.float32)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            fast = ops.conv2d(x, w, stride, pad)
            slow = conv2d_loops(x, w, stride, pad)
            assert fast.shape == slow.shape
            assert np.array_equal(fast, slow)

    def test_matches_loop_reference_float(self):
        x = rand((2, 4, 10, 7), 1)
        w = rand((6, 4, 5, 3), 2)
        got = ops.conv2d(x, w, stride=2, pad=2)
        want = conv2d_loops(x, w, stride=2, pad=2)
        assert rel_err(got, want) < 1e-12

    def test_output_size_floor_division(self):
        # 224 -> 112 with k=7, s=2, p=3 requires floor semantics.
        x = np.zeros((1, 1, 224, 224), dtype=np.float32)
        w = np.zeros((2, 1, 7, 7), dtype=np.float32)
        assert ops.conv2d(x, w, stride=2, pad=3).shape == (1, 2, 112, 112)

    def test_1x1_conv_is_channel_mix(self):
        x = rand((2, 3, 4, 4), 3)
        w = rand((5, 3, 1, 1), 4)
        got = ops.conv2d(x, w)
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        assert rel_err(got, want) < 1e-12

    def test_kernel_larger_than_input_rejected(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d(x, w)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.conv2d(np.zeros((1, 3, 8, 8), dtype=np.float32), np.zeros((2, 4, 3, 3), dtype=np.float32))

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
        out = ops.conv2d(x, kern, stride, pad)
        assert out.shape == (n, cout, (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1)


class TestConvBackward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_match_finite_differences(self, stride, pad):
        x = rand((2, 2, 6, 5), 5)
        w = rand((3, 2, 3, 3), 6)
        tangent = rand((2, 3, (6 + 2 * pad - 3) // stride + 1, (5 + 2 * pad - 3) // stride + 1), 7)

        def loss_x(xv):
            return float((ops.conv2d(xv, w, stride, pad) * tangent).sum())

        def loss_w(wv):
            return float((ops.conv2d(x, wv, stride, pad) * tangent).sum())

        _, ctx = ops.conv2d_forward(x, w, stride, pad)
        gx, gw = ops.conv2d_backward(ctx, tangent)
        assert rel_err(gx, numeric_grad(loss_x, x)) < 1e-7
        assert rel_err(gw, numeric_grad(loss_w, w)) < 1e-7


def chunk_boundary_sizes(sample_bytes):
    """Batch sizes 1 and below, at and above conv2d's first and second chunk boundaries."""
    step = max(1, ops.CONV_CHUNK_BYTES // sample_bytes)
    return sorted({1, step - 1, step, step + 1, 2 * step + 1} - {0})


# (cin, cout, k, size, stride, pad, batch sizes); None picks them at the
# chunk boundaries. The last case is a 1x1 conv from one channel to one,
# whose [N,1,1] weight partials numpy sums pairwise, not one after
# another; 64x64 inputs put chunk boundaries below N=130 in both dtypes.
CONV_BITWISE_CASES = [pytest.param(8, 6, 3, 16, stride, pad, None, id=f"3x3-stride{stride}-pad{pad}")
                      for stride in (1, 2) for pad in (0, 1, 2)]
CONV_BITWISE_CASES.append(pytest.param(1, 1, 1, 64, 1, 0, (9, 130, 200), id="1x1-single-weight"))


class TestConv:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,cout,k,size,stride,pad,sizes", CONV_BITWISE_CASES)
    def test_bitwise_equal_to_whole_batch_reference(self, dtype, cin, cout, k, size, stride, pad, sizes):
        hout = (size + 2 * pad - k) // stride + 1
        rng = np.random.default_rng(stride * 10 + pad)
        w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
        for n in sizes or chunk_boundary_sizes(cin * k * k * hout * hout * np.dtype(dtype).itemsize):
            x = rng.standard_normal((n, cin, size, size)).astype(dtype)
            out, ctx = ops.conv2d_forward(x, w, stride, pad)
            gout = rng.standard_normal(out.shape).astype(dtype)
            want = conv2d_reference(x, w, stride, pad, gout)
            for got, exp in zip((out, *ops.conv2d_backward(ctx, gout)), want):
                assert_same_bits(got, exp)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_batch(self, dtype):
        w = np.ones((3, 2, 3, 3), dtype=dtype)
        out, ctx = ops.conv2d_forward(np.ones((0, 2, 5, 5), dtype=dtype), w, 1, 1)
        gx, gw = ops.conv2d_backward(ctx, np.ones(out.shape, dtype=dtype))
        assert out.shape == (0, 3, 5, 5) and gx.shape == (0, 2, 5, 5)
        assert_same_bits(gw, np.zeros(w.shape, dtype=dtype))


class TestFullyConnected:
    def test_forward_is_affine(self):
        x, w, b = rand((4, 6), 8), rand((6, 3), 9), rand((3,), 10)
        assert rel_err(ops.fully_connected(x, w, b), x @ w + b) == 0

    def test_gradients_match_finite_differences(self):
        x, w, b = rand((3, 5), 11), rand((5, 4), 12), rand((4,), 13)
        tangent = rand((3, 4), 14)
        _, ctx = ops.fully_connected_forward(x, w, b)
        gx, gw, gb = ops.fully_connected_backward(ctx, tangent)
        assert rel_err(gx, numeric_grad(lambda v: float((ops.fully_connected(v, w, b) * tangent).sum()), x)) < 1e-8
        assert rel_err(gw, numeric_grad(lambda v: float((ops.fully_connected(x, v, b) * tangent).sum()), w)) < 1e-8
        assert rel_err(gb, numeric_grad(lambda v: float((ops.fully_connected(x, w, v) * tangent).sum()), b)) < 1e-8

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ops.fully_connected(rand((2, 3), 0), rand((4, 5), 1), rand((5,), 2))
        with pytest.raises(ShapeError):
            ops.fully_connected(rand((2, 3), 0), rand((3, 5), 1), rand((4,), 2))


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
        y, _ = ops.batch_norm_forward(x, np.ones(2), np.zeros(2), rm.copy(), rv.copy(), train=False)
        want = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        assert rel_err(y, want) < 1e-12

    def test_2d_input_supported(self):
        x = rand((10, 4), 18)
        y, _ = ops.batch_norm_forward(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), train=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-10

    @pytest.mark.parametrize("train", [True, False])
    def test_gradients_match_finite_differences(self, train):
        x = rand((5, 3, 2, 2), 19)
        gamma, beta = rand((3,), 20) + 2.0, rand((3,), 21)
        rm, rv = rand((3,), 22), np.abs(rand((3,), 23)) + 0.5
        tangent = rand((5, 3, 2, 2), 24)

        def loss(xv, gv, bv):
            y, _ = ops.batch_norm_forward(xv, gv, bv, rm.copy(), rv.copy(), train=train)
            return float((y * tangent).sum())

        _, ctx = ops.batch_norm_forward(x, gamma, beta, rm.copy(), rv.copy(), train=train)
        gx, ggamma, gbeta = ops.batch_norm_backward(ctx, tangent)
        assert rel_err(gx, numeric_grad(lambda v: loss(v, gamma, beta), x)) < 1e-6
        assert rel_err(ggamma, numeric_grad(lambda v: loss(x, v, beta), gamma)) < 1e-7
        assert rel_err(gbeta, numeric_grad(lambda v: loss(x, gamma, v), beta)) < 1e-7

    def test_param_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.batch_norm_forward(rand((2, 3, 4, 4), 0), np.ones(2), np.zeros(3), np.zeros(3), np.ones(3), True)

    @pytest.mark.parametrize("shape", [(7, 5), (1, 3), (6, 4, 5, 3), (3, 8, 6, 6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False])
    def test_bitwise_equal_to_np_var_reference(self, shape, dtype, train):
        rng = np.random.default_rng(41)
        c = shape[1]
        for _ in range(5):
            x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
            gamma, beta = (rng.standard_normal(c) + 1).astype(dtype), rng.standard_normal(c).astype(dtype)
            rm, rv = rng.standard_normal(c).astype(dtype), (np.abs(rng.standard_normal(c)) + 0.5).astype(dtype)
            gout = rng.standard_normal(shape).astype(dtype)
            gout[rng.random(shape) < 0.2] = -0.0
            rm_want, rv_want = rm.copy(), rv.copy()
            want = batch_norm_reference(x, gamma, beta, rm_want, rv_want, train, gout)
            y, ctx = ops.batch_norm_forward(x, gamma, beta, rm, rv, train)
            for got, exp in zip((y, *ops.batch_norm_backward(ctx, gout), rm, rv), (*want, rm_want, rv_want)):
                assert_same_bits(got, exp)


class TestMaxPool:
    def test_known_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = ops.max_pool2d(x, k=2, stride=2)
        assert np.array_equal(y[0, 0], np.array([[5, 7], [13, 15]], dtype=np.float32))

    def test_padding_uses_neutral_fill(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        y = ops.max_pool2d(x, k=3, stride=2, pad=1)
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
        want = numeric_grad(lambda v: float((ops.max_pool2d(v, 2, 2) * tangent).sum()), x, eps=1e-3)
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
