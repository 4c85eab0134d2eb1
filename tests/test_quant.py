"""1-bit quantizer semantics and straight-through gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binwidth import ops, quant
from binwidth.errors import InputError, ShapeError

from helpers import act_conv_pass, rel_err, surrogate_conv_grads

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
    elements=st.floats(-10, 10, allow_nan=False),
)


def signs_times_scale(w: np.ndarray) -> np.ndarray:
    """sign(w) as an array times mean|w| as a scalar, each in w's dtype: the
    two-part formula that binarize_weights must match bit for bit."""
    return np.where(w < 0, -1, 1).astype(w.dtype) * w.dtype.type(float(np.abs(w).mean()))


class TestBinarizeWeights:
    def test_scale_is_mean_absolute_value(self):
        w = np.array([0.5, -1.5, 0.25, -0.75])
        assert np.array_equal(quant.binarize_weights(w), np.array([0.75, -0.75, 0.75, -0.75]))

    def test_all_zero_weights(self):
        assert np.array_equal(quant.binarize_weights(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_equal_positive_weights_are_fixed_point(self):
        w = np.full((4,), 0.3)
        assert np.array_equal(quant.binarize_weights(w), w)

    def test_zero_entries_take_positive_sign(self):
        b = quant.binarize_weights(np.array([0.0, -0.0, -2.0]))
        assert np.array_equal(np.sign(b), np.array([1.0, 1.0, -1.0]))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            quant.binarize_weights(np.zeros((0, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head", [(0.0, -0.0, 1.5), (np.inf, -1.0), (-np.inf, 1.0), (np.nan, -1.0), (-np.nan, -2.0), None],
                             ids=["signed_zeros", "inf", "minus_inf", "nan", "minus_nan", "all_zero"])
    def test_bitwise_equal_to_signs_times_scale(self, dtype, head):
        w = np.random.default_rng(6).standard_normal((5, 7)).astype(dtype)
        if head is None:
            w[...] = np.where(np.arange(w.size).reshape(w.shape) % 2, 0.0, -0.0)
        else:
            w.flat[: len(head)] = head
        got = quant.binarize_weights(w)
        bits = f"u{w.itemsize}"
        assert got.dtype == dtype and np.array_equal(got.view(bits), signs_times_scale(w).view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_binarizes_in_the_weights_dtype(self, dtype):
        w = np.random.default_rng(4).standard_normal((1024, 1024)).astype(dtype)
        w[0, :3] = (0.0, -0.0, -np.inf)
        tracemalloc.start()
        try:
            b = quant.binarize_weights(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bits = f"u{w.itemsize}"
        assert b.dtype == dtype and np.array_equal(b.view(bits), signs_times_scale(w).view(bits))
        # The output and the w < 0 mask; signs and their product with the
        # scale, as two full-size arrays, would need 2x.
        assert peak < 1.5 * w.nbytes

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_values_have_single_magnitude(self, w):
        b = quant.binarize_weights(w)
        assert set(np.unique(np.abs(b))) <= {np.abs(w).mean()}


class TestBinarizeActivations:
    def test_clip_then_round(self):
        values, _ = quant.binarize_activations(np.array([-0.3, 0.2, 0.7, 1.4]))
        assert np.array_equal(values, np.array([0.0, 0.0, 1.0, 1.0]))

    def test_half_rounds_up(self):
        assert quant.binarize_activations(np.array([0.5]))[0][0] == 1.0
        # floor(x + 0.5) rounds this float32 sum to 1 as well; x >= 0.5 would not.
        below = np.array([np.nextafter(np.float32(0.5), np.float32(0))], dtype=np.float32)
        assert quant.binarize_activations(below)[0][0] == 1.0

    def test_idempotent_on_binary_values(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(quant.binarize_activations(x)[0], x)

    def test_pass_mask_is_closed_unit_interval(self):
        x = np.array([-0.1, 0.0, 0.5, 1.0, 1.1])
        _, pass_mask = quant.binarize_activations(x)
        assert np.array_equal(pass_mask, np.array([False, True, True, True, False]))

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_outputs_binary(self, x):
        values, pass_mask = quant.binarize_activations(x)
        assert set(np.unique(values)) <= {0.0, 1.0}
        assert pass_mask.dtype == np.bool_ and np.array_equal(pass_mask, (x >= 0) & (x <= 1))


class TestPassMaskAndOutput:
    """The pass mask is taken as (x >= 0) & (x <= 1) before the values are
    written, so that they may be written over x (checked on lanes below)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_mask_equals_clip_leaving_x_as_it_is(self, dtype):
        edges = [v for c in (0.0, 0.5, 1.0) for v in (np.nextafter(dtype(c), dtype(-1)), dtype(c), np.nextafter(dtype(c), dtype(2)))]
        x = np.array([*edges, -0.0, np.inf, -np.inf, np.nan, -np.nan, 3.0, -3.0], dtype=dtype)
        x = np.concatenate([x, np.random.default_rng(8).standard_normal(200).astype(dtype) * 0.7 + 0.5])
        assert np.array_equal(quant.binarize_activations(x)[1], np.clip(x, 0, 1) == x)

    @pytest.mark.parametrize("out", [np.zeros((2, 3), np.float64), np.zeros((3, 2), np.float32)], ids=["dtype", "shape"])
    def test_an_output_of_another_dtype_or_shape_is_rejected(self, out):
        with pytest.raises(ShapeError):
            quant.binarize_activations(np.zeros((2, 3), np.float32), out=out)


class TestSteGradients:
    def test_weight_ste_is_identity(self):
        up = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(quant.ste_weight_grad(up, np.zeros((2, 3))), up)

    def test_weight_ste_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            quant.ste_weight_grad(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_activation_ste_masks_outside_unit_interval(self):
        x = np.array([-0.5, 0.25, 2.0])
        up = np.array([1.0, 2.0, 3.0])
        _, mask = quant.binarize_activations(x)
        assert np.array_equal(quant.ste_activation_grad(up, mask), np.array([0.0, 2.0, 0.0]))

    @pytest.mark.parametrize("mask", [np.array([-0.5, 0.25, 2.0]), np.array([True, False])],
                             ids=["float_input_for_mask", "shape_mismatch"])
    def test_activation_ste_rejects_anything_but_a_matching_bool_mask(self, mask):
        # A float input would pass np.where as "nonzero is true" and leak
        # the gradient of every saturated entry.
        with pytest.raises(ShapeError):
            quant.ste_activation_grad(np.array([1.0, 2.0, 3.0]), mask)


# Edge values of the quantizer: nextafter(0.5, 0) + 0.5 rounds to 1, so it
# quantizes to 1 as 0.5 does, where a test x >= 0.5 would give 0.
EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, np.nextafter(np.float32(0.5), np.float32(0)),
               np.nextafter(0.5, 0.0), 1.0, np.nextafter(1.0, 2.0), -1e-30, 3.0]
# One sample per chunk, and the default budget.
CHUNK_BUDGETS = (1, ops.CHUNK_BYTES)


class TestActivationQuantizerOnLanes:
    """binarize_activations, also writing over its input, and
    ste_activation_grad, at every lane count and chunk budget, bit for bit
    against the plain formulas."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7, 5), (12, 3, 10, 10), (35, 16, 32, 32)])
    def test_bitwise_equal_to_the_plain_formulas(self, shape, dtype, monkeypatch):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(shape) * 0.7 + 0.5).astype(dtype)
        x.flat[: 2 * len(EDGE_VALUES) : 2] = EDGE_VALUES
        # The upstream gradient as a conv backward leaves it: a strided view.
        up = rng.standard_normal((*shape[:-1], shape[-1] + 2)).astype(dtype)[..., 1:-1]
        up.flat[: 2 * len(EDGE_VALUES)] = EDGE_VALUES * 2
        bits = f"u{np.dtype(dtype).itemsize}"
        values = np.floor(np.clip(x, 0.0, 1.0) + 0.5).astype(dtype)
        mask = (x >= 0.0) & (x <= 1.0)
        grad = np.where(mask, up, np.zeros((), dtype))
        for lanes in (1, 2, 3):
            for chunk_bytes in CHUNK_BUDGETS:
                monkeypatch.setattr(ops, "_lanes", lanes)
                monkeypatch.setattr(ops, "CHUNK_BYTES", chunk_bytes)
                got_values, got_mask = quant.binarize_activations(x)
                assert got_values.dtype == dtype and np.array_equal(got_values.view(bits), values.view(bits))
                assert np.array_equal(got_mask, mask)
                y = x.copy()
                over_y, over_y_mask = quant.binarize_activations(y, out=y)
                assert over_y is y and np.array_equal(y.view(bits), values.view(bits))
                assert np.array_equal(over_y_mask, mask)
                got = quant.ste_activation_grad(up, got_mask)
                assert got.dtype == dtype and np.array_equal(got.view(bits), grad.view(bits))

    def test_a_zero_strided_upstream(self):
        x = np.array([[-1.0, 0.5], [0.25, 2.0]], dtype=np.float32)
        up = np.broadcast_to(np.array([[-0.0], [3.0]], dtype=np.float32), (2, 2))
        got = quant.ste_activation_grad(up, quant.binarize_activations(x)[1])
        assert np.array_equal(got.view(np.uint32), np.array([[0.0, -0.0], [3.0, 0.0]], dtype=np.float32).view(np.uint32))


class TestBinaryConv:
    """The act1 -> conv2 units of a vgg_small_mini network, which training runs."""

    def test_forward_uses_quantized_operands(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 1.5, size=(2, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        got, _, _ = act_conv_pass(x, w, np.zeros((2, 4, 6, 6), dtype=np.float32))
        want = ops.conv2d_forward(
            quant.binarize_activations(x)[0], quant.binarize_weights(w), stride=1, pad=1,
        )[0]
        assert rel_err(got, want) == 0

    def test_backward_applies_both_ste_rules(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 1.5, size=(1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        tangent = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        _, gx, gw = act_conv_pass(x, w, tangent)
        # x-grad must vanish exactly where the activation left [0,1].
        assert np.all(gx[(x < 0) | (x > 1)] == 0)
        # w-grad equals the plain conv weight grad on quantized activations.
        _, plain_ctx = ops.conv2d_forward(
            quant.binarize_activations(x)[0], quant.binarize_weights(w), 1, 1,
        )
        _, gw_plain = ops.conv2d_backward(plain_ctx, tangent)
        assert rel_err(gw, gw_plain) == 0


class TestSteMatchesSurrogate:
    """The network's STE backward must agree with the exact gradient of a
    surrogate network evaluated where quantization is locally exact:
    weights at +-c (sign*mean|w| is the identity there; dyadic c keeps
    it exact in float32) and activations at clip fixed points for the
    weight-path check."""

    def test_activation_gradient_path(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.05, 0.95, size=(2, 4, 6, 6)).astype(np.float32)  # strictly inside (0,1)
        c = 0.75
        w = (c * np.where(rng.standard_normal((4, 4, 3, 3)) < 0, -1.0, 1.0)).astype(np.float32)
        tangent = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        _, gx, _ = act_conv_pass(x, w, tangent)
        sx, _ = surrogate_conv_grads(x, w, tangent)
        assert rel_err(gx, sx) < 1e-6

    def test_weight_gradient_path(self):
        rng = np.random.default_rng(3)
        # Outside (0,1) the quantized forward equals the clipped forward,
        # so the two weight gradients see identical activations.
        x = np.where(rng.random((2, 4, 6, 6)) < 0.5,
                     rng.uniform(-1.0, -0.05, size=(2, 4, 6, 6)),
                     rng.uniform(1.05, 2.0, size=(2, 4, 6, 6))).astype(np.float32)
        c = 0.375
        w = (c * np.where(rng.standard_normal((4, 4, 3, 3)) < 0, -1.0, 1.0)).astype(np.float32)
        tangent = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        out, _, gw = act_conv_pass(x, w, tangent)
        xc = np.clip(x, 0.0, 1.0)
        assert rel_err(out, ops.conv2d_forward(xc, w, 1, 1)[0]) < 1e-12  # forwards agree
        _, sw = surrogate_conv_grads(x, w, tangent)
        assert rel_err(gw, sw) < 1e-6
