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


class TestBinarizeWeights:
    def test_scale_is_mean_absolute_value(self):
        w = np.array([0.5, -1.5, 0.25, -0.75])
        b = quant.binarize_weights(w)
        assert b.scale == pytest.approx(0.75, abs=0)
        assert np.array_equal(b.values, np.array([0.75, -0.75, 0.75, -0.75]))

    def test_all_zero_weights(self):
        b = quant.binarize_weights(np.zeros((3, 2)))
        assert b.scale == 0.0
        assert np.array_equal(b.values, np.zeros((3, 2)))

    def test_equal_positive_weights_are_fixed_point(self):
        w = np.full((4,), 0.3)
        assert np.array_equal(quant.binarize_weights(w).values, w)

    def test_zero_entries_take_positive_sign(self):
        b = quant.binarize_weights(np.array([0.0, -2.0]))
        assert np.array_equal(b.signs, np.array([1.0, -1.0]))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            quant.binarize_weights(np.zeros((0, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signs_are_built_in_the_weights_dtype(self, dtype):
        w = np.random.default_rng(4).standard_normal((1024, 1024)).astype(dtype)
        w[0, :3] = (0.0, -0.0, -np.inf)
        tracemalloc.start()
        try:
            signs = quant.binarize_weights(w).signs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert signs.dtype == dtype
        want = np.where(w < 0, -1.0, 1.0).astype(dtype)
        assert np.array_equal(signs.view(f"u{w.itemsize}"), want.view(f"u{w.itemsize}"))
        # The signs and the w < 0 mask; float64 signs cast down would need 3x.
        assert peak < 3 * w.nbytes

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_values_have_single_magnitude(self, w):
        b = quant.binarize_weights(w)
        assert b.scale == pytest.approx(np.abs(w).mean())
        assert set(np.unique(np.abs(b.values))) <= {b.scale}


class TestBinarizeActivations:
    def test_clip_then_round(self):
        q = quant.binarize_activations(np.array([-0.3, 0.2, 0.7, 1.4]))
        assert np.array_equal(q.values, np.array([0.0, 0.0, 1.0, 1.0]))

    def test_half_rounds_up(self):
        assert quant.binarize_activations(np.array([0.5])).values[0] == 1.0
        # floor(x + 0.5) rounds this float32 sum to 1 as well; x >= 0.5 would not.
        below = np.array([np.nextafter(np.float32(0.5), np.float32(0))], dtype=np.float32)
        assert quant.binarize_activations(below).values[0] == 1.0

    def test_idempotent_on_binary_values(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(quant.binarize_activations(x).values, x)

    def test_pass_mask_is_closed_unit_interval(self):
        x = np.array([-0.1, 0.0, 0.5, 1.0, 1.1])
        q = quant.binarize_activations(x)
        assert np.array_equal(q.pass_mask, np.array([False, True, True, True, False]))

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_outputs_binary(self, x):
        q = quant.binarize_activations(x)
        assert set(np.unique(q.values)) <= {0.0, 1.0}


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
        mask = quant.binarize_activations(x).pass_mask
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
    """binarize_activations and ste_activation_grad, at every lane count and
    chunk budget, bit for bit against the plain formulas."""

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
                q = quant.binarize_activations(x)
                assert q.values.dtype == dtype and np.array_equal(q.values.view(bits), values.view(bits))
                assert np.array_equal(q.pass_mask, mask)
                got = quant.ste_activation_grad(up, q.pass_mask)
                assert got.dtype == dtype and np.array_equal(got.view(bits), grad.view(bits))

    def test_a_zero_strided_upstream(self):
        x = np.array([[-1.0, 0.5], [0.25, 2.0]], dtype=np.float32)
        up = np.broadcast_to(np.array([[-0.0], [3.0]], dtype=np.float32), (2, 2))
        got = quant.ste_activation_grad(up, quant.binarize_activations(x).pass_mask)
        assert np.array_equal(got.view(np.uint32), np.array([[0.0, -0.0], [3.0, 0.0]], dtype=np.float32).view(np.uint32))


class TestBinaryConv:
    """The act1 -> conv2 units of a vgg_small_mini network, which training runs."""

    def test_forward_uses_quantized_operands(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 1.5, size=(2, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        got, _, _ = act_conv_pass(x, w, np.zeros((2, 4, 6, 6), dtype=np.float32))
        want = ops.conv2d(
            quant.binarize_activations(x).values,
            quant.binarize_weights(w).values,
            stride=1, pad=1,
        )
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
            quant.binarize_activations(x).values, quant.binarize_weights(w).values, 1, 1,
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
        assert rel_err(out, ops.conv2d(xc, w, 1, 1)) < 1e-12  # forwards agree
        _, sw = surrogate_conv_grads(x, w, tangent)
        assert rel_err(gw, sw) < 1e-6
