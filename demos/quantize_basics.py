"""
Weight and activation binarization, step by step
================================================

Shows what the two quantizers do to small hand-picked vectors and how
the straight-through estimator routes gradients around them.
"""

import numpy as np

from binwidth import ops, quant

# Weights collapse to sign(w) times one shared scale, the mean absolute
# value. The tensor keeps its shape; only two distinct magnitudes remain.
w = np.array([0.5, -1.5, 0.25, -0.75])
print("weights in:     ", w)
print("scale (mean|w|):", np.abs(w).mean())
print("weights out:    ", quant.binarize_weights(w))

# Activations clip to [0,1] and round to {0,1}. 0.5 rounds up.
x = np.array([-0.3, 0.2, 0.5, 0.7, 1.4])
qx, pass_mask = quant.binarize_activations(x)
print()
print("activations in: ", x)
print("activations out:", qx)
print("pass mask:      ", pass_mask.astype(int))

# The backward story. For weights the estimator is the identity: the
# upstream gradient flows through untouched.
upstream_w = np.array([1.0, 2.0, 3.0, 4.0])
print()
print("weight grad:    ", quant.ste_weight_grad(upstream_w, w))

# For activations the gradient is masked to the clip window by the
# forward pass's pass mask, so the saturated entries (-0.3 and 1.4 above)
# receive nothing.
upstream_x = np.ones_like(x)
print("activation grad:", quant.ste_activation_grad(upstream_x, pass_mask))

# A binary convolution quantizes both operands before the dot products,
# so the output is built from {0,1} x {-s,+s} terms only. In a network
# an activation unit and a binarized conv unit do this in sequence.
rng = np.random.default_rng(0)
images = rng.uniform(0, 1, size=(1, 2, 5, 5))
kernels = rng.standard_normal((3, 2, 3, 3)) * 0.2
qimages, images_mask = quant.binarize_activations(images)
qkernels = quant.binarize_weights(kernels)
out, ctx = ops.conv2d_forward(qimages, qkernels)
print()
print("binary conv output shape:", out.shape)
print("first few distinct output values:", np.unique(np.round(out, 4))[:5])

# Backward: the conv gradients flow through the two estimators, the
# identity for the weights and the clip-window mask for the activations.
gq, gw_b = ops.conv2d_backward(ctx, np.ones_like(out))
gx = quant.ste_activation_grad(gq, images_mask)
gw = quant.ste_weight_grad(gw_b, kernels)
print("grad shapes:", gx.shape, gw.shape)

# Inputs already at {0,1} pass the activation quantizer unchanged, so
# the binary conv equals a float conv on the binarized weights.
hard = (images > 0.5).astype(np.float64)
plain = ops.conv2d_forward(hard, qkernels)[0]
print()
print("matches float conv on hard inputs:",
      np.allclose(ops.conv2d_forward(quant.binarize_activations(hard)[0], qkernels)[0], plain))
