"""
Training a small binary network on synthetic digits
===================================================

Builds the mini VGG template at uniform width, trains it for a few
epochs on procedurally generated glyphs, and watches the loss fall.
Runs in under a minute on one core.
"""

import numpy as np

from binwidth import Dataset, TrainConfig, instantiate, get_template, quant, space, synth, train

# A deterministic stand-in for a real digit set: ten glyph classes
# rendered as 28x28 grayscale with jitter and noise. Labels arrive
# shuffled, so prefix slices keep all ten classes.
images, labels = synth.synth_gray_images(per_class=100, seed=0)
images = images.astype(np.float32) / 255.0
train_set = Dataset(images[:800], labels[:800], class_count=10, split="train")
val_set = Dataset(images[800:], labels[800:], class_count=10, split="val")
print("train:", train_set.images.shape, " val:", val_set.images.shape)

tmpl = get_template("vgg_small_mini")
code = space.uniform_code(1.0, tmpl.n_genes)
net = instantiate(tmpl, code, seed=1)
print("parameters:", net.param_count())

config = TrainConfig(
    epochs=5,
    batch_size=64,
    weight_decay=1e-4,
    schedule=train.LrSchedule(base_lr=0.02),
    seed=1,
)
losses = train.train_network(net, train_set, config)
for epoch, loss in enumerate(losses):
    print(f"epoch {epoch}: mean loss {loss:.3f}")

print(f"train acc: {train.accuracy(net, train_set):.1f}%")
print(f"val acc:   {train.accuracy(net, val_set):.1f}%")

# The binarized middle layers really are binary: after quantization a
# hidden conv weight tensor carries exactly two values.
print("conv2 quantized values:", np.unique(quant.binarize_weights(net.params["conv2.weight"])))
