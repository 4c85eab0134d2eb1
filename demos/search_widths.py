"""
Searching channel widths with the evolutionary loop
===================================================

Runs a miniature width search end to end: synthetic data, short proxy
training for every candidate, and the accuracy-minus-cost fitness that
steers the population. Takes a minute or two on one core.
"""

import numpy as np

from binwidth import (
    Dataset,
    SearchConfig,
    TrainConfig,
    count_cost,
    evolve,
    get_template,
    make_proxy_evaluator,
    space,
    synth,
)

# Proxy data: small stratified splits are enough to rank candidates.
images, labels = synth.synth_gray_images(per_class=60, seed=0)
images = images.astype(np.float32) / 255.0
proxy_train = Dataset(images[:500], labels[:500], class_count=10, split="train")
proxy_val = Dataset(images[500:], labels[500:], class_count=10, split="val")

tmpl = get_template("vgg_small_mini")
config = SearchConfig(
    population_size=6,
    generations=3,
    lambda_=4.0,
    proxy_epochs=1,
    elitism_count=2,
    master_seed=7,
)

# Every evaluation is logged; collecting the records here is exactly
# what the run directory's search_log.jsonl captures.
records = []
evaluator = make_proxy_evaluator(tmpl, proxy_train, proxy_val, config,
                                 TrainConfig(epochs=config.proxy_epochs))
best, _ = evolve(tmpl, config, evaluator, log_sink=records.append)

print(f"{'gen':>3s} {'idx':>3s}  {'code':24s} {'acc':>6s} {'norm':>6s} {'fitness':>8s}")
for rec in records:
    code_str = ",".join(str(r) for r in rec.code)
    print(f"{rec.generation:3d} {rec.index:3d}  {code_str:24s}"
          f" {rec.acc:6.1f} {rec.flops_norm:6.2f} {rec.fitness:8.2f}")

print()
print("best code:   ", best.code)
print("best fitness:", round(best.fitness, 2))
print("channels:    ")
for name, (c_in, c_out) in space.resolve_channels(tmpl, best.code).items():
    print(f"  {name:8s} {c_in:4d} -> {c_out}")

# Generation 0 seeds two anchors, the all-1 and all-4 uniform codes, so
# the log always brackets the cost range.
print()
print("anchor 0:", records[0].code, " norm", records[0].flops_norm)
print("anchor 1:", records[1].code, " norm", round(records[1].flops_norm, 2))

# The winner's price tag, next to the uniform baselines.
rep = count_cost(tmpl, best.code)
base = count_cost(tmpl, space.uniform_code(1.0, tmpl.n_genes))
print()
print(f"searched code: {rep.flops / 1e6:6.2f} MFLOPs ({rep.flops_norm:.2f}x the 1x net)")
print(f"uniform 1x:    {base.flops / 1e6:6.2f} MFLOPs")
