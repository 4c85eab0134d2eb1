"""CSV summaries of searches and codes.

Three tables: per-generation fitness progress, per-layer channel counts
of a code against the uniform baselines, and a FLOPs/speedup table for
the code and the standard reference points.
"""

from __future__ import annotations

import csv
import io
import os

from .checkpoint import atomic_write_text
from .cost import count_cost
from .runner import BEST_CODE_NAME, LOG_NAME, read_search_log
from .search import SearchLogRecord
from .space import layer_geometry, ratio_list, read_code_file, uniform_code
from .templates import NetworkTemplate, get_template

UNIFORM_BASELINES = (1.0, 2.0, 3.0, 4.0)


def fitness_csv(records: list[SearchLogRecord]) -> str:
    """One row per generation: evaluation count, best-ever, generation mean."""
    by_gen: dict[int, list[SearchLogRecord]] = {}
    for rec in records:
        by_gen.setdefault(rec.generation, []).append(rec)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["generation", "evaluations", "best_fitness", "mean_fitness", "best_acc"])
    best_ever = float("-inf")
    best_acc = 0.0
    for gen in sorted(by_gen):
        rows = by_gen[gen]
        gen_best = max(rows, key=lambda r: r.fitness)
        if gen_best.fitness > best_ever:
            best_ever = gen_best.fitness
            best_acc = gen_best.acc
        mean = sum(r.fitness for r in rows) / len(rows)
        writer.writerow([gen, len(rows), f"{best_ever:.6f}", f"{mean:.6f}", f"{best_acc:.4f}"])
    return out.getvalue()


def channels_csv(template: NetworkTemplate, code) -> str:
    """Out-channel count per weighted layer, code vs uniform baselines."""
    columns = [layer_geometry(template, code)]
    for ratio in UNIFORM_BASELINES:
        columns.append(layer_geometry(template, uniform_code(ratio, template.n_genes)))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["layer", "kind", "searched"] + [f"uniform_{int(r)}x" for r in UNIFORM_BASELINES])
    for row in zip(*columns):
        spec = row[0].spec
        if spec.kind not in ("conv", "fc"):
            continue
        writer.writerow([spec.name, spec.kind] + [g.out_ch for g in row])
    return out.getvalue()


def flops_csv(template: NetworkTemplate, code) -> str:
    """Cost rows: full-precision 1x, binary uniforms, and the given code."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["label", "code", "binary", "flops", "flops_norm", "speedup", "weight_bits"])
    rows = [("full_precision_1x", uniform_code(1, template.n_genes), False)]
    rows += [(f"uniform_{int(r)}x", uniform_code(r, template.n_genes), True) for r in UNIFORM_BASELINES]
    rows.append(("searched", tuple(code), True))
    for label, c, binary in rows:
        report = count_cost(template, c, binary=binary)
        writer.writerow([
            label, " ".join(map(str, ratio_list(c))), int(binary),
            f"{report.flops:.1f}", f"{report.flops_norm:.6f}", f"{report.speedup:.4f}", report.weight_bits,
        ])
    return out.getvalue()


def write_run_report(run_dir: str, out_dir: str | None = None) -> dict[str, str]:
    """Emit fitness.csv, channels.csv, flops.csv for a finished search run."""
    out_dir = out_dir or run_dir
    template_name, code = read_code_file(os.path.join(run_dir, BEST_CODE_NAME))
    template = get_template(template_name)
    records = read_search_log(os.path.join(run_dir, LOG_NAME))
    paths = {
        "fitness": os.path.join(out_dir, "fitness.csv"),
        "channels": os.path.join(out_dir, "channels.csv"),
        "flops": os.path.join(out_dir, "flops.csv"),
    }
    atomic_write_text(paths["fitness"], fitness_csv(records))
    atomic_write_text(paths["channels"], channels_csv(template, code))
    atomic_write_text(paths["flops"], flops_csv(template, code))
    return paths
