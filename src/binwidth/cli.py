"""Command line interface.

Verbs: flops, search, train, eval, inherit, report, synth. Exit codes:
0 success, 2 bad input or configuration, 3 bad file format, 4 training
divergence, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .checkpoint import atomic_write_text, read_checkpoint, write_checkpoint, inherit_weights
from .config import load_run_config
from .cost import count_cost
from .errors import BinwidthError, ConfigError, DivergenceError, FormatError, InputError, ShapeError
from .net import instantiate
from .report import write_run_report
from .runner import check_fits, run_search, run_train
from .space import read_code_file, uniform_code
from .synth import write_gray_files, write_rgb_files
from .templates import get_template
from .train import accuracy


def _resolve_code(args, template):
    """The code of --code FILE or of --uniform R; exactly one must be given,
    and the parser refuses both."""
    if args.uniform is not None:
        return uniform_code(args.uniform, template.n_genes)
    if args.code is None:
        raise InputError("give either --code FILE or --uniform RATIO")
    name, code = read_code_file(args.code)
    if name != template.name:
        raise InputError(f"code file is for template '{name}', not '{template.name}'")
    return code


def _cmd_flops(args) -> int:
    template = get_template(args.template)
    code = _resolve_code(args, template)
    report = count_cost(template, code, binary=not args.full_precision)
    mode = "full-precision" if args.full_precision else "binary"
    print(f"template       {template.name} ({mode})")
    print(f"code           {' '.join(str(r) for r in report.code)}")
    print(f"flops          {report.flops:,.1f}")
    print(f"flops_norm     {report.flops_norm:.4f}")
    print(f"speedup        {report.speedup:.2f}x")
    print(f"weight_bits    {report.weight_bits:,}")
    header = "template,code,binary,flops,flops_norm,speedup,weight_bits"
    row = (f"{template.name},{'|'.join(str(r) for r in report.code)},{int(not args.full_precision)},"
           f"{report.flops:.1f},{report.flops_norm:.6f},{report.speedup:.4f},{report.weight_bits}")
    print(f"csv {header}")
    print(f"csv {row}")
    if args.out:
        atomic_write_text(args.out, f"{header}\n{row}\n")
    return 0


def _cmd_search(args) -> int:
    cfg = load_run_config(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, search=dataclasses.replace(cfg.search, master_seed=args.seed))
    summary = run_search(cfg, echo=print)
    print(f"run directory: {cfg.output_dir}")
    print(f"best fitness:  {summary['best_fitness']:.4f}")
    print(f"best code:     {' '.join(str(r) for r in summary['best_code'])}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    template = get_template(cfg.template)
    code = _resolve_code(args, template)
    train_cfg = cfg.full_train
    if args.epochs is not None:
        train_cfg = dataclasses.replace(train_cfg, epochs=args.epochs)
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    supernet = read_checkpoint(args.inherit) if args.inherit else None
    train_set = cfg.dataset.load("train")
    test_set = cfg.dataset.load("test") if cfg.dataset.has_test() else None
    out_path = os.path.join(args.out or cfg.output_dir, "model.ckpt")
    result = run_train(cfg.template, code, train_set, train_cfg, test_set=test_set,
                       supernet=supernet, out_path=out_path)
    print(f"checkpoint:  {out_path}")
    print(f"train top-1: {result['train_acc']:.2f}%")
    if result["test_acc"] is not None:
        print(f"test top-1:  {result['test_acc']:.2f}%")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    ckpt = read_checkpoint(args.ckpt)
    template = get_template(ckpt.template)
    dataset = cfg.dataset.load(args.split)
    check_fits(template, dataset)
    net = instantiate(template, ckpt.code, seed=ckpt.seed)
    net.load_state_dict(ckpt.arrays)
    acc = accuracy(net, dataset)
    print(f"{args.split} top-1: {acc:.2f}%")
    return 0


def _cmd_inherit(args) -> int:
    supernet = read_checkpoint(args.supernet)
    template = get_template(supernet.template)
    code = _resolve_code(args, template)
    sliced = inherit_weights(supernet, template, code)
    write_checkpoint(args.out, sliced)
    total = sum(arr.size for arr in sliced.arrays.values())
    print(f"wrote {args.out}: {len(sliced.arrays)} arrays, {total:,} values")
    return 0


def _cmd_report(args) -> int:
    paths = write_run_report(args.run, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_synth(args) -> int:
    write = write_gray_files if args.kind == "idx" else write_rgb_files
    paths = write(args.dir, args.train_per_class, args.test_per_class, args.seed)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _add_code_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--code", help="code file (JSON with template and ratios)")
    group.add_argument("--uniform", type=float, help="uniform expansion ratio")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="binwidth", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("flops", help="cost report for a template and code")
    p.add_argument("--template", required=True)
    _add_code_args(p)
    p.add_argument("--full-precision", action="store_true",
                   help="price every layer at full precision (default: binarized layers at 1/64)")
    p.add_argument("--out", help="also write the CSV row to this file")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("search", help="run or resume an evolutionary search")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the configured output directory")
    p.add_argument("--seed", type=int, help="override the configured master seed")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("train", help="train one code on the configured dataset")
    p.add_argument("--config", required=True)
    _add_code_args(p)
    p.add_argument("--inherit", help="initialize from this 4x supernet checkpoint")
    p.add_argument("--epochs", type=int, help="override configured full_train epochs")
    p.add_argument("--seed", type=int, help="override configured training seed")
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the configured dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inherit", help="slice a 4x supernet checkpoint to a code")
    p.add_argument("--supernet", required=True)
    _add_code_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inherit)

    p = sub.add_parser("report", help="emit CSV tables for a finished run")
    p.add_argument("--run", required=True, help="run directory with log and best code")
    p.add_argument("--out", help="directory for the CSVs (default: run dir)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="write a synthetic dataset in a real format")
    p.add_argument("--kind", choices=("idx", "records"), required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--train-per-class", type=int, default=100)
    p.add_argument("--test-per-class", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    return parser


_EXIT_CODES = (
    (ConfigError, "config error", 2),
    (InputError, "input error", 2),
    (FormatError, "format error", 3),
    (ShapeError, "shape error", 3),
    (DivergenceError, "divergence", 4),
    (BinwidthError, "error", 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BinwidthError as e:
        for kind, label, rc in _EXIT_CODES:
            if isinstance(e, kind):
                print(f"{label}: {e}", file=sys.stderr)
                return rc
        raise AssertionError("unreachable")
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
