#!/usr/bin/env python3
"""Benchmark of the binwidth workbench.

    python3 perfbench/run.py --workload search_mini --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from `src/`.
`--trace 0` measures the end-to-end metrics with no instrumentation;
`--trace 1` wraps the library's public functions and reports per-layer
metrics instead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed output check
makes the exit code 1. See perfbench/README.md for the workloads.
"""

import os
import sys

# BLAS threads are pinned before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_BUDGET_S = 2.0
WORK_DIR = ".perfbench_work"


def _import_library():
    """Import binwidth from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    try:
        import binwidth
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import binwidth from {SRC}: {e}")
    if os.path.dirname(os.path.dirname(os.path.abspath(binwidth.__file__))) != SRC:
        raise SystemExit(f"perfbench: binwidth was imported from {binwidth.__file__}, not {SRC}")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def _blas_threads():
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _setup(job, directory: str):
    """Set the job up several times (at least 3, more while they take under
    SETUP_BUDGET_S in all); returns (last inputs, median seconds). Set-up
    is interpreter-bound, so it is scaled by the "py" probe."""
    from speed import Meter
    from tracer import median

    meter = Meter()
    meter.sample()
    times = []
    while len(times) < 3 or (len(times) < 9 and sum(times) < SETUP_BUDGET_S):
        ticks = Meter()
        started = time.perf_counter()
        inputs = job.setup(os.path.join(directory, f"setup-{len(times)}"), ticks.sample)
        times.append(time.perf_counter() - started - ticks.total_s())
        meter.merge(ticks)
        meter.sample()
    return inputs, meter.scale("py") * median(times)


def _run(job, inputs, directory: str, tick):
    os.makedirs(directory)
    return job.run(inputs, directory, tick)


def untraced(args, checks, work: str) -> dict:
    """All three jobs, interleaved, back to back until `seconds` have passed.

    Every run reports every end-to-end metric, so the other two jobs run as
    references next to this workload's own job. Interleaving spreads each
    job's repeats over the whole window, and each job's times are scaled by
    the probe samples taken during its own runs. Set-up time and peak
    memory are this workload's own: peak memory is read after the first
    run of its job, before any reference job has run.
    """
    from jobs import JOBS
    from speed import Meter

    focus = JOBS[args.workload](args.seed)
    others = [cls(args.seed) for name, cls in JOBS.items() if name != args.workload]
    inputs = {}
    inputs[focus.name], setup_s = _setup(focus, os.path.join(work, focus.name))
    samples = {job.name: [] for job in [focus] + others}
    meters = {job.name: Meter() for job in [focus] + others}

    def run(job):
        directory = os.path.join(work, job.name, f"run-{len(samples[job.name])}")
        meter = meters[job.name]
        meter.sample()
        samples[job.name].append(_run(job, inputs[job.name], directory, meter.sample))
        meter.sample()

    started = time.perf_counter()
    run(focus)
    rss = peak_rss_mb()
    for job in others:
        inputs[job.name] = job.setup(os.path.join(work, job.name, "setup"))
    # Round robin over the three jobs, so each gets a third of the window
    # spread over all of it. Stop before a job that would end past the
    # window, once every job has run twice.
    last_s = {}
    schedule = others + [focus]
    turn = 0
    while True:
        job = schedule[turn % len(schedule)]
        enough = all(len(runs) >= 2 for runs in samples.values())
        if enough and time.perf_counter() - started + last_s.get(job.name, 0.0) > args.seconds:
            break
        began = time.perf_counter()
        run(job)
        last_s[job.name] = time.perf_counter() - began
        turn += 1

    metrics = {"setup_s": {"value": setup_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}

    for job in [focus] + others:
        runs = samples[job.name]
        job.check(inputs[job.name], runs[-1], checks)
        checks.expect(all(job.same_result(runs[0], s) for s in runs[1:]),
                      f"{job.name}: repeated runs of one seed disagree")
        scale = {kind: meters[job.name].scale(kind) for kind in ("py", "np", "mix")}
        metrics.update(job.metrics(runs, inputs[job.name], scale))
        print(f"{job.name}: {len(runs)} runs; machine at {1 / scale['py']:.2f}x (py) and {1 / scale['np']:.2f}x (np)"
              " the reference probe time" + (f"; {job.tail_note}" if hasattr(job, "tail_note") else ""))
    return metrics


def traced(args, checks, work: str) -> dict:
    from jobs import JOBS, TrainJob, search_ratios
    from speed import Meter
    from tracer import Tracer

    from binwidth import cost, templates

    job = JOBS[args.workload](args.seed)
    directory = os.path.join(work, args.workload)
    inputs = job.setup(os.path.join(directory, "setup-untraced"))
    # Both runs tick the probe, so the overhead compares times scaled to
    # the same machine speed; probe time is kept out of both.
    plain_meter, ticks = Meter(), Meter()
    plain_meter.sample()
    started = time.perf_counter()
    plain = _run(job, inputs, os.path.join(directory, "untraced"), ticks.sample)
    untraced_s = (time.perf_counter() - started - ticks.total_s()) * plain_meter.scale("mix")
    plain_meter.merge(ticks)

    # One set-up and one run are traced; per-layer totals cover both.
    tracer = Tracer()
    traced_meter, ticks = Meter(), Meter()
    with tracer.installed():
        with tracer.span("bench.setup"):
            inputs = job.setup(os.path.join(directory, "setup-traced"))
        traced_meter.sample()
        with tracer.span("bench.job"):
            sample = _run(job, inputs, os.path.join(directory, "traced"), ticks.sample)
    job_s = tracer.total_s["bench.job"] - ticks.total_s()
    traced_meter.merge(ticks)
    traced_s = job_s * traced_meter.scale("mix")
    job.check(inputs, sample, checks)
    checks.expect(job.same_result(plain, sample), f"{job.name}: traced and untraced runs disagree")

    out = tracer.metrics()
    out["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    out["bench.span_coverage_frac"] = tracer.children_total_s("bench.job") / tracer.total_s["bench.job"]
    loops = tracer.total_s.get("train.train_network", 0.0) + tracer.total_s.get("train.accuracy", 0.0)
    out["data.wait_frac"] = tracer.total_s.get("data.make_batches.wait", 0.0) / loops if loops else 0.0
    records = sample.get("records")
    if records is None and "directory" in sample:
        from binwidth import runner

        records = runner.read_search_log(os.path.join(sample["directory"], runner.LOG_NAME))
    out.update(search_ratios(records or []))
    out["ops.binary_vs_fp_ms_per_mac"] = 0.0
    out["train.eval_acc_pct"] = 0.0
    out["search.best_fitness"] = sample.get("best_fitness", 0.0)
    if isinstance(job, TrainJob):
        out["train.eval_acc_pct"] = sample["eval_acc"]
        layers = cost.count_cost(templates.get_template(job.template), job.code).layers
        ms = {kind: 0.0 for kind in (True, False)}
        macs = {kind: 0 for kind in (True, False)}
        for layer in layers:
            ms[layer.binarized] += out.get(f"net.{layer.name}.fwd_ms", 0.0)
            macs[layer.binarized] += layer.macs
        out["ops.binary_vs_fp_ms_per_mac"] = (ms[True] / macs[True]) / (ms[False] / macs[False])
    print(f"{job.name}: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    return out


def run_one(args) -> int:
    from jobs import Checks

    declared = declared_metrics()
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    checks = Checks()
    work = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    try:
        found = traced(args, checks, work) if args.trace else untraced(args, checks, work)
    except Exception:  # a job that raises is a failed check; the run still reports
        traceback.print_exc()
        checks.expect(False, f"{args.workload}: a job raised")
        found = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass
    if args.trace:
        # Per-layer values are plain numbers in the declared units; the
        # per-unit metrics of the other template's layers read 0.
        found["bench.failed_frac"] = len(checks.failures) / max(checks.attempted, 1)
        found = {name: {"value": found.get(name, 0.0 if name.startswith("net.") and found else None),
                        "unit": unit} for name, unit in ((e["name"], e["unit"]) for e in wanted)}
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = found.get(name)
        if not checks.expect(value is not None and value["value"] is not None and value["unit"] == entry["unit"],
                             f"{args.workload}: metric {name} was not measured in {entry['unit']}"):
            continue
        metrics[name] = {"value": value["value"], "unit": entry["unit"]}
        if not args.trace:
            print(f"{name:24s} {value['value']:14.4f} {entry['unit']}")
    if not args.trace:
        print(f"failed_frac              {len(checks.failures) / max(checks.attempted, 1):14.4f} failed/attempted")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failures, "attempted": max(checks.attempted, 1),
                      "failed": len(checks.failures), "metrics": metrics}))
    return 1 if checks.failures else 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up time and peak memory are its own."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for workload in declared_metrics()["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            correct, failed, attempted, code = False, failed + 1, attempted + 1, max(code, 1)
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        raise SystemExit(f"perfbench: no BENCHMARK.json in {ROOT}")
    _import_library()
    if args.workload == "all":
        return run_all(args)
    from jobs import JOBS

    if args.workload not in JOBS:
        parser.error(f"--workload must be one of {sorted(JOBS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
