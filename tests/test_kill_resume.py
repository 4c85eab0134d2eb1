"""A search killed at any point it writes resumes to the uninterrupted run.

Each run is a `binwidth search` through `cli.main` in a child process
that kills its own process group with SIGKILL at one chosen point:
during the supernet's training, just before one of the atomic writer's
renames, after one search-log line, or at a seeded random time. The next
child resumes the run to its end, which must equal the uninterrupted run
file for file, with no temp file left.
"""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from binwidth import runner, synth

pytestmark = pytest.mark.skipif(not hasattr(os, "killpg") or not hasattr(os, "sched_setaffinity"),
                                reason="needs POSIX process groups and CPU affinity")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# argv: kind, n, root, binwidth args. kind "train" kills at the supernet's
# n-th SGD step, "replace" at the atomic writer's n-th rename, "log" after
# the n-th search-log line, "time" after n seconds, "none" never. Every
# file opened for writing, made, moved or removed must lie under root.
CHILD = textwrap.dedent("""
    import os, signal, sys, threading

    kind, n, root = sys.argv[1], float(sys.argv[2]), os.path.realpath(sys.argv[3])
    WRITES = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC
    PATH = (str, bytes, os.PathLike)

    def confine(event, args):
        if event == "open" and isinstance(args[0], PATH):
            mode, flags = args[1], args[2]
            paths = [args[0]] if (flags & WRITES if mode is None else set(mode) & set("wax+")) else []
        elif event in ("os.rename", "os.remove", "os.mkdir", "os.rmdir"):
            paths = [a for a in args[:2] if isinstance(a, PATH)]
        else:
            return
        for path in paths:
            path = os.path.realpath(os.fsdecode(path))
            if os.path.commonpath([root, path]) != root:
                raise RuntimeError(f"{event} outside the test's directory: {path}")

    sys.addaudithook(confine)
    # One CPU: the search evaluates serially, so the run is this one process.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from binwidth import cli, runner, train

    seen = 0

    def tick(event):
        global seen
        if event == kind:
            seen += 1
            if seen == n:
                os.killpg(0, signal.SIGKILL)

    def replace(src, dst, *, _replace=os.replace):
        tick("replace")
        _replace(src, dst)

    def train_supernet(*args, _train=runner.train_network, _step=train.sgd_step):
        def step(*a):
            tick("train")
            return _step(*a)
        train.sgd_step = step
        try:
            return _train(*args)
        finally:
            train.sgd_step = _step

    def echo(*args):
        print(*args)
        if str(args[0]).startswith("gen "):
            tick("log")

    os.replace, runner.train_network, cli.print = replace, train_supernet, echo
    if kind == "time":
        timer = threading.Timer(n, os.killpg, (0, signal.SIGKILL))
        timer.daemon = True  # a run that ends first is not held back
        timer.start()
    sys.exit(cli.main(sys.argv[4:]))
""")


def run_child(tmp_path, out, kind="none", n=0):
    """Run the search into out in a new process group; return its exit code
    once no process of that group is left."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1", "TMPDIR": str(tmp_path)}
    with subprocess.Popen(
        [sys.executable, "-c", CHILD, kind, str(n), str(tmp_path),
         "search", "--config", str(tmp_path / "run.json"), "--out", str(out)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        _, stderr = proc.communicate(timeout=60)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert proc.returncode in (0, -signal.SIGKILL), stderr
    return proc.returncode


def run_files(out):
    """The run directory's files by name: the log's records with their wall
    times zeroed, and every other file's sha256."""
    files = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in os.listdir(out)}
    log = (out / runner.LOG_NAME).read_bytes()
    files[runner.LOG_NAME] = [json.loads(line) | {"wall_time": 0.0} for line in log.splitlines()]
    return files


def test_a_search_killed_at_every_write_resumes_to_the_same_run(tmp_path):
    paths = synth.write_gray_files(str(tmp_path / "data"), train_per_class=3, test_per_class=1, seed=0)
    config = {
        "template": "vgg_small_mini",
        "dataset": {"kind": "idx", **paths, "proxy_train_per_class": 2, "proxy_val_per_class": 1},
        "search": {"population_size": 3, "generations": 2, "proxy_epochs": 1, "elitism_count": 1,
                   "master_seed": 11},
        "proxy_train": {"batch_size": 10},
        "full_train": {"epochs": 1, "batch_size": 10, "augment": False},
        "supernet_init": True,
        "output_dir": str(tmp_path / "unused"),
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    started = time.monotonic()
    assert run_child(tmp_path, tmp_path / "whole") == 0
    whole_s = time.monotonic() - started
    want = run_files(tmp_path / "whole")
    assert set(want) == {runner.LOG_NAME, runner.BEST_CODE_NAME, runner.SUMMARY_NAME, runner.SUPERNET_NAME}
    assert len(want[runner.LOG_NAME]) == 3 + 2

    # The supernet takes two steps, and the writer renames the supernet,
    # the best code and the summary.
    rng = random.Random(7)
    kills = ([("train", 2), ("replace", 1), ("replace", 2), ("replace", 3)]
             + [("log", i) for i in range(1, 6)]
             + [("time", round(rng.uniform(0.1, whole_s), 3)) for _ in range(3)])
    for kind, n in kills:
        out = tmp_path / f"{kind}-{n}"
        code = run_child(tmp_path, out, kind, n)
        assert code == -signal.SIGKILL or kind == "time", (kind, n)
        assert run_child(tmp_path, out) == 0
        got = run_files(out)
        assert sorted(got) == sorted(want), (kind, n)  # no temp file is left
        assert got == want, (kind, n)
