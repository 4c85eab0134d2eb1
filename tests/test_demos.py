"""Every demo runs to completion against the current API, warning-clean,
and leaves no temp files behind."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # a demo's temp files land where the test can see them
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    # -W error, as the test suite runs: a warning fails the demo, and a demo prints nothing on stderr.
    done = subprocess.run([sys.executable, "-W", "error", os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert not list(tmp_path.glob("binwidth_demo_*")), "the demo left its temp directory behind"
