"""The runnable studies in scripts/ still run against the library."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/focus_scan.py", "--focal-lengths", "40", "--steps", "45"],
    ["scripts/profile_sources_demo.py", "--strides", "5"],
], ids=["focus_scan", "profile_sources_demo"])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
