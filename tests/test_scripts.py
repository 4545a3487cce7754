"""The runnable studies in scripts/ and the README's examples still run
against the library."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["scripts/focus_scan.py", "--focal-lengths", "40", "--steps", "45"],
    ["scripts/profile_sources_demo.py", "--strides", "5"],
], ids=["focus_scan", "profile_sources_demo"])
def test_script_runs(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_run_scenarios_writes_every_pair_and_refuses_an_empty_directory(tmp_path):
    """Two shipped scenarios at two trials each give one CSV per
    precoder/quantizer pair plus each comparison; an empty directory exits 2."""
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for name in ("four_user_nolens.ini", "sector_edge_pair.ini"):
        text = (ROOT / "scenarios" / name).read_text()
        (scenarios / name).write_text(re.sub(r"(?m)^trials = .*$", "trials = 2", text))
    out = tmp_path / "out"
    proc = _run(["scripts/run_scenarios.py", "--scenario-dir", str(scenarios),
                 "--out-dir", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == {
        "four_user_nolens_zf_rvq.csv", "four_user_nolens_mrt_rvq.csv",
        "four_user_nolens_comparison.csv", "sector_edge_pair_zf_mvcq.csv",
        "sector_edge_pair_zf_rvq.csv", "sector_edge_pair_mrt_mvcq.csv",
        "sector_edge_pair_mrt_rvq.csv", "sector_edge_pair_comparison.csv"}
    assert "# trials = 2" in (out / "sector_edge_pair_comparison.csv").read_text()

    empty = tmp_path / "empty"
    empty.mkdir()
    proc = _run(["scripts/run_scenarios.py", "--scenario-dir", str(empty),
                 "--out-dir", str(tmp_path / "none")])
    assert proc.returncode == 2
    assert "no scenario files" in proc.stderr
    assert not (tmp_path / "none").exists()


def test_readme_python_blocks_run():
    """The README's Python blocks, run in order in one namespace as a reader
    would paste them, so an API change cannot leave them broken."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
