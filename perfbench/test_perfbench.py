"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys

import pytest

import srcpath

ROOT = srcpath.use_checkout_source()

import lensmimo  # noqa: E402
from lensmimo import waveoptics  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, WarningCounter  # noqa: E402


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bindings() -> dict:
    spaces = [lensmimo] + [getattr(lensmimo, m) for m in LAYERS]
    return {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()
            if inspect.isfunction(v)}


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner(spec):
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in run.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in run.PER_LAYER]


def test_printed_metrics_match_benchmark_json(spec):
    e2e = _bench("--workload", "optics_sweep", "--seed", "5", "--seconds", "1",
                 "--trace", "0")
    assert e2e["correct"] and e2e["failed"] == 0
    assert list(e2e["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in e2e["metrics"].values())

    layers = _bench("--workload", "mc_four_user", "--seed", "5", "--seconds", "1",
                    "--trace", "1")
    assert layers["correct"] and layers["failed"] == 0
    assert list(layers["metrics"]) == [m["name"] for m in spec["per_layer"]]
    got = {k: v["value"] for k, v in layers["metrics"].items()}
    assert got["waveoptics.propagate.calls"] == 0
    assert got["linklevel.run_monte_carlo.calls"] == 1
    assert got["profile_cache.bytes_read"] > 0


def _first_ops(name: str, work):
    wl = workloads.WORKLOADS[name]
    wl.prepare(work)
    return next(wl.cycles(11, work))


@pytest.mark.parametrize("name", ["optics_sweep", "mc_four_user"])
def test_traced_run_restores_bindings_and_writes_identical_bytes(name, tmp_path):
    ops = _first_ops(name, tmp_path)[:3]
    before = _bindings()
    plain = [run.run_op(op, tmp_path) for op in ops]
    with Tracer(lensmimo) as tracer:
        assert waveoptics.propagate is not before[("lensmimo.waveoptics", "propagate")]
        spanned = [run.run_op(op, tmp_path, tracer) for op in ops]
    assert _bindings() == before
    for a, b in zip(plain, spanned):
        assert a.ok and b.ok, (a.error, b.error)
        assert a.sha256 == b.sha256
    calls = sum(r.trace.calls["linklevel.run_monte_carlo"] for r in spanned)
    assert calls == (0 if name == "optics_sweep" else len(ops))


def test_bindings_are_restored_when_an_op_raises(tmp_path):
    before = _bindings()
    with pytest.raises(lensmimo.ConfigError):
        with Tracer(lensmimo):
            lensmimo.cli.parse_config(str(tmp_path / "missing.ini"))
    assert _bindings() == before


def test_warnings_are_counted_by_raising_module():
    with WarningCounter() as warned:
        waveoptics.antenna_power_profile(waveoptics.LensSpec(),
                                         waveoptics.PropagationGrid(),
                                         waveoptics.ArraySpec(), 0.0, stride=3)
    assert warned.counts == {"waveoptics": 1}


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "optics_sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
