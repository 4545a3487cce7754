"""lensmimo benchmark: drives ``lensmimo.cli.main(argv)`` in-process, as a user runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports lensmimo from ``src/`` there
and works in ``.bench_work/``, which it removes on exit. The workloads and
why each was chosen are described in ``workloads.py``. Operations pass no
``--threads``, so the Monte Carlo runs at the CLI default (the CPU count).

Set-up: a fresh interpreter imports lensmimo and writes the workload's
inputs and warm cache, SETUP_REPEATS times; ``setup_s`` is the median.
Then one warm-up operation of each kind runs untimed.

``--trace 0`` runs whole cycles of operations until their summed time
reaches ``--seconds`` and prints the end-to-end metrics:

- wall_s: median wall time of one cycle (optics_sweep: 12 operations, every
  focal length and command once; Monte-Carlo workloads: 4 seeds).
- op_s.p50: median wall time of one ``cli.main`` call.
- op_s.tail: the highest percentile with at least 10 calls beyond it; its
  percentile and sample count are printed on the line before the result.
- work_per_s: work delivered per second of operation time. On the
  Monte-Carlo workloads the work is (SNR, trial) cells (``cells_per_s``);
  on optics_sweep it is angle profiles from the lens-profile sweeps
  (``profiles_per_s``), per second of those sweeps.
- peak_rss_mb: this process's peak resident memory.

``--trace 1`` runs every operation untraced, then with every public lensmimo
function wrapped (see ``tracer.py``), and on the Monte-Carlo workloads also
with ``--threads 1`` as the plain single-threaded reference, until the
untraced calls have taken a share of ``--seconds``. Per-layer metrics are
per traced operation; ``trace.overhead_ratio`` is traced time over untraced
time of the same operations, minus one.

Every operation's output is checked (see ``workloads.py``); a non-zero exit,
an exception or a failed check counts as a failed operation, as does an
output whose bytes differ between the traced, untraced and single-threaded
runs of one seed. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import srcpath

ROOT = srcpath.use_checkout_source()

import lensmimo  # noqa: E402  (the checkout's source, put on the path above)

srcpath.check_imported(lensmimo)

from tracer import LAYERS, Tracer, WarningCounter  # noqa: E402
from workloads import WORKLOADS, CheckFailed, cli, out_dir  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# (name, unit, better, bound): kept equal to BENCHMARK.json by the tests.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("op_s.tail", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

TIMED = (
    "waveoptics.propagate", "waveoptics.antenna_power_profile",
    "profile_cache.build_profile_table", "profile_cache.write_profile_table",
    "profile_cache.read_profile_table",
    "feedback.fit_gaussian_model", "feedback.sub_bpm_profile",
    "feedback.generate_rvq", "feedback.correlate_codebook",
    "feedback.generate_mvcq", "feedback.quantize",
    "channel.correlation_matrix", "channel.matrix_sqrt",
    "channel.draw_channel", "channel.apply_lens",
    "linklevel.run_monte_carlo", "linklevel.zf_precoder",
    "linklevel.mrt_precoder", "linklevel.received_sinr",
    "linklevel.build_scenario_profiles", "linklevel.render_csv",
    "cli.parse_config",
)

# (name, unit, better), all from the traced run.
PER_LAYER = (
    *((f"{fn}.{part}", unit, "lower") for fn in TIMED
      for part, unit in (("calls", "count/op"), ("s", "s/op"), ("self_s", "s/op"))),
    ("cli.main.self_s", "s/op", "lower"),
    ("cli.bytes_written", "B/op", "lower"),
    ("waveoptics.plane_steps", "count/op", "lower"),
    ("waveoptics.antenna_power_profile.unique_ratio", "ratio", "higher"),
    ("profile_cache.bytes_written", "B/op", "lower"),
    ("profile_cache.bytes_read", "B/op", "lower"),
    ("feedback.codewords_scored", "count/op", "lower"),
    ("feedback.correlate_codebook.unique_ratio", "ratio", "higher"),
    ("linklevel.cells", "count/op", "higher"),
    ("linklevel.threads", "count", "lower"),
    ("linklevel.worker_busy_ratio", "ratio", "higher"),
    ("linklevel.parse_quantizer.calls", "count/op", "lower"),
    ("linklevel.parse_quantizer.calls_per_cell", "ratio", "lower"),
    *((f"warnings.{m}", "count/op", "lower") for m in LAYERS),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("ref.default.op_s.p50", "s", "lower"),
    ("ref.threads1.op_s.p50", "s", "lower"),
    ("ref.threads1.cells_per_s", "1/s", "higher"),
)


@dataclass
class Record:
    """The outcome of one operation."""

    label: str
    work: int
    seconds: float
    sha256: str
    error: str
    bytes_written: int
    warnings: Counter
    trace: object = None

    @property
    def ok(self) -> bool:
        return not self.error


def run_op(op, work: Path, tracer=None) -> Record:
    """Time one cli.main call, then check what it wrote."""
    out = out_dir(work)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stderr = io.StringIO()
    error, rc = "", None
    with WarningCounter() as warned, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:   # a traceback is a failed op
            error = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
    trace = tracer.take() if tracer is not None else None
    sha = ""
    if not error and rc != 0:
        error = f"exit code {rc}: {stderr.getvalue().strip()}"
    if not error:
        try:
            sha = op.check(out)
        except Exception as exc:                 # any unreadable output fails
            error = f"check failed: {exc!r}"
    written = sum(p.stat().st_size for p in out.iterdir())
    return Record(op.label, op.work, seconds, sha, error, written,
                  warned.counts, trace)


def measure(wl, seed: int, work: Path, budget_s: float):
    """Run whole cycles of ops until their summed time reaches budget_s."""
    records, cycle_s = [], []
    for cycle in wl.cycles(seed, work):
        done = [run_op(op, work) for op in cycle]
        records += done
        cycle_s.append(sum(r.seconds for r in done))
        if sum(r.seconds for r in records) >= budget_s:
            return records, cycle_s


def run_setup(name: str, work: Path) -> list[float]:
    """Time SETUP_REPEATS fresh-interpreter set-ups; the last one's files stay."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "prepare.py"), name,
                               str(work)], capture_output=True, text=True,
                              timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up of {name} failed:\n{proc.stderr}")
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and which."""
    s = sorted(times)
    i = len(s) - 1 - TAIL_BEYOND
    if i < 0:       # too few samples for any percentile below the maximum
        i = len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def per_second(records) -> float:
    done = [r for r in records if r.work]
    busy = sum(r.seconds for r in done)
    return sum(r.work for r in done) / busy if busy else 0.0


def layer_metrics(records) -> dict[str, float]:
    """Per-op averages of the traced operations' spans and counters."""
    n = max(1, len(records))
    calls, secs, self_s, counts, distinct = (Counter() for _ in range(5))
    busy = capacity = 0.0
    warned, written = Counter(), 0
    for r in records:
        t = r.trace
        calls.update(t.calls)
        secs.update(t.seconds)
        self_s.update(t.self_seconds)
        counts.update({k: v for k, v in t.counts.items() if k != "linklevel.threads"})
        counts["linklevel.threads"] = max(counts["linklevel.threads"],
                                          t.counts["linklevel.threads"])
        distinct.update(t.distinct)
        busy += t.worker_busy_s
        capacity += t.worker_capacity_s
        warned.update(r.warnings)
        written += r.bytes_written
    out = {}
    for fn in TIMED:
        out[f"{fn}.calls"] = calls[fn] / n
        out[f"{fn}.s"] = secs[fn] / n
        out[f"{fn}.self_s"] = self_s[fn] / n
    out["cli.main.self_s"] = self_s["cli.main"] / n
    out["cli.bytes_written"] = written / n
    for name in ("waveoptics.plane_steps", "profile_cache.bytes_written",
                 "profile_cache.bytes_read", "feedback.codewords_scored",
                 "linklevel.cells"):
        out[name] = counts[name] / n
    for fn in ("waveoptics.antenna_power_profile", "feedback.correlate_codebook"):
        out[f"{fn}.unique_ratio"] = distinct[fn] / calls[fn] if calls[fn] else 0.0
    out["linklevel.threads"] = counts["linklevel.threads"]
    out["linklevel.worker_busy_ratio"] = busy / capacity if capacity else 0.0
    out["linklevel.parse_quantizer.calls"] = calls["linklevel.parse_quantizer"] / n
    cells = counts["linklevel.cells"]
    out["linklevel.parse_quantizer.calls_per_cell"] = (
        calls["linklevel.parse_quantizer"] / cells if cells else 0.0)
    for m in LAYERS:
        out[f"warnings.{m}"] = warned[m] / n
    return out


def blas_threads() -> str:
    """OpenBLAS's own thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    return str(getattr(dll, sym)())
    except OSError:
        pass
    return "unknown"


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    try:
        threads = cli._build_parser().parse_args(
            ["simulate", "--config", "x"]).threads
    except (AttributeError, SystemExit):
        threads = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "default_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "git_revision": git_revision(root),
    }


def report_ops(phase: str, records) -> None:
    for i, r in enumerate(records):
        status = "ok" if r.ok else f"FAILED {r.error}"
        print(f"op {phase}{i} {r.label} {r.seconds:.6f}s sha256={r.sha256} {status}")


def mark_mismatches(ref, other, what: str) -> None:
    """Fail every op whose output differs from the same op in ref."""
    for a, b in zip(ref, other):
        if a.ok and b.ok and a.sha256 != b.sha256:
            b.error = f"{what} output differs from the untraced run"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        setup = run_setup(wl.name, work)
        try:
            wl.check_setup(work)
        except CheckFailed as exc:
            sys.exit(f"perfbench: set-up of {wl.name} wrote a bad input: {exc}")
        print(f"env {json.dumps(environment(ROOT))}")
        print(f"setup_s runs {[round(t, 6) for t in setup]}")
        warm = [run_op(op, work) for op in wl.warmup(work)]
        report_ops("warmup", warm)
        if args.trace == 0:
            metrics, records = untraced(wl, args, work, setup)
        else:
            metrics, records = traced(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    records = warm + records
    failed = sum(not r.ok for r in records)
    units = {name: unit for name, unit, *_ in (END_TO_END if args.trace == 0
                                                else PER_LAYER)}
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"failed_ops_ratio = {failed / len(records)!r} "
          f"({failed} of {len(records)} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def untraced(wl, args, work: Path, setup: list[float]):
    records, cycle_s = measure(wl, args.seed, work, budget_s=args.seconds)
    report_ops("", records)
    times = [r.seconds for r in records]
    tail_s, pct = tail(times)
    rate = per_second(records)
    print(f"op_s.tail is p{pct:.1f} of {len(times)} ops; "
          f"{wl.unit}_per_s = {rate!r}; {len(cycle_s)} cycles")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(cycle_s),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "work_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, records


def traced(wl, args, work: Path):
    """Run each op untraced, traced and (Monte Carlo) at --threads 1, in turn.

    The variants of one op run back to back, in an order that rotates from
    op to op, so drift in machine speed and the cost of going first fall on
    every variant alike.
    """
    tracer = Tracer(lensmimo)
    variants = [("untraced", None, ()), ("traced", tracer, ())]
    if wl.unit == "cells":
        variants.append(("threads1", None, ("--threads", "1")))
    runs = {name: [] for name, _, _ in variants}
    ops = (op for cycle in wl.cycles(args.seed, work) for op in cycle)
    for i, op in enumerate(ops):
        k = i % len(variants)
        for name, tr, extra in variants[k:] + variants[:k]:
            with tr or contextlib.nullcontext():
                runs[name].append(run_op(replace(op, argv=op.argv + extra), work, tr))
        if sum(r.seconds for r in runs["untraced"]) >= args.seconds / len(variants):
            break
    plain, spanned, single = (runs.get(n, []) for n in ("untraced", "traced", "threads1"))
    mark_mismatches(plain, spanned, "traced")
    mark_mismatches(plain, single, "--threads 1")
    for name, recs in runs.items():
        report_ops(name, recs)
    metrics = layer_metrics(spanned)
    base = sum(r.seconds for r in plain)
    metrics["trace.ops"] = len(spanned)
    metrics["trace.overhead_ratio"] = sum(r.seconds for r in spanned) / base - 1.0
    print(f"trace.overhead_ratio base: {base!r} s untraced over {len(plain)} ops")
    metrics["ref.default.op_s.p50"] = statistics.median(r.seconds for r in plain)
    metrics["ref.threads1.op_s.p50"] = (
        statistics.median(r.seconds for r in single) if single else 0.0)
    metrics["ref.threads1.cells_per_s"] = per_second(single) if single else 0.0
    return metrics, plain + spanned + single


if __name__ == "__main__":
    sys.exit(main())
