"""The benchmark's workloads: inputs made from a seed, CLI operations, checks.

Every operation is one ``lensmimo.cli.main(argv)`` call writing into a single
output directory, which the runner empties before the call. Each operation
carries a check that reads what the call wrote, raises ``CheckFailed`` if any
of it is wrong, and returns a SHA-256 over the files' names and bytes, so two
versions of the program can show byte-identical outputs.

Why these workloads:

- optics_sweep: ``lens-profile`` (121-angle sweep written to a cache),
  ``fit-gaussian`` (13 anchors and the fit) and ``bpm-field`` (one
  propagation history) at focal lengths 20/30/40/50 wavelengths. Wave
  optics, cache writes and the Gaussian fit do all the work; the Monte Carlo
  is idle, so a Monte-Carlo optimisation must read "no change" here.
- mc_four_user: ``simulate`` on four_user_downlink (K=4, zf and mrt, mvcq and
  rvq, 5 SNR points) at reduced trials, reading a profile cache built in
  set-up (``--no-build``). Channel, feedback and link level do the work and
  no propagation runs; five SNR points and two precoders exercise ZF and
  sharing across SNR.
- mc_profile_sources: ``simulate`` on profile_sources (K=5, zf only, four
  quantizers over three profile sources, one SNR point), building its
  profiles afresh in every call. Many quantizers share one codebook product,
  sharing across SNR has nothing to share, and the duplicated profile
  building path runs on every call.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from lensmimo import cli
from lensmimo.profile_cache import read_profile_table

from srcpath import ROOT

FOCAL_LENGTHS = (20.0, 30.0, 40.0, 50.0)
SWEEP_DEG = -30.0 + 0.5 * np.arange(121)      # lens-profile's default sweep
ANCHORS_DEG = np.arange(-30.0, 30.0 + 1e-9, 5.0)  # fit-gaussian's anchors
NUM_ANTENNAS = 64
OPS_PER_MC_CYCLE = 4


class CheckFailed(Exception):
    """An operation's output is missing, malformed or physically wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the work units it delivers, its output check."""

    label: str
    argv: tuple[str, ...]
    work: int
    check: Callable[[Path], str]


def out_dir(work: Path) -> Path:
    return work / "out"


def digest(out: Path) -> str:
    """SHA-256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _only_file(out: Path, pattern: str) -> Path:
    files = sorted(out.iterdir())
    if len(files) != 1 or not files[0].match(pattern):
        raise CheckFailed(f"expected one file {pattern}, found "
                          f"{[p.name for p in files]}")
    return files[0]


def _split(path: Path) -> tuple[dict[str, str], list[str]]:
    """Header '# key = value' lines as a dict, and the remaining lines."""
    header, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
        elif line:
            rows.append(line)
    return header, rows


def _floats(tokens) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise CheckFailed(f"unparsable number: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise CheckFailed("non-finite value in output")
    return vals


def check_profile_table(out: Path, focal: float) -> str:
    """Cache rows finite, nonnegative, summing to M; re-read through its hash."""
    path = _only_file(out, "profiles_*.csv")
    table = read_profile_table(path)     # raises if the header hash is wrong
    if table.params["f"] != focal:
        raise CheckFailed(f"cache built for f={table.params['f']}, not {focal}")
    prof = table.profiles
    if prof.shape != (SWEEP_DEG.size, NUM_ANTENNAS):
        raise CheckFailed(f"cache has shape {prof.shape}")
    if not np.allclose(table.aods_deg, SWEEP_DEG, rtol=0, atol=1e-12):
        raise CheckFailed("cache angles differ from the default sweep")
    if not np.all(np.isfinite(prof)) or np.any(prof < 0):
        raise CheckFailed("profile rows must be finite and nonnegative")
    if not np.allclose(prof.sum(axis=1), NUM_ANTENNAS, rtol=1e-9, atol=0):
        raise CheckFailed(f"profile rows must sum to M={NUM_ANTENNAS}")
    return digest(out)


def check_fit(out: Path, focal: float) -> str:
    """One row per anchor with finite, positive spot parameters."""
    header, rows = _split(_only_file(out, "gaussian_fit_*.csv"))
    if float(header.get("f", "nan")) != focal:
        raise CheckFailed(f"fit header names f={header.get('f')}, not {focal}")
    if rows[:1] != ["theta_deg,p,q,r,residual_rms,poor_fit"]:
        raise CheckFailed("fit table header is wrong")
    table = [r.split(",") for r in rows[1:]]
    if len(table) != ANCHORS_DEG.size or any(len(r) != 6 for r in table):
        raise CheckFailed("fit table must have one 6-column row per anchor")
    theta, p, q, r, resid = (_floats(col) for col in list(zip(*table))[:5])
    if not np.allclose(theta, ANCHORS_DEG, rtol=0, atol=1e-12):
        raise CheckFailed("fit anchors differ from -30..30 deg in 5 deg steps")
    if np.any(p <= 0) or np.any(r <= 0) or np.any(resid < 0):
        raise CheckFailed("fit amplitudes and widths must be positive")
    if any(row[5] not in ("True", "False") for row in table):
        raise CheckFailed("poor_fit must be True or False")
    return digest(out)


def check_field(out: Path, focal: float, aod: float) -> str:
    """A finite, nonnegative intensity history of the size its header states."""
    header, rows = _split(_only_file(out, "field_*.csv"))
    try:
        n_rows = int(header["rows_transverse"])
        n_cols = int(header["cols_axial"])
        peak_z = float(header["peak_distance"])
        gain = float(header["peak_gain_per_cell"])
        ok = (float(header["focal_length"]) == focal
              and float(header["aod_deg"]) == aod)
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"field header is incomplete: {exc}") from exc
    if not ok:
        raise CheckFailed("field header names another focal length or angle")
    if n_cols != math.ceil(1.5 * focal) + 1 or len(rows) != n_rows:
        raise CheckFailed(f"field is {len(rows)} x {n_cols}, expected "
                          f"{n_rows} x {math.ceil(1.5 * focal) + 1}")
    vals = _floats(",".join(rows).split(","))
    if vals.size != n_rows * n_cols or np.any(vals < 0):
        raise CheckFailed("field intensities must be nonnegative, one per cell")
    if not (math.isfinite(gain) and gain > 0 and 0 <= peak_z <= n_cols - 1):
        raise CheckFailed(f"focal peak z={peak_z}, gain={gain} is implausible")
    return digest(out)


@dataclass(frozen=True)
class Expected:
    """What a simulate call must write, read from its scenario file."""

    name: str
    precoders: tuple[str, ...]
    quantizers: tuple[str, ...]
    snr_db: tuple[float, ...]
    trials: int


def _tokens(raw: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in raw.replace(";", ",").split(",") if t.strip())


def _read_ini(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(path.read_text())
    return cp


def expected_outputs(ini: Path) -> Expected:
    cp = _read_ini(ini)
    return Expected(
        name=cp.get("scenario", "name", fallback=ini.stem),
        precoders=_tokens(cp.get("scenario", "precoders", fallback="zf")),
        quantizers=_tokens(cp.get("scenario", "quantizers", fallback="mvcq")),
        snr_db=tuple(float(t) for t in _tokens(cp.get("simulation", "snr_db"))),
        trials=cp.getint("simulation", "trials"))


def check_simulate(out: Path, exp: Expected) -> str:
    """Every curve present and finite, the comparison consistent, mvcq > rvq."""
    names = {p.name: p for p in out.iterdir()}
    curves = {(p, q): f"{exp.name}_{p}_{q.replace(':', '_')}.csv"
              for p in exp.precoders for q in exp.quantizers}
    cmp_name = f"{exp.name}_comparison.csv"
    if sorted(names) != sorted([*curves.values(), cmp_name]):
        raise CheckFailed(f"simulate wrote {sorted(names)}")
    means: dict[tuple[str, str], list[str]] = {}
    for combo, fname in curves.items():
        _, rows = _split(names[fname])
        if rows[:1] != ["snr_db,mean_sum_rate,stderr,trials"]:
            raise CheckFailed(f"{fname}: wrong column header")
        table = [r.split(",") for r in rows[1:]]
        if len(table) != len(exp.snr_db) or any(len(r) != 4 for r in table):
            raise CheckFailed(f"{fname}: expected one 4-column row per SNR")
        snr, mean, err, trials = (_floats(col) for col in zip(*table))
        if tuple(snr) != exp.snr_db or np.any(trials != exp.trials):
            raise CheckFailed(f"{fname}: SNR grid or trial count differs")
        if np.any(mean <= 0) or np.any(err < 0):
            raise CheckFailed(f"{fname}: sum rates must be positive")
        means[combo] = [row[1] for row in table]
    _, rows = _split(names[cmp_name])
    cols = [f"{p}_{q.replace(':', '_')}" for p, q in curves]
    if rows[:1] != [",".join(["snr_db", *cols])] or len(rows) != len(exp.snr_db) + 1:
        raise CheckFailed("comparison table has the wrong shape")
    for i, row in enumerate(rows[1:]):
        if row.split(",")[1:] != [means[c][i] for c in curves]:
            raise CheckFailed(f"comparison row {i} disagrees with the curves")
    for prec in exp.precoders:
        shaped = _floats(means[(prec, "mvcq")])
        plain = _floats(means[(prec, "rvq")])
        if not np.all(shaped > plain):
            raise CheckFailed(f"{prec}: mvcq does not beat rvq at every SNR")
    return digest(out)


def run_cli(argv) -> int:
    """cli.main with its stdout kept out of the benchmark's own."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class OpticsSweep:
    name = "optics_sweep"
    unit = "profiles"

    def prepare(self, work: Path) -> None:
        for f in FOCAL_LENGTHS:
            (work / f"focal{f:g}.ini").write_text(f"[lens]\nfocal_length = {f:g}\n")

    def _op(self, work: Path, cmd: str, focal: float, aod: float = 0.0) -> Op:
        argv = (cmd, "--config", str(work / f"focal{focal:g}.ini"),
                "--out-dir", str(out_dir(work)))
        if cmd == "lens-profile":
            return Op(f"{cmd} f={focal:g}", argv, SWEEP_DEG.size,
                      functools.partial(check_profile_table, focal=focal))
        if cmd == "fit-gaussian":
            return Op(f"{cmd} f={focal:g}", argv, 0,
                      functools.partial(check_fit, focal=focal))
        return Op(f"{cmd} f={focal:g} aod={aod:g}", (*argv, "--aod", f"{aod:g}"),
                  0, functools.partial(check_field, focal=focal, aod=aod))

    def check_setup(self, work: Path) -> None:
        """Nothing to check: set-up only writes scenario files."""

    def warmup(self, work: Path) -> list[Op]:
        return [self._op(work, cmd, 40.0)
                for cmd in ("lens-profile", "fit-gaussian", "bpm-field")]

    def cycles(self, seed: int, work: Path) -> Iterator[list[Op]]:
        """Each cycle visits every focal length and command once, in seeded order."""
        rng = random.Random(seed)
        while True:
            cycle = []
            for focal in rng.sample(FOCAL_LENGTHS, len(FOCAL_LENGTHS)):
                for cmd in rng.sample(("lens-profile", "fit-gaussian", "bpm-field"), 3):
                    aod = rng.randrange(-60, 61) / 2.0 if cmd == "bpm-field" else 0.0
                    cycle.append(self._op(work, cmd, focal, aod))
            yield cycle


class MonteCarlo:
    unit = "cells"

    def __init__(self, name: str, scenario: str, trials: int, from_cache: bool):
        self.name = name
        self.scenario = scenario
        self.trials = trials
        self.from_cache = from_cache

    def prepare(self, work: Path) -> None:
        """Scenario file at reduced trials and, for --no-build, its cache."""
        cp = _read_ini(ROOT / "scenarios" / self.scenario)
        cp["simulation"]["trials"] = str(self.trials)
        with open(work / "scenario.ini", "w") as fh:
            cp.write(fh)
        if self.from_cache:
            cache = work / "cache"
            rc = run_cli(["lens-profile", "--config", work / "scenario.ini",
                          "--out-dir", cache])
            if rc != 0:
                raise RuntimeError(f"lens-profile exited {rc} during set-up")

    def _op(self, work: Path, seed: int) -> Op:
        ini = work / "scenario.ini"
        exp = expected_outputs(ini)
        argv = ("simulate", "--config", str(ini), "--out-dir", str(out_dir(work)),
                "--seed", str(seed))
        if self.from_cache:
            argv += ("--cache-dir", str(work / "cache"), "--no-build")
        return Op(f"simulate seed={seed}", argv, len(exp.snr_db) * exp.trials,
                  functools.partial(check_simulate, exp=exp))

    def check_setup(self, work: Path) -> None:
        """The cache set-up built must pass the same check as a sweep op."""
        if self.from_cache:
            check_profile_table(work / "cache", focal=40.0)

    def warmup(self, work: Path) -> list[Op]:
        return [self._op(work, 0)]

    def cycles(self, seed: int, work: Path) -> Iterator[list[Op]]:
        """Each cycle is a study at OPS_PER_MC_CYCLE seeds drawn from the workload seed."""
        rng = random.Random(seed)
        while True:
            yield [self._op(work, rng.randrange(2 ** 31))
                   for _ in range(OPS_PER_MC_CYCLE)]


WORKLOADS = {w.name: w for w in (
    OpticsSweep(),
    MonteCarlo("mc_four_user", "four_user_downlink.ini", trials=20, from_cache=True),
    MonteCarlo("mc_profile_sources", "profile_sources.ini", trials=30,
               from_cache=False),
)}
