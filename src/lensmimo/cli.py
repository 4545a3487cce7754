"""Command-line interface: scenario files in, CSV results and caches out.

Scenario files are flat INI text with one section per concern; every output
file embeds the complete effective configuration in its header so a result
is reproducible from the file alone. Exit codes: 0 success, 2 configuration
errors, 3 numerical/domain errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import feedback, linklevel, profile_cache, waveoptics
from .channel import UserConfig
from .errors import ConfigError, DomainError
from .linklevel import ScenarioConfig
from .waveoptics import ArraySpec, LensSpec, PropagationGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
# bpm-field history limit, (steps + 1) x samples: 128 MB per complex copy
MAX_FIELD_VALUES = 2 ** 23


def _token_list(raw: str) -> tuple[str, ...]:
    toks = [t.strip() for t in raw.replace(";", ",").split(",")]
    return tuple(t for t in toks if t)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(t) for t in _token_list(raw))


def _on_off(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("on", "true", "yes", "1"):
        return True
    if val in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got '{raw}'")


_SCHEMA = {
    "scenario": {"name": str, "precoders": _token_list,
                 "quantizers": _token_list, "lens": _on_off},
    "array": {"num_antennas": int, "spacing": float, "lens_distance": float},
    "lens": {"focal_length": float, "aperture": float},
    "grid": {"dx": float, "dz": float, "window": float},
    "users": {"angles": _float_list, "sigma": _float_list},
    "simulation": {"bits": int, "snr_db": _float_list, "trials": int,
                   "seed": int},
}


def parse_config(path: str, require_users: bool = True) -> ScenarioConfig:
    """Read and validate a scenario file, filling every default.

    Unknown sections or keys are rejected by name; every value is parsed
    with its section.key named in any diagnostic. The [lens], [array] and
    [grid] keys are the fields of LensSpec, ArraySpec and PropagationGrid,
    and the [simulation] and [scenario] keys those of ScenarioConfig (with
    [scenario] lens for lens_enabled), so each default lives in its class.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    vals: dict[str, dict] = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{sec}]")
        vals[sec] = {}
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{sec}]")
            try:
                vals[sec][key] = _SCHEMA[sec][key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: [{sec}] {key}: cannot parse '{raw}' ({exc})") from exc

    users = vals.get("users", {})
    angles = users.get("angles")
    if angles is None:
        if require_users:
            raise ConfigError(f"{path}: [users] angles is required")
        angles = (0.0,)
    sigma = users.get("sigma", (UserConfig.sigma_deg,))
    if len(sigma) == 1:
        sigma = sigma * len(angles)
    if len(sigma) != len(angles):
        raise ConfigError(
            f"{path}: [users] sigma must be a scalar or match the "
            f"{len(angles)} angles")

    scenario = vals.get("scenario", {})
    if "lens" in scenario:
        scenario["lens_enabled"] = scenario.pop("lens")
    scenario.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    try:
        return ScenarioConfig(
            users=tuple(UserConfig(angle_deg=a, sigma_deg=s)
                        for a, s in zip(angles, sigma)),
            lens=LensSpec(**vals.get("lens", {})),
            array=ArraySpec(**vals.get("array", {})),
            grid=PropagationGrid(**vals.get("grid", {})),
            **vals.get("simulation", {}), **scenario)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cache_path(directory: str, params: dict) -> str:
    return os.path.join(directory, f"profiles_{profile_cache.params_digest(params)}.csv")


def cmd_lens_profile(args: argparse.Namespace) -> int:
    """Sweep departure angles and write the power-profile table."""
    cfg = parse_config(args.config, require_users=False)
    lens, grid, array = cfg.lens, cfg.grid, cfg.array
    table = profile_cache.build_profile_table(lens, grid, array)
    path = _cache_path(args.out_dir, table.params)
    profile_cache.write_profile_table(path, table)
    print(f"wrote {table.aods_deg.size} profiles to {path}")
    return EXIT_OK


def cmd_bpm_field(args: argparse.Namespace) -> int:
    """Propagate one incidence angle and dump the intensity history."""
    cfg = parse_config(args.config, require_users=False)
    lens, grid, array = cfg.lens, cfg.grid, cfg.array
    steps = args.steps
    if steps is None:
        steps = np.ceil(1.5 * lens.focal_length / grid.dz)
    if not (steps + 1) * grid.num_samples <= MAX_FIELD_VALUES:
        raise ConfigError(f"{steps:.3g} steps of {grid.num_samples} samples exceed "
                          f"the field history limit of {MAX_FIELD_VALUES} values")
    steps = int(steps)
    u0 = waveoptics.lens_phase_profile(lens, grid, args.aod)
    hist = waveoptics.propagate(u0, grid, steps)
    z_peak, gain = waveoptics.find_focal_peak(hist, lens, array)

    inten = np.abs(hist.fields) ** 2 / np.abs(hist.fields[0]).max() ** 2
    params = profile_cache.cache_params(lens, grid, array)
    del params["ell"]          # the history runs to 1.5 f whatever the array distance
    aod = f"{args.aod:g}" if float(f"{args.aod:g}") == args.aod else repr(args.aod)
    path = os.path.join(args.out_dir, f"field_{profile_cache.params_digest(params)}"
                                      f"_aod{aod}_steps{steps}.csv")
    header = [("focal_length", lens.focal_length), ("aperture", lens.aperture),
              ("num_antennas", array.num_antennas), ("dx", grid.dx), ("dz", grid.dz),
              ("window", grid.window), ("aod_deg", args.aod),
              ("rows_transverse", grid.num_samples), ("cols_axial", steps + 1),
              ("peak_distance", z_peak), ("peak_gain_per_cell", gain)]
    # one row per transverse sample after transpose
    profile_cache.write_tables([(path, header, None, (row.tolist() for row in inten.T))])
    print(f"peak at z = {z_peak!r} wavelengths, "
          f"gain {gain!r} per antenna cell; field written to {path}")
    return EXIT_OK


def _cached_table(cfg: ScenarioConfig, cache_dir: str) -> profile_cache.ProfileTable:
    """The swept table --no-build serves the scenario's profiles from."""
    for token in cfg.quantizers:
        if linklevel.parse_quantizer(token)[1] == "sub_bpm":
            raise ConfigError(
                f"quantizer '{token}' needs a fresh coarse-step run and cannot "
                "be served from the cache; drop --no-build")
    params = profile_cache.cache_params(cfg.lens, cfg.grid, cfg.array)
    path = _cache_path(cache_dir, params)
    if not os.path.exists(path):
        raise ConfigError(
            f"--no-build is set but the profile cache {path} is missing; "
            "run the lens-profile subcommand first")
    return profile_cache.read_profile_table(path, expected_params=params)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the Monte Carlo and write one CSV per precoder/quantizer pair."""
    if args.threads < 1:
        raise ConfigError("threads must be at least 1")
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)    # re-runs ScenarioConfig's checks
    profile_at = None
    if cfg.lens_enabled and args.no_build:
        cache_dir = args.out_dir if args.cache_dir is None else args.cache_dir
        profile_at = _cached_table(cfg, cache_dir).row
    profiles = linklevel.build_scenario_profiles(cfg, profile_at)
    result = linklevel.run_monte_carlo(cfg, profiles)

    tags = {(p, q): f"{p}_{q.replace(':', '_')}"
            for p in cfg.precoders for q in cfg.quantizers}
    trials = [str(cfg.trials)] * len(result.snr_db)
    tables = [(os.path.join(args.out_dir, f"{cfg.name}_{tag}.csv"),
               [*cfg.flat_items(), ("precoder", prec), ("quantizer", quant)],
               ["snr_db", "mean_sum_rate", "stderr", "trials"],
               zip(result.snr_db, result.mean[(prec, quant)],
                   result.stderr[(prec, quant)], trials))
              for (prec, quant), tag in tags.items()]
    tables.append((os.path.join(args.out_dir, f"{cfg.name}_comparison.csv"),
                   cfg.flat_items(), ["snr_db", *tags.values()],
                   zip(result.snr_db, *(result.mean[c] for c in tags))))
    profile_cache.write_tables(tables)
    for path, *_ in tables:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_fit_gaussian(args: argparse.Namespace) -> int:
    """Fit the spot model at the anchor angles and write the parameter table."""
    cfg = parse_config(args.config, require_users=False)
    lens, grid, array = cfg.lens, cfg.grid, cfg.array
    model = feedback.fit_gaussian_model(
        partial(waveoptics.antenna_power_profile, lens, grid, array), lens, array)

    params = profile_cache.cache_params(lens, grid, array)
    path = os.path.join(args.out_dir,
                        f"gaussian_fit_{profile_cache.params_digest(params)}.csv")
    profile_cache.write_tables([(
        path, params.items(),
        ["theta_deg", "p", "q", "r", "residual_rms", "poor_fit"],
        zip(model.anchors_deg, model.p, model.q, model.r, model.residual_rms,
            map(str, model.poor_fit.tolist())))])
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "lens-profile": (cmd_lens_profile, "sweep angles into a power-profile cache"),
    "bpm-field": (cmd_bpm_field, "dump one propagation history and its peak"),
    "simulate": (cmd_simulate, "run the sum-rate Monte Carlo for a scenario"),
    "fit-gaussian": (cmd_fit_gaussian, "fit the Gaussian spot model"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lensmimo",
        description="lens-array downlink simulator: wave optics to sum rates")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (_, help_text) in _COMMANDS.items():
        sp = subs[name] = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="scenario file (INI)")
        sp.add_argument("--out-dir", default=".", help="directory for outputs")
    subs["bpm-field"].add_argument("--aod", type=float, default=0.0,
                                   help="angle of departure, degrees, in (-90, 90)")
    subs["bpm-field"].add_argument("--steps", type=int, default=None,
                                   help="axial steps (default: 1.5 focal lengths)")
    sim = subs["simulate"]
    sim.add_argument("--cache-dir", default=None,
                     help="directory of the lens-profile table (default: out-dir)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    sim.add_argument("--threads", type=int, default=1,
                     help="has no effect; kept so existing command lines "
                          "still parse (the Monte Carlo runs in one thread)")
    sim.add_argument("--no-build", action="store_true",
                     help="serve the profiles from the lens-profile table in "
                          "--cache-dir; refuse if it is missing or has no row "
                          "at an angle")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
