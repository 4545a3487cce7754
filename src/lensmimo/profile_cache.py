"""Plain-text cache of swept per-antenna power profiles.

One row per departure angle, one column per antenna, with a header that
names every parameter the table depends on plus a hash of them. Loaders
check the hash so a stale table is rebuilt instead of silently reused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .waveoptics import ArraySpec, LensSpec, PropagationGrid, antenna_power_profile

DEFAULT_SWEEP_DEG = (-30.0, 30.0, 0.5)
DEFAULT_MAX_GAP_DEG = 0.5


def cache_params(lens: LensSpec, grid: PropagationGrid, array: ArraySpec) -> dict:
    """Ordered parameter record identifying one profile table.

    Everything is stored as float so the record survives a text round trip
    with an identical hash.
    """
    return {
        "f": float(lens.focal_length),
        "D": float(lens.aperture),
        "eps_r": float(lens.epsilon_r),
        "ell": float(array.lens_distance),
        "M": float(array.num_antennas),
        "d": float(array.spacing),
        "dx": float(grid.dx),
        "dz": float(grid.dz),
        "W": float(grid.window),
    }


def params_digest(params: dict) -> str:
    canon = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class ProfileTable:
    """Swept profiles with nearest-angle lookup."""

    aods_deg: np.ndarray        # (n,) sorted
    profiles: np.ndarray        # (n, M)
    params: dict

    @property
    def digest(self) -> str:
        return params_digest(self.params)

    def lookup(self, aod_deg: float, max_gap_deg: float = DEFAULT_MAX_GAP_DEG) -> np.ndarray:
        """Profile at the nearest swept angle, refusing gaps beyond max_gap_deg."""
        i = int(np.argmin(np.abs(self.aods_deg - aod_deg)))
        gap = abs(float(self.aods_deg[i]) - aod_deg)
        if gap > max_gap_deg:
            raise DomainError(
                f"no cached profile within {max_gap_deg} deg of {aod_deg} deg "
                f"(nearest swept angle is {self.aods_deg[i]} deg)")
        return self.profiles[i]


def build_profile_table(lens: LensSpec, grid: PropagationGrid, array: ArraySpec,
                        aods_deg: np.ndarray | None = None) -> ProfileTable:
    """Propagate every departure angle (default -30..30 deg, 0.5 deg) to the array."""
    if aods_deg is None:
        lo, hi, step = DEFAULT_SWEEP_DEG
        n = int(round((hi - lo) / step)) + 1
        aods_deg = lo + step * np.arange(n)
    aods_deg = np.asarray(aods_deg, dtype=float)
    profiles = np.empty((aods_deg.size, array.num_antennas))
    for i, aod in enumerate(aods_deg):
        profiles[i] = antenna_power_profile(lens, grid, array, float(aod))
    return ProfileTable(aods_deg=aods_deg, profiles=profiles,
                        params=cache_params(lens, grid, array))


def write_profile_table(path, table: ProfileTable) -> None:
    with open(path, "w") as fh:
        for k, v in table.params.items():
            fh.write(f"# {k} = {v!r}\n")
        fh.write(f"# hash = {table.digest}\n")
        cols = ",".join(f"a_{m + 1}" for m in range(table.profiles.shape[1]))
        fh.write(f"aod_deg,{cols}\n")
        for aod, row in zip(table.aods_deg, table.profiles):
            fh.write(",".join(repr(float(v)) for v in (aod, *row)) + "\n")


def read_profile_table(path, expected_params: dict | None = None) -> ProfileTable:
    """Load a table, verifying its parameter hash (and, if given, the params)."""
    params: dict = {}
    stored_hash = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("aod_deg"):
                continue
            try:
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    key = key.strip()
                    val = val.strip()
                    if key == "hash":
                        stored_hash = val
                    else:
                        params[key] = float(val)
                else:
                    rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ConfigError(
                    f"profile cache {path} has an unparsable line ({exc}); "
                    "rebuild the cache") from exc
    if not rows:
        raise ConfigError(f"profile cache {path} holds no rows")
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(
            f"profile cache {path} has rows of unequal length; rebuild the cache")
    if stored_hash != params_digest(params):
        raise ConfigError(
            f"profile cache {path} header hash does not match its parameters; "
            "rebuild the cache")
    if expected_params is not None:
        if params_digest(params) != params_digest(
                {k: float(v) for k, v in expected_params.items()}):
            raise ConfigError(
                f"profile cache {path} was built for different parameters; "
                "rebuild the cache")
    data = np.asarray(rows)
    if not np.all(np.isfinite(data)):
        raise ConfigError(
            f"profile cache {path} holds non-finite values; rebuild the cache")
    return ProfileTable(aods_deg=data[:, 0], profiles=data[:, 1:], params=params)
