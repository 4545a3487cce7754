"""Plain-text tables: the one writer of every output, and the profile cache.

A table is `# key = value` header lines, an optional column line and CSV
rows. The profile cache is one: a row per departure angle, a column per
antenna, and a header naming every parameter it depends on plus their hash,
which the reader checks, refusing a stale table rather than silently
reusing it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError
from .waveoptics import (SECTOR_DEG, ArraySpec, LensSpec, PropagationGrid,
                         antenna_power_profile)

# the departure angles lens-profile sweeps: the user sector in half-degree steps
SWEEP_DEG = np.arange(-SECTOR_DEG, SECTOR_DEG + 1e-9, 0.5)


def cache_params(lens: LensSpec, grid: PropagationGrid, array: ArraySpec) -> dict:
    """Ordered record of every parameter a power profile depends on.

    It names the profile cache and the Gaussian fit table. Everything is
    stored as float so the record survives a text round trip with an
    identical hash.
    """
    return {
        "f": float(lens.focal_length),
        "D": float(lens.aperture),
        "ell": float(array.lens_distance),
        "M": float(array.num_antennas),
        "dx": float(grid.dx),
        "dz": float(grid.dz),
        "W": float(grid.window),
    }


def params_digest(params: dict) -> str:
    canon = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class ProfileTable:
    """Swept profiles, served only at their own angles."""

    aods_deg: np.ndarray        # (n,) sorted
    profiles: np.ndarray        # (n, M)
    params: dict

    def fault(self) -> str | None:
        """Why the rows are not power profiles (finite, nonnegative, as long
        as the header's M and each summing to M within 1e-9 relative), or None."""
        prof, m = self.profiles, self.profiles.shape[1]
        if m != self.params.get("M"):
            return f"rows of {m} antennas under a header with M = {self.params.get('M')}"
        if not (np.isfinite(self.aods_deg).all() and np.isfinite(prof).all()):
            return "non-finite values"
        if np.any(prof < 0):
            return "negative power"
        if not np.allclose(prof.sum(axis=1), m, rtol=1e-9, atol=0.0):
            return f"a row that does not sum to M = {m}"
        return None

    def row(self, aod_deg: float) -> np.ndarray:
        """Profile swept at exactly aod_deg; any other angle is refused."""
        hit = np.flatnonzero(self.aods_deg == aod_deg)
        if not hit.size:
            raise ConfigError(f"the profile cache has no row at {aod_deg} deg, only the "
                              "swept angles; drop --no-build to propagate it")
        return self.profiles[hit[0]]


def build_profile_table(lens: LensSpec, grid: PropagationGrid,
                        array: ArraySpec) -> ProfileTable:
    """Propagate every departure angle of SWEEP_DEG to the array."""
    profiles = np.stack([antenna_power_profile(lens, grid, array, float(aod))
                         for aod in SWEEP_DEG])
    return ProfileTable(aods_deg=SWEEP_DEG.copy(), profiles=profiles,
                        params=cache_params(lens, grid, array))


# the reprs of the non-finite floats; no written value may read as one
_NON_FINITE = frozenset(map(repr, (math.nan, math.inf, -math.inf)))


def _checked(cells: list[str], path: str) -> list[str]:
    if not _NON_FINITE.isdisjoint(cells):
        raise DomainError(f"refusing to write a non-finite value to {path}")
    return cells


def write_tables(tables: Iterable[tuple]) -> None:
    """Write every (path, header, columns, rows) table in tables as one set.

    A table is `# key = value` header lines, the column line and the rows,
    string cells as given and other cells as repr(float). Each streams into
    a temporary file beside its path (parent directories are made), and the
    files replace their paths only once all are complete. A failure before
    then, a non-finite value included (DomainError), leaves every path as it
    was and removes the temporary files made here; one while replacing can
    still leave old and new files mixed.
    """
    made = []
    try:
        for path, header, columns, rows in tables:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(f"{path}.tmp", "w") as fh:
                made.append(path)
                for key, value in header:
                    fh.write(f"# {key} = {_checked([f'{value}'], path)[0]}\n")
                if columns:
                    fh.write(",".join(columns) + "\n")
                for row in rows:
                    cells = [v if isinstance(v, str) else repr(float(v)) for v in row]
                    fh.write(",".join(_checked(cells, path)) + "\n")
        for path in made:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in made:
            if os.path.exists(f"{path}.tmp"):
                os.remove(f"{path}.tmp")
        raise


def write_profile_table(path, table: ProfileTable) -> None:
    if fault := table.fault():
        raise DomainError(f"refusing to cache a profile table with {fault} at {path}")
    write_tables([(path, [*table.params.items(), ("hash", params_digest(table.params))],
                   ["aod_deg", *(f"a_{m + 1}" for m in range(table.profiles.shape[1]))],
                   np.column_stack((table.aods_deg, table.profiles)).tolist())])


def read_profile_table(path, expected_params: dict | None = None) -> ProfileTable:
    """Load a table, verifying its parameter hash (and, if given, the params)."""
    params: dict = {}
    stored_hash = None
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("aod_deg"):
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    key = key.strip()
                    val = val.strip()
                    if key == "hash":
                        stored_hash = val
                    else:
                        params[key] = float(val)
                else:
                    rows.append(line)
        if not rows:
            raise ConfigError(f"profile cache {path} holds no rows")
        # every row in one parse, numpy converting each token as float() does
        values = np.array(",".join(rows).split(","), dtype=float)
    except ValueError as exc:
        raise ConfigError(
            f"profile cache {path} has an unparsable line ({exc}); "
            "rebuild the cache") from exc
    if len({r.count(",") for r in rows}) > 1:
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
    data = values.reshape(len(rows), -1)
    table = ProfileTable(aods_deg=data[:, 0], profiles=data[:, 1:], params=params)
    if fault := table.fault():
        raise ConfigError(f"profile cache {path} holds {fault}; rebuild the cache")
    return table
