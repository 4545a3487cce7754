"""Shared fixtures: default optics and a session-wide profile set.

Propagation sweeps dominate the suite's runtime, so profiles at the angles the
tests share are computed once per session.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from lensmimo import ArraySpec, LensSpec, PropagationGrid, antenna_power_profile


@pytest.fixture(scope="session")
def lens() -> LensSpec:
    return LensSpec()


@pytest.fixture(scope="session")
def grid() -> PropagationGrid:
    return PropagationGrid()


@pytest.fixture(scope="session")
def coarse_grid() -> PropagationGrid:
    # one-wavelength sampling, the resolution of the focus-table runs
    return PropagationGrid(dx=1.0, dz=1.0, window=80.0)


@pytest.fixture(scope="session")
def array() -> ArraySpec:
    return ArraySpec()


@pytest.fixture(scope="session")
def profile_set(lens, grid, array) -> dict[float, np.ndarray]:
    """Power profiles at every angle the tests reuse."""
    angles = (-15.0, -12.0, -7.0, 0.0, 5.0, 10.0, 11.0, 15.0, 17.0)
    return {a: antenna_power_profile(lens, grid, array, a) for a in angles}


@pytest.fixture(scope="session")
def focus_runs(coarse_grid, array) -> dict[float, tuple[float, float, float]]:
    """Focal-peak search for the standard focal-length set, coarse grid."""
    out = {}
    for f in (20.0, 30.0, 40.0, 50.0):
        lens_f = LensSpec(focal_length=f)
        from lensmimo import lens_phase_profile, propagate, find_focal_peak
        u0 = lens_phase_profile(lens_f, coarse_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short-f runs spread to the window edge
            hist = propagate(u0, coarse_grid, 60)
        z, gain_cell = find_focal_peak(hist, lens_f, array)
        _, gain_raw = find_focal_peak(hist)
        out[f] = (z, gain_cell, gain_raw)
    return out
