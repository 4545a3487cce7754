"""Correlated Rayleigh channels with Laplacian angular spread and lens weighting.

The transmit correlation follows the closed-form small-spread expression for
a uniform linear array under a truncated Laplacian power angular spectrum;
channels are CN(0, R) draws, and the lens multiplies per-antenna amplitudes
by the square root of the focused power profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .waveoptics import KAPPA


@dataclass(frozen=True)
class UserConfig:
    """One downlink user: mean departure angle and angular spread, degrees."""

    angle_deg: float
    sigma_deg: float = 5.0

    def __post_init__(self):
        if not np.isfinite(self.angle_deg):
            raise ConfigError(f"user angle {self.angle_deg} deg is not finite")
        if not (np.isfinite(self.sigma_deg) and self.sigma_deg > 0):
            raise ConfigError("angular spread must be positive and finite")


def laplacian_pas(offset: np.ndarray | float, sigma: float) -> np.ndarray:
    """Truncated Laplacian power angular spectrum on [-pi, pi), radians.

    beta renormalizes the truncated tail so the density integrates to 1.
    """
    if sigma <= 0:
        raise DomainError("angular spread must be positive")
    offset = np.asarray(offset, dtype=float)
    beta = 1.0 / (1.0 - np.exp(-np.sqrt(2.0) * np.pi / sigma))
    dens = (beta / (np.sqrt(2.0) * sigma)) * np.exp(-np.sqrt(2.0) * np.abs(offset) / sigma)
    return np.where((offset >= -np.pi) & (offset < np.pi), dens, 0.0)


def correlation_matrix(user: UserConfig, m: int, spacing: float = 0.5) -> np.ndarray:
    """Closed-form transmit correlation for a ULA under Laplacian spread.

    R_pq = e^{j kappa d (p-q) sin(theta)} / (1 + (sigma^2/2)(kappa d (p-q) cos(theta))^2),
    the Laplacian characteristic function evaluated at the array phase slope.
    The overall PAS normalizer is dropped, which is exactly the unit-diagonal
    rescaling: per-antenna variance stays 1.
    """
    if m < 1:
        raise ConfigError("antenna count must be at least 1")
    if spacing <= 0:
        raise ConfigError("antenna spacing must be positive")
    theta = np.deg2rad(user.angle_deg)
    sigma = np.deg2rad(user.sigma_deg)
    delta = np.arange(m)[:, None] - np.arange(m)[None, :]
    arg = KAPPA * spacing * delta
    # a huge spread zeroes the off-diagonals; an overflowing sigma^2 leaves nan
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.exp(1j * arg * np.sin(theta)) / (1.0 + (sigma**2 / 2.0) * (arg * np.cos(theta))**2)
    if not np.all(np.isfinite(r)):
        raise DomainError(f"angular spread {user.sigma_deg} deg gives a non-finite "
                          "correlation matrix")
    return 0.5 * (r + r.conj().T)


def matrix_sqrt(r: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD correlation matrix.

    Eigendecomposition route; small negative eigenvalues from roundoff are
    clamped to zero.
    """
    r = np.asarray(r)
    if np.linalg.norm(r - r.conj().T) > 1e-10 * np.linalg.norm(r):
        raise DomainError("matrix_sqrt needs a Hermitian input")
    w, v = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (s + s.conj().T)


def draw_channel(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """CN(0, R) channels h = S h_iid, unit per-entry variance, for one (m, m)
    factor or a (users, m, m) stack, which draws what single draws in turn do."""
    z = rng.standard_normal((*s.shape[:-2], 2, s.shape[-1]))
    h_iid = (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    return (s @ h_iid[..., None])[..., 0]


def apply_lens(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise lens weighting: h_m -> sqrt(a_m) h_m."""
    a = np.asarray(a, dtype=float)
    if a.shape != h.shape:
        raise ConfigError("profile and channel lengths differ")
    if np.any(a < 0):
        raise DomainError("power profile has negative entries")
    return np.sqrt(a) * h


def power_correlation_matrix(profiles: np.ndarray) -> np.ndarray:
    """K x K overlap of root power profiles, Psi_jk = sqrt(a_j)^T sqrt(a_k) / M.

    Diagonal is 1 because every profile sums to M; off-diagonals below 1
    measure how well the lens separates the users spatially.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    if np.any(profiles < 0):
        raise DomainError("power profiles must be nonnegative")
    roots = np.sqrt(profiles)
    return (roots @ roots.T) / profiles.shape[1]
