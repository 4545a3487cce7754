"""Limited-feedback channel quantization.

Codebook stacks are (users, 2m, 2^bits) real [Re; Im] blocks of random draws
(RVQ), shaped by the correlation square root and weighted by the lens power
profile (MVCQ); each user feeds back the codeword with the largest |h^H w| /
|w|, the only one ever normalized. Also the cheap profile estimator: a
Gaussian model of the focused spot, fitted to propagated profiles and
interpolated across angle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import pchip, trf_bounds
from .waveoptics import ArraySpec, LensSpec


def random_codebook(m: int, bits: int, rng: np.random.Generator,
                    users: int = 1) -> np.ndarray:
    """Isotropic random codebooks: (users, 2m, 2^bits) i.i.d. normal draws,
    user after user, so a stack equals single-user draws made in turn."""
    if not 1 <= bits <= 16:
        raise ConfigError("codebook bits must be between 1 and 16")
    if m < 1:
        raise ConfigError("codeword length must be at least 1")
    return rng.standard_normal((users, 2 * m, 2 ** bits))


def real_block(s: np.ndarray) -> np.ndarray:
    """Real form [[Re s, -Im s], [Im s, Re s]] of complex (..., m, m) s: it
    maps the [Re; Im] block of a column w to that of s w."""
    s = np.asarray(s)
    return np.block([[s.real, -s.imag], [s.imag, s.real]])


def correlate_codewords(w: np.ndarray, s_block: np.ndarray) -> np.ndarray:
    """S W for each user's correlation factor S, given as real_block(S), so
    codeword statistics match the CN(0, R) channel they will quantize."""
    if s_block.shape[-1] != w.shape[-2]:
        raise ConfigError("correlation factor and codebook dimensions differ")
    return s_block @ w


def select_codeword(h: np.ndarray, w: np.ndarray,
                    root_a: np.ndarray | None = None) -> np.ndarray:
    """Per user, the codeword w_j of the stack w with the largest
    |h^H w_j| / |w_j| (ties go to the lowest index), scaled to unit length.

    h and root_a are (users, m); root_a = sqrt(a) weights every codeword
    entry by the lens channel's amplitude (MVCQ). Returns (users, m).
    """
    k, m = h.shape
    if w.shape[:2] != (k, 2 * m):
        raise ConfigError("channel and codeword lengths differ")
    if not h.any(axis=1).all():
        raise DomainError("cannot quantize a zero channel")
    power = np.square(w)
    if root_a is None:
        root_a, norm2 = 1.0, np.ones(2 * m) @ power
    else:
        root_a = np.asarray(root_a, dtype=float)
        if root_a.shape != h.shape:
            raise ConfigError("profile length and codeword length differ")
        if (root_a < 0).any():
            raise DomainError("profile root has negative entries")
        norm2 = (np.tile(root_a * root_a, 2)[:, None] @ power)[:, 0]
    if not norm2.all():
        raise DomainError("codebook construction produced a zero codeword")
    # rows [Re g, Im g] and [-Im g, Re g] give Re and Im of g^H w_j, which
    # is h^H (root_a w_j) for g = root_a h
    g = root_a * h
    rows = np.empty((k, 2, 2 * m))
    rows[:, 0, :m] = rows[:, 1, m:] = g.real
    rows[:, 0, m:] = g.imag
    rows[:, 1, :m] = -g.imag
    t = rows @ w
    j = np.argmax((t[:, 0] ** 2 + t[:, 1] ** 2) / norm2, axis=1)
    users = np.arange(k)
    chosen = w[users, :, j] / np.sqrt(norm2[users, j])[:, None]
    return root_a * (chosen[:, :m] + 1j * chosen[:, m:])


# ---------------------------------------------------------------------------
# Gaussian spot model


def _gauss(y, p, q, r):
    return p * np.exp(-((y - q) / r) ** 2)


def _gauss_jac(y, p, q, r):
    """Columns d/dp, d/dq, d/dr of _gauss at the samples y."""
    u = (y - q) / r
    e = np.exp(-u * u)
    dq = 2.0 * p * e * u / r
    return np.column_stack((e, dq, dq * u))


def antenna_coordinates(lens: LensSpec, array: ArraySpec) -> np.ndarray:
    """Centers of the antenna cells tiling the aperture, in wavelengths."""
    m = array.num_antennas
    cell = lens.aperture / m
    return (np.arange(m) - (m - 1) / 2.0) * cell


@dataclass
class GaussianProfileModel:
    """Per-angle Gaussian spot parameters with smooth interpolation across
    angle, for the lens and array they were fitted to.

    residual_rms holds the per-anchor fit residual (RMS, as a fraction of the
    profile peak); poor_fit flags anchors where that exceeds 20%.
    """

    anchors_deg: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    residual_rms: np.ndarray
    poor_fit: np.ndarray
    lens: LensSpec
    array: ArraySpec


def fit_gaussian_model(profiles: dict[float, np.ndarray], lens: LensSpec,
                       array: ArraySpec) -> GaussianProfileModel:
    """Least-squares 1-Gaussian fit per anchor angle, interpolated across angle.

    Needs at least five anchors spanning the sector. Each profile is fit in
    physical antenna-plane coordinates; anchors whose RMS residual exceeds
    20% of the profile peak are flagged (the spot is no longer unimodal
    enough for the model to be trusted there).
    """
    if len(profiles) < 5:
        raise ConfigError("gaussian fit needs at least five anchor angles")
    y = antenna_coordinates(lens, array)
    anchors = np.array(sorted(profiles))
    p = np.empty(anchors.size)
    q = np.empty(anchors.size)
    r = np.empty(anchors.size)
    resid = np.empty(anchors.size)
    for i, ang in enumerate(anchors):
        a = np.asarray(profiles[float(ang)], dtype=float)
        if a.shape[0] != array.num_antennas:
            raise ConfigError("profile length and antenna count differ")
        peak = a.max()
        if not peak > 0:
            raise DomainError(f"profile at {ang} deg carries no power")
        cell = lens.aperture / array.num_antennas
        p0 = (peak, y[int(np.argmax(a))], lens.aperture / 10.0)
        # bounded so clipped spots at the sector edge stay solvable instead
        # of sending the center or width to infinity
        lo = np.array((peak * 1e-3, y[0] - 2.0 * lens.aperture, 0.1 * cell))
        hi = np.array((peak * 1e3, y[-1] + 2.0 * lens.aperture, 4.0 * lens.aperture))
        try:
            popt, _ = trf_bounds(lambda x: _gauss(y, *x) - a, lambda x: _gauss_jac(y, *x),
                                 p0, lo, hi)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"gaussian fit failed at {ang} deg: {exc}") from exc
        p[i], q[i], r[i] = popt
        resid[i] = np.sqrt(np.mean((_gauss(y, *popt) - a) ** 2)) / peak
    poor = resid > 0.2
    if np.any(poor):
        bad = ", ".join(f"{ang:g}" for ang in anchors[poor])
        warnings.warn(f"gaussian fit is poor (residual > 20% of peak) at "
                      f"angles [{bad}] deg", stacklevel=2)
    return GaussianProfileModel(anchors_deg=anchors, p=p, q=q, r=r, residual_rms=resid,
                                poor_fit=poor, lens=lens, array=array)


def gaussian_profile(theta_deg: float, model: GaussianProfileModel) -> np.ndarray:
    """Evaluate the fitted spot model at one angle within its anchors and
    renormalize to sum M."""
    lo, hi = model.anchors_deg[0], model.anchors_deg[-1]
    if not lo <= theta_deg <= hi:
        raise DomainError(f"angle {theta_deg} deg is outside the fitted span [{lo}, {hi}]")
    pv, qv, rv = (pchip(model.anchors_deg, vals, theta_deg)
                  for vals in (model.p, model.q, model.r))
    if pv <= 0 or rv <= 0:
        raise DomainError(f"interpolated spot parameters degenerate at {theta_deg} deg")
    a = _gauss(antenna_coordinates(model.lens, model.array), pv, qv, rv)
    total = a.sum()
    if total <= 0:
        raise DomainError("gaussian profile evaluated to zero everywhere")
    return a * (model.array.num_antennas / total)
