"""Limited-feedback channel quantization.

Codebook stacks are (users, 2m, 2^bits) real [Re; Im] blocks of random draws
(RVQ), shaped by the correlation square root and weighted by the lens power
profile (MVCQ); each user feeds back the codeword with the largest |h^H w| /
|w|, the only one ever normalized. Also the cheap profile estimator: a
Gaussian model of the focused spot, fitted to a profile source at the sector
anchors and interpolated across angle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import pchip, trf_bounds
from .waveoptics import SECTOR_DEG, ArraySpec, LensSpec

# angles the Gaussian spot model is fitted at: five-degree steps across the sector
GAUSSIAN_ANCHORS_DEG = np.arange(-SECTOR_DEG, SECTOR_DEG + 1e-9, 5.0)
# RMS fit residual, as a fraction of the profile peak, above which an anchor's
# spot is no longer unimodal enough for the model to be trusted there
POOR_FIT = 0.2


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


class Shaping:
    """Codewords of draws w_j for T selections, checked and converted once per
    run: c_j = sqrt(a) w_j for the first `plain` selections and sqrt(a) (S w_j)
    for the rest, S w_j giving codewords the statistics of the CN(0, R) channel
    they quantize. factor stacks each user's S, (users, m, m), or is None (all
    plain); root_a stacks T sqrt(a), (T, users, m), or is (users, m) for one."""

    def __init__(self, root_a: np.ndarray, factor: np.ndarray | None = None,
                 plain: int = 0):
        root_a = np.asarray(root_a, dtype=float)
        if (root_a < 0).any():
            raise DomainError("profile root has negative entries")
        self.single = root_a.ndim == 2
        self.root = root_a.reshape(-1, *root_a.shape[-2:]).swapaxes(0, 1)  # (users, T, m)
        self.power32 = np.square(np.concatenate((self.root, self.root), -1), dtype=np.float32)
        users, _, m = self.root.shape
        if factor is not None and np.shape(factor) != (users, m, m):
            raise ConfigError("factors and profile roots differ in users or length")
        self.plain = self.root.shape[1] if factor is None else plain
        self.factor = factor
        self.block32 = None if factor is None else real_block(factor).astype(np.float32)


# A score is a squared cosine in [0, 1] (g has unit length). Its three float32
# steps, S w_j, g^H c_j and |c_j|^2, each sum 2m products and err by at most
# 2m u (u = 2^-24) of the magnitudes summed (Higham 2002, sec. 3.1); 2 x 2 such
# errors reach |g^H c_j|^2 and one |c_j|^2, so a score errs by at most 5 x 2m u
# and two scores over 10 x 2m u apart keep their order in float64.
NEAR_TIE_PER_LENGTH = 10 * 2.0 ** -24


def select_codeword(h: np.ndarray, w: np.ndarray,
                    shaping: Shaping | np.ndarray | None = None) -> np.ndarray:
    """Per user, the codeword c_j of the draws w (users, 2m, 2^bits) with the
    largest |h^H c_j| / |c_j| (ties go to the lowest index), at unit length.

    h is (users, m); shaping is a Shaping, root_a (c_j = sqrt(a) w_j) or None.
    The T selections of a Shaping share one float32 copy of w, and the shaped
    ones one float32 S W, its square, one norm and one score product; near-ties
    are redone in float64, and each chosen c_j is built in float64 from w.
    Returns (users, m), or (T, users, m).
    """
    k, m = h.shape
    if w.shape[:2] != (k, 2 * m):
        raise ConfigError("channel and codeword lengths differ")
    if not isinstance(shaping, Shaping):
        shaping = Shaping(np.ones(h.shape) if shaping is None else shaping)
    if shaping.root.shape[::2] != (k, m):
        raise ConfigError("profile length and codeword length differ")
    if not h.any(axis=1).all():
        raise DomainError("cannot quantize a zero channel")
    w32 = w.astype(np.float32)
    p, t = shaping.plain, shaping.root.shape[1]
    # (selections, float32 codewords): the plain ones score w, the rest one S W
    books = [(slice(0, p), w32)] if p else []
    if p < t:
        books.append((slice(p, t), shaping.block32 @ w32))
    norm2 = np.concatenate([shaping.power32[:, s] @ np.square(b) for s, b in books], axis=1)
    if not norm2.all():
        raise DomainError("codebook construction produced a zero codeword")
    g = _unit(shaping.root * h[:, None])
    # rows [Re g, Im g] and [-Im g, Re g] give Re and Im of g^H c_j
    rows = np.concatenate((g.real, g.imag, -g.imag, g.real), axis=-1).astype(np.float32)
    dots = np.concatenate([rows[:, s].reshape(k, -1, 2 * m) @ b for s, b in books],
                          axis=1).reshape(k, t, 2, -1)
    score = (np.square(dots[:, :, 0]) + np.square(dots[:, :, 1])) / norm2
    j = score.argmax(axis=-1)                                  # (users, T)
    near = score >= score.max(axis=-1, keepdims=True) - NEAR_TIE_PER_LENGTH * 2 * m
    for u, q in zip(*np.nonzero(near.sum(axis=-1) != 1)):
        c = w[u, :m] + 1j * w[u, m:]
        c = c if q < p else shaping.factor[u] @ c
        j[u, q] = np.argmax(np.abs(g[u, q].conj() @ c) ** 2
                            / (shaping.root[u, q] ** 2 @ np.abs(c) ** 2))
    drawn = w[np.arange(k)[:, None], :, j]                     # (users, T, 2m)
    chosen = drawn[..., :m] + 1j * drawn[..., m:]
    if p < t:
        chosen[:, p:] = (shaping.factor[:, None] @ chosen[:, p:, :, None])[..., 0]
    chosen = _unit(shaping.root * chosen)
    return chosen[:, 0] if shaping.single else chosen.swapaxes(0, 1)


def _unit(z: np.ndarray) -> np.ndarray:
    """Complex z scaled in place to unit length along its last axis."""
    re_im = z.view(float)
    z /= np.sqrt(np.maximum(np.einsum("...j,...j->...", re_im, re_im), np.finfo(float).tiny)
                 )[..., None]
    return z


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
    profile peak); poor_fit flags anchors where that exceeds POOR_FIT.
    """

    anchors_deg: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    residual_rms: np.ndarray
    lens: LensSpec
    array: ArraySpec

    @property
    def poor_fit(self) -> np.ndarray:
        return self.residual_rms > POOR_FIT


def fit_gaussian_model(profile_at: Callable[[float], np.ndarray], lens: LensSpec,
                       array: ArraySpec, angles_deg: Sequence[float] | None = None
                       ) -> GaussianProfileModel:
    """Least-squares 1-Gaussian fit to profile_at(angle) at the sector anchors,
    interpolated across angle by PCHIP.

    Given angles, only the anchors PCHIP reads there are fitted: anchors
    i-1..i+2 around each angle's interval [x_i, x_i+1], clipped to the
    sector, which give the whole-sector model's values there exactly. No
    angle at all would leave fewer than PCHIP's three anchors and is refused.
    profile_at is called once per fitted anchor, in ascending order, and each
    profile is fit in physical antenna-plane coordinates. A warning names the
    anchors whose RMS residual exceeds POOR_FIT of the profile peak.
    """
    anchors = GAUSSIAN_ANCHORS_DEG.copy()    # the model owns its anchors
    if angles_deg is not None:
        if len(angles_deg) == 0:
            raise ConfigError("gaussian fit needs at least one angle to fit around")
        n = anchors.size
        i = np.clip(np.searchsorted(anchors, angles_deg, side="right") - 1, 0, n - 2)
        keep = np.zeros(n, dtype=bool)
        keep[np.clip(np.add.outer(i, np.arange(-1, 3)), 0, n - 1)] = True
        anchors = anchors[keep]
    y = antenna_coordinates(lens, array)
    cell = lens.aperture / array.num_antennas
    p = np.empty(anchors.size)
    q = np.empty(anchors.size)
    r = np.empty(anchors.size)
    resid = np.empty(anchors.size)
    for i, ang in enumerate(anchors):
        a = np.asarray(profile_at(float(ang)), dtype=float)
        peak = a.max()
        if not peak > 0:
            raise DomainError(f"profile at {ang} deg carries no power")
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
    model = GaussianProfileModel(anchors_deg=anchors, p=p, q=q, r=r, residual_rms=resid,
                                 lens=lens, array=array)
    if model.poor_fit.any():
        bad = ", ".join(f"{ang:g}" for ang in anchors[model.poor_fit])
        warnings.warn(f"gaussian fit is poor (residual > {POOR_FIT:.0%} of peak) at "
                      f"angles [{bad}] deg", stacklevel=2)
    return model


def gaussian_profile(theta_deg: float, model: GaussianProfileModel) -> np.ndarray:
    """Evaluate the fitted spot model at one angle within its anchors and
    renormalize to sum M, which cancels the amplitude p: only q and r are read."""
    lo, hi = model.anchors_deg[0], model.anchors_deg[-1]
    if not lo <= theta_deg <= hi:
        raise DomainError(f"angle {theta_deg} deg is outside the fitted span [{lo}, {hi}]")
    qv, rv = (pchip(model.anchors_deg, vals, theta_deg) for vals in (model.q, model.r))
    if rv <= 0:
        raise DomainError(f"interpolated spot parameters degenerate at {theta_deg} deg")
    a = _gauss(antenna_coordinates(model.lens, model.array), 1.0, qv, rv)
    total = a.sum()
    if total <= 0:
        raise DomainError("gaussian profile evaluated to zero everywhere")
    return a * (model.array.num_antennas / total)
