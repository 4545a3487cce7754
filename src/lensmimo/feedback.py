"""Limited-feedback channel quantization.

Baseline random vector quantization (isotropic codewords), its correlated
variant (codewords shaped by the channel's own correlation square root), and
the per-antenna-variance codebook that additionally carries the lens power
profile. Also the cheap profile estimator: a Gaussian model of the focused
spot, fitted to propagated profiles and interpolated across angle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import curve_fit

from .errors import ConfigError, DomainError
from .waveoptics import ArraySpec, LensSpec

KIND_RVQ = "rvq"
KIND_RVQ_CORRELATED = "rvq_correlated"
KIND_MVCQ = "mvcq"


@dataclass(frozen=True)
class Codebook:
    """Unit-norm codeword columns, 2^bits of them."""

    vectors: np.ndarray         # (m, 2^bits), columns unit norm
    bits: int
    kind: str
    user_angle_deg: float | None = None


@dataclass(frozen=True)
class QuantizationResult:
    """Selected codeword: 0-based column index and the unit direction itself."""

    index: int
    direction: np.ndarray


def _normalize_columns(w: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0):
        raise DomainError("codebook construction produced a zero codeword")
    return w / norms


def generate_rvq(m: int, bits: int, rng: np.random.Generator) -> Codebook:
    """Isotropic random codebook: i.i.d. complex normal columns, normalized."""
    if not 1 <= bits <= 16:
        raise ConfigError("codebook bits must be between 1 and 16")
    if m < 1:
        raise ConfigError("codeword length must be at least 1")
    n = 2 ** bits
    w = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    return Codebook(vectors=_normalize_columns(w), bits=bits, kind=KIND_RVQ)


def correlate_codebook(codebook: Codebook, s: np.ndarray) -> Codebook:
    """Shape isotropic codewords with the channel correlation factor S.

    Columns become S w_j, renormalized, so codeword statistics match the
    CN(0, R) channel they will quantize.
    """
    s = np.asarray(s)
    if s.shape[1] != codebook.vectors.shape[0]:
        raise ConfigError("correlation factor and codebook dimensions differ")
    w = _normalize_columns(s @ codebook.vectors)
    return Codebook(vectors=w, bits=codebook.bits, kind=KIND_RVQ_CORRELATED,
                    user_angle_deg=codebook.user_angle_deg)


def generate_mvcq(codebook: Codebook, a: np.ndarray,
                  user_angle_deg: float | None = None) -> Codebook:
    """Carry the lens power profile into a correlated codebook.

    Each codeword entry is scaled by sqrt(a_m), matching the per-antenna
    variance of the lens channel, then the column is renormalized.
    """
    if codebook.kind != KIND_RVQ_CORRELATED:
        raise ConfigError("variance shaping expects a correlated codebook")
    a = np.asarray(a, dtype=float)
    if a.shape[0] != codebook.vectors.shape[0]:
        raise ConfigError("profile length and codeword length differ")
    if np.any(a < 0):
        raise DomainError("power profile has negative entries")
    w = _normalize_columns(np.sqrt(a)[:, None] * codebook.vectors)
    return Codebook(vectors=w, bits=codebook.bits, kind=KIND_MVCQ,
                    user_angle_deg=user_angle_deg)


def quantize(h: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Pick the codeword with the largest |h* c_j|; ties go to the lowest index."""
    if h.shape[0] != codebook.vectors.shape[0]:
        raise ConfigError("channel and codeword lengths differ")
    if np.linalg.norm(h) == 0:
        raise DomainError("cannot quantize a zero channel")
    metric = np.abs(h.conj() @ codebook.vectors)
    j = int(np.argmax(metric))
    return QuantizationResult(index=j, direction=codebook.vectors[:, j])


# ---------------------------------------------------------------------------
# Gaussian spot model


def _gauss(y, p, q, r):
    return p * np.exp(-((y - q) / r) ** 2)


def antenna_coordinates(lens: LensSpec, array: ArraySpec) -> np.ndarray:
    """Centers of the antenna cells tiling the aperture, in wavelengths."""
    m = array.num_antennas
    cell = lens.aperture / m
    return (np.arange(m) - (m - 1) / 2.0) * cell


@dataclass
class GaussianProfileModel:
    """Per-angle Gaussian spot parameters with smooth interpolation across angle.

    residual_rms holds the per-anchor fit residual (RMS, as a fraction of the
    profile peak); poor_fit flags anchors where that exceeds 20%.
    """

    anchors_deg: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    residual_rms: np.ndarray
    poor_fit: np.ndarray
    params: dict
    _splines: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._splines is None:
            self._splines = tuple(
                PchipInterpolator(self.anchors_deg, vals)
                for vals in (self.p, self.q, self.r))

    def evaluate_params(self, theta_deg: float) -> tuple[float, float, float]:
        lo, hi = self.anchors_deg[0], self.anchors_deg[-1]
        if not lo <= theta_deg <= hi:
            raise DomainError(
                f"angle {theta_deg} deg is outside the fitted span [{lo}, {hi}]")
        sp, sq, sr = self._splines
        return float(sp(theta_deg)), float(sq(theta_deg)), float(sr(theta_deg))


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
        cell = lens.aperture / array.num_antennas
        p0 = (peak, y[int(np.argmax(a))], lens.aperture / 10.0)
        # bounded so clipped spots at the sector edge stay solvable instead
        # of sending the center or width to infinity
        lo = (peak * 1e-3, y[0] - 2.0 * lens.aperture, 0.1 * cell)
        hi = (peak * 1e3, y[-1] + 2.0 * lens.aperture, 4.0 * lens.aperture)
        try:
            popt, _ = curve_fit(_gauss, y, a, p0=p0, bounds=(lo, hi),
                                maxfev=20000)
        except RuntimeError as exc:
            raise DomainError(f"gaussian fit failed at {ang} deg: {exc}") from exc
        popt[0], popt[2] = abs(popt[0]), abs(popt[2])
        p[i], q[i], r[i] = popt
        resid[i] = np.sqrt(np.mean((_gauss(y, *popt) - a) ** 2)) / peak
    poor = resid > 0.2
    if np.any(poor):
        bad = ", ".join(f"{ang:g}" for ang in anchors[poor])
        warnings.warn(f"gaussian fit is poor (residual > 20% of peak) at "
                      f"angles [{bad}] deg", stacklevel=2)
    params = {
        "f": float(lens.focal_length),
        "D": float(lens.aperture),
        "eps_r": float(lens.epsilon_r),
        "ell": float(array.lens_distance),
        "M": float(array.num_antennas),
    }
    return GaussianProfileModel(anchors_deg=anchors, p=p, q=q, r=r,
                                residual_rms=resid, poor_fit=poor, params=params)


def gaussian_profile(theta_deg: float, model: GaussianProfileModel,
                     array: ArraySpec, lens: LensSpec) -> np.ndarray:
    """Evaluate the fitted spot model at one angle and renormalize to sum M."""
    if model.params["M"] != float(array.num_antennas) or \
            model.params["ell"] != float(array.lens_distance):
        raise ConfigError(
            "gaussian model was fitted for a different array configuration")
    if model.params["f"] != float(lens.focal_length) or \
            model.params["D"] != float(lens.aperture):
        raise ConfigError("gaussian model was fitted for a different lens")
    pv, qv, rv = model.evaluate_params(theta_deg)
    if pv <= 0 or rv <= 0:
        raise DomainError(f"interpolated spot parameters degenerate at {theta_deg} deg")
    a = _gauss(antenna_coordinates(lens, array), pv, qv, rv)
    total = a.sum()
    if total <= 0:
        raise DomainError("gaussian profile evaluated to zero everywhere")
    return a * (array.num_antennas / total)


def approx_sinr(psi: np.ndarray, h: np.ndarray, f: np.ndarray, p_t: float) -> np.ndarray:
    """Power-correlation-weighted SINR estimate.

    SINR_k ~ (P/K) Psi_kk |h_k^T f_k|^2 / ((P/K) sum_j Psi_kj |h_k^T f_j|^2 + 1)
    with unit-normalized precoder columns; the Psi weights down-rate
    interference between users the lens separates spatially.
    """
    psi = np.asarray(psi, dtype=float)
    h = np.atleast_2d(h)
    f = np.asarray(f)
    k = h.shape[0]
    if psi.shape != (k, k) or f.shape[1] != k:
        raise ConfigError("dimension mismatch between Psi, channels, and precoder")
    norms = np.linalg.norm(f, axis=0)
    if np.any(norms == 0):
        raise DomainError("precoder has a zero column")
    t2 = np.abs(h @ (f / norms)) ** 2
    scale = p_t / k
    sig = scale * np.diag(psi) * np.diag(t2)
    interf = scale * (np.sum(psi * t2, axis=1) - np.diag(psi * t2))
    return sig / (interf + 1.0)
