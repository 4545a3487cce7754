"""Downlink precoding, exact SINR, and the ergodic sum-rate Monte Carlo.

Signal model (transposed convention, no conjugation on the channel):
y_k = sqrt(P) h_k^T sum_j g_j s_j + n_k with unit-variance noise, so the
transmit power in dB doubles as the SNR axis. Precoders are built from
fed-back unit-norm channel directions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .channel import (UserConfig, apply_lens, correlation_matrix, draw_channel,
                      matrix_sqrt)
from .errors import ConfigError, DomainError, LensMimoError
from .feedback import (GaussianProfileModel, _normalize_columns, correlate_codebook,
                       fit_gaussian_model, gaussian_profile, generate_rvq)
from .waveoptics import ArraySpec, LensSpec, PropagationGrid, antenna_power_profile

COND_LIMIT = 1e12
SECTOR_DEG = 30.0
# angles the Gaussian spot model is fitted at: five-degree steps across the sector
GAUSSIAN_ANCHORS_DEG = np.arange(-SECTOR_DEG, SECTOR_DEG + 1e-9, 5.0)

PRECODER_TOKENS = ("zf", "mrt")
QUANTIZER_KINDS = ("full", "rvq", "rvq_corr", "mvcq")
MVCQ_SOURCES = ("bpm", "gaussian", "sub_bpm")


@dataclass(frozen=True)
class Precoder:
    """Raw columns F and the power-normalized columns G, g_k = f_k/(sqrt(K)|f_k|)."""

    columns: np.ndarray      # (M, K)
    normalized: np.ndarray   # (M, K), total power sum |g_k|^2 = 1


def parse_quantizer(token: str) -> tuple[str, str, int]:
    """Split a quantizer token into (kind, profile source, stride).

    Tokens: full | rvq | rvq_corr | mvcq[:source[:stride]] with source in
    {bpm, gaussian, sub_bpm}; sub_bpm requires a stride, e.g. mvcq:sub_bpm:10.
    """
    parts = token.split(":")
    kind = parts[0]
    if kind not in QUANTIZER_KINDS:
        raise ConfigError(f"unknown quantizer '{token}'")
    if kind != "mvcq":
        if len(parts) > 1:
            raise ConfigError(f"quantizer '{kind}' takes no profile source")
        return kind, "", 1
    source = parts[1] if len(parts) > 1 else "bpm"
    if source not in MVCQ_SOURCES:
        raise ConfigError(f"unknown profile source '{source}' in '{token}'")
    stride = 1
    if source == "sub_bpm":
        if len(parts) < 3:
            raise ConfigError(f"'{token}' needs a stride, e.g. mvcq:sub_bpm:10")
        try:
            stride = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"stride in '{token}' is not an integer") from exc
        if stride < 1:
            raise ConfigError("stride must be a positive integer")
    elif len(parts) > 2:
        raise ConfigError(f"unexpected extra field in quantizer '{token}'")
    return kind, source, stride


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated downlink scenario.

    The lens, array and propagation grid check their own values; lens and
    grid are checked even with the lens disabled, since every output
    header records them.
    """

    users: tuple[UserConfig, ...]
    name: str = "scenario"
    lens_enabled: bool = True
    lens: LensSpec = LensSpec()
    array: ArraySpec = ArraySpec()
    grid: PropagationGrid = PropagationGrid()
    bits: int = 6
    precoders: tuple[str, ...] = ("zf",)
    quantizers: tuple[str, ...] = ("mvcq",)
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 1000
    seed: int = 1234

    def __post_init__(self):
        k = len(self.users)
        if k < 1:
            raise ConfigError("scenario needs at least one user")
        if k > self.array.num_antennas:
            raise ConfigError(
                f"user count {k} exceeds antenna count {self.array.num_antennas}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 1 <= self.bits <= 16:
            raise ConfigError("bits must be between 1 and 16")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for snr in self.snr_db:
            try:
                p_t = 10.0 ** (float(snr) / 10.0)
            except OverflowError:
                p_t = np.inf
            if not (np.isfinite(snr) and np.isfinite(p_t)):
                raise ConfigError(
                    f"snr_db {snr} and its linear power must be finite")
        for u in self.users:
            if abs(u.angle_deg) > SECTOR_DEG:
                raise ConfigError(
                    f"user angle {u.angle_deg} deg is outside the "
                    f"[-{SECTOR_DEG:g}, {SECTOR_DEG:g}] deg sector")
        for label, tokens in (("precoder", self.precoders),
                              ("quantizer", self.quantizers)):
            for t in tokens:
                if tokens.count(t) > 1:
                    raise ConfigError(f"{label} '{t}' is listed more than once")
        for p in self.precoders:
            if p not in PRECODER_TOKENS:
                raise ConfigError(f"unknown precoder '{p}'")
        for q in self.quantizers:
            kind, _, _ = parse_quantizer(q)
            if kind == "mvcq" and not self.lens_enabled:
                raise ConfigError(
                    f"quantizer '{q}' needs the lens enabled (it carries the "
                    "lens power profile)")
        if not self.snr_db:
            raise ConfigError("snr grid is empty")

    @property
    def num_users(self) -> int:
        return len(self.users)

    def flat_items(self) -> list[tuple[str, object]]:
        """Key-value echo of the complete effective configuration."""
        lens, array, grid = self.lens, self.array, self.grid
        items: list[tuple[str, object]] = [
            ("scenario", self.name),
            ("num_antennas", array.num_antennas),
            ("num_users", self.num_users),
            ("user_angles_deg", ";".join(repr(u.angle_deg) for u in self.users)),
            ("sigma_deg", ";".join(repr(u.sigma_deg) for u in self.users)),
            ("spacing", repr(array.spacing)),
            ("bits", self.bits),
            ("lens_enabled", self.lens_enabled),
            ("focal_length", repr(lens.focal_length)),
            ("aperture", repr(lens.aperture)),
            ("epsilon_r", repr(lens.epsilon_r)),
            ("lens_distance", repr(array.lens_distance)),
            ("grid_dx", repr(grid.dx)),
            ("grid_dz", repr(grid.dz)),
            ("window", repr(grid.window)),
            ("precoders", ";".join(self.precoders)),
            ("quantizers", ";".join(self.quantizers)),
            ("snr_db", ";".join(repr(s) for s in self.snr_db)),
            ("trials", self.trials),
            ("seed", self.seed),
        ]
        return items


def _coherence_pair(h_hat: np.ndarray) -> tuple[int, int]:
    rows = h_hat / np.linalg.norm(h_hat, axis=1, keepdims=True)
    gram = np.abs(rows @ rows.conj().T)
    np.fill_diagonal(gram, 0.0)
    i, j = np.unravel_index(np.argmax(gram), gram.shape)
    return int(min(i, j)), int(max(i, j))


def _normalize(f: np.ndarray) -> np.ndarray:
    k = f.shape[1]
    norms = np.linalg.norm(f, axis=0)
    if np.any(norms == 0):
        raise DomainError("precoder has a zero column")
    return f / (np.sqrt(k) * norms)


def zf_precoder(h_hat: np.ndarray) -> Precoder:
    """Zero-forcing columns F = pinv(H), so h_k^T f_j = delta_kj before scaling.

    One SVD gives cond(H) and pinv(H), formed as np.linalg.pinv forms it;
    below COND_LIMIT no singular value falls under pinv's 1e-15 cutoff.
    """
    h_hat = np.atleast_2d(h_hat)
    try:
        u, s, vt = np.linalg.svd(h_hat.conj(), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"SVD of the channel matrix failed: {exc}") from exc
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not cond <= COND_LIMIT:
        i, j = _coherence_pair(h_hat)
        raise DomainError(
            f"channel matrix is ill-conditioned (cond={cond:.3g}); users "
            f"{i} and {j} have near-collinear directions")
    f = vt.T @ ((1.0 / s)[:, None] * u.T)
    return Precoder(columns=f, normalized=_normalize(f))


def mrt_precoder(h_hat: np.ndarray) -> Precoder:
    """Matched columns f_k = conj(h_k) for the transposed signal model."""
    h_hat = np.atleast_2d(h_hat)
    norms = np.linalg.norm(h_hat, axis=1)
    if np.any(norms == 0):
        raise DomainError("channel matrix has a zero row")
    f = h_hat.conj().T
    return Precoder(columns=f, normalized=_normalize(f))


def received_sinr(h_tilde: np.ndarray, g: np.ndarray, p_t: float) -> np.ndarray:
    """Exact per-user SINR on the true channel with unit noise variance."""
    h_tilde = np.atleast_2d(h_tilde)
    t2 = np.abs(h_tilde @ g) ** 2
    sig = p_t * np.diag(t2)
    interf = p_t * (t2.sum(axis=1) - np.diag(t2))
    return sig / (interf + 1.0)


def sum_rate(sinrs: np.ndarray) -> float:
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise DomainError("SINR values must be nonnegative")
    return float(np.sum(np.log2(1.0 + sinrs)))


@dataclass
class ScenarioProfiles:
    """Power profiles a scenario needs: the true channel's and the codebooks'."""

    channel: np.ndarray | None                 # (K, M) or None without lens
    codebook: dict[str, np.ndarray]            # quantizer token -> (K, M)


def fit_sector_model(profile_at: Callable[[float], np.ndarray], lens: LensSpec,
                     array: ArraySpec) -> GaussianProfileModel:
    """Fit the Gaussian spot model to profile_at(angle) at the sector anchors."""
    return fit_gaussian_model({float(a): profile_at(float(a))
                               for a in GAUSSIAN_ANCHORS_DEG}, lens, array)


def build_scenario_profiles(cfg: ScenarioConfig,
                            profile_at: Callable[[float], np.ndarray] | None = None
                            ) -> ScenarioProfiles:
    """Assemble exact channel-side profiles plus each quantizer's codebook source.

    profile_at maps a departure angle in degrees to a power profile; it
    defaults to propagation and may serve a swept table instead. Coarse-step
    (sub_bpm) codebooks are always propagated.
    """
    if not cfg.lens_enabled:
        return ScenarioProfiles(channel=None, codebook={})
    lens, grid, array = cfg.lens, cfg.grid, cfg.array
    propagated = partial(antenna_power_profile, lens, grid, array)
    if profile_at is None:
        profile_at = propagated
    exact = np.stack([profile_at(u.angle_deg) for u in cfg.users])
    codebook: dict[str, np.ndarray] = {}
    model = None
    for token in cfg.quantizers:
        kind, source, stride = parse_quantizer(token)
        if kind != "mvcq" or token in codebook:
            continue
        if source == "bpm":
            codebook[token] = exact
        elif source == "gaussian":
            if model is None:
                model = fit_sector_model(profile_at, lens, array)
            codebook[token] = np.stack([
                gaussian_profile(u.angle_deg, model, array, lens)
                for u in cfg.users])
        else:
            codebook[token] = np.stack([propagated(u.angle_deg, stride=stride)
                                        for u in cfg.users])
    return ScenarioProfiles(channel=exact, codebook=codebook)


@dataclass
class SimResult:
    """Mean sum-rate curves (and raw per-trial rates) per precoder/quantizer pair."""

    scenario: ScenarioConfig
    snr_db: np.ndarray
    mean: dict[tuple[str, str], np.ndarray]
    stderr: dict[tuple[str, str], np.ndarray]
    rates: dict[tuple[str, str], np.ndarray]   # (num_snr, trials)


def _fill_cell(cfg: ScenarioConfig, factors: list[np.ndarray],
               lens_roots: np.ndarray | None, roots: dict[str, np.ndarray],
               kinds: list[tuple[str, str]], rates: dict, si: int, ti: int) -> None:
    """Write every (precoder, quantizer) sum rate of one Monte-Carlo cell.

    The substream is keyed by (snr index, trial index) so results do not
    depend on execution order; channels are drawn before codebooks so every
    quantizer sees the same realizations. The correlated codebook S W is
    formed once per user and shared by rvq_corr and every mvcq token.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(si, ti)))
    h = np.stack([draw_channel(s, rng) for s in factors])
    if lens_roots is not None:
        h = lens_roots * h
    bases = [generate_rvq(cfg.array.num_antennas, cfg.bits, rng) for _ in factors]
    correlated = None

    p_t = 10.0 ** (cfg.snr_db[si] / 10.0)
    for token, kind in kinds:
        if kind == "full":
            h_hat = h / np.linalg.norm(h, axis=1, keepdims=True)
        else:
            books = [b.vectors for b in bases]
            if kind != "rvq":
                if correlated is None:
                    correlated = [correlate_codebook(b, s).vectors
                                  for b, s in zip(bases, factors)]
                books = correlated
            if kind == "mvcq":
                books = [_normalize_columns(r[:, None] * w)
                         for r, w in zip(roots[token], books)]
            # the codeword with the largest |h* c_j|; ties go to the lowest index
            h_hat = np.stack([w[:, np.argmax(np.abs(hu.conj() @ w))]
                              for hu, w in zip(h, books)])
        for prec in cfg.precoders:
            try:
                p = zf_precoder(h_hat) if prec == "zf" else mrt_precoder(h_hat)
            except LensMimoError as exc:
                raise type(exc)(
                    f"{exc} (quantizer {token}, snr {cfg.snr_db[si]} dB, "
                    f"trial {ti})") from exc
            rates[(prec, token)][si, ti] = sum_rate(
                received_sinr(h, p.normalized, p_t))


def run_monte_carlo(cfg: ScenarioConfig,
                    profiles: ScenarioProfiles | None = None) -> SimResult:
    """Ergodic sum rate over the SNR grid for every precoder/quantizer pair.

    Deterministic for a given config seed: each (snr, trial) cell draws from
    its own derived substream, so a cell's rates depend on the seed and its
    indices only, not on the trial count or the order cells run in.
    """
    if profiles is None:
        profiles = build_scenario_profiles(cfg)
    m = cfg.array.num_antennas
    factors = [matrix_sqrt(correlation_matrix(u, m, cfg.array.spacing))
               for u in cfg.users]
    # apply_lens on all-ones rows checks each profile once and returns sqrt(a)
    ones = np.ones((cfg.num_users, m))
    lens_roots = None if profiles.channel is None else apply_lens(ones, profiles.channel)
    roots = {t: apply_lens(ones, a) for t, a in profiles.codebook.items()}
    kinds = [(t, parse_quantizer(t)[0]) for t in cfg.quantizers]
    combos = [(p, q) for p in cfg.precoders for q in cfg.quantizers]
    n_snr, n_tr = len(cfg.snr_db), cfg.trials
    rates = {c: np.empty((n_snr, n_tr)) for c in combos}
    for si in range(n_snr):
        for ti in range(n_tr):
            _fill_cell(cfg, factors, lens_roots, roots, kinds, rates, si, ti)
    for prec, token in combos:
        if not np.all(np.isfinite(rates[(prec, token)])):
            raise DomainError(
                f"precoder {prec} with quantizer {token} gave non-finite sum rates")

    mean = {c: rates[c].mean(axis=1) for c in combos}
    if n_tr > 1:
        stderr = {c: rates[c].std(axis=1, ddof=1) / np.sqrt(n_tr) for c in combos}
    else:
        stderr = {c: np.zeros(n_snr) for c in combos}
    return SimResult(scenario=cfg, snr_db=np.asarray(cfg.snr_db, dtype=float),
                     mean=mean, stderr=stderr, rates=rates)


def render_csv(result: SimResult, precoder: str, quantizer: str) -> str:
    """One curve as CSV text with the full effective config in the header."""
    cfg = result.scenario
    lines = [f"# {k} = {v}" for k, v in cfg.flat_items()]
    lines.append(f"# precoder = {precoder}")
    lines.append(f"# quantizer = {quantizer}")
    lines.append("snr_db,mean_sum_rate,stderr,trials")
    mean = result.mean[(precoder, quantizer)]
    err = result.stderr[(precoder, quantizer)]
    for i, snr in enumerate(result.snr_db):
        lines.append(
            f"{float(snr)!r},{float(mean[i])!r},{float(err[i])!r},{cfg.trials}")
    return "\n".join(lines) + "\n"


def render_comparison(result: SimResult) -> str:
    """Side-by-side mean sum rates, one row per SNR, one column per combo."""
    cfg = result.scenario
    combos = [(p, q) for p in cfg.precoders for q in cfg.quantizers]
    lines = [f"# {k} = {v}" for k, v in cfg.flat_items()]
    header = ["snr_db"] + [f"{p}_{q.replace(':', '_')}" for p, q in combos]
    lines.append(",".join(header))
    for i, snr in enumerate(result.snr_db):
        row = [repr(float(snr))]
        row += [repr(float(result.mean[c][i])) for c in combos]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
