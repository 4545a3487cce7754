"""Downlink precoding, exact SINR, and the ergodic sum-rate Monte Carlo.

Signal model (transposed convention, no conjugation on the channel):
y_k = sqrt(P) h_k^T sum_j g_j s_j + n_k with unit-variance noise, so the
transmit power in dB doubles as the SNR axis. Precoders are built only from
the directions users feed back, chosen by feedback's codebook functions. The
precoders, SINR and sum rate take stacks, so the Monte Carlo precodes a block
of trials at once and evaluates every SNR point on it. No file I/O: the CLI
writes through profile_cache.write_tables.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .channel import (UserConfig, apply_lens, correlation_matrix, draw_channel,
                      matrix_sqrt)
from .errors import ConfigError, DomainError, LensMimoError
from .feedback import (Shaping, fit_gaussian_model, gaussian_profile, random_codebook,
                       select_codeword)
from .waveoptics import SECTOR_DEG, ArraySpec, LensSpec, PropagationGrid, antenna_power_profile

COND_LIMIT = 1e12
GRAM_SCREEN = 1e4 ** 2   # ZF by Gram matrix up to cond(H) = 1e4, erring ~cond(H)^2 u
BLOCK_MATRICES = 32    # (K, M) matrices precoded at once: ~1 MB at K = 4, M = 64
# the largest array a scenario may make the kernel allocate: 2^24 floats, 128 MB
MAX_BUFFER_VALUES = 2 ** 24

PRECODER_TOKENS = ("zf", "mrt")


def parse_quantizer(token: str) -> tuple[str, str, int]:
    """Split a quantizer token into (kind, profile source, stride).

    Tokens: full | rvq | rvq_corr | mvcq[:bpm | :gaussian | :sub_bpm:<stride>],
    where mvcq alone takes the bpm source and a stride is a positive integer
    in ASCII digits with no leading zero.
    """
    match = re.fullmatch(
        r"(full|rvq|rvq_corr)|mvcq(?::(bpm|gaussian)|:(sub_bpm):([1-9][0-9]*))?", token)
    if match is None:
        raise ConfigError(f"unknown quantizer '{token}': expected full, rvq, rvq_corr, "
                          "mvcq, mvcq:bpm, mvcq:gaussian or mvcq:sub_bpm:<stride>")
    plain, source, sub_bpm, stride = match.groups()
    if plain:
        return plain, "", 1
    return "mvcq", source or sub_bpm or "bpm", int(stride or 1)


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
        try:
            os.fsencode(self.name)    # the name goes into every output file name
            plain = (self.name not in ("", ".", "..") and self.name.isprintable()
                     and os.path.basename(self.name) == self.name)
        except UnicodeEncodeError:
            plain = False
        if not plain:
            raise ConfigError(f"scenario name {self.name!r} is not a plain file name")
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
        parsed = [parse_quantizer(q) for q in self.quantizers]
        for label, tokens, keys in (("precoder", self.precoders, self.precoders),
                                    ("quantizer", self.quantizers, parsed),
                                    ("snr point", self.snr_db, self.snr_db)):
            if not tokens:
                raise ConfigError(f"{label} list is empty")
            for i, key in enumerate(keys):
                if (j := keys.index(key)) < i:
                    also = (f" (also as '{tokens[j]}')"
                            if str(tokens[j]) != str(tokens[i]) else "")
                    raise ConfigError(f"{label} '{tokens[i]}' is listed more than once{also}")
        for p in self.precoders:
            if p not in PRECODER_TOKENS:
                raise ConfigError(f"unknown precoder '{p}'")
        for q, (kind, _, _) in zip(self.quantizers, parsed):
            if kind == "mvcq" and not self.lens_enabled:
                raise ConfigError(
                    f"quantizer '{q}' needs the lens enabled (it carries the "
                    "lens power profile)")
        m, cells = self.array.num_antennas, self.trials * len(self.snr_db)
        for what, size in (
                (f"the sum rates ({cells} cells x {len(self.precoders)} precoders x "
                 f"{len(self.quantizers)} quantizers)",
                 cells * len(self.precoders) * len(self.quantizers)),
                (f"the correlation factors ({k} x {2 * m} x {2 * m} reals)", 4 * k * m * m),
                (f"the per-trial codebook draw ({k} x {2 * m} x {2 ** self.bits} reals)",
                 k * 2 * m * 2 ** self.bits)):
            if size > MAX_BUFFER_VALUES:
                raise ConfigError(f"{what} would take {size} values, over the limit "
                                  f"of {MAX_BUFFER_VALUES} per array")

    @property
    def num_users(self) -> int:
        return len(self.users)

    def flat_items(self) -> list[tuple[str, object]]:
        """Key-value echo of the complete effective configuration."""
        lens, array, grid = self.lens, self.array, self.grid
        return [
            ("scenario", self.name),
            ("num_antennas", array.num_antennas),
            ("num_users", self.num_users),
            ("user_angles_deg", tuple(u.angle_deg for u in self.users)),
            ("sigma_deg", tuple(u.sigma_deg for u in self.users)),
            ("spacing", array.spacing),
            ("bits", self.bits),
            ("lens_enabled", self.lens_enabled),
            ("focal_length", lens.focal_length),
            ("aperture", lens.aperture),
            ("lens_distance", array.lens_distance),
            ("grid_dx", grid.dx),
            ("grid_dz", grid.dz),
            ("window", grid.window),
            ("precoders", self.precoders),
            ("quantizers", self.quantizers),
            ("snr_db", self.snr_db),
            ("trials", self.trials),
            ("seed", self.seed),
        ]


def _normalize(f: np.ndarray) -> np.ndarray:
    """Columns g_k = f_k/(sqrt(K)|f_k|), of total power sum |g_k|^2 = 1."""
    norms = np.linalg.norm(f, axis=-2, keepdims=True)
    if np.any(norms == 0):
        raise DomainError("precoder has a zero column")
    return f / (np.sqrt(f.shape[-1]) * norms)


def zf_precoder(h_hat: np.ndarray) -> np.ndarray:
    """Normalized (..., M, K) zero-forcing columns of F = H^H G^-1 = pinv(H),
    G = H H^H, of each stacked H, so h_k^T f_j = delta_kj before scaling.

    H whose |G|_F |G^-1|_F (>= cond(G) = cond(H)^2) exceeds GRAM_SCREEN or is
    not a number takes an SVD formed as np.linalg.pinv forms it, with cond(H)
    exact: below COND_LIMIT no singular value falls under pinv's 1e-15 cutoff,
    and above it the users with near-collinear directions are named.
    """
    h_hat = np.atleast_2d(h_hat)
    h_h = h_hat.conj().swapaxes(-1, -2)
    gram = h_hat @ h_h
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:    # an exactly singular G fails the screen alone
            inv = np.full_like(gram, np.nan)
            for i in np.ndindex(gram.shape[:-2]):
                with contextlib.suppress(np.linalg.LinAlgError):
                    inv[i] = np.linalg.inv(gram[i])
        screen = np.linalg.norm(gram, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    f, slow = h_h @ inv, ~(screen <= GRAM_SCREEN)
    if slow.any():
        bad = h_hat[slow]
        try:
            u, s, vt = np.linalg.svd(bad.conj(), full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"SVD of the channel matrix failed: {exc}") from exc
        cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], np.inf),
                         where=s[..., -1] > 0)
        if not np.all(cond <= COND_LIMIT):
            j = np.argmin(cond <= COND_LIMIT)
            rows = bad[j] / np.linalg.norm(bad[j], axis=1, keepdims=True)
            gram = np.abs(rows @ rows.conj().T)
            np.fill_diagonal(gram, 0.0)
            i, k = sorted(np.unravel_index(np.argmax(gram), gram.shape))
            raise DomainError(
                f"channel matrix is ill-conditioned (cond={cond[j]:.3g}); users "
                f"{i} and {k} have near-collinear directions")
        f[slow] = vt.swapaxes(-1, -2) @ ((1.0 / s)[..., None] * u.swapaxes(-1, -2))
    return _normalize(f)


def mrt_precoder(h_hat: np.ndarray) -> np.ndarray:
    """Normalized (..., M, K) matched columns f_k = conj(h_k) (transposed model)."""
    h_hat = np.atleast_2d(h_hat)
    if not np.linalg.norm(h_hat, axis=-1).all():
        raise DomainError("channel matrix has a zero row")
    return _normalize(h_hat.conj().swapaxes(-1, -2))


def received_sinr(h_tilde: np.ndarray, g: np.ndarray,
                  p_t: float | np.ndarray) -> np.ndarray:
    """Exact per-user SINR (..., K) on the true channel with unit noise variance."""
    t2 = np.abs(np.atleast_2d(h_tilde) @ g) ** 2
    sig = np.diagonal(t2, axis1=-2, axis2=-1)
    return p_t * sig / (p_t * (t2.sum(axis=-1) - sig) + 1.0)


def sum_rate(sinrs: np.ndarray) -> np.ndarray:
    """Sum of log2(1 + SINR) over the last axis, one rate per SINR vector."""
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise DomainError("SINR values must be nonnegative")
    return np.log2(1.0 + sinrs).sum(axis=-1)


@dataclass
class ScenarioProfiles:
    """Power profiles a scenario needs: the true channel's and the codebooks'."""

    channel: np.ndarray                        # (K, M), all ones without lens
    codebook: dict[str, np.ndarray]            # quantizer token -> (K, M)


def build_scenario_profiles(cfg: ScenarioConfig,
                            profile_at: Callable[[float], np.ndarray] | None = None
                            ) -> ScenarioProfiles:
    """Assemble exact channel-side profiles plus each quantizer's codebook source.

    profile_at maps a departure angle in degrees to a power profile; it
    defaults to propagation and may serve a swept table instead. Coarse-step
    (sub_bpm) codebooks are always propagated.
    """
    if not cfg.lens_enabled:
        return ScenarioProfiles(np.ones((cfg.num_users, cfg.array.num_antennas)), {})
    lens, grid, array = cfg.lens, cfg.grid, cfg.array
    propagated = partial(antenna_power_profile, lens, grid, array)
    if profile_at is None:
        profile_at = propagated
    exact = np.stack([profile_at(u.angle_deg) for u in cfg.users])
    codebook: dict[str, np.ndarray] = {}
    for token in cfg.quantizers:
        kind, source, stride = parse_quantizer(token)
        if kind != "mvcq":
            continue
        if source == "bpm":
            codebook[token] = exact
        elif source == "gaussian":
            model = fit_gaussian_model(profile_at, lens, array,
                                       [u.angle_deg for u in cfg.users])
            codebook[token] = np.stack([
                gaussian_profile(u.angle_deg, model) for u in cfg.users])
        else:
            codebook[token] = np.stack([propagated(u.angle_deg, stride=stride)
                                        for u in cfg.users])
    return ScenarioProfiles(channel=exact, codebook=codebook)


@dataclass
class SimResult:
    """Mean sum-rate curves (and raw per-trial rates) per precoder/quantizer pair."""

    snr_db: np.ndarray
    mean: dict[tuple[str, str], np.ndarray]
    stderr: dict[tuple[str, str], np.ndarray]
    rates: dict[tuple[str, str], np.ndarray]   # (num_snr, trials)


def _trial_span(cfg: ScenarioConfig, plan: tuple, lo: int, hi: int) -> np.ndarray:
    """Sum rates (precoders, quantizers, snr, hi - lo) of trials lo..hi-1 under
    run_monte_carlo's plan (factors, lens roots, full rows, selected rows, Shaping).

    Trial ti draws from the substream keyed by ti alone, its K channels before
    its K codebooks so every quantizer sees the same realizations, and feeds
    back every selected row from one select_codeword call. The span is precoded
    as one stack per precoder and rated at every SNR point with no numpy
    warning. A precoder failure names the first SNR point; a non-finite rate
    names the span's first such cell in (snr, trial, quantizer, precoder) order.
    """
    factors, lens_roots, full, rows, shaping = plan
    k, m, n = cfg.num_users, cfg.array.num_antennas, hi - lo
    h_true = np.empty((n, k, m), dtype=complex)
    h_hat = np.empty((n, len(cfg.quantizers), k, m), dtype=complex)
    for c in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(lo + c,)))
        h_true[c] = h = lens_roots * draw_channel(factors, rng)
        if full:
            h_hat[c, full] = h / np.linalg.norm(h, axis=1, keepdims=True)
        if rows:
            h_hat[c, rows] = select_codeword(h, random_codebook(m, cfg.bits, rng, k), shaping)

    def context(si: int, c: int, q: int) -> str:
        return f"(quantizer {cfg.quantizers[q]}, snr {cfg.snr_db[si]} dB, trial {lo + c})"

    p_t = np.array([10.0 ** (s / 10.0) for s in cfg.snr_db])[:, None, None, None]
    precoders = [zf_precoder if p == "zf" else mrt_precoder for p in cfg.precoders]
    rates = np.empty((len(p_t), *h_hat.shape[:2], len(precoders)))
    for i, precoder in enumerate(precoders):
        try:
            g = precoder(h_hat)
        except LensMimoError:
            for c, q, p in np.ndindex(*h_hat.shape[:2], len(precoders)):
                try:
                    precoders[p](h_hat[c, q])
                except LensMimoError as exc:
                    raise type(exc)(f"{exc} {context(0, c, q)}") from exc
            raise
        with np.errstate(over="ignore", invalid="ignore"):
            rates[..., i] = sum_rate(received_sinr(h_true[:, None], g, p_t))
    if not np.isfinite(rates).all():
        si, c, q, i = np.argwhere(~np.isfinite(rates))[0]
        raise DomainError(f"precoder {cfg.precoders[i]} gave a non-finite sum rate "
                          f"{context(si, c, q)}")
    return rates.transpose(3, 2, 0, 1)


def run_monte_carlo(cfg: ScenarioConfig,
                    profiles: ScenarioProfiles | None = None) -> SimResult:
    """Ergodic sum rate over the SNR grid for every precoder/quantizer pair.

    Deterministic for a given config seed, with common random numbers across
    SNR: each trial draws, quantizes and precodes once from its own derived
    substream, and every SNR point is evaluated on it. A trial's rates depend
    on the seed and its index only, so an SNR point's results do not depend on
    the rest of the grid, the trial count or the split of the trials into
    spans of at most BLOCK_MATRICES matrices.
    """
    if profiles is None:
        profiles = build_scenario_profiles(cfg)
    k, m = cfg.num_users, cfg.array.num_antennas
    factors = np.stack([matrix_sqrt(correlation_matrix(u, m, cfg.array.spacing))
                        for u in cfg.users])
    # apply_lens on all-ones rows checks each profile once and returns sqrt(a)
    ones = np.ones((k, m))
    lens_roots = apply_lens(ones, profiles.channel)
    kinds = [parse_quantizer(t)[0] for t in cfg.quantizers]
    full, plain, shaped = ([q for q, kind in enumerate(kinds) if kind in group]
                           for group in (("full",), ("rvq",), ("rvq_corr", "mvcq")))
    rows, shaping = plain + shaped, None
    if rows:
        roots = np.stack([apply_lens(ones, profiles.codebook[t]) if t in profiles.codebook
                          else ones for t in (cfg.quantizers[q] for q in rows)])
        shaping = Shaping(roots, factors if shaped else None, len(plain))
    plan = (factors, lens_roots, full, rows, shaping)
    n_snr, n_tr = len(cfg.snr_db), cfg.trials
    per_span = max(1, BLOCK_MATRICES // len(kinds))
    out = np.empty((len(cfg.precoders), len(kinds), n_snr, n_tr))
    for lo in range(0, n_tr, per_span):
        out[..., lo:lo + per_span] = _trial_span(cfg, plan, lo, min(lo + per_span, n_tr))
    rates = {(p, t): out[i, q]
             for i, p in enumerate(cfg.precoders) for q, t in enumerate(cfg.quantizers)}
    mean = {c: r.mean(axis=1) for c, r in rates.items()}
    stderr = {c: r.std(axis=1, ddof=1) / np.sqrt(n_tr) if n_tr > 1 else np.zeros(n_snr)
              for c, r in rates.items()}
    return SimResult(snr_db=np.asarray(cfg.snr_db, dtype=float), mean=mean,
                     stderr=stderr, rates=rates)
