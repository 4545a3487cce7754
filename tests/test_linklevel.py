"""Precoders, exact SINR, scenario validation, and the Monte-Carlo driver."""

import dataclasses
import functools
import itertools
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta, gammaln, roots_genlaguerre
from scipy.stats import gamma as gamma_dist

from lensmimo import (ArraySpec, ConfigError, DomainError, LensSpec, ScenarioConfig,
                      Shaping, UserConfig, antenna_power_profile, apply_lens,
                      correlation_matrix, draw_channel, gaussian_profile, matrix_sqrt,
                      mrt_precoder, parse_quantizer, random_codebook, received_sinr,
                      run_monte_carlo, select_codeword, sum_rate, zf_precoder)
from lensmimo import linklevel
from lensmimo.cli import main, parse_config
from lensmimo.feedback import GAUSSIAN_ANCHORS_DEG, fit_gaussian_model
from lensmimo.linklevel import ScenarioProfiles, build_scenario_profiles


SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _draw(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unit_power(f):
    """Columns f_k / (sqrt(K) |f_k|): what the precoders return for columns F."""
    return f / (np.sqrt(f.shape[-1]) * np.linalg.norm(f, axis=-2, keepdims=True))


# ---------------------------------------------------------------------------
# precoders


def test_zf_matches_gram_inverse_oracle():
    """F = H^H (H H^H)^{-1} for a full-row-rank matrix, power-normalized."""
    rng = np.random.default_rng(3)
    h = _draw(rng, (2, 4))
    ref = _unit_power(h.conj().T @ np.linalg.inv(h @ h.conj().T))
    assert np.allclose(zf_precoder(h), ref, atol=1e-10)


def test_zf_nulls_cross_channels():
    rng = np.random.default_rng(4)
    h = _draw(rng, (4, 16))
    g = zf_precoder(h)
    t = h @ g
    off = t - np.diag(np.diag(t))
    assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(np.diag(t)))


def test_zf_single_user_matches_mrt_direction():
    rng = np.random.default_rng(5)
    h = _draw(rng, (1, 8))
    g_zf = zf_precoder(h)[:, 0]
    g_mrt = mrt_precoder(h)[:, 0]
    assert abs(abs(np.vdot(g_zf, g_mrt)) - np.linalg.norm(g_zf)
               * np.linalg.norm(g_mrt)) <= 1e-12


def test_zf_columns_equal_numpy_pinv():
    """The Gram route errs by about cond(H)^2 u against pinv's SVD; these
    draws have cond(H) < 10, so 1e-13 relative (Frobenius) leaves room."""
    rng = np.random.default_rng(14)
    for shape in ((1, 8), (4, 64), (5, 16)):
        h = _draw(rng, shape)
        ref = _unit_power(np.linalg.pinv(h))
        assert np.linalg.cond(h) < 10.0
        assert np.linalg.norm(zf_precoder(h) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_ill_conditioned_zf_takes_the_svd_route_exactly():
    """A cond(H) = 1e8 matrix fails the Gram screen and equals pinv bit for bit,
    also inside a stack of well-conditioned ones, which keep the Gram route;
    pinv's columns are normalized as the precoder normalizes its own."""
    rng = np.random.default_rng(15)
    q1, _ = np.linalg.qr(_draw(rng, (4, 4)))
    q2, _ = np.linalg.qr(_draw(rng, (16, 4)))
    bad = (q1 * np.array([1.0, 1e-2, 1e-5, 1e-8])) @ q2.conj().T
    assert np.linalg.cond(bad) == pytest.approx(1e8, rel=1e-6)
    assert np.array_equal(zf_precoder(bad), linklevel._normalize(np.linalg.pinv(bad)))
    stack = _draw(rng, (3, 4, 16))
    stack[1] = bad
    g = zf_precoder(stack)
    assert np.array_equal(g[1], linklevel._normalize(np.linalg.pinv(bad)))
    for i in (0, 2):
        assert np.array_equal(g[i], zf_precoder(stack[i]))
        assert not np.array_equal(g[i], linklevel._normalize(np.linalg.pinv(stack[i])))


def test_exactly_singular_gram_takes_the_svd_route_alone():
    """Rows 2^-30 apart make H H^H exactly singular in float64 although
    cond(H) ~ 2e9 is under COND_LIMIT: that matrix takes the SVD, and the
    other matrices of its stack keep the bits they have on their own; pinv's
    columns are normalized as the precoder normalizes its own."""
    h = np.zeros((2, 4), dtype=complex)
    h[:, 0] = 1.0
    h[1, 1] = 2.0 ** -30
    stack = _draw(np.random.default_rng(16), (3, 2, 4))
    stack[1] = h
    g = zf_precoder(stack)
    assert np.array_equal(g[1], linklevel._normalize(np.linalg.pinv(h)))
    for i in (0, 2):
        assert np.array_equal(g[i], zf_precoder(stack[i]))


def test_zf_maps_svd_failure_to_domain_error():
    h = np.full((2, 4), np.nan, dtype=complex)
    with pytest.raises(DomainError):
        zf_precoder(h)


def test_zf_rejects_near_collinear_users():
    rng = np.random.default_rng(6)
    v = _draw(rng, (8,))
    h = np.stack([v, v * (1.0 + 1e-15)])
    with pytest.raises(DomainError, match="near-collinear"):
        zf_precoder(h)


def test_mrt_beamforming_gain():
    """|h_k^T g_k| = |h_k| / sqrt(K) when columns are matched."""
    rng = np.random.default_rng(7)
    h = _draw(rng, (3, 16))
    g = mrt_precoder(h)
    for k in range(3):
        assert abs(h[k] @ g[:, k]) == pytest.approx(
            np.linalg.norm(h[k]) / np.sqrt(3.0), abs=1e-12)


def test_mrt_rejects_zero_row():
    h = np.zeros((2, 4), dtype=complex)
    h[0, 0] = 1.0
    with pytest.raises(DomainError, match="zero row"):
        mrt_precoder(h)


def test_precoders_agree_for_orthogonal_rows():
    """With orthogonal channel rows ZF has nothing to null; both reduce to
    matched columns."""
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(_draw(rng, (8, 3)))
    h = q.T * np.array([[2.0], [0.5], [1.3]])      # orthogonal, unequal norms
    g_zf = zf_precoder(h)
    g_mrt = mrt_precoder(h)
    assert np.allclose(g_zf, g_mrt, atol=1e-12)


def test_power_budget_is_unity():
    rng = np.random.default_rng(9)
    h = _draw(rng, (4, 12))
    for prec in (zf_precoder, mrt_precoder):
        g = prec(h)
        assert np.sum(np.linalg.norm(g, axis=0) ** 2) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# SINR and sum rate


def test_received_sinr_zero_precoder_is_zero():
    h = np.ones((2, 4), dtype=complex)
    assert np.array_equal(received_sinr(h, np.zeros((4, 2)), 10.0), np.zeros(2))


def test_zf_sinr_closed_form():
    """Perfect-CSI ZF: SINR_k = P / (K [(H H^H)^{-1}]_kk), any row scaling."""
    rng = np.random.default_rng(11)
    h = _draw(rng, (3, 16))
    p_t = 10.0 ** (12.0 / 10.0)
    rows = h / np.linalg.norm(h, axis=1, keepdims=True)
    sinr = received_sinr(h, zf_precoder(rows), p_t)
    gram_inv = np.linalg.inv(h @ h.conj().T)
    ref = p_t / (3.0 * np.real(np.diag(gram_inv)))
    assert np.allclose(sinr, ref, rtol=1e-9)


def test_zf_sinr_scales_linearly_with_power():
    rng = np.random.default_rng(12)
    h = _draw(rng, (3, 16))
    g = zf_precoder(h)
    s1 = received_sinr(h, g, 2.0)
    s10 = received_sinr(h, g, 20.0)
    assert np.allclose(s10, 10.0 * s1, rtol=1e-12)


def test_single_user_sinr_is_beamforming_power():
    rng = np.random.default_rng(13)
    h = _draw(rng, (1, 8))
    g = mrt_precoder(h)
    assert received_sinr(h, g, 5.0)[0] == pytest.approx(
        5.0 * np.linalg.norm(h) ** 2, rel=1e-12)


def test_sum_rate_values():
    assert sum_rate(np.array([])) == 0.0
    assert sum_rate(np.array([1.0])) == pytest.approx(1.0)
    assert sum_rate(np.array([3.0, 3.0])) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        sum_rate(np.array([-0.5]))


@pytest.mark.parametrize("k", [1, 4])
def test_stacked_calls_equal_single_calls(k):
    """A stack of n matrices gives bit for bit what n single calls give."""
    rng = np.random.default_rng(20 + k)
    h_hat, h_true = _draw(rng, (7, k, 64)), _draw(rng, (7, k, 64))
    p_t = 10.0 ** rng.uniform(0.0, 2.0, 7)
    for precoder in (zf_precoder, mrt_precoder):
        stacked = precoder(h_hat)
        singles = [precoder(h) for h in h_hat]
        assert np.array_equal(stacked, np.stack(singles))
        sinrs = received_sinr(h_true, stacked, p_t[:, None])
        assert np.array_equal(sinrs, np.stack([
            received_sinr(h, single, power)
            for h, single, power in zip(h_true, singles, p_t)]))
        assert np.array_equal(sum_rate(sinrs), [sum_rate(s) for s in sinrs])


def test_stacked_zf_names_the_first_collinear_matrix():
    rng = np.random.default_rng(27)
    h_hat = _draw(rng, (7, 4, 64))
    for j in (5, 2):
        h_hat[j, 3] = h_hat[j, 1] * (1.0 + 1e-15)
    with pytest.raises(DomainError, match="near-collinear") as single:
        zf_precoder(h_hat[2])
    with pytest.raises(DomainError, match="near-collinear") as stacked:
        zf_precoder(h_hat)
    assert str(stacked.value) == str(single.value)


# ---------------------------------------------------------------------------
# quantizer tokens and scenario validation


def test_parse_quantizer_tokens():
    assert parse_quantizer("full") == ("full", "", 1)
    assert parse_quantizer("rvq") == ("rvq", "", 1)
    assert parse_quantizer("rvq_corr") == ("rvq_corr", "", 1)
    assert parse_quantizer("mvcq") == ("mvcq", "bpm", 1)
    assert parse_quantizer("mvcq:bpm") == ("mvcq", "bpm", 1)
    assert parse_quantizer("mvcq:gaussian") == ("mvcq", "gaussian", 1)
    assert parse_quantizer("mvcq:sub_bpm:10") == ("mvcq", "sub_bpm", 10)
    assert parse_quantizer("mvcq:sub_bpm:1") == ("mvcq", "sub_bpm", 1)
    assert parse_quantizer("mvcq:sub_bpm:123") == ("mvcq", "sub_bpm", 123)


@pytest.mark.parametrize("token", [
    "zf", "mvcq:foo", "mvcq:sub_bpm", "mvcq:sub_bpm:x", "mvcq:sub_bpm:0",
    "mvcq:gaussian:3", "rvq:bpm", "full:bpm", "mvcq:sub_bpm:10:junk",
    "mvcq:sub_bpm: 5", "mvcq:sub_bpm:1_0", "mvcq:sub_bpm:+5", "mvcq:sub_bpm:010",
    "mvcq:sub_bpm:\u0665",
])
def test_parse_quantizer_rejects(token):
    with pytest.raises(ConfigError):
        parse_quantizer(token)


def _two_users():
    return (UserConfig(-10.0, 5.0), UserConfig(10.0, 5.0))


def test_scenario_validation():
    with pytest.raises(ConfigError, match="exceeds antenna count"):
        ScenarioConfig(users=_two_users(), array=ArraySpec(num_antennas=1))
    with pytest.raises(ConfigError, match="sector"):
        ScenarioConfig(users=(UserConfig(45.0, 5.0),))
    with pytest.raises(ConfigError):
        ScenarioConfig(users=_two_users(), precoders=("svd",))
    with pytest.raises(ConfigError):
        ScenarioConfig(users=_two_users(), quantizers=("mvcq:nope",))
    with pytest.raises(ConfigError, match="lens"):
        ScenarioConfig(users=_two_users(), lens_enabled=False,
                       quantizers=("mvcq",))
    with pytest.raises(ConfigError):
        ScenarioConfig(users=_two_users(), snr_db=())
    with pytest.raises(ConfigError):
        ScenarioConfig(users=_two_users(), trials=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(users=_two_users(), bits=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(users=(),)
    for tokens in (dict(quantizers=("rvq", "mvcq", "rvq")),
                   dict(precoders=("zf", "zf"))):
        with pytest.raises(ConfigError, match="more than once"):
            ScenarioConfig(users=_two_users(), **tokens)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # rejected without a numpy warning
        with pytest.raises(ConfigError, match="linear power"):
            ScenarioConfig(users=_two_users(), snr_db=(0.0, 4000.0))


def test_scenario_without_lens_allows_plain_quantizers():
    cfg = ScenarioConfig(users=_two_users(), lens_enabled=False,
                         quantizers=("rvq", "rvq_corr", "full"))
    profiles = build_scenario_profiles(cfg)
    assert np.array_equal(profiles.channel, np.ones((2, 64)))
    assert profiles.codebook == {}


# ---------------------------------------------------------------------------
# Monte-Carlo driver


def _small_cfg(**overrides):
    base = dict(users=_two_users(), name="unit", array=ArraySpec(num_antennas=16),
                lens_enabled=False, quantizers=("rvq", "full"),
                precoders=("zf", "mrt"), snr_db=(0.0, 10.0), trials=12,
                seed=321, bits=4)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_monte_carlo_is_seed_deterministic():
    cfg = _small_cfg()
    r1 = run_monte_carlo(cfg)
    r2 = run_monte_carlo(cfg)
    for combo in r1.rates:
        assert np.array_equal(r1.rates[combo], r2.rates[combo])


def _cells_per_block(cfg):
    return max(1, linklevel.BLOCK_MATRICES // len(cfg.quantizers))


def test_monte_carlo_trial_prefix_is_stable():
    """Each trial's substream is keyed by its trial index, so more
    trials leave the earlier ones bit for bit unchanged, also when the
    longer run precodes its cells in more blocks."""
    short = run_monte_carlo(_small_cfg(trials=5))
    for trials in (12, _cells_per_block(_small_cfg()) + 3):
        long = run_monte_carlo(_small_cfg(trials=trials))
        for combo in long.rates:
            assert np.array_equal(long.rates[combo][:, :5], short.rates[combo])


def test_all_ones_channel_profile_pairs_with_the_lens_off_run():
    """The lens enters a trial only as a weight on draws made before it, so the
    four_user_downlink users with the lens on and an all-ones channel profile
    give the lens-off run's rvq rates byte for byte: trial t of a lens-on and
    a lens-off scenario sees the same numbers."""
    cfg = dataclasses.replace(parse_config(str(SCENARIOS / "four_user_downlink.ini")),
                              quantizers=("rvq",), trials=20)
    k, m = cfg.num_users, cfg.array.num_antennas
    assert cfg.lens_enabled
    ones = run_monte_carlo(cfg, ScenarioProfiles(channel=np.ones((k, m)), codebook={}))
    off = run_monte_carlo(dataclasses.replace(cfg, lens_enabled=False))
    assert set(ones.rates) == set(off.rates) == {(p, "rvq") for p in cfg.precoders}
    for c in off.rates:
        assert ones.rates[c].tobytes() == off.rates[c].tobytes(), c


def _cell_rng(cfg, ti):
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(ti,)))


def _reference_cell_rates(cfg, profiles, factors, ti):
    """One Monte-Carlo trial built user by user from the public functions:
    one channel draw, codebook, correlation and selection per user, then
    one precoding and one SINR per SNR point. Returns rates over the grid."""
    k, m = cfg.num_users, cfg.array.num_antennas
    rng = _cell_rng(cfg, ti)
    h = np.stack([draw_channel(s, rng) for s in factors])
    h_true = np.stack([apply_lens(h[u], profiles.channel[u]) for u in range(k)])
    bases = [random_codebook(m, cfg.bits, rng) for _ in range(k)]

    out = {}
    for token in cfg.quantizers:
        kind, _, _ = parse_quantizer(token)
        if kind == "full":
            h_hat = h_true / np.linalg.norm(h_true, axis=1, keepdims=True)
        else:
            rows = []
            for u in range(k):
                shaping = None
                if kind in ("rvq_corr", "mvcq"):
                    root_a = np.ones((1, m))
                    if kind == "mvcq":
                        root_a = np.sqrt(profiles.codebook[token][u])[None]
                    shaping = Shaping(root_a, factors[u][None])
                rows.append(select_codeword(h_true[u][None], bases[u], shaping)[0])
            h_hat = np.stack(rows)
        for prec in cfg.precoders:
            g = zf_precoder(h_hat) if prec == "zf" else mrt_precoder(h_hat)
            out[(prec, token)] = np.array([
                sum_rate(received_sinr(h_true, g, 10.0 ** (snr / 10.0)))
                for snr in cfg.snr_db])
    return out


def _unit_columns(w):
    return w / np.linalg.norm(w, axis=0)


def _normalized_chain_cell(cfg, profiles, factors, ti):
    """One trial the way every codebook used to be built: each construction
    step renormalizes all columns, and a user picks argmax |h^H w_j| among
    unit columns. Returns {token: (h_hat, picks, books)} and the rates over
    the SNR grid."""
    k, m, n = cfg.num_users, cfg.array.num_antennas, 2 ** cfg.bits
    rng = _cell_rng(cfg, ti)
    h = np.stack([draw_channel(s, rng) for s in factors])
    h_true = np.stack([apply_lens(h[u], profiles.channel[u]) for u in range(k)])
    bases = [_unit_columns(_draw(rng, (m, n))) for _ in range(k)]

    chosen, rates = {}, {}
    for token in cfg.quantizers:
        kind, _, _ = parse_quantizer(token)
        if kind == "full":
            h_hat = h_true / np.linalg.norm(h_true, axis=1, keepdims=True)
            chosen[token] = (h_hat, None, None)
        else:
            rows, picks, books = [], [], []
            for u in range(k):
                cb = bases[u]
                if kind in ("rvq_corr", "mvcq"):
                    cb = _unit_columns(factors[u] @ cb)
                if kind == "mvcq":
                    root_a = np.sqrt(profiles.codebook[token][u])
                    cb = _unit_columns(root_a[:, None] * cb)
                picks.append(int(np.argmax(np.abs(h_true[u].conj() @ cb))))
                rows.append(cb[:, picks[-1]])
                books.append(cb)
            h_hat = np.stack(rows)
            chosen[token] = (h_hat, picks, books)
        for prec in cfg.precoders:
            g = zf_precoder(h_hat) if prec == "zf" else mrt_precoder(h_hat)
            rates[(prec, token)] = [
                sum_rate(received_sinr(h_true, g, 10.0 ** (snr / 10.0)))
                for snr in cfg.snr_db]
    return chosen, rates


def _kernel_cfg(lens_enabled, **overrides):
    quantizers = ("full", "rvq", "rvq_corr")
    if lens_enabled:
        quantizers += ("mvcq", "mvcq:gaussian", "mvcq:sub_bpm:5")
    return _small_cfg(lens_enabled=lens_enabled, quantizers=quantizers,
                      **overrides)


def _factors(cfg):
    return [matrix_sqrt(correlation_matrix(u, cfg.array.num_antennas,
                                           cfg.array.spacing))
            for u in cfg.users]


@pytest.mark.parametrize("lens_enabled", [True, False])
def test_monte_carlo_matches_reference_cells(lens_enabled):
    """Also past a block boundary, where the kernel precodes in two blocks."""
    cfg = _kernel_cfg(lens_enabled, bits=3, trials=4)
    profiles, factors = build_scenario_profiles(cfg), _factors(cfg)
    for trials in (4, _cells_per_block(cfg) + 3):
        cfg = _kernel_cfg(lens_enabled, bits=3, trials=trials)
        res = run_monte_carlo(cfg, profiles)
        ref = {c: np.empty_like(r) for c, r in res.rates.items()}
        for ti in range(cfg.trials):
            for c, rates in _reference_cell_rates(cfg, profiles, factors, ti).items():
                ref[c][:, ti] = rates
        assert set(ref) == {(p, q) for p in ("zf", "mrt") for q in cfg.quantizers}
        for c in ref:
            assert np.array_equal(res.rates[c], ref[c]), (trials, c)


@pytest.mark.parametrize("lens_enabled", [True, False])
def test_monte_carlo_matches_the_normalized_chain(monkeypatch, lens_enabled):
    """Scoring raw codewords by |h^H w_j| / |w_j| and normalizing only the
    chosen one picks the same codeword as normalizing every construction
    step, for every quantizer kind and both precoders; rates agree to
    rounding, and exactly for the unquantized channel."""
    cfg = _kernel_cfg(lens_enabled, bits=4, trials=6)
    profiles = build_scenario_profiles(cfg)
    fed_back = {"zf": [], "mrt": []}
    for prec in fed_back:
        name = f"{prec}_precoder"
        def record(h_hat, _precoder=getattr(linklevel, name), _log=fed_back[prec]):
            # the kernel precodes a block of trials at once: log each matrix
            _log.extend(h_hat.reshape(-1, *h_hat.shape[-2:]).copy())
            return _precoder(h_hat)
        monkeypatch.setattr(linklevel, name, record)
    res = run_monte_carlo(cfg, profiles)
    monkeypatch.undo()

    factors = _factors(cfg)
    calls = {prec: iter(log) for prec, log in fed_back.items()}
    picks = 0
    for ti in range(cfg.trials):
        chosen, rates = _normalized_chain_cell(cfg, profiles, factors, ti)
        for token in cfg.quantizers:
            ref_hat, ref_picks, books = chosen[token]
            for prec in cfg.precoders:
                h_hat = next(calls[prec])
                rate = res.rates[(prec, token)][:, ti]
                if ref_picks is None:
                    assert np.array_equal(h_hat, ref_hat)
                    assert np.array_equal(rate, rates[(prec, token)])
                    continue
                got = [int(np.argmax(np.abs(b.conj().T @ row)))
                       for b, row in zip(books, h_hat)]
                assert got == ref_picks, (token, ti)
                assert np.allclose(h_hat, ref_hat, rtol=0.0, atol=1e-12)
                assert rate == pytest.approx(rates[(prec, token)], rel=1e-12)
                picks += len(got)
    assert all(next(log, None) is None for log in calls.values())
    assert picks == (len(cfg.quantizers) - 1) * len(cfg.precoders) * \
        cfg.num_users * cfg.trials


def test_snr_points_do_not_depend_on_the_rest_of_the_grid(monkeypatch):
    """Every SNR point is evaluated on the same trials, so a two-point run
    gives each point's rates, mean and stderr bit for bit as a run at that
    point alone, and ZF runs once per block of trials, not per SNR point."""
    cfg = _kernel_cfg(True, bits=3, trials=4)
    profiles = build_scenario_profiles(cfg)
    cfg = _kernel_cfg(True, bits=3, trials=_cells_per_block(cfg) + 3)
    zf_calls = []

    def counted(h_hat, _zf=linklevel.zf_precoder):
        zf_calls.append(h_hat.shape[0])
        return _zf(h_hat)
    monkeypatch.setattr(linklevel, "zf_precoder", counted)
    grid = run_monte_carlo(cfg, profiles)
    assert zf_calls == [_cells_per_block(cfg), 3]
    for si, snr in enumerate(cfg.snr_db):
        alone = run_monte_carlo(
            _kernel_cfg(True, bits=3, trials=cfg.trials, snr_db=(snr,)), profiles)
        for c in grid.rates:
            assert np.array_equal(grid.rates[c][si], alone.rates[c][0]), (snr, c)
            assert np.array_equal(grid.mean[c][si:si + 1], alone.mean[c]), (snr, c)
            assert np.array_equal(grid.stderr[c][si:si + 1], alone.stderr[c]), (snr, c)


@functools.cache
def _layout_profiles():
    return build_scenario_profiles(_kernel_cfg(True, bits=3, trials=1))


@settings(max_examples=25, deadline=None)
@given(block=st.integers(1, 64), trials=st.integers(1, 12),
       quantizers=st.lists(st.sampled_from(_kernel_cfg(True).quantizers), min_size=1,
                           max_size=6, unique=True))
def test_rates_do_not_depend_on_the_block_layout(block, trials, quantizers):
    """Every rate is byte-identical to the rates at BLOCK_MATRICES = 32 for any
    block size, trial count and quantizer set: the selections, ZF by Gram
    matrix and its SVD fallback all work matrix by matrix. Every third trial's
    fed-back users are made nearly collinear (cond(H) ~ 1e7), so its matrices
    take the SVD fallback inside blocks that also hold Gram-route ones."""
    # the lens weights user u's draw by sqrt(a_u), so user 1's draw is rescaled
    # for the full rows, the weighted channels, to be near-collinear too
    channel = _layout_profiles().channel
    ratio = np.sqrt(channel[0] / channel[1])

    def near_collinear_draws(trials):
        def draw(factors, rng):
            d = draw_channel(factors, rng)
            if next(trials) % 3 == 1:
                d[1] = ratio * d[0] + 1e-7 * d[1]
            return d
        return draw

    def near_collinear_rows(trials):
        def select(h, w, shaping=None):
            rows = select_codeword(h, w, shaping)
            if next(trials) % 3 == 1:
                rows[:, 1] = rows[:, 0] + 1e-7 * rows[:, 1]
            return rows
        return select
    cfg = _small_cfg(lens_enabled=True, quantizers=tuple(quantizers), bits=3,
                     trials=trials)
    runs = []
    for size in (32, block):
        with mock.patch.object(linklevel, "BLOCK_MATRICES", size), \
                mock.patch.object(linklevel, "draw_channel",
                                  near_collinear_draws(itertools.count())), \
                mock.patch.object(linklevel, "select_codeword",
                                  near_collinear_rows(itertools.count())):
            runs.append(run_monte_carlo(cfg, _layout_profiles()).rates)
    for c in runs[0]:
        assert runs[0][c].tobytes() == runs[1][c].tobytes(), c


def _replay_selections(name, trials):
    """Every select_codeword call of a run of the shipped scenario name, with
    its output, and the per-trial ZF condition numbers of the fed-back H."""
    cfg = parse_config(str(SCENARIOS / f"{name}.ini"))
    cfg = dataclasses.replace(cfg, trials=trials)
    calls, conds = [], []

    def spy(h, w, shaping=None):
        out = select_codeword(h, w, shaping)
        calls.append((h, w.copy(), shaping, out))
        return out

    def zf(h_hat):
        conds.extend(np.linalg.cond(h_hat).ravel())
        return zf_precoder(h_hat)
    with warnings.catch_warnings(), mock.patch.object(linklevel, "select_codeword", spy), \
            mock.patch.object(linklevel, "zf_precoder", zf):
        warnings.simplefilter("ignore")      # the coarse-step source warns
        run_monte_carlo(cfg)
    return calls, np.array(conds)


@pytest.mark.parametrize("name", ["four_user_downlink", "profile_sources"])
def test_float32_scoring_picks_what_float64_picks(name):
    """In every selection of a replayed run, the codeword emitted equals the
    one picked by scoring sqrt(a) (S w_j) for all j in float64 (built by
    matrix products here, so it agrees to rounding); and every fed-back H is
    far inside the Gram route's screen."""
    calls, conds = _replay_selections(name, 8)
    picks = 0
    for h, w, shaping, out in calls:
        out = out[None] if shaping.single else out
        k, m = h.shape
        for q, u in np.ndindex(len(out), k):
            c = w[u, :m] + 1j * w[u, m:]
            if q >= shaping.plain:
                c = shaping.factor[u] @ c
            c = shaping.root[u, q][:, None] * c
            j = np.argmax(np.abs(h[u].conj() @ c) ** 2 / np.sum(np.abs(c) ** 2, axis=0))
            assert np.allclose(out[q, u], c[:, j] / np.linalg.norm(c[:, j]),
                               rtol=0.0, atol=1e-12), (q, u)
            picks += 1
    users_times_quantizers = {"four_user_downlink": 4 * 2, "profile_sources": 5 * 4}
    assert picks == 8 * users_times_quantizers[name]
    assert conds.max() < 1e2 < np.sqrt(linklevel.GRAM_SCREEN)


def _iid_cfg(m, k, **overrides):
    """Lens off and a 1e6-degree spread: R is the identity to ~1e-9, so the
    channel entries are i.i.d. CN(0, 1)."""
    base = dict(users=tuple(UserConfig(a, 1e6) for a in np.linspace(-20.0, 20.0, k)),
                array=ArraySpec(num_antennas=m), lens_enabled=False, precoders=("zf",),
                bits=1, snr_db=(0.0, 10.0, 20.0), seed=2006)
    return ScenarioConfig(**{**base, **overrides})


def _z_scores(rates, expected):
    """(mean - expected) / SE of the mean, per SNR point."""
    se = rates.std(axis=1, ddof=1) / np.sqrt(rates.shape[1])
    return (rates.mean(axis=1) - expected) / se


@pytest.mark.parametrize("m, k", [(8, 4), (8, 8)])
def test_zf_with_perfect_csi_matches_the_gamma_law(m, k):
    """With perfect CSI, ZF's SINR_k is (P/K) / |pinv(H_hat)_k|^2 |h_k|^2 ~
    (P/K) Gamma(M - K + 1), so the mean sum rate is K E[log2(1 + (P/K) Gamma)];
    every SNR point within 4 SE of the quadrature value."""
    cfg = _iid_cfg(m, k, quantizers=("full",), trials=3000)
    rates = run_monte_carlo(cfg).rates[("zf", "full")]
    shape = m - k + 1
    expected = [k * quad(lambda x, p=10.0 ** (snr / 10.0): np.log2(1.0 + p / k * x)
                         * gamma_dist.pdf(x, shape), 0.0, np.inf)[0]
                for snr in cfg.snr_db]
    assert np.all(np.abs(_z_scores(rates, expected)) <= 4.0)


@pytest.mark.parametrize("m, bits", [(4, 3), (8, 4)])
def test_single_user_rvq_matches_the_max_of_betas_law(m, bits):
    """One user, RVQ: the rate is log2(1 + P G C), G = |h|^2 ~ Gamma(M) and C
    the largest of 2^B independent Beta(1, M - 1) alignments, with CDF
    (1 - (1 - x)^(M-1))^(2^B) (Au-Yeung & Love 2007); ZF and MRT both within
    4 SE of the quadrature value at every SNR point."""
    cfg = _iid_cfg(m, 1, quantizers=("rvq",), precoders=("zf", "mrt"), bits=bits,
                   trials=4000)
    res = run_monte_carlo(cfg)
    n = 2 ** bits
    g, wts = roots_genlaguerre(60, m - 1)     # E over Gamma(M): sum wts f(g) / (M-1)!
    wts = wts / np.exp(gammaln(m))

    def density(c):
        return n * (1.0 - (1.0 - c) ** (m - 1)) ** (n - 1) * (m - 1) * (1.0 - c) ** (m - 2)
    expected = [quad(lambda c, p=10.0 ** (snr / 10.0): density(c)
                     * (wts @ np.log2(1.0 + p * g * c)), 0.0, 1.0)[0]
                for snr in cfg.snr_db]
    for prec in cfg.precoders:
        assert np.all(np.abs(_z_scores(res.rates[(prec, "rvq")], expected)) <= 4.0), prec


def test_zf_rvq_rate_loss_stays_under_jindals_bound():
    """K = M users, ZF on B-bit RVQ feedback: the mean loss against perfect
    CSI is at most K log2(1 + (P/K)(K - 1) M/(M - 1) 2^B Beta(2^B, M/(M - 1)))
    (Jindal, IEEE Trans. IT 2006), with 4 paired SE to spare at every SNR
    point. The theorem assumes K = M; at K < M the signal term's law changes
    with quantization and the gap can exceed the bound."""
    m = k = 8
    cfg = _iid_cfg(m, k, quantizers=("full", "rvq"), bits=8, trials=1000,
                   snr_db=(0.0, 10.0, 20.0, 30.0))
    res = run_monte_carlo(cfg)
    gap = res.rates[("zf", "full")] - res.rates[("zf", "rvq")]
    se = gap.std(axis=1, ddof=1) / np.sqrt(cfg.trials)
    n = 2 ** cfg.bits
    p_t = 10.0 ** (np.array(cfg.snr_db) / 10.0)
    bound = k * np.log2(1.0 + p_t / k * (k - 1) * m / (m - 1) * n * beta(n, m / (m - 1)))
    assert np.all(gap.mean(axis=1) + 4.0 * se <= bound)


def test_monte_carlo_seed_changes_results():
    r1 = run_monte_carlo(_small_cfg())
    r2 = run_monte_carlo(_small_cfg(seed=322))
    assert not np.array_equal(r1.rates[("zf", "rvq")], r2.rates[("zf", "rvq")])


def test_monte_carlo_mean_monotone_in_power():
    cfg = _small_cfg(quantizers=("full",), precoders=("zf",),
                     snr_db=(0.0, 6.0, 12.0, 18.0), trials=40)
    res = run_monte_carlo(cfg)
    mean = res.mean[("zf", "full")]
    assert np.all(np.diff(mean) > 0)


def test_monte_carlo_stderr_shrinks_with_trials():
    small = run_monte_carlo(_small_cfg(trials=8))
    large = run_monte_carlo(_small_cfg(trials=128))
    assert large.stderr[("zf", "rvq")][0] < small.stderr[("zf", "rvq")][0]


def test_monte_carlo_attaches_trial_context(monkeypatch):
    def boom(h_hat):
        raise DomainError("synthetic failure")
    monkeypatch.setattr(linklevel, "mrt_precoder", boom)
    cfg = _small_cfg(precoders=("mrt",), quantizers=("rvq",), trials=1,
                     snr_db=(10.0,))
    with pytest.raises(DomainError,
                       match=r"quantizer rvq, snr 10.0 dB, trial 0"):
        run_monte_carlo(cfg)


def test_zf_failure_in_a_later_block_names_its_trial(monkeypatch):
    """Collinear fed-back rows at one trial of the second block fail ZF with
    that trial's context, as the cell-by-cell kernel reported it; a zero row
    at the next trial, which fails the first precoder (MRT), comes later in
    (snr, trial, quantizer, precoder) order."""
    cfg = _small_cfg(precoders=("mrt", "zf"), quantizers=("rvq",), snr_db=(10.0,))
    bad = _cells_per_block(cfg) + 2
    cfg = _small_cfg(precoders=("mrt", "zf"), quantizers=("rvq",), snr_db=(10.0,),
                     trials=bad + 4)
    calls = iter(range(cfg.trials))

    def fail_from_bad(h, w, root_a=None):
        rows, trial = select_codeword(h, w, root_a), next(calls)
        if trial == bad:
            rows[0, 1] = rows[0, 0]
        elif trial == bad + 1:
            rows[0, 0] = 0.0
        return rows
    monkeypatch.setattr(linklevel, "select_codeword", fail_from_bad)
    with pytest.raises(DomainError, match=r"users 0 and 1 have near-collinear "
                       rf"directions \(quantizer rvq, snr 10.0 dB, trial {bad}\)$"):
        run_monte_carlo(cfg)


def test_zf_failure_names_the_first_snr_point(monkeypatch):
    """A precoder failure does not depend on the SNR: collinear fed-back rows
    at one trial of the second block of a two-point run name the first SNR
    point and that trial."""
    cfg = _small_cfg(precoders=("mrt", "zf"), quantizers=("rvq",))
    bad = _cells_per_block(cfg) + 2
    cfg = _small_cfg(precoders=("mrt", "zf"), quantizers=("rvq",), trials=bad + 4)
    calls = iter(range(cfg.trials))

    def collinear_at_bad(h, w, root_a=None):
        rows = select_codeword(h, w, root_a)
        if next(calls) == bad:
            rows[0, 1] = rows[0, 0]
        return rows
    monkeypatch.setattr(linklevel, "select_codeword", collinear_at_bad)
    with pytest.raises(DomainError, match=r"near-collinear directions "
                       rf"\(quantizer rvq, snr 0.0 dB, trial {bad}\)$"):
        run_monte_carlo(cfg)


def test_lens_profiles_cover_each_quantizer_source(lens, grid, array):
    cfg = ScenarioConfig(users=_two_users(), trials=1,
                         quantizers=("mvcq", "mvcq:sub_bpm:5", "rvq"))
    prof = build_scenario_profiles(cfg)
    assert prof.channel.shape == (2, 64)
    assert set(prof.codebook) == {"mvcq", "mvcq:sub_bpm:5"}
    for token, a in prof.codebook.items():
        assert a.shape == (2, 64)
        assert np.allclose(a.sum(axis=1), 64.0, atol=1e-6)


def test_scenario_profiles_come_from_the_given_source(lens, grid, array):
    """A supplied source serves the channel, bpm and gaussian profiles (the
    latter through the sector anchors); sub_bpm is always propagated."""
    cfg = ScenarioConfig(users=_two_users(), trials=1,
                         quantizers=("mvcq", "mvcq:gaussian", "mvcq:sub_bpm:5"))
    asked = []

    def profile_at(aod):
        asked.append(aod)
        return antenna_power_profile(lens, grid, array, aod)

    prof = build_scenario_profiles(cfg, profile_at)
    # users on the -10 and 10 deg anchors lie in [-10, -5] and [10, 15], so
    # PCHIP reads anchors -15..0 and 5..20 there and nothing beyond
    assert asked == [u.angle_deg for u in cfg.users] + list(
        np.arange(-15.0, 20.0 + 1e-9, 5.0))
    ref = build_scenario_profiles(cfg)
    assert np.array_equal(prof.channel, ref.channel)
    for token in cfg.quantizers:
        assert np.array_equal(prof.codebook[token], ref.codebook[token])


@pytest.mark.parametrize("focal", (20.0, 30.0, 40.0, 50.0))
def test_gaussian_profiles_need_only_the_stencil_anchors(focal, grid, array):
    """PCHIP on [x_i, x_i+1] reads only anchors x_i-1..x_i+2, so the users'
    mvcq:gaussian rows from the anchors around them equal, bit for bit, the
    whole-sector model's: single users, users on anchors, at the sector
    edges, the paper's five, and random sets."""
    lens = LensSpec(focal_length=focal)
    cached = {}

    def profile_at(aod):
        if aod not in cached:
            cached[aod] = antenna_power_profile(lens, grid, array, aod)
        return cached[aod]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # poor edge fits are expected here
        full = fit_gaussian_model(profile_at, lens, array)
    assert np.array_equal(full.anchors_deg, GAUSSIAN_ANCHORS_DEG)
    rng = np.random.default_rng(int(focal))
    sets = [(0.0,), (-30.0,), (30.0,), (29.9,), (-27.5,), (-25.0, 25.0),
            (-30.0, 30.0), (-12.0, -7.0, 0.0, 5.0, 10.0),
            tuple(GAUSSIAN_ANCHORS_DEG)]
    sets += [tuple(rng.uniform(-30.0, 30.0, rng.integers(1, 6))) for _ in range(6)]
    for angles in sets:
        cfg = ScenarioConfig(users=tuple(UserConfig(a) for a in angles), trials=1,
                             quantizers=("mvcq:gaussian",), lens=lens)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = build_scenario_profiles(cfg, profile_at).codebook["mvcq:gaussian"]
        for a, row in zip(angles, got):
            assert np.array_equal(row, gaussian_profile(a, full)), (a, angles)


def test_sector_model_fits_the_pchip_stencil_around_the_angles(lens, array):
    """Each angle keeps anchors i-1..i+2 around its interval, clipped to the
    sector, and nothing more: three anchors at either edge."""
    def spot(aod):
        return np.exp(-((np.arange(64) - 32.0 - aod) / 6.0) ** 2)

    fitted = {(0.0,): [-5, 0, 5, 10], (30.0,): [20, 25, 30],
              (-30.0,): [-30, -25, -20], (-2.5, 2.5): [-10, -5, 0, 5, 10],
              (-22.0, 22.0): [-30, -25, -20, -15, 15, 20, 25, 30]}
    for angles, anchors in fitted.items():
        model = fit_gaussian_model(spot, lens, array, angles)
        assert np.array_equal(model.anchors_deg, anchors), angles


def test_profile_shaped_codebook_beats_plain_quantization():
    """Same bit budget, same channels: codewords shaped by the lens profile
    recover more of the beamforming gain than isotropic ones."""
    cfg = ScenarioConfig(users=_two_users(), quantizers=("mvcq", "rvq"),
                         precoders=("zf",), snr_db=(10.0,), trials=64,
                         seed=5, bits=4)
    res = run_monte_carlo(cfg)
    assert res.mean[("zf", "mvcq")][0] > res.mean[("zf", "rvq")][0]


# ---------------------------------------------------------------------------
# CSV rendering

# _small_cfg(trials=3) as a scenario file
SMALL_INI = """\
[scenario]
name = unit
lens = off
precoders = zf, mrt
quantizers = rvq, full
[array]
num_antennas = 16
[users]
angles = -10, 10
sigma = 5
[simulation]
bits = 4
snr_db = 0, 10
trials = 3
seed = 321
"""


def _simulate_small(out):
    """Run the simulate command on _small_cfg(trials=3); return its out dir."""
    ini = out / "unit.ini"
    ini.write_text(SMALL_INI)
    assert parse_config(str(ini)) == _small_cfg(trials=3)
    assert main(["simulate", "--config", str(ini), "--out-dir", str(out)]) == 0
    return out


def test_render_csv_format(tmp_path):
    text = (_simulate_small(tmp_path) / "unit_zf_rvq.csv").read_text()
    lines = text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    assert any(ln == "# scenario = unit" for ln in header)
    assert any(ln == "# precoder = zf" for ln in header)
    assert any(ln == "# quantizer = rvq" for ln in header)
    cols = lines[len(header)]
    assert cols == "snr_db,mean_sum_rate,stderr,trials"
    data = lines[len(header) + 1:]
    assert len(data) == 2
    for row, snr in zip(data, (0.0, 10.0)):
        fields = row.split(",")
        assert float(fields[0]) == snr
        assert fields[3] == "3"
        float(fields[1]), float(fields[2])     # parse cleanly
        assert "np." not in row


def test_render_comparison_has_one_column_per_combo(tmp_path):
    text = (_simulate_small(tmp_path) / "unit_comparison.csv").read_text()
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    assert lines[0] == "snr_db,zf_rvq,zf_full,mrt_rvq,mrt_full"
    assert len(lines) == 3
    for ln in lines[1:]:
        vals = [float(v) for v in ln.split(",")]
        assert len(vals) == 5
        assert all(v >= 0 for v in vals[1:])
