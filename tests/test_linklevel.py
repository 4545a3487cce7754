"""Precoders, exact SINR, scenario validation, and the Monte-Carlo driver."""

import warnings

import numpy as np
import pytest

from lensmimo import (ArraySpec, ConfigError, DomainError, ScenarioConfig, UserConfig,
                      antenna_power_profile, apply_lens, correlate_codebook, correlation_matrix,
                      draw_channel, generate_mvcq, generate_rvq, matrix_sqrt,
                      mrt_precoder, parse_quantizer, quantize, received_sinr,
                      run_monte_carlo, sum_rate, zf_precoder)
from lensmimo import linklevel
from lensmimo.linklevel import (build_scenario_profiles, render_comparison,
                                render_csv)


def _draw(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# precoders


def test_zf_matches_gram_inverse_oracle():
    """F = H^H (H H^H)^{-1} for a full-row-rank matrix."""
    rng = np.random.default_rng(3)
    h = _draw(rng, (2, 4))
    f = zf_precoder(h).columns
    ref = h.conj().T @ np.linalg.inv(h @ h.conj().T)
    assert np.allclose(f, ref, atol=1e-10)


def test_zf_nulls_cross_channels():
    rng = np.random.default_rng(4)
    h = _draw(rng, (4, 16))
    g = zf_precoder(h).normalized
    t = h @ g
    off = t - np.diag(np.diag(t))
    assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(np.diag(t)))


def test_zf_single_user_matches_mrt_direction():
    rng = np.random.default_rng(5)
    h = _draw(rng, (1, 8))
    g_zf = zf_precoder(h).normalized[:, 0]
    g_mrt = mrt_precoder(h).normalized[:, 0]
    assert abs(abs(np.vdot(g_zf, g_mrt)) - np.linalg.norm(g_zf)
               * np.linalg.norm(g_mrt)) <= 1e-12


def test_zf_columns_equal_numpy_pinv():
    rng = np.random.default_rng(14)
    for shape in ((1, 8), (4, 64), (5, 16)):
        h = _draw(rng, shape)
        assert np.array_equal(zf_precoder(h).columns, np.linalg.pinv(h))


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
    g = mrt_precoder(h).normalized
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
    g_zf = zf_precoder(h).normalized
    g_mrt = mrt_precoder(h).normalized
    assert np.allclose(g_zf, g_mrt, atol=1e-12)


def test_power_budget_is_unity():
    rng = np.random.default_rng(9)
    h = _draw(rng, (4, 12))
    for prec in (zf_precoder, mrt_precoder):
        g = prec(h).normalized
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
    sinr = received_sinr(h, zf_precoder(rows).normalized, p_t)
    gram_inv = np.linalg.inv(h @ h.conj().T)
    ref = p_t / (3.0 * np.real(np.diag(gram_inv)))
    assert np.allclose(sinr, ref, rtol=1e-9)


def test_zf_sinr_scales_linearly_with_power():
    rng = np.random.default_rng(12)
    h = _draw(rng, (3, 16))
    g = zf_precoder(h).normalized
    s1 = received_sinr(h, g, 2.0)
    s10 = received_sinr(h, g, 20.0)
    assert np.allclose(s10, 10.0 * s1, rtol=1e-12)


def test_single_user_sinr_is_beamforming_power():
    rng = np.random.default_rng(13)
    h = _draw(rng, (1, 8))
    g = mrt_precoder(h).normalized
    assert received_sinr(h, g, 5.0)[0] == pytest.approx(
        5.0 * np.linalg.norm(h) ** 2, rel=1e-12)


def test_sum_rate_values():
    assert sum_rate(np.array([])) == 0.0
    assert sum_rate(np.array([1.0])) == pytest.approx(1.0)
    assert sum_rate(np.array([3.0, 3.0])) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        sum_rate(np.array([-0.5]))


# ---------------------------------------------------------------------------
# quantizer tokens and scenario validation


def test_parse_quantizer_tokens():
    assert parse_quantizer("full") == ("full", "", 1)
    assert parse_quantizer("rvq") == ("rvq", "", 1)
    assert parse_quantizer("rvq_corr") == ("rvq_corr", "", 1)
    assert parse_quantizer("mvcq") == ("mvcq", "bpm", 1)
    assert parse_quantizer("mvcq:gaussian") == ("mvcq", "gaussian", 1)
    assert parse_quantizer("mvcq:sub_bpm:10") == ("mvcq", "sub_bpm", 10)


@pytest.mark.parametrize("token", [
    "zf", "mvcq:foo", "mvcq:sub_bpm", "mvcq:sub_bpm:x", "mvcq:sub_bpm:0",
    "mvcq:gaussian:3", "rvq:bpm", "full:bpm",
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
    assert build_scenario_profiles(cfg).channel is None


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


def test_monte_carlo_trial_prefix_is_stable():
    """Each cell's substream is keyed by its (snr, trial) indices, so more
    trials leave the earlier ones bit for bit unchanged."""
    long = run_monte_carlo(_small_cfg(trials=12))
    short = run_monte_carlo(_small_cfg(trials=5))
    for combo in long.rates:
        assert np.array_equal(long.rates[combo][:, :5], short.rates[combo])


def _reference_cell_rates(cfg, profiles, factors, si, ti):
    """One Monte-Carlo cell built user by user from the public functions."""
    k = cfg.num_users
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(si, ti)))
    h = np.stack([draw_channel(s, rng) for s in factors])
    if profiles.channel is not None:
        h_true = np.stack([apply_lens(h[u], profiles.channel[u]) for u in range(k)])
    else:
        h_true = h
    bases = [generate_rvq(cfg.array.num_antennas, cfg.bits, rng) for _ in range(k)]

    p_t = 10.0 ** (cfg.snr_db[si] / 10.0)
    out = {}
    for token in cfg.quantizers:
        kind, _, _ = parse_quantizer(token)
        if kind == "full":
            h_hat = h_true / np.linalg.norm(h_true, axis=1, keepdims=True)
        else:
            rows = []
            for u in range(k):
                cb = bases[u]
                if kind in ("rvq_corr", "mvcq"):
                    cb = correlate_codebook(cb, factors[u])
                if kind == "mvcq":
                    cb = generate_mvcq(cb, profiles.codebook[token][u],
                                       user_angle_deg=cfg.users[u].angle_deg)
                rows.append(quantize(h_true[u], cb).direction)
            h_hat = np.stack(rows)
        for prec in cfg.precoders:
            p = zf_precoder(h_hat) if prec == "zf" else mrt_precoder(h_hat)
            sinrs = received_sinr(h_true, p.normalized, p_t)
            out[(prec, token)] = sum_rate(sinrs)
    return out


@pytest.mark.parametrize("lens_enabled", [True, False])
def test_monte_carlo_matches_reference_cells(lens_enabled):
    quantizers = ("full", "rvq", "rvq_corr")
    if lens_enabled:
        quantizers += ("mvcq", "mvcq:gaussian", "mvcq:sub_bpm:5")
    cfg = _small_cfg(lens_enabled=lens_enabled, bits=3, quantizers=quantizers,
                     trials=4)
    profiles = build_scenario_profiles(cfg)
    res = run_monte_carlo(cfg, profiles)
    factors = [matrix_sqrt(correlation_matrix(u, cfg.array.num_antennas,
                                              cfg.array.spacing))
               for u in cfg.users]
    ref = {c: np.empty_like(r) for c, r in res.rates.items()}
    for si in range(len(cfg.snr_db)):
        for ti in range(cfg.trials):
            for c, rate in _reference_cell_rates(cfg, profiles, factors,
                                                 si, ti).items():
                ref[c][si, ti] = rate
    assert set(ref) == {(p, q) for p in ("zf", "mrt") for q in quantizers}
    for c in ref:
        assert np.array_equal(res.rates[c], ref[c]), c


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
    assert asked == [u.angle_deg for u in cfg.users] + list(
        linklevel.GAUSSIAN_ANCHORS_DEG)
    ref = build_scenario_profiles(cfg)
    assert np.array_equal(prof.channel, ref.channel)
    for token in cfg.quantizers:
        assert np.array_equal(prof.codebook[token], ref.codebook[token])


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


def test_render_csv_format():
    cfg = _small_cfg(trials=3)
    res = run_monte_carlo(cfg)
    text = render_csv(res, "zf", "rvq")
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


def test_render_comparison_has_one_column_per_combo():
    cfg = _small_cfg(trials=3)
    res = run_monte_carlo(cfg)
    text = render_comparison(res)
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    assert lines[0] == "snr_db,zf_rvq,zf_full,mrt_rvq,mrt_full"
    assert len(lines) == 3
    for ln in lines[1:]:
        vals = [float(v) for v in ln.split(",")]
        assert len(vals) == 5
        assert all(v >= 0 for v in vals[1:])
