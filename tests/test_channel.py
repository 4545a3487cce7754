"""Channel statistics: PAS, closed-form correlation vs quadrature, lens weighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lensmimo import (ConfigError, DomainError, UserConfig, apply_lens,
                      correlation_matrix, draw_channel, laplacian_pas,
                      matrix_sqrt, power_correlation_matrix)


# ---------------------------------------------------------------------------
# power angular spectrum


def test_pas_integrates_to_one():
    for sigma_deg in (2.0, 5.0, 10.0, 40.0):
        sigma = np.deg2rad(sigma_deg)
        val, _ = quad(lambda t: float(laplacian_pas(t, sigma)), -np.pi, np.pi,
                      points=[0.0], limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_pas_even_and_truncated():
    sigma = np.deg2rad(5.0)
    t = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(laplacian_pas(t, sigma), laplacian_pas(-t, sigma))
    assert laplacian_pas(3.5, sigma) == 0.0
    assert laplacian_pas(-3.5, sigma) == 0.0


def test_pas_flattens_with_spread():
    grid = np.linspace(-np.pi / 2, np.pi / 2, 201)
    ratios = []
    for sigma_deg in (2.0, 5.0, 10.0, 20.0, 40.0):
        p = laplacian_pas(grid, np.deg2rad(sigma_deg))
        ratios.append(p.max() / p.min())
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_pas_rejects_bad_spread():
    with pytest.raises(DomainError):
        laplacian_pas(0.0, 0.0)


# ---------------------------------------------------------------------------
# correlation matrix


def _quad_correlation(theta_deg: float, sigma_deg: float, lag: int,
                      spacing: float = 0.5) -> complex:
    """Brute-force E[e^{j kappa d lag sin(theta + t)}] over the truncated PAS."""
    theta = np.deg2rad(theta_deg)
    sigma = np.deg2rad(sigma_deg)
    kappa = 2.0 * np.pi
    arg = kappa * spacing * lag

    def re(t):
        return float(np.cos(arg * np.sin(theta + t)) * laplacian_pas(t, sigma))

    def im(t):
        return float(np.sin(arg * np.sin(theta + t)) * laplacian_pas(t, sigma))

    opts = dict(points=[0.0], limit=400)
    return quad(re, -np.pi, np.pi, **opts)[0] + 1j * quad(im, -np.pi, np.pi, **opts)[0]


def test_correlation_matches_quadrature_oracle():
    """Closed form vs direct integration over the PAS, small-spread regime."""
    m = 9   # covers lags up to 8
    for theta in (0.0, 10.0, -15.0):
        for sigma in (2.0, 5.0, 10.0):
            r = correlation_matrix(UserConfig(theta, sigma), m)
            for lag in range(1, m):
                ref = _quad_correlation(theta, sigma, lag)
                assert abs(r[lag, 0] - ref) <= 0.05, (theta, sigma, lag)


def test_correlation_basic_structure():
    r = correlation_matrix(UserConfig(10.0, 5.0), 16)
    assert np.allclose(np.diag(r), 1.0)
    assert np.allclose(r, r.conj().T)
    w = np.linalg.eigvalsh(r)
    assert w.min() >= -1e-10
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_correlation_zero_spacing_fully_correlated():
    r = correlation_matrix(UserConfig(0.0, 5.0), 8, spacing=1e-12)
    assert np.allclose(r, 1.0, atol=1e-9)


def test_correlation_rejects_bad_args():
    with pytest.raises(ConfigError):
        correlation_matrix(UserConfig(0.0, 5.0), 0)
    with pytest.raises(ConfigError):
        correlation_matrix(UserConfig(0.0, 5.0), 4, spacing=0.0)
    with pytest.raises(ConfigError):
        UserConfig(0.0, -5.0)
    for angle, sigma in ((np.nan, 5.0), (np.inf, 5.0), (0.0, np.inf),
                         (0.0, np.nan)):
        with pytest.raises(ConfigError):
            UserConfig(angle, sigma)


@pytest.mark.filterwarnings("error")
def test_correlation_rejects_non_finite_spread():
    """A spread whose square overflows gives a non-finite R: a DomainError
    naming the spread, and no numpy warning on the way there. A huge spread
    that only overflows the denominators leaves a finite, decorrelated R."""
    with pytest.raises(DomainError, match="spread 1e\\+200 deg"):
        correlation_matrix(UserConfig(0.0, 1e200), 8)
    r = correlation_matrix(UserConfig(10.0, 7e154), 64)
    assert np.all(np.isfinite(r))
    assert np.array_equal(np.diag(r), np.ones(64))
    assert np.abs(r[0, -1]) == 0.0


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-30.0, 30.0), sigma=st.floats(1.0, 30.0),
       m=st.integers(2, 12))
def test_correlation_always_hermitian_psd_unit_diag(theta, sigma, m):
    r = correlation_matrix(UserConfig(theta, sigma), m)
    assert np.allclose(np.diag(r), 1.0)
    assert np.allclose(r, r.conj().T)
    assert np.linalg.eigvalsh(r).min() >= -1e-10


# ---------------------------------------------------------------------------
# matrix square root


def test_sqrt_identity():
    assert np.allclose(matrix_sqrt(np.eye(5)), np.eye(5))
    # the zero matrix is its own root, in its own dtype and with no -0.0
    for zero in (np.zeros((3, 3)), np.zeros((3, 3), dtype=complex), np.zeros((1, 1))):
        s = matrix_sqrt(zero)
        assert s.dtype == zero.dtype and s.tobytes() == zero.tobytes()


def test_sqrt_reconstruction():
    r = correlation_matrix(UserConfig(-12.0, 5.0), 64)
    s = matrix_sqrt(r)
    assert np.allclose(s, s.conj().T)
    err = np.linalg.norm(s @ s - r) / np.linalg.norm(r)
    assert err <= 1e-8


def test_sqrt_rank_one_all_ones():
    m = 6
    r = np.ones((m, m), dtype=complex)
    s = matrix_sqrt(r)
    assert np.allclose(s, np.ones((m, m)) / np.sqrt(m), atol=1e-10)
    assert np.allclose(s @ s, r, atol=1e-10)


def test_sqrt_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(DomainError):
        matrix_sqrt(bad)


# ---------------------------------------------------------------------------
# channel draws


def test_draw_channel_covariance_oracle():
    """10^5 draws: sample covariance reproduces R entrywise to 0.05."""
    m, trials = 16, 100_000
    r = correlation_matrix(UserConfig(10.0, 5.0), m)
    s = matrix_sqrt(r)
    rng = np.random.default_rng(2024)
    h_iid = (rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))) \
        / np.sqrt(2.0)
    h = h_iid @ s.T    # rows are S h_iid since S is symmetric-transposable here
    cov = (h.conj().T @ h) / trials
    assert np.max(np.abs(cov.conj() - r)) <= 0.05
    assert np.abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.03


def test_draw_channel_matches_batch_construction():
    m = 8
    s = matrix_sqrt(correlation_matrix(UserConfig(0.0, 5.0), m))
    h1 = draw_channel(s, np.random.default_rng(7))
    h2 = draw_channel(s, np.random.default_rng(7))
    assert np.array_equal(h1, h2)
    assert h1.shape == (m,)
    h3 = draw_channel(s, np.random.default_rng(8))
    assert not np.array_equal(h1, h3)


# ---------------------------------------------------------------------------
# lens weighting


def test_apply_lens_identity_and_energy():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
    assert np.allclose(apply_lens(h, np.ones(16)), h)
    a = rng.random(16)
    ht = apply_lens(h, a)
    assert np.linalg.norm(ht) ** 2 == pytest.approx(float(a @ np.abs(h) ** 2))
    with pytest.raises(DomainError):
        apply_lens(h, -np.ones(16))
    with pytest.raises(ConfigError):
        apply_lens(h, np.ones(4))


def test_lens_preserves_expected_energy(profile_set, array):
    """E|h~|^2 stays M: the profile reshapes, it does not amplify."""
    m, trials = array.num_antennas, 100_000
    a = profile_set[10.0]
    s = matrix_sqrt(correlation_matrix(UserConfig(10.0, 5.0), m))
    rng = np.random.default_rng(11)
    h_iid = (rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))) \
        / np.sqrt(2.0)
    h = h_iid @ s.T
    energy = np.mean(np.sum(a * np.abs(h) ** 2, axis=1))
    assert 0.97 * m <= energy <= 1.03 * m


# ---------------------------------------------------------------------------
# power correlation


def test_power_correlation_structure(profile_set):
    profs = np.stack([profile_set[-15.0], profile_set[0.0], profile_set[15.0]])
    psi = power_correlation_matrix(profs)
    assert np.allclose(np.diag(psi), 1.0)
    assert np.allclose(psi, psi.T)
    assert np.all(psi > 0.0)
    assert np.all(psi <= 1.0 + 1e-12)


def test_power_correlation_identical_profiles_give_ones(profile_set):
    profs = np.stack([profile_set[0.0], profile_set[0.0]])
    assert np.allclose(power_correlation_matrix(profs), 1.0)


def test_power_correlation_frozen_values(profile_set):
    psi_wide = power_correlation_matrix(
        np.stack([profile_set[-15.0], profile_set[15.0]]))
    psi_close = power_correlation_matrix(
        np.stack([profile_set[15.0], profile_set[17.0]]))
    assert psi_wide[0, 1] == pytest.approx(0.147888, abs=1e-4)
    assert psi_close[0, 1] == pytest.approx(0.963762, abs=1e-4)
