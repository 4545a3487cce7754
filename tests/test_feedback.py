"""Codebook constructions, quantization oracles, profile estimators."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta

from lensmimo import (ArraySpec, ConfigError, DomainError, LensSpec,
                      PropagationGrid, Shaping, UserConfig, antenna_power_profile,
                      correlation_matrix, fit_gaussian_model, gaussian_profile,
                      matrix_sqrt, random_codebook, real_block, select_codeword)


def _batch_normalize(w):
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def _batch_draw(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _columns(w):
    """The complex codewords (m, n) of a one-user [Re; Im] codebook stack."""
    m = w.shape[1] // 2
    return w[0, :m] + 1j * w[0, m:]


def _unit_columns(w):
    cols = _columns(w)
    return cols / np.linalg.norm(cols, axis=0)


def _chosen_codewords(w, root_a=None):
    """select_codeword's unit codeword for every column j of a one-user stack.

    The channel root_a * w_j (w_j without root_a) has the highest score at
    column j, and the chosen codeword must point along it.
    """
    cols = _columns(w)
    if root_a is not None:
        cols = root_a[:, None] * cols
    out = np.empty(cols.shape, dtype=complex)
    for j in range(cols.shape[1]):
        c = select_codeword(cols[None, :, j], w,
                            None if root_a is None else root_a[None])[0]
        assert abs(np.vdot(cols[:, j], c)) == pytest.approx(
            np.linalg.norm(cols[:, j]), rel=1e-12)
        out[:, j] = c
    return out


# ---------------------------------------------------------------------------
# codebook constructions


def test_rvq_columns_unit_norm_and_deterministic():
    """Chosen codewords are unit vectors; a stack of codebooks is the same
    draws as one codebook after another."""
    cb1 = random_codebook(64, 6, np.random.default_rng(42))
    cb2 = random_codebook(64, 6, np.random.default_rng(42))
    assert cb1.shape == (1, 128, 64)
    assert np.allclose(np.linalg.norm(_chosen_codewords(cb1), axis=0), 1.0,
                       atol=1e-12)
    assert np.array_equal(cb1, cb2)
    rng = np.random.default_rng(42)
    singles = [random_codebook(64, 6, rng) for _ in range(3)]
    stack = random_codebook(64, 6, np.random.default_rng(42), users=3)
    assert np.array_equal(stack, np.concatenate(singles))


def test_rvq_isotropy_oracle():
    """Independent isotropic unit vectors satisfy E|<c_i, c_j>|^2 = 1/M."""
    m, vals = 64, []
    for seed in (1, 2, 3):
        cb = _chosen_codewords(random_codebook(m, 6, np.random.default_rng(seed)))
        gram = np.abs(cb.conj().T @ cb) ** 2
        off = gram[~np.eye(gram.shape[0], dtype=bool)]
        vals.append(off.mean())
    mean = np.mean(vals)
    assert abs(mean - 1.0 / m) <= 0.2 / m


def test_rvq_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        random_codebook(8, 0, rng)
    with pytest.raises(ConfigError):
        random_codebook(8, 17, rng)
    with pytest.raises(ConfigError):
        random_codebook(0, 4, rng)


def test_correlate_identity_is_noop():
    """Identity factors shape nothing: the shaped selection (one S W in the
    kernel) feeds back what scoring the draws themselves does."""
    rng = np.random.default_rng(5)
    cb = random_codebook(16, 4, rng, users=3)
    assert np.array_equal(real_block(np.eye(16)) @ cb, cb)
    for _ in range(5):
        h = _batch_draw(rng, (3, 16))
        identity = Shaping(np.ones((3, 16)), np.eye(16)[None].repeat(3, 0))
        shaped = select_codeword(h, cb, identity)
        assert np.allclose(shaped, select_codeword(h, cb), rtol=0.0, atol=1e-12)


def test_real_block_acts_as_the_complex_product():
    rng = np.random.default_rng(6)
    s = _batch_draw(rng, (3, 8, 8))
    w = random_codebook(8, 3, rng, users=3)
    out = real_block(s) @ w
    assert np.allclose(out[:, :8] + 1j * out[:, 8:], s @ (w[:, :8] + 1j * w[:, 8:]),
                       atol=1e-12)


def test_correlate_rank_one_collapses_directions():
    """Fully correlated factor (zero spacing limit) leaves collinear codewords."""
    m = 8
    s = matrix_sqrt(np.ones((m, m), dtype=complex))
    cb = _chosen_codewords(real_block(s) @ random_codebook(m, 4, np.random.default_rng(9)))
    gram = np.abs(cb.conj().T @ cb)
    assert np.allclose(gram, 1.0, atol=1e-9)


def test_correlate_rejects_dimension_mismatch():
    """Factors of the wrong length fail when the Shaping is built; a Shaping
    of the wrong length fails against the codebook it is asked to shape."""
    rng = np.random.default_rng(0)
    cb = random_codebook(8, 3, rng)
    with pytest.raises(ConfigError, match="differ in users or length"):
        Shaping(np.ones((1, 8)), np.eye(10)[None])
    too_long = Shaping(np.ones((1, 10)), np.eye(10)[None])
    with pytest.raises(ConfigError, match="length differ"):
        select_codeword(_batch_draw(rng, (1, 8)), cb, too_long)


def test_correlated_codebook_quantizes_better():
    """Mean quantization error drops when codewords share the channel's
    correlation; 10^4 paired trials, M=16, B=6."""
    m, bits, trials, chunk = 16, 6, 10_000, 1000
    s = matrix_sqrt(correlation_matrix(UserConfig(10.0, 5.0), m))
    rng = np.random.default_rng(77)
    err_plain = np.empty(trials)
    err_corr = np.empty(trials)
    for c0 in range(0, trials, chunk):
        h = _batch_draw(rng, (chunk, m)) @ s.T
        w = _batch_normalize(_batch_draw(rng, (chunk, m, 2 ** bits)))
        wc = _batch_normalize(np.einsum("ij,cjn->cin", s, w))
        hn = h / np.linalg.norm(h, axis=1, keepdims=True)
        for dst, book in ((err_plain, w), (err_corr, wc)):
            met = np.abs(np.einsum("cm,cmn->cn", h.conj(), book))
            j = np.argmax(met, axis=1)
            picked = np.take_along_axis(book, j[:, None, None], axis=2)[:, :, 0]
            align = np.abs(np.einsum("cm,cm->c", hn.conj(), picked)) ** 2
            dst[c0:c0 + chunk] = 1.0 - align
    diff = err_plain - err_corr
    assert diff.mean() > 0.0
    assert diff.mean() / (diff.std(ddof=1) / np.sqrt(trials)) > 5.0


def test_mvcq_all_ones_profile_degenerates():
    m = 16
    s = matrix_sqrt(correlation_matrix(UserConfig(0.0, 5.0), m))
    corr = real_block(s) @ random_codebook(m, 4, np.random.default_rng(3))
    mv = _chosen_codewords(corr, np.ones(m))
    assert np.allclose(mv, _chosen_codewords(corr), atol=1e-12)


def test_mvcq_entries_scale_with_profile():
    """Before renormalization, |w''_m|^2 = a_m |w'_m|^2 entry for entry."""
    m = 16
    corr = random_codebook(m, 4, np.random.default_rng(4))
    a = np.random.default_rng(5).random(m) * 2.0
    mv = _chosen_codewords(corr, np.sqrt(a))
    cols = _columns(corr)
    unnorm = mv * np.linalg.norm(np.sqrt(a)[:, None] * cols, axis=0)
    assert np.allclose(np.abs(unnorm) ** 2, a[:, None] * np.abs(cols) ** 2)


def test_mvcq_concentrates_on_dominant_cell():
    """A profile with one dominant cell pulls every codeword onto it."""
    m = 64
    a = np.full(m, 8.0 / 63.0)
    a[40] = 56.0
    s = matrix_sqrt(correlation_matrix(UserConfig(0.0, 5.0), m))
    corr = real_block(s) @ random_codebook(m, 6, np.random.default_rng(12))
    mv = _chosen_codewords(corr, np.sqrt(a))
    assert np.mean(np.abs(mv[40]) ** 2) > 0.5


def test_mvcq_rejects_bad_inputs():
    m = 8
    rng = np.random.default_rng(1)
    corr = random_codebook(m, 3, rng)
    h = _batch_draw(rng, (1, m))
    with pytest.raises(DomainError):
        select_codeword(h, corr, -np.ones((1, m)))
    with pytest.raises(ConfigError):
        select_codeword(h, corr, np.ones((1, m + 1)))
    # factors of 3 users under 2 users' weights fail when built, not at the first
    # selection with a bare broadcasting error
    with pytest.raises(ConfigError, match="differ in users or length"):
        Shaping(np.ones((1, 2, m)), np.eye(m)[None].repeat(3, 0))
    corr[0, :, 5] = 0.0
    corr[0, [2, m + 2], 5] = 1.0         # codeword 5 lives on antenna 2 only
    dark = np.ones((1, m))
    dark[0, 2] = 0.0
    with pytest.raises(DomainError, match="zero codeword"):
        select_codeword(h, corr, dark)


def test_alignment_ordering_across_constructions(profile_set):
    """Expected squared alignment: variance-shaped >= correlated >= plain.

    Paired over 10^4 trials on the four-user scenario's geometry (one user
    at -12 deg); each gap must clear 3 standard errors.
    """
    m, bits, trials, chunk = 64, 6, 10_000, 500
    a = profile_set[-12.0]
    s = matrix_sqrt(correlation_matrix(UserConfig(-12.0, 5.0), m))
    root_a = np.sqrt(a)
    rng = np.random.default_rng(2025)
    align = {k: np.empty(trials) for k in ("plain", "corr", "mvcq")}
    for c0 in range(0, trials, chunk):
        h = _batch_draw(rng, (chunk, m)) @ s.T
        ht = root_a[None, :] * h
        htn = ht / np.linalg.norm(ht, axis=1, keepdims=True)
        w = _batch_normalize(_batch_draw(rng, (chunk, m, 2 ** bits)))
        wc = _batch_normalize(np.einsum("ij,cjn->cin", s, w))
        wm = _batch_normalize(root_a[None, :, None] * wc)
        for key, book in (("plain", w), ("corr", wc), ("mvcq", wm)):
            met = np.abs(np.einsum("cm,cmn->cn", ht.conj(), book))
            j = np.argmax(met, axis=1)
            picked = np.take_along_axis(book, j[:, None, None], axis=2)[:, :, 0]
            align[key][c0:c0 + chunk] = \
                np.abs(np.einsum("cm,cm->c", htn.conj(), picked)) ** 2
    for hi, lo in (("mvcq", "corr"), ("corr", "plain")):
        diff = align[hi] - align[lo]
        t = diff.mean() / (diff.std(ddof=1) / np.sqrt(trials))
        assert t > 3.0, (hi, lo, t)


# ---------------------------------------------------------------------------
# quantize


def test_quantize_matches_brute_force():
    m, bits = 4, 4
    rng = np.random.default_rng(13)
    w = random_codebook(m, bits, rng)
    cb = _unit_columns(w)
    for _ in range(200):
        h = _batch_draw(rng, (m,))
        best, best_val = 0, -1.0
        for j in range(2 ** bits):
            val = abs(np.vdot(h, cb[:, j]))   # vdot conjugates h
            if val > best_val:
                best, best_val = j, val
        assert np.allclose(select_codeword(h[None], w)[0], cb[:, best],
                           rtol=0.0, atol=1e-12)


def test_rvq_quantization_error_oracle():
    """Random vector quantization of i.i.d. CN(0, I) channels has mean error
    E[1 - |h_hat^H c*|^2] = 2^B Beta(2^B, M/(M-1)) (Au-Yeung & Love 2007)."""
    m, bits, draws = 64, 6, 4000
    rng = np.random.default_rng(2007)
    err = np.empty(draws)
    for i in range(draws):
        h = _batch_draw(rng, (m,))
        c = select_codeword(h[None], random_codebook(m, bits, rng))[0]
        err[i] = 1.0 - abs(np.vdot(h / np.linalg.norm(h), c)) ** 2
    expected = 2 ** bits * beta(2 ** bits, m / (m - 1))
    se = err.std(ddof=1) / np.sqrt(draws)
    assert abs(err.mean() - expected) <= 4.0 * se


def test_quantize_perfect_codeword():
    rng = np.random.default_rng(21)
    w = random_codebook(8, 4, rng)
    cb = _unit_columns(w)
    h = 3.0 * cb[:, 11]
    c = select_codeword(h[None], w)[0]
    assert np.allclose(c, cb[:, 11], rtol=0.0, atol=1e-12)
    assert abs(np.vdot(h, c)) == pytest.approx(3.0)


@settings(max_examples=30, deadline=None)
@given(scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                allow_nan=False, allow_infinity=False))
def test_quantize_scale_and_phase_invariant(scale):
    rng = np.random.default_rng(33)
    cb = random_codebook(8, 4, rng)
    h = _batch_draw(rng, (1, 8))
    assert np.array_equal(select_codeword(h, cb), select_codeword(scale * h, cb))


def test_quantize_tie_breaks_low_index():
    vecs = np.zeros((4, 4), dtype=complex)
    vecs[0, 0] = 1.0
    vecs[0, 1] = 1j          # same metric as column 0 for this channel
    vecs[1, 2] = 1.0
    vecs[2, 3] = 1.0
    h = np.array([[1.0 + 0j, 0.0, 0.0, 0.0]])
    block = np.concatenate((vecs.real, vecs.imag))[None]
    assert np.array_equal(select_codeword(h, block)[0], vecs[:, 0])


def test_float32_near_tie_resolves_as_float64():
    """Codeword 1 beats codeword 0 by 1e-10 in squared cosine, which float32
    cannot see (1 + 1e-10 rounds to 1): the float32 scores tie, and the user is
    redone in float64, which picks codeword 1, also for each selection of a
    stacked Shaping."""
    vecs = np.zeros((4, 4), dtype=complex)
    vecs[:2, 0] = [1.0, 1e-5]           # squared cosine 1 / (1 + 1e-10)
    vecs[0, 1] = 1.0                    # squared cosine 1
    vecs[1, 2] = vecs[2, 3] = 1.0
    h = np.array([[1.0 + 0j, 0.0, 0.0, 0.0]])
    block = np.concatenate((vecs.real, vecs.imag))[None]
    assert np.float32(1.0) + np.float32(1e-10) == np.float32(1.0)
    assert np.array_equal(select_codeword(h, block)[0], vecs[:, 1])
    shaping = Shaping(np.stack([np.ones((1, 4)), np.full((1, 4), 2.0)]), np.eye(4)[None])
    for out in select_codeword(h, block, shaping):
        assert np.array_equal(out[0], vecs[:, 1])


def test_quantize_rejects_zero_channel():
    cb = random_codebook(4, 2, np.random.default_rng(0))
    with pytest.raises(DomainError):
        select_codeword(np.zeros((1, 4), dtype=complex), cb)


# ---------------------------------------------------------------------------
# gaussian spot model


def _gauss(y, p, q, r):
    return p * np.exp(-((y - q) / r) ** 2)


def test_fit_recovers_exact_gaussian(lens, array):
    y = (np.arange(array.num_antennas) - (array.num_antennas - 1) / 2.0) \
        * lens.aperture / array.num_antennas
    truth = {-10.0: (3.0, 1.5, 2.0), -5.0: (3.2, 0.8, 1.9), 0.0: (3.5, 0.0, 1.8),
             5.0: (3.2, -0.8, 1.9), 10.0: (3.0, -1.5, 2.0)}
    profiles = {ang: _gauss(y, *prm) for ang, prm in truth.items()}
    model = fit_gaussian_model(profiles.__getitem__, lens, array, (-2.5, 2.5))
    for i, ang in enumerate(model.anchors_deg):
        p_ref, q_ref, r_ref = truth[float(ang)]
        assert model.p[i] == pytest.approx(p_ref, abs=1e-6)
        assert model.q[i] == pytest.approx(q_ref, abs=1e-6)
        assert model.r[i] == pytest.approx(r_ref, abs=1e-6)
        assert model.residual_rms[i] <= 1e-8
        assert not model.poor_fit[i]


def test_gaussian_jacobian_matches_central_differences(lens, array):
    """The fit's analytic d/dp, d/dq, d/dr against O(h^2) central differences
    at random spots, bright or faint, centered or off the aperture."""
    from lensmimo.feedback import _gauss_jac
    y = (np.arange(array.num_antennas) - (array.num_antennas - 1) / 2.0) \
        * lens.aperture / array.num_antennas
    rng = np.random.default_rng(11)
    for _ in range(50):
        prm = np.array([10.0 ** rng.uniform(-2, 4), rng.uniform(-40, 40),
                        10.0 ** rng.uniform(-1, 1.5)])
        jac = _gauss_jac(y, *prm)
        assert jac.shape == (y.size, 3)
        for j in range(3):
            h = np.zeros(3)
            h[j] = 1e-6 * prm[2 if j else 0]     # q and r step on the width's scale
            num = (_gauss(y, *(prm + h)) - _gauss(y, *(prm - h))) / (2.0 * h[j])
            scale = np.abs(jac[:, j]).max() + 1e-300
            assert np.allclose(jac[:, j], num, rtol=0, atol=1e-6 * scale), (prm, j)


def test_fit_requires_three_anchors(lens, array):
    """PCHIP needs three anchors, so an empty angle list, the one input that
    leaves fewer, is refused, and an angle at the sector edge fits three."""
    y = np.linspace(-10, 10, array.num_antennas)
    profiles = {a: _gauss(y, 3.0, 0.0, 2.0) for a in (20.0, 25.0, 30.0)}
    with pytest.raises(ConfigError, match="at least one angle"):
        fit_gaussian_model(profiles.__getitem__, lens, array, [])
    assert np.array_equal(
        fit_gaussian_model(profiles.__getitem__, lens, array, [30.0]).anchors_deg,
        [20.0, 25.0, 30.0])


def test_fit_on_propagated_profiles(lens, grid, array, profile_set):
    """Fit quality and odd symmetry of the spot center on real profiles."""
    angles = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    profiles = {a: (profile_set[a] if a in profile_set
                    else antenna_power_profile(lens, grid, array, a))
                for a in angles}
    model = fit_gaussian_model(profiles.__getitem__, lens, array, (-7.5, 7.5))
    assert not model.poor_fit.any()
    q = dict(zip(model.anchors_deg, model.q))
    assert abs(q[0.0]) < 0.5
    for ang in (5.0, 10.0, 15.0):
        assert q[ang] == pytest.approx(-q[-ang], abs=0.4)
    # positive departure angles push the spot toward negative coordinates
    assert all(q1 > q2 for q1, q2 in
               zip([q[a] for a in angles], [q[a] for a in angles][1:]))


def test_fit_tracks_ray_optics_at_longer_standoff(lens, grid):
    """At the 30-wavelength plane the spot center follows the geometric ray:
    q(theta) ~ -ell tan(theta), with even-symmetric amplitude and width."""
    ell = 30.0
    far = ArraySpec(lens_distance=ell)
    angles = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    profiles = {a: antenna_power_profile(lens, grid, far, a) for a in angles}
    model = fit_gaussian_model(profiles.__getitem__, lens, far, (-7.5, 7.5))
    assert not model.poor_fit.any()
    p = dict(zip(model.anchors_deg, model.p))
    q = dict(zip(model.anchors_deg, model.q))
    r = dict(zip(model.anchors_deg, model.r))
    for ang in (5.0, 10.0, 15.0):
        ray = -ell * np.tan(np.radians(ang))
        assert q[ang] == pytest.approx(ray, rel=0.1)
        assert q[ang] == pytest.approx(-q[-ang], rel=0.05)
        assert p[ang] == pytest.approx(p[-ang], rel=0.05)
        assert r[ang] == pytest.approx(r[-ang], rel=0.05)
    assert all(a > b for a, b in zip(model.q, model.q[1:]))


def test_fit_flags_poor_profiles(lens, array):
    y = (np.arange(array.num_antennas) - (array.num_antennas - 1) / 2.0) \
        * lens.aperture / array.num_antennas
    good = {a: _gauss(y, 3.0, -0.2 * a, 2.0) for a in (-10.0, -5.0, 5.0, 10.0)}
    # a two-blob profile no single Gaussian can follow
    good[0.0] = _gauss(y, 3.0, -5.0, 1.0) + _gauss(y, 3.0, 5.0, 1.0)
    with pytest.warns(UserWarning, match="poor"):
        model = fit_gaussian_model(good.__getitem__, lens, array, (-2.5, 2.5))
    assert model.poor_fit[list(model.anchors_deg).index(0.0)]


@pytest.mark.parametrize("focal", [20.0, 30.0, 40.0, 50.0])
def test_spot_fit_matches_scipy_curve_fit(grid, array, focal, monkeypatch):
    """The NumPy trust-region-reflective port against SciPy's curve_fit on
    the same problem at all 13 anchors: equal evaluation counts and p, q, r
    within 1e-10 relative at |theta| <= 20 deg; at the ill-determined
    +-25/+-30 deg fits, which crawl toward the p <= 1e3 peak bound, p, q, r
    within 1e-5 relative (roundoff of the SVD differs between LAPACK builds)."""
    from scipy.optimize import curve_fit

    from lensmimo import feedback
    port, calls = feedback.trf_bounds, []

    def spy(fun, jac, x0, lb, ub):
        out = port(fun, jac, x0, lb, ub)
        calls.append((x0, lb, ub, out))
        return out

    monkeypatch.setattr(feedback, "trf_bounds", spy)
    lens = LensSpec(focal_length=focal)
    profiles = {a: antenna_power_profile(lens, grid, array, a)
                for a in np.arange(-30.0, 31.0, 5.0)}
    model = fit_gaussian_model(profiles.__getitem__, lens, array)
    y = feedback.antenna_coordinates(lens, array)
    assert len(calls) == 13
    for i, (ang, (x0, lb, ub, (x, nfev))) in enumerate(zip(model.anchors_deg, calls)):
        popt, _, info, _, ier = curve_fit(
            _gauss, y, profiles[ang], p0=x0, bounds=(lb, ub),
            jac=feedback._gauss_jac, maxfev=20000, full_output=True)
        assert ier > 0
        assert np.array_equal(x, (model.p[i], model.q[i], model.r[i]))
        if abs(ang) <= 20.0:
            assert nfev == info["nfev"], ang
            np.testing.assert_allclose(x, popt, rtol=1e-10, atol=0, err_msg=str(ang))
        else:
            np.testing.assert_allclose(x, popt, rtol=1e-5, atol=0, err_msg=str(ang))


def _pchip_cases():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        x = np.sort(rng.choice(np.linspace(-30.0, 30.0, 61), n, replace=False))
        yield "random", x, rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        yield "monotone", x, np.cumsum(rng.exponential(size=n)) - rng.uniform(0, 5)
        flat = rng.normal(size=n)
        flat[1:n // 2 + 2] = flat[1]                   # a run of equal values
        yield "flat", x, flat


def test_pchip_matches_scipy():
    """The NumPy PCHIP against SciPy's PchipInterpolator within 1e-15
    relative, on the anchors, between them and on both end points."""
    from scipy.interpolate import PchipInterpolator

    from lensmimo.numerics import pchip
    rng = np.random.default_rng(16)
    for kind, x, y in _pchip_cases():
        ts = np.concatenate((x, rng.uniform(x[0], x[-1], 100)))
        got = np.array([pchip(x, y, t) for t in ts])
        want = PchipInterpolator(x, y)(ts)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), kind


@pytest.mark.parametrize("ord", [None, np.inf])
def test_trf_norm_equals_numpy_norm_bit_for_bit(ord):
    """The solver's norm against np.linalg.norm on contiguous and strided
    vectors: BLAS ddot rounds differently at stride != 1, so both ravel."""
    from lensmimo.numerics import _norm
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 5, 17, 64, 1001):
        base = rng.normal(size=3 * n) * 10.0 ** rng.uniform(-8, 8, 3 * n)
        for v in (base[:n], base[::3], base[1::2][:n], base[::-1][:n]):
            assert _norm(v, ord).tobytes() == np.linalg.norm(v, ord).tobytes(), (n, ord)


def test_fit_that_runs_out_of_evaluations_is_a_domain_error(lens, array, monkeypatch):
    from lensmimo import feedback
    monkeypatch.setattr(feedback, "trf_bounds", functools.partial(feedback.trf_bounds,
                                                                  max_nfev=2))
    y = feedback.antenna_coordinates(lens, array)
    profiles = {a: _gauss(y, 3.0, -0.2 * a, 2.0) + 0.1 for a in (-10.0, -5.0, 0.0, 5.0, 10.0)}
    with pytest.raises(DomainError, match="gaussian fit failed at -10.0 deg"):
        fit_gaussian_model(profiles.__getitem__, lens, array, (-2.5, 2.5))


@pytest.mark.parametrize("level", [0.0, np.nan])
def test_fit_refuses_a_profile_without_power(lens, array, level):
    y = np.linspace(-10, 10, array.num_antennas)
    profiles = {a: _gauss(y, 3.0, 0.0, 2.0) for a in (-10.0, -5.0, 5.0, 10.0)}
    profiles[0.0] = np.full(array.num_antennas, level)
    with pytest.raises(DomainError, match="at 0.0 deg carries no power"):
        fit_gaussian_model(profiles.__getitem__, lens, array, (-2.5, 2.5))


def test_gaussian_profile_normalized_and_guarded(lens, grid, array, profile_set):
    angles = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    profiles = {a: (profile_set[a] if a in profile_set
                    else antenna_power_profile(lens, grid, array, a))
                for a in angles}
    model = fit_gaussian_model(profiles.__getitem__, lens, array, (-7.5, 7.5))
    a7 = gaussian_profile(7.0, model)
    assert a7.sum() == pytest.approx(array.num_antennas, abs=1e-9)
    assert np.all(a7 >= 0.0)
    with pytest.raises(DomainError):
        gaussian_profile(25.0, model)      # outside the fit span


# ---------------------------------------------------------------------------
# sub-sampled propagation profiles


def test_sub_bpm_stride_one_identical(lens, grid, array, profile_set):
    a = antenna_power_profile(lens, grid, array, 10.0, stride=1)
    assert np.array_equal(a, profile_set[10.0])


def test_sub_bpm_divisible_stride_exact(lens, grid, array):
    """Steps that land exactly on the array plane lose nothing: the one-step
    propagator composes exactly."""
    ref = antenna_power_profile(lens, grid, array, 5.0)
    a5 = antenna_power_profile(lens, grid, array, 5.0, stride=5)
    assert np.allclose(a5, ref, atol=1e-9)


def test_sub_bpm_degradation_monotone(lens, grid):
    """Strides that overshoot extract the profile short of the array; the
    error grows (weakly) with the shortfall."""
    arr = ArraySpec(lens_distance=23.0)
    ref = antenna_power_profile(lens, grid, arr, 8.0)
    rms = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for stride in (1, 2, 5, 20):
            a = antenna_power_profile(lens, grid, arr, 8.0, stride=stride)
            assert a.sum() == pytest.approx(arr.num_antennas, abs=1e-6)
            rms.append(float(np.sqrt(np.mean((a - ref) ** 2))))
    assert rms[0] <= 1e-12
    assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rms, rms[1:]))
    assert rms[1] > 1e-3       # a genuine accuracy loss, not roundoff


def test_sub_bpm_oversized_stride_errors(lens, grid, array):
    with pytest.raises(DomainError):
        antenna_power_profile(lens, grid, array, 0.0, stride=30)
