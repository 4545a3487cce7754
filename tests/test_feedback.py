"""Codebook constructions, quantization oracles, profile estimators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta

from lensmimo import (ArraySpec, ConfigError, DomainError, LensSpec,
                      PropagationGrid, UserConfig, antenna_power_profile,
                      approx_sinr, correlate_codebook, correlation_matrix,
                      fit_gaussian_model, gaussian_profile, generate_mvcq,
                      generate_rvq, matrix_sqrt, mrt_precoder, quantize,
                      received_sinr)


def _batch_normalize(w):
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def _batch_draw(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# codebook constructions


def test_rvq_columns_unit_norm_and_deterministic():
    cb1 = generate_rvq(64, 6, np.random.default_rng(42))
    cb2 = generate_rvq(64, 6, np.random.default_rng(42))
    assert cb1.vectors.shape == (64, 64)
    assert np.allclose(np.linalg.norm(cb1.vectors, axis=0), 1.0, atol=1e-12)
    assert np.array_equal(cb1.vectors, cb2.vectors)
    assert cb1.kind == "rvq"


def test_rvq_isotropy_oracle():
    """Independent isotropic unit vectors satisfy E|<c_i, c_j>|^2 = 1/M."""
    m, vals = 64, []
    for seed in (1, 2, 3):
        cb = generate_rvq(m, 6, np.random.default_rng(seed))
        gram = np.abs(cb.vectors.conj().T @ cb.vectors) ** 2
        off = gram[~np.eye(gram.shape[0], dtype=bool)]
        vals.append(off.mean())
    mean = np.mean(vals)
    assert abs(mean - 1.0 / m) <= 0.2 / m


def test_rvq_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        generate_rvq(8, 0, rng)
    with pytest.raises(ConfigError):
        generate_rvq(8, 17, rng)
    with pytest.raises(ConfigError):
        generate_rvq(0, 4, rng)


def test_correlate_identity_is_noop():
    cb = generate_rvq(16, 4, np.random.default_rng(5))
    out = correlate_codebook(cb, np.eye(16))
    assert np.allclose(out.vectors, cb.vectors, atol=1e-12)
    assert out.kind == "rvq_correlated"


def test_correlate_rank_one_collapses_directions():
    """Fully correlated factor (zero spacing limit) leaves collinear codewords."""
    m = 8
    s = matrix_sqrt(np.ones((m, m), dtype=complex))
    cb = correlate_codebook(generate_rvq(m, 4, np.random.default_rng(9)), s)
    gram = np.abs(cb.vectors.conj().T @ cb.vectors)
    assert np.allclose(gram, 1.0, atol=1e-9)


def test_correlate_rejects_dimension_mismatch():
    cb = generate_rvq(8, 3, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        correlate_codebook(cb, np.eye(10))


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
    corr = correlate_codebook(generate_rvq(m, 4, np.random.default_rng(3)), s)
    mv = generate_mvcq(corr, np.ones(m))
    assert np.allclose(mv.vectors, corr.vectors, atol=1e-12)
    assert mv.kind == "mvcq"


def test_mvcq_entries_scale_with_profile():
    """Before renormalization, |w''_m|^2 = a_m |w'_m|^2 entry for entry."""
    m = 16
    corr = correlate_codebook(generate_rvq(m, 4, np.random.default_rng(4)), np.eye(m))
    a = np.random.default_rng(5).random(m) * 2.0
    unnorm = np.sqrt(a)[:, None] * corr.vectors
    assert np.allclose(np.abs(unnorm) ** 2, a[:, None] * np.abs(corr.vectors) ** 2)


def test_mvcq_concentrates_on_dominant_cell():
    """A profile with one dominant cell pulls every codeword onto it."""
    m = 64
    a = np.full(m, 8.0 / 63.0)
    a[40] = 56.0
    s = matrix_sqrt(correlation_matrix(UserConfig(0.0, 5.0), m))
    corr = correlate_codebook(generate_rvq(m, 6, np.random.default_rng(12)), s)
    mv = generate_mvcq(corr, a)
    assert np.mean(np.abs(mv.vectors[40]) ** 2) > 0.5


def test_mvcq_rejects_bad_inputs():
    m = 8
    rng = np.random.default_rng(1)
    plain = generate_rvq(m, 3, rng)
    with pytest.raises(ConfigError):
        generate_mvcq(plain, np.ones(m))          # must be correlated first
    corr = correlate_codebook(plain, np.eye(m))
    with pytest.raises(DomainError):
        generate_mvcq(corr, -np.ones(m))
    with pytest.raises(ConfigError):
        generate_mvcq(corr, np.ones(m + 1))


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
    cb = generate_rvq(m, bits, rng)
    for _ in range(200):
        h = _batch_draw(rng, (m,))
        best, best_val = 0, -1.0
        for j in range(2 ** bits):
            val = abs(np.vdot(h, cb.vectors[:, j]))   # vdot conjugates h
            if val > best_val:
                best, best_val = j, val
        res = quantize(h, cb)
        assert res.index == best
        assert np.array_equal(res.direction, cb.vectors[:, best])


def test_rvq_quantization_error_oracle():
    """Random vector quantization of i.i.d. CN(0, I) channels has mean error
    E[1 - |h_hat^H c*|^2] = 2^B Beta(2^B, M/(M-1)) (Au-Yeung & Love 2007)."""
    m, bits, draws = 64, 6, 4000
    rng = np.random.default_rng(2007)
    err = np.empty(draws)
    for i in range(draws):
        h = _batch_draw(rng, (m,))
        c = quantize(h, generate_rvq(m, bits, rng)).direction
        err[i] = 1.0 - abs(np.vdot(h / np.linalg.norm(h), c)) ** 2
    expected = 2 ** bits * beta(2 ** bits, m / (m - 1))
    se = err.std(ddof=1) / np.sqrt(draws)
    assert abs(err.mean() - expected) <= 4.0 * se


def test_quantize_perfect_codeword():
    rng = np.random.default_rng(21)
    cb = generate_rvq(8, 4, rng)
    h = 3.0 * cb.vectors[:, 11]
    res = quantize(h, cb)
    assert res.index == 11
    assert abs(np.vdot(h, res.direction)) == pytest.approx(3.0)


@settings(max_examples=30, deadline=None)
@given(scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                allow_nan=False, allow_infinity=False))
def test_quantize_scale_and_phase_invariant(scale):
    rng = np.random.default_rng(33)
    cb = generate_rvq(8, 4, rng)
    h = _batch_draw(rng, (8,))
    assert quantize(h, cb).index == quantize(scale * h, cb).index


def test_quantize_tie_breaks_low_index():
    vecs = np.zeros((4, 4), dtype=complex)
    vecs[0, 0] = 1.0
    vecs[0, 1] = 1j          # same metric as column 0 for this channel
    vecs[1, 2] = 1.0
    vecs[2, 3] = 1.0
    cb_vectors = vecs
    from lensmimo import Codebook
    cb = Codebook(vectors=cb_vectors, bits=2, kind="rvq")
    h = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    assert quantize(h, cb).index == 0


def test_quantize_rejects_zero_channel():
    cb = generate_rvq(4, 2, np.random.default_rng(0))
    with pytest.raises(DomainError):
        quantize(np.zeros(4, dtype=complex), cb)


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
    model = fit_gaussian_model(profiles, lens, array)
    for i, ang in enumerate(model.anchors_deg):
        p_ref, q_ref, r_ref = truth[float(ang)]
        assert model.p[i] == pytest.approx(p_ref, abs=1e-6)
        assert model.q[i] == pytest.approx(q_ref, abs=1e-6)
        assert model.r[i] == pytest.approx(r_ref, abs=1e-6)
        assert model.residual_rms[i] <= 1e-8
        assert not model.poor_fit[i]


def test_fit_requires_five_anchors(lens, array):
    y = np.linspace(-10, 10, array.num_antennas)
    profiles = {a: _gauss(y, 3.0, 0.0, 2.0) for a in (-5.0, 0.0, 5.0)}
    with pytest.raises(ConfigError):
        fit_gaussian_model(profiles, lens, array)


def test_fit_on_propagated_profiles(lens, grid, array, profile_set):
    """Fit quality and odd symmetry of the spot center on real profiles."""
    angles = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    profiles = {a: (profile_set[a] if a in profile_set
                    else antenna_power_profile(lens, grid, array, a))
                for a in angles}
    model = fit_gaussian_model(profiles, lens, array)
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
    model = fit_gaussian_model(profiles, lens, far)
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
        model = fit_gaussian_model(good, lens, array)
    assert model.poor_fit[list(model.anchors_deg).index(0.0)]


def test_gaussian_profile_normalized_and_guarded(lens, grid, array, profile_set):
    angles = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    profiles = {a: (profile_set[a] if a in profile_set
                    else antenna_power_profile(lens, grid, array, a))
                for a in angles}
    model = fit_gaussian_model(profiles, lens, array)
    a7 = gaussian_profile(7.0, model, array, lens)
    assert a7.sum() == pytest.approx(array.num_antennas, abs=1e-9)
    assert np.all(a7 >= 0.0)
    with pytest.raises(DomainError):
        gaussian_profile(25.0, model, array, lens)      # outside the fit span
    with pytest.raises(ConfigError):
        gaussian_profile(7.0, model, ArraySpec(lens_distance=30.0), lens)
    with pytest.raises(ConfigError):
        gaussian_profile(7.0, model, array, LensSpec(focal_length=30.0))


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


# ---------------------------------------------------------------------------
# approximate SINR


def test_approx_sinr_all_ones_reduces_to_exact():
    rng = np.random.default_rng(8)
    k, m = 3, 16
    h = _batch_draw(rng, (k, m))
    prec = mrt_precoder(h / np.linalg.norm(h, axis=1, keepdims=True))
    p_t = 10.0
    approx = approx_sinr(np.ones((k, k)), h, prec.columns, p_t)
    exact = received_sinr(h, prec.normalized, p_t)
    assert np.allclose(approx, exact, rtol=1e-12)


def test_approx_sinr_weakly_increases_with_separation():
    rng = np.random.default_rng(9)
    k, m = 3, 16
    h = _batch_draw(rng, (k, m))
    f = _batch_draw(rng, (m, k))
    psi = np.full((k, k), 0.4)
    np.fill_diagonal(psi, 1.0)
    hi = approx_sinr(psi, h, f, 5.0)
    lo = approx_sinr(np.ones((k, k)), h, f, 5.0)
    assert np.all(hi >= lo)


def test_approx_sinr_orders_users_like_exact(profile_set):
    """Two users at the sector edges: the estimate agrees with the exact
    SINR on which user is better off in at least 90% of trials."""
    m, bits, trials = 64, 6, 1000
    angles = (-15.0, 15.0)
    profs = np.stack([profile_set[a] for a in angles])
    psi = (np.sqrt(profs) @ np.sqrt(profs).T) / m
    factors = [matrix_sqrt(correlation_matrix(UserConfig(a, 5.0), m))
               for a in angles]
    root_a = np.sqrt(profs)
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(trials):
        h = np.stack([s @ _batch_draw(rng, (m,)) for s in factors])
        ht = root_a * h
        rows = []
        for u in range(2):
            cb = generate_mvcq(
                correlate_codebook(generate_rvq(m, bits, rng), factors[u]),
                profs[u])
            rows.append(quantize(ht[u], cb).direction)
        prec = mrt_precoder(np.stack(rows))
        exact = received_sinr(ht, prec.normalized, 10.0)
        approx = approx_sinr(psi, ht, prec.columns, 10.0)
        agree += int(np.argmax(exact) == np.argmax(approx))
    assert agree / trials >= 0.9


def test_approx_sinr_rejects_mismatched_shapes():
    with pytest.raises(ConfigError):
        approx_sinr(np.ones((2, 2)), np.ones((3, 4)), np.ones((4, 3)), 1.0)
