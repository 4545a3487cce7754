"""Acceptance gate: end-to-end checks with explicit tolerances and budgets.

Each test covers one shipped guarantee, prints the measured numbers next to
their targets, and asserts a wall-clock budget for the computation it ran.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from lensmimo import (ArraySpec, LensSpec, PropagationGrid, ScenarioConfig,
                      UserConfig, antenna_power_profile, correlation_matrix,
                      find_focal_peak, laplacian_pas, lens_phase_profile,
                      matrix_sqrt, power_correlation_matrix, propagate,
                      random_codebook, run_monte_carlo, select_codeword,
                      zf_precoder)
from lensmimo.cli import EXIT_OK, main


def _gap_in_se(mean_hi, err_hi, mean_lo, err_lo):
    return float((mean_hi - mean_lo) / np.hypot(err_hi, err_lo))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_focus_scan_hits_coarse_grid_targets():
    """Peak distance within 3 wavelengths and per-cell gain within 20% of
    the reference values for f in {20, 30, 40, 50}, on the 1-wavelength grid.

    The coarse 1-wavelength grid is part of the target definition; its edge
    diffraction trips the window-occupancy warning, which is expected here.
    """
    dist_targets = {20.0: 16.0, 30.0: 20.0, 40.0: 27.0, 50.0: 33.0}
    gain_targets = {20.0: 6.11, 30.0: 4.92, 40.0: 3.47, 50.0: 2.88}
    grid = PropagationGrid(dx=1.0, dz=1.0, window=80.0)
    array = ArraySpec()
    t0 = time.perf_counter()
    measured = {}
    for f in sorted(dist_targets):
        lens = LensSpec(focal_length=f)
        hist = propagate(lens_phase_profile(lens, grid), grid, steps=60)
        z, gain = find_focal_peak(hist, lens, array)
        measured[f] = (z, gain)
    elapsed = time.perf_counter() - t0

    bad = []
    for f, (z, gain) in measured.items():
        dist_ok = abs(z - dist_targets[f]) <= 3.0
        gain_ok = abs(gain - gain_targets[f]) <= 0.2 * gain_targets[f]
        status = "PASS" if dist_ok and gain_ok else "FAIL"
        print(f"[acceptance] focus f={f:g}: peak z={z:g} (target "
              f"{dist_targets[f]:g} +/- 3), gain={gain:.4f} (target "
              f"{gain_targets[f]:g} +/- 20%) -> {status}")
        if not dist_ok:
            bad.append(f"f={f:g} distance {z:g} vs {dist_targets[f]:g}+/-3")
        if not gain_ok:
            bad.append(f"f={f:g} gain {gain:.4f} vs {gain_targets[f]:g}+/-20%")
    assert elapsed < 10.0, f"focus scan took {elapsed:.1f}s"
    assert not bad, "; ".join(bad)


def test_conservation_symmetry_and_profile_sums():
    """Power at every plane within 1e-9 of the input, mirror-symmetric
    head-on history <= 1e-6, profile sums within 1e-6 of M."""
    lens, grid, array = LensSpec(), PropagationGrid(), ArraySpec()
    t0 = time.perf_counter()

    u0 = lens_phase_profile(lens, grid, 7.0)
    planes = propagate(u0, grid, steps=25).fields
    power = np.sum(np.abs(u0) ** 2)
    worst_cons = float(np.max(np.abs(np.sum(np.abs(planes) ** 2, axis=1) - power))
                       / power)

    hist = propagate(lens_phase_profile(lens, grid, 0.0), grid, steps=25)
    inten = np.abs(hist.fields) ** 2
    mirrored = np.roll(inten[:, ::-1], 1, axis=1)
    asym = float(np.max(np.abs(inten - mirrored)) / inten.max())

    sums = [antenna_power_profile(lens, grid, array, a).sum()
            for a in (-15.0, -7.5, 0.0, 7.5, 15.0)]
    worst_sum = float(np.max(np.abs(np.asarray(sums) - array.num_antennas)))
    elapsed = time.perf_counter() - t0

    print(f"[acceptance] conservation {worst_cons:.2e} (<=1e-9), "
          f"asymmetry {asym:.2e} (<=1e-6), "
          f"profile-sum error {worst_sum:.2e} (<=1e-6), {elapsed:.2f}s (<5s)")
    assert worst_cons <= 1e-9
    assert asym <= 1e-6
    assert worst_sum <= 1e-6
    assert elapsed < 5.0


def test_small_instance_oracles():
    """ZF vs Gram inverse, quantizer vs column scan, closed-form correlation
    vs direct quadrature, and matrix square root reconstruction."""
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()

    h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    f = h.conj().T @ np.linalg.inv(h @ h.conj().T)
    zf_err = float(np.max(np.abs(
        zf_precoder(h) - f / (np.sqrt(2.0) * np.linalg.norm(f, axis=0)))))

    w = random_codebook(4, 4, rng)
    cb = w[0, :4] + 1j * w[0, 4:]
    cb = cb / np.linalg.norm(cb, axis=0)
    mismatches = 0
    for _ in range(100):
        ch = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ref = int(np.argmax([abs(np.vdot(ch, cb[:, j])) for j in range(16)]))
        mismatches += int(not np.allclose(select_codeword(ch[None], w)[0],
                                          cb[:, ref], rtol=0.0, atol=1e-12))

    def quad_corr(theta_deg, sigma_deg, lag):
        sig = np.radians(sigma_deg)
        th = np.radians(theta_deg)
        re = quad(lambda p: np.cos(2 * np.pi * 0.5 * lag * np.sin(th + p))
                  * laplacian_pas(p, sig), -np.pi, np.pi,
                  points=[0.0], limit=400)[0]
        im = quad(lambda p: np.sin(2 * np.pi * 0.5 * lag * np.sin(th + p))
                  * laplacian_pas(p, sig), -np.pi, np.pi,
                  points=[0.0], limit=400)[0]
        return re + 1j * im

    corr_err = 0.0
    for sigma in (2.0, 5.0, 10.0):
        for theta in (0.0, 10.0, -15.0):
            r = correlation_matrix(UserConfig(theta, sigma), 9)
            for lag in range(1, 9):
                corr_err = max(corr_err, abs(r[lag, 0] - quad_corr(theta, sigma, lag)))

    r64 = correlation_matrix(UserConfig(-12.0, 5.0), 64)
    s = matrix_sqrt(r64)
    sqrt_err = float(np.linalg.norm(s @ s - r64) / np.linalg.norm(r64))
    elapsed = time.perf_counter() - t0

    print(f"[acceptance] zf-oracle {zf_err:.2e} (<=1e-10), quantize "
          f"mismatches {mismatches}/100 (=0), correlation-vs-quadrature "
          f"{corr_err:.2e} (<=0.05), sqrt reconstruction {sqrt_err:.2e} "
          f"(<=1e-8), {elapsed:.1f}s (<30s)")
    assert zf_err <= 1e-10
    assert mismatches == 0
    assert corr_err <= 0.05
    assert sqrt_err <= 1e-8
    assert elapsed < 30.0


def test_four_user_codebook_ordering():
    """Profile-shaped codewords beat isotropic ones (with and without the
    lens on the channel) by > 3 standard errors at every SNR >= 5 dB,
    under both precoders; 10^3 trials per point."""
    users = tuple(UserConfig(a, 5.0) for a in (-12.0, -7.0, 10.0, 0.0))
    t0 = time.perf_counter()
    lens_cfg = ScenarioConfig(users=users, name="fourlens",
                              quantizers=("mvcq", "rvq"),
                              precoders=("zf", "mrt"), trials=1000, seed=77)
    bare_cfg = ScenarioConfig(users=users, name="fourbare", lens_enabled=False,
                              quantizers=("rvq",), precoders=("zf", "mrt"),
                              trials=1000, seed=77)
    r_lens = run_monte_carlo(lens_cfg)
    r_bare = run_monte_carlo(bare_cfg)
    elapsed = time.perf_counter() - t0

    failures = []
    idx = [i for i, s in enumerate(lens_cfg.snr_db) if s >= 5.0]
    for prec in ("zf", "mrt"):
        for label, other, key in (("lens rvq", r_lens, "rvq"),
                                  ("bare rvq", r_bare, "rvq")):
            gaps = [_gap_in_se(r_lens.mean[(prec, "mvcq")][i],
                               r_lens.stderr[(prec, "mvcq")][i],
                               other.mean[(prec, key)][i],
                               other.stderr[(prec, key)][i]) for i in idx]
            ok = all(g > 3.0 for g in gaps)
            print(f"[acceptance] four-user {prec}: mvcq vs {label} gaps/se "
                  f"{[f'{g:.1f}' for g in gaps]} (>3 each) -> "
                  f"{'PASS' if ok else 'FAIL'}")
            if not ok:
                failures.append((prec, label, gaps))
    print(f"[acceptance] four-user runtime {elapsed:.0f}s (<300s)")
    assert not failures
    assert elapsed < 300.0


def test_adjacent_users_zf_and_two_bit_codebook():
    """Users one degree apart: ZF beats MRT at 10 dB under the shaped
    codebook, and a 2-bit shaped codebook beats 6-bit isotropic at every
    SNR >= 5 dB, each by > 3 standard errors over 10^3 trials."""
    users = (UserConfig(10.0, 5.0), UserConfig(11.0, 5.0))
    snr = (-10.0, -5.0, 0.0, 5.0, 10.0)
    t0 = time.perf_counter()
    shaped = ScenarioConfig(users=users, name="adj2", bits=2,
                            quantizers=("mvcq",), precoders=("zf", "mrt"),
                            snr_db=snr, trials=1000, seed=77)
    iso = ScenarioConfig(users=users, name="adj6", bits=6,
                         quantizers=("rvq",), precoders=("zf",),
                         snr_db=snr, trials=1000, seed=77)
    r_shaped = run_monte_carlo(shaped)
    r_iso = run_monte_carlo(iso)
    elapsed = time.perf_counter() - t0

    i10 = snr.index(10.0)
    zf_vs_mrt = _gap_in_se(r_shaped.mean[("zf", "mvcq")][i10],
                           r_shaped.stderr[("zf", "mvcq")][i10],
                           r_shaped.mean[("mrt", "mvcq")][i10],
                           r_shaped.stderr[("mrt", "mvcq")][i10])
    idx = [i for i, s in enumerate(snr) if s >= 5.0]
    bit_gaps = [_gap_in_se(r_shaped.mean[("zf", "mvcq")][i],
                           r_shaped.stderr[("zf", "mvcq")][i],
                           r_iso.mean[("zf", "rvq")][i],
                           r_iso.stderr[("zf", "rvq")][i]) for i in idx]
    print(f"[acceptance] adjacent users: zf-vs-mrt at 10 dB {zf_vs_mrt:.1f} se "
          f"(>3), 2-bit shaped vs 6-bit isotropic gaps/se "
          f"{[f'{g:.1f}' for g in bit_gaps]} (>3 each), {elapsed:.0f}s (<180s)")
    assert zf_vs_mrt > 3.0
    assert all(g > 3.0 for g in bit_gaps)
    assert elapsed < 180.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_profile_source_ordering_at_fifteen_db():
    """Five users at 15 dB: exact fine-step profiles >= fitted-Gaussian
    profiles and >= coarse-step profiles >= isotropic codebook, each ordered
    pair separated by > 2 standard errors over 10^3 trials."""
    users = tuple(UserConfig(a, 5.0) for a in (-12.0, -7.0, 0.0, 5.0, 10.0))
    t0 = time.perf_counter()
    cfg = ScenarioConfig(users=users, name="sources",
                         quantizers=("mvcq", "mvcq:gaussian",
                                     "mvcq:sub_bpm:10", "rvq"),
                         precoders=("zf",), snr_db=(15.0,), trials=1000,
                         seed=77)
    res = run_monte_carlo(cfg)
    elapsed = time.perf_counter() - t0

    pairs = ((("zf", "mvcq"), ("zf", "mvcq:gaussian")),
             (("zf", "mvcq"), ("zf", "mvcq:sub_bpm:10")),
             (("zf", "mvcq:sub_bpm:10"), ("zf", "rvq")))
    gaps = [_gap_in_se(res.mean[hi][0], res.stderr[hi][0],
                       res.mean[lo][0], res.stderr[lo][0]) for hi, lo in pairs]
    means = {q: f"{res.mean[('zf', q)][0]:.2f}" for q in cfg.quantizers}
    print(f"[acceptance] profile sources at 15 dB: means {means}, ordered-pair "
          f"gaps/se {[f'{g:.1f}' for g in gaps]} (>2 each), {elapsed:.0f}s (<300s)")
    assert all(g > 2.0 for g in gaps)
    assert elapsed < 300.0


def test_power_correlation_resolvability():
    """Sector-edge users are resolvable (off-diagonal < 0.9, against the
    all-ones no-lens matrix); users two degrees apart are not (higher value)."""
    lens, grid, array = LensSpec(), PropagationGrid(), ArraySpec()
    t0 = time.perf_counter()
    prof = {a: antenna_power_profile(lens, grid, array, a)
            for a in (-15.0, 15.0, 17.0)}
    psi_wide = power_correlation_matrix(np.stack([prof[-15.0], prof[15.0]]))
    psi_near = power_correlation_matrix(np.stack([prof[15.0], prof[17.0]]))
    psi_flat = power_correlation_matrix(np.ones((2, array.num_antennas)))
    elapsed = time.perf_counter() - t0

    print(f"[acceptance] power correlation: -15/+15 deg {psi_wide[0, 1]:.6f} "
          f"(<0.9), 15/17 deg {psi_near[0, 1]:.6f} (> former), no-lens "
          f"{psi_flat[0, 1]:g} (=1), {elapsed:.1f}s (<10s)")
    assert psi_wide[0, 1] < 0.9
    assert psi_near[0, 1] > psi_wide[0, 1]
    assert np.allclose(psi_flat, 1.0, atol=1e-12)
    assert elapsed < 10.0


def test_thread_count_never_changes_csv_bytes(tmp_path):
    """The same scenario produces byte-identical CSVs at any thread count."""
    ini = tmp_path / "det.ini"
    ini.write_text(
        "[scenario]\nname = det\nprecoders = zf, mrt\n"
        "quantizers = mvcq, rvq\n"
        "[array]\nnum_antennas = 16\n"
        "[users]\nangles = -10, 10\n"
        "[simulation]\nbits = 3\nsnr_db = 0, 10\ntrials = 16\nseed = 5\n")
    outs = []
    for threads in ("1", "4", "4"):
        out = tmp_path / f"run{len(outs)}"
        rc = main(["simulate", "--config", str(ini), "--out-dir", str(out),
                   "--threads", threads])
        assert rc == EXIT_OK
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["det_comparison.csv", "det_mrt_mvcq.csv",
                     "det_mrt_rvq.csv", "det_zf_mvcq.csv", "det_zf_rvq.csv"]
    for name in names:
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref
    print(f"[acceptance] determinism: {len(names)} CSVs byte-identical "
          f"across thread counts 1 and 4")
