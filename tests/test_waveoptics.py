"""Wave-optics engine: spec validation, conservation, symmetry, regression."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo import (ArraySpec, ConfigError, DomainError, LensSpec,
                      PropagationGrid, antenna_power_profile,
                      extract_power_profile, find_focal_peak, fresnel_transfer,
                      lens_phase_profile, propagate)


# ---------------------------------------------------------------------------
# lens and array specs


def test_lens_spec_validation():
    with pytest.raises(ConfigError):
        LensSpec(focal_length=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            LensSpec(focal_length=bad)
        with pytest.raises(ConfigError, match="finite"):
            ArraySpec(spacing=bad)
        with pytest.raises(ConfigError, match="finite"):
            ArraySpec(lens_distance=bad)
    for tiny in (1e-307, 1e-310):   # kappa x^2 / (2 f) overflows inside the stop
        with pytest.raises(ConfigError, match="not finite"):
            LensSpec(focal_length=tiny)


# ---------------------------------------------------------------------------
# grids and fields


def test_grid_validation():
    with pytest.raises(ConfigError):
        PropagationGrid(dx=0.0)
    with pytest.raises(ConfigError):
        PropagationGrid(dx=0.3, window=80.0)      # not an integer sample count
    with pytest.raises(ConfigError):
        PropagationGrid(dx=1.0, window=81.0)      # odd sample count
    with pytest.raises(ConfigError, match="at least 2"):
        PropagationGrid(dx=1e200)                 # no sample at all
    for huge in (dict(dx=1e-300), dict(window=1e200), dict(dx=1e-300, window=1e300)):
        with pytest.raises(ConfigError, match="limit"):
            PropagationGrid(**huge)               # more samples than numpy can hold
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            PropagationGrid(dz=bad)
    g = PropagationGrid()
    assert g.num_samples == 1280
    assert g.x()[g.num_samples // 2] == 0.0


def test_window_must_cover_aperture(lens):
    grid = PropagationGrid(dx=0.5, dz=1.0, window=30.0)
    with pytest.raises(ConfigError):
        lens_phase_profile(lens, grid)


def test_phase_profile_truncated_at_stop(lens, grid):
    u0 = lens_phase_profile(lens, grid)
    x = grid.x()
    assert np.all(u0[np.abs(x) > lens.aperture / 2.0] == 0.0)
    inside = np.abs(x) <= lens.aperture / 2.0
    assert np.allclose(np.abs(u0[inside]), 1.0)
    with pytest.raises(ConfigError, match="finite"):
        lens_phase_profile(lens, grid, np.nan)


@pytest.mark.filterwarnings("error")
def test_tiny_focal_length_phase_is_formed_inside_the_stop_only(grid):
    """kappa x^2 / (2 f) is finite inside the stop at f = 1e-305 but not
    across the whole window, so only the inside may be computed."""
    lens = LensSpec(focal_length=1e-305)
    u0 = lens_phase_profile(lens, grid)
    assert np.all(np.isfinite(u0))
    assert np.all(u0[np.abs(grid.x()) > lens.aperture / 2.0] == 0.0)


# ---------------------------------------------------------------------------
# propagation: conservation, unitarity, symmetry


def test_step_conserves_power_exactly(lens, grid):
    u0 = lens_phase_profile(lens, grid)
    hist = propagate(u0, grid, 1)
    power = np.sum(np.abs(u0) ** 2)
    # the transfer function is unitary
    assert np.sum(np.abs(hist.fields[1]) ** 2) == pytest.approx(power, rel=1e-12)
    assert np.array_equal(hist.fields[0], u0)
    assert np.array_equal(hist.zs, [0.0, grid.dz])


def test_power_conserved_over_long_run(lens, grid):
    u0 = lens_phase_profile(lens, grid)
    hist = propagate(u0, grid, 40)
    assert hist.fields.shape == (41, grid.num_samples)
    totals = np.sum(np.abs(hist.fields) ** 2, axis=1)
    assert np.allclose(totals, np.sum(np.abs(u0) ** 2), rtol=1e-12)


def test_transfer_function_is_unit_modulus(grid):
    h = fresnel_transfer(grid, 7.0)
    assert np.allclose(np.abs(h), 1.0, atol=1e-12)


def test_semigroup_one_big_step_equals_many_small(lens, grid):
    """Propagating 5 wavelengths and then 5 more equals one 10-wavelength
    transfer; the analytic transfer function makes these identical to
    roundoff."""
    u0 = lens_phase_profile(lens, grid)
    half = propagate(u0, grid, 1, dz=5.0).fields[-1]
    twice = propagate(half, grid, 1, dz=5.0).fields[-1]
    direct = propagate(u0, grid, 1, dz=10.0).fields[-1]
    rms = np.sqrt(np.mean(np.abs(twice - direct) ** 2))
    assert rms <= 1e-10


def test_mirror_symmetry_on_axis(lens, grid):
    hist = propagate(lens_phase_profile(lens, grid), grid, 25)
    inten = np.abs(hist.fields) ** 2
    mirrored = np.roll(inten[:, ::-1], 1, axis=1)   # sample m -> -m mod ns
    assert np.max(np.abs(inten - mirrored)) <= 1e-6 * inten.max()


def test_tilt_mirror_covariance(lens, grid):
    """aod -> -aod reflects the whole intensity history."""
    h_pos = propagate(lens_phase_profile(lens, grid, 9.0), grid, 25)
    h_neg = propagate(lens_phase_profile(lens, grid, -9.0), grid, 25)
    i_pos = np.abs(h_pos.fields) ** 2
    i_neg = np.abs(h_neg.fields) ** 2
    mirrored = np.roll(i_neg[:, ::-1], 1, axis=1)
    assert np.max(np.abs(i_pos - mirrored)) <= 1e-6 * i_pos.max()


def test_against_direct_fresnel_integral(lens, grid):
    """Independent physics oracle: quadrature of the Fresnel integral.

    The direct (aperiodic) convolution with the quadratic kernel is computed
    as a dense matrix product on the same grid; the FFT transfer must agree in
    the window interior where cyclic wraparound is negligible.
    """
    z = 25.0
    u0 = lens_phase_profile(lens, grid)
    hist = propagate(u0, grid, int(z / grid.dz))
    x = grid.x()
    kernel = np.exp(2j * np.pi * (x[:, None] - x[None, :]) ** 2 / (2.0 * z))
    direct = (kernel @ u0) * grid.dx * np.sqrt(1.0 / (1j * z))
    sel = np.abs(x) <= 15.0
    i_bpm = np.abs(hist.fields[-1][sel]) ** 2
    i_direct = np.abs(direct[sel]) ** 2
    rms = np.sqrt(np.mean((i_bpm - i_direct) ** 2))
    assert rms <= 0.02 * i_direct.max()


def test_propagate_rejects_bad_steps(lens, grid):
    u0 = lens_phase_profile(lens, grid)
    with pytest.raises(ConfigError):
        propagate(u0, grid, 0)
    with pytest.raises(ConfigError):
        fresnel_transfer(grid, -1.0)
    with pytest.raises(ConfigError):
        fresnel_transfer(grid, np.nan)


# ---------------------------------------------------------------------------
# focal peak


def test_focus_regression_standard_lenses(focus_runs):
    """Frozen values for the one-wavelength-sampled focus scan.

    Peaks sit at or just before the geometric focus, as Fresnel theory
    demands for these aperture numbers, and per-cell gains fall as the
    focal length grows.
    """
    expected = {
        20.0: (20.0, 5.934457, 18.990261),
        30.0: (29.0, 4.864163, 15.565322),
        40.0: (38.0, 3.560977, 11.395125),
        50.0: (44.0, 2.892406, 9.255700),
    }
    for f, (z_exp, gc_exp, gr_exp) in expected.items():
        z, gain_cell, gain_raw = focus_runs[f]
        assert z == pytest.approx(z_exp, abs=1e-9)
        assert gain_cell == pytest.approx(gc_exp, abs=1e-4)
        assert gain_raw == pytest.approx(gr_exp, abs=1e-4)


def test_peak_before_geometric_focus(focus_runs):
    for f, (z, _, _) in focus_runs.items():
        assert z < f + 1e-9


def test_peak_cell_units_scale(focus_runs, array):
    lens_f = LensSpec(focal_length=40.0)
    z_cell, gain_cell, gain_raw = focus_runs[40.0]
    assert gain_cell == pytest.approx(
        gain_raw * lens_f.aperture / array.num_antennas)


def test_peak_on_final_plane_warns(lens, grid):
    u0 = lens_phase_profile(lens, grid)
    hist = propagate(u0, grid, 10)    # well before the focus, so max is at the end
    with pytest.warns(UserWarning, match="final plane"):
        find_focal_peak(hist)


def test_peak_ties_resolve_to_smaller_distance(lens, grid):
    u0 = lens_phase_profile(lens, grid)
    hist = propagate(u0, grid, 50)    # past the focus so the interior peak is real
    per_plane = np.max(np.abs(hist.fields) ** 2, axis=1)
    inten_peak = int(np.argmax(per_plane))
    assert 0 < inten_peak < 50
    # duplicate the peak plane at the end; argmax must keep the earlier one
    hist.fields[-1] = hist.fields[inten_peak]
    z, _ = find_focal_peak(hist)
    assert z == pytest.approx(hist.zs[inten_peak])
    assert z < hist.zs[-1]


def test_wraparound_warning_trips_when_window_too_small():
    lens = LensSpec(focal_length=10.0, aperture=20.0)
    grid = PropagationGrid(dx=0.25, dz=1.0, window=40.0)
    u0 = lens_phase_profile(lens, grid)
    with pytest.warns(UserWarning, match="wraparound"):
        propagate(u0, grid, 38)       # far past the focus, beam hits the boundary


# ---------------------------------------------------------------------------
# power profiles


def test_profile_sums_to_antenna_count(profile_set, array):
    for a in profile_set.values():
        assert a.sum() == pytest.approx(array.num_antennas, abs=1e-6)
        assert np.all(a >= 0.0)


def test_profile_bins_tile_aperture_exactly(lens, grid, array):
    # 1280 samples, 64 cells over a quarter of the window: 5 samples per cell
    w = int(lens.aperture * grid.num_samples / (grid.window * array.num_antennas))
    assert w == 5
    p = np.zeros(grid.num_samples)
    p[grid.num_samples // 2 - 160: grid.num_samples // 2 + 160] = 1.0
    a = extract_power_profile(p, grid, lens, array)
    assert np.allclose(a, 1.0)  # uniform in-aperture power spreads evenly


def test_profile_requires_resolving_cells(lens, coarse_grid, array):
    p = np.ones(coarse_grid.num_samples)
    with pytest.raises(ConfigError):
        extract_power_profile(p, coarse_grid, lens, array)


def test_blob_displacement_monotone_in_angle(profile_set, array):
    """Larger departure angles push the focused spot monotonically along
    the array (toward lower indices for positive angles)."""
    idx = np.arange(array.num_antennas)
    centroids = [float(profile_set[a] @ idx / array.num_antennas)
                 for a in (-15.0, -7.0, 0.0, 5.0, 10.0, 15.0)]
    assert all(c1 > c2 for c1, c2 in zip(centroids, centroids[1:]))


def test_profile_angles_mirror(profile_set):
    """Opposite angles land mirrored profiles (up to the half-cell shear of
    sample-aligned binning)."""
    a_pos, a_neg = profile_set[15.0], profile_set[-15.0]
    assert np.corrcoef(a_pos, a_neg[::-1])[0, 1] > 0.99


def test_intensity_normalization(lens, grid, array):
    """The profile sums to M whatever the density's scale, and a density
    with no power over the aperture is a domain error."""
    u0 = lens_phase_profile(lens, grid)
    p = np.abs(u0) ** 2
    a = extract_power_profile(p, grid, lens, array)
    assert a.sum() == pytest.approx(array.num_antennas, rel=1e-12)
    assert np.allclose(extract_power_profile(3.0 * p, grid, lens, array), a,
                       rtol=1e-12)
    with pytest.raises(DomainError):
        extract_power_profile(np.zeros(grid.num_samples), grid, lens, array)


def test_profile_stride_shortfall_warns(lens, grid, array):
    with pytest.warns(UserWarning, match="does not divide"):
        antenna_power_profile(lens, grid, array, 0.0, stride=10)


def test_profile_step_exceeding_distance_errors(lens, grid, array):
    with pytest.raises(DomainError):
        antenna_power_profile(lens, grid, array, 0.0, stride=26)


@settings(max_examples=12, deadline=None)
@given(aod=st.floats(min_value=-20.0, max_value=20.0),
       stride=st.sampled_from([1, 5, 25]))
def test_profile_sum_invariant_any_angle_and_stride(aod, stride):
    lens = LensSpec()
    grid = PropagationGrid(dx=0.125, dz=1.0, window=80.0)
    array = ArraySpec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = antenna_power_profile(lens, grid, array, aod, stride=stride)
    assert a.sum() == pytest.approx(array.num_antennas, abs=1e-6)
    assert np.all(a >= 0.0)


def test_one_plane_transfer_memo_is_invisible_and_bounded():
    """Profiles swept over two interleaved grids and lens distances equal
    a fresh transfer per call bit for bit, so a key collision fails here;
    the memoized row is read-only, and a history adds nothing to the memo."""
    from lensmimo.waveoptics import _one_plane_transfer
    lens = LensSpec()
    grids = (PropagationGrid(), PropagationGrid(dx=0.125, dz=0.5, window=64.0))
    arrays = (ArraySpec(lens_distance=25.0), ArraySpec(lens_distance=20.0))
    for aod in (-12.0, 0.0, 7.5):
        for grid in grids:
            for array in arrays:
                u0 = lens_phase_profile(lens, grid, aod)
                h = fresnel_transfer(grid, [[array.lens_distance]])
                p = np.abs(np.fft.ifft(np.fft.fft(u0) * h)[0]) ** 2
                want = extract_power_profile(p, grid, lens, array)
                got = antenna_power_profile(lens, grid, array, aod)
                assert got.tobytes() == want.tobytes(), (aod, grid, array)
    row = _one_plane_transfer(grids[0], 25.0)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0, 0] = 0.0
    size = _one_plane_transfer.cache_info().currsize
    assert 1 <= size <= _one_plane_transfer.cache_info().maxsize
    propagate(lens_phase_profile(lens, grids[1]), grids[1], 30)
    assert _one_plane_transfer.cache_info().currsize == size
