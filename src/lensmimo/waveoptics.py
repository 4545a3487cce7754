"""Scalar wave propagation through a dielectric lens onto a linear array.

One transverse dimension, Fresnel (paraxial) regime. The lens acts as a thin
quadratic phase screen behind a hard aperture stop. The medium behind it is
uniform, so the field at any plane z is one exact Fresnel transfer from the
lens (FFT, multiply, inverse FFT) and the per-antenna power profile is read
off at the array plane.

All lengths are in carrier wavelengths, angles in degrees at the public API
and radians internally.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# wavenumber of the carrier, 2 pi over one wavelength (the unit of length)
KAPPA = 2.0 * np.pi
# transverse sample limit: one complex field row stays within 16 MB
MAX_SAMPLES = 2 ** 20
# half-width of the user sector, degrees: every user, swept angle and spot anchor
SECTOR_DEG = 30.0


def _positive(value: float) -> bool:
    return bool(np.isfinite(value) and value > 0)


@dataclass(frozen=True)
class PropagationGrid:
    """Uniform sampling of the propagation window.

    dx, dz are the transverse and axial steps, window the full transverse
    extent. The window must hold an even integer number (at least 2, at
    most MAX_SAMPLES) of samples so the FFT grid is symmetric about the axis.
    """

    dx: float = 0.0625
    dz: float = 1.0
    window: float = 80.0

    def __post_init__(self):
        for name in ("dx", "dz", "window"):
            if not _positive(getattr(self, name)):
                raise ConfigError(f"grid parameter {name} must be positive and finite")
        ratio = self.window / self.dx
        if not ratio <= MAX_SAMPLES:
            raise ConfigError(f"window / dx = {ratio:.3g} transverse samples exceeds "
                              f"the limit of {MAX_SAMPLES}")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"window {self.window} is not an integer multiple of dx {self.dx}")
        if round(ratio) < 2 or round(ratio) % 2:
            raise ConfigError(
                f"transverse sample count {round(ratio)} must be even and at least 2")

    @property
    def num_samples(self) -> int:
        return int(round(self.window / self.dx))

    def x(self) -> np.ndarray:
        """Transverse sample coordinates, window centered on the axis."""
        ns = self.num_samples
        return (np.arange(ns) - ns // 2) * self.dx

    def fx(self) -> np.ndarray:
        """Spatial frequencies matching numpy's FFT ordering."""
        return np.fft.fftfreq(self.num_samples, d=self.dx)


@dataclass(frozen=True)
class LensSpec:
    """Dielectric lens, a thin phase screen: focal length and aperture."""

    focal_length: float = 40.0
    aperture: float = 20.0

    def __post_init__(self):
        if not (_positive(self.focal_length) and _positive(self.aperture)):
            raise ConfigError(
                "lens focal length and aperture must be positive and finite")
        rim = self.aperture / 2.0   # the phase is formed as in lens_phase_profile
        if not np.isfinite(KAPPA * rim * rim / (2.0 * self.focal_length)):
            raise ConfigError(f"lens phase kappa x^2 / (2 f) at the rim is not finite "
                              f"for f = {self.focal_length}, D = {self.aperture}")


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array behind the lens."""

    num_antennas: int = 64
    spacing: float = 0.5
    lens_distance: float = 25.0

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ConfigError("array needs at least one antenna")
        if not (_positive(self.spacing) and _positive(self.lens_distance)):
            raise ConfigError(
                "array spacing and lens distance must be positive and finite")


@dataclass
class FieldHistory:
    """Field slices at the planes zs behind the lens, row per plane."""

    fields: np.ndarray          # (steps+1, num_samples) complex
    zs: np.ndarray              # (steps+1,)


def lens_phase_profile(lens: LensSpec, grid: PropagationGrid,
                       aod_deg: float = 0.0) -> np.ndarray:
    """Field samples immediately behind the lens for a plane wave at aod_deg.

    Thin-element model: quadratic converging phase -kappa x^2/(2f) plus the
    incident tilt, hard-truncated at the aperture stop. The constant bulk
    phase of the dielectric is dropped (it cancels in every intensity).
    """
    if not abs(aod_deg) < 90.0:     # sin is one-to-one on (-90, 90) deg
        raise ConfigError(f"departure angle {aod_deg} deg is not finite or not in (-90, 90)")
    if grid.window < 2.0 * lens.aperture:
        raise ConfigError(
            f"window {grid.window} must be at least twice the aperture "
            f"{lens.aperture} to keep wraparound off the stop")
    x = grid.x()
    inside = np.abs(x) <= lens.aperture / 2.0
    x = x[inside]
    aod = np.deg2rad(aod_deg)
    u = np.zeros(grid.num_samples, dtype=complex)
    u[inside] = np.exp(-1j * KAPPA * x * x / (2.0 * lens.focal_length)
                       - 1j * KAPPA * x * np.sin(aod))
    return u


def fresnel_transfer(grid: PropagationGrid, dz: float | np.ndarray) -> np.ndarray:
    """Fourier-domain propagator exp(j kappa dz - j pi dz fx^2).

    This is the exact transfer function of the Fresnel convolution kernel:
    its modulus is 1 and transfers compose, H(z1) H(z2) = H(z1 + z2). dz may
    be an array of distances (a column gives one transfer row per distance).
    """
    dz = np.asarray(dz, dtype=float)
    fx = grid.fx()
    with np.errstate(over="ignore", invalid="ignore"):    # a phase past the float range
        transfer = np.exp(1j * KAPPA * dz) * np.exp(-1j * np.pi * dz * fx * fx)
    if not (np.all(dz > 0) and np.isfinite(transfer).all()):
        raise ConfigError("propagation distance must be positive, with a finite phase")
    return transfer


@functools.lru_cache(maxsize=4)
def _one_plane_transfer(grid: PropagationGrid, dz: float) -> np.ndarray:
    """propagate's read-only transfer to one plane, built once per grid and
    distance so a sweep reuses it for every angle. A history builds its own
    each call, a temporary freed before the inverse FFT."""
    transfer = fresnel_transfer(grid, (dz * np.arange(2))[1:, None])
    transfer.setflags(write=False)
    return transfer


def propagate(u0: np.ndarray, grid: PropagationGrid, steps: int,
              dz: float | None = None) -> FieldHistory:
    """Fields at the planes z = dz*i, i = 0..steps, behind the lens.

    Each plane is one transfer from z = 0, so no error accumulates along z.
    The outer tenth of the window is checked for power at the final plane;
    energy there means the periodic FFT boundary is starting to wrap the
    beam back in.
    """
    if steps < 1:
        raise ConfigError("propagate needs at least one step")
    if dz is None:
        dz = grid.dz
    with np.errstate(over="ignore"):    # an inf plane fails fresnel_transfer's check
        zs = dz * np.arange(steps + 1)
    fields = np.empty((steps + 1, grid.num_samples), dtype=complex)
    fields[0] = u0
    fields[1:] = np.fft.ifft(np.fft.fft(u0) * (_one_plane_transfer(grid, dz) if steps == 1
                             else fresnel_transfer(grid, zs[1:, None])), axis=1)

    # aperture-diffraction side lobes alone leave ~0.1% out there, so the
    # wraparound alarm only trips an order of magnitude above that
    edge = max(1, grid.num_samples // 20)
    tail = np.sum(np.abs(fields[-1, :edge]) ** 2) + np.sum(np.abs(fields[-1, -edge:]) ** 2)
    if tail > 1e-2 * np.sum(np.abs(u0) ** 2):
        warnings.warn(
            "more than 1% of the power sits in the outer tenth of the window; "
            "increase the window to avoid wraparound", stacklevel=2)

    return FieldHistory(fields=fields, zs=zs)


def extract_power_profile(p: np.ndarray, grid: PropagationGrid,
                          lens: LensSpec, array: ArraySpec) -> np.ndarray:
    """Bin the power density into per-antenna cells covering the aperture.

    Cells have width aperture/M, centered on the axis; power falling outside
    the array is redistributed proportionally so the profile sums to M.
    """
    m = array.num_antennas
    ns = grid.num_samples
    w = int(lens.aperture * ns / (grid.window * m))
    if w < 1:
        raise ConfigError(
            f"transverse step {grid.dx} too coarse to resolve antenna cells "
            f"of width {lens.aperture / m}; refine dx")
    start = ns // 2 - (m * w) // 2
    a = p[start:start + m * w].reshape(m, w).sum(axis=1)
    total = a.sum()
    if total <= 0.0:
        raise DomainError("no power reaches the array aperture")
    return a * (m / total)


def find_focal_peak(history: FieldHistory, lens: LensSpec | None = None,
                    array: ArraySpec | None = None) -> tuple[float, float]:
    """Locate the brightest plane of the propagation history: the plane whose
    intensity maximum over the whole transverse window is largest, so a
    tilted beam's peak lies off axis (at 10 deg through the default lens and
    grid, z = 37 at x = -6.44, while the on-axis maximum is at z = 18).

    Returns (z_peak, gain). The gain is the peak intensity relative to the
    uniform level just behind the stop; when lens and array are given it is
    expressed per antenna cell (width aperture/M) relative to the incident
    power per wavelength, the convention used for focusing-gain tables.
    Ties resolve toward the smaller distance.
    """
    inten = np.abs(history.fields) ** 2
    ref = inten[0].max()
    if ref <= 0.0:
        raise DomainError("initial plane carries no power")
    per_plane = inten.max(axis=1)
    idx = int(np.argmax(per_plane))
    if idx == len(per_plane) - 1:
        warnings.warn("intensity peak lies on the final plane; "
                      "extend the axial range", stacklevel=2)
    gain = float(per_plane[idx] / ref)
    if lens is not None and array is not None:
        gain *= lens.aperture / array.num_antennas
    return float(history.zs[idx]), gain


def antenna_power_profile(lens: LensSpec, grid: PropagationGrid, array: ArraySpec,
                          aod_deg: float, stride: int = 1) -> np.ndarray:
    """Per-antenna power profile at the array plane for one departure angle.

    The profile is read at the last plane z = n*stride*dz that does not pass
    the array. When stride*dz does not divide the lens-to-array distance that
    plane falls short of the array (with a warning) and the beam is still
    converging there; otherwise the stride changes nothing but roundoff.
    """
    if stride < 1:
        raise ConfigError("stride must be a positive integer")
    step = stride * grid.dz
    ratio = array.lens_distance / step
    if not np.isfinite(ratio):
        raise ConfigError(f"axial step {step} is below the float limit for the "
                          f"lens-to-array distance {array.lens_distance}")
    n_steps = int(np.floor(ratio + 1e-9))
    if n_steps < 1:
        raise DomainError(
            f"axial step {step} exceeds the lens-to-array distance "
            f"{array.lens_distance}; no propagation plane reaches the array")
    z_reach = n_steps * step
    if abs(z_reach - array.lens_distance) > 1e-9:
        warnings.warn(
            f"axial step {step} does not divide the array distance "
            f"{array.lens_distance}; using the profile at z={z_reach}",
            stacklevel=2)
    hist = propagate(lens_phase_profile(lens, grid, aod_deg), grid, 1, dz=z_reach)
    return extract_power_profile(np.abs(hist.fields[-1]) ** 2, grid, lens, array)
