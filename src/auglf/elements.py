"""Thin-element catalog shared by the phase-space and wave pipelines.

Each element is a frozen spec carrying its physical parameters and the
physics built from them:

- ``transmittance(wavelength, x, dx)``: the complex transmittance t(x),
  sampled at positions ``x`` of uniform spacing ``dx``.  It feeds the wave
  pipeline and the numeric kernel path.  ``x`` may extend beyond the
  nominal window (padded wave pipeline): parametric elements continue
  analytically, a CodedAperture is opaque outside its sampled support, a
  PhasePlate is transparent there.
- ``kernel(grid, options)``: the element's light-field transformer.
  Elements whose kernel is a set of delta lines (pinholes, gratings, the
  prism and the lens) build it in closed form.  Every other element's
  kernel is the numeric Wigner kernel of its transmittance
  (``transformer_from_transmittance``): the slit, the cubic phase plate
  and the hologram from their analytic transmittance on the lag grid, a
  phase plate and a coded aperture from their samples.  Their closed
  forms are test oracles.
- ``deflection(wavelength, x)``, on the prism and the lens only: the ray
  deflection profile d_theta(x) = (lambda / 2 pi) * dphi/dx, whose single
  delta per position is their kernel.

Conventions: a converging lens (focal_length > 0) deflects a ray at
height x by -x/f, i.e. carries phase -pi x^2 / (lambda f); idealized
pinholes become single samples of amplitude 1/dx (the same delta
convention the Wigner module uses).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    ClippedOrderWarning,
    ComplexField,
    DegenerateInputError,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    RealnessError,
    SamplingWarning,
    _freeze,
)
from .transformers import (
    LightFieldTransformer,
    NumericTransformer,
    _deposit_rows,
    _order_kernel,
    _relative_axis,
    transformer_from_transmittance,
)
from .wdf import WdfOptions

__all__ = [
    "Pinhole",
    "TwoPinholes",
    "RectAperture",
    "AmplitudeGrating",
    "CodedAperture",
    "Prism",
    "Lens",
    "CubicPhase",
    "PhaseGrating",
    "PhasePlate",
    "Hologram",
    "ElementSpec",
    "element_label",
]

# Bessel coefficients below this magnitude contribute nothing at double
# precision and are dropped from the phase-grating order sum.
_BESSEL_FLOOR = 1e-14


def _shape(grid: PhaseSpaceGrid) -> tuple:
    return (grid.x_samples, 2 * grid.theta_samples - 1)


def _spikes(x: np.ndarray, dx: float, *positions: float) -> np.ndarray:
    t = np.zeros_like(x, dtype=complex)
    for position in positions:
        t[int(np.argmin(np.abs(x - position)))] += 1.0 / dx
    return t


def _rect(x: np.ndarray, width: float) -> np.ndarray:
    """Indicator of |x| <= width/2 with half-value edge samples.

    A sample landing on the jump takes the midpoint value 1/2 (the value
    a step's band-limited interpolant passes through); "on the jump" is
    judged to a few ulp so axes built by accumulation still qualify.
    """
    half = width / 2
    r = np.abs(x)
    edge = np.abs(r - half) <= 16 * np.finfo(float).eps * half
    t = (r < half).astype(complex)
    t[edge] = 0.5
    return t


def _transmittance_kernel(
    spec, grid: PhaseSpaceGrid, options: Optional[WdfOptions]
) -> NumericTransformer:
    """Numeric kernel of ``spec``'s analytic transmittance, zero boundary by default.

    The transmittance is evaluated on the lag grid itself (2 * oversample
    points per sample, from the first x node), so a jump such as a slit's
    edge is not replaced by a band-limited interpolant that rings.
    """
    options = options or WdfOptions()
    factor = 2 * options.oversample_factor
    x = grid.x_axis()
    fine_x = x[0] + (grid.dx / factor) * np.arange(factor * grid.x_samples)
    t = spec.transmittance(grid.wavelength, x, grid.dx)
    fine = spec.transmittance(grid.wavelength, fine_x, grid.dx / factor)
    return transformer_from_transmittance(ComplexField(grid, t), options, fine)


class _Deflector:
    """Kernel of the prism and the lens: one delta per position at its deflection."""

    __slots__ = ()

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        n = grid.theta_samples
        bend = self.deflection(grid.wavelength, grid.x_axis())
        cols = np.rint(bend / grid.dtheta).astype(int) + n - 1
        inside = (cols >= 0) & (cols <= 2 * n - 2)
        kernel = np.zeros(_shape(grid))
        kernel[np.nonzero(inside)[0], cols[inside]] = 1.0 / grid.dtheta
        n_out = int((~inside).sum())
        label = element_label(self)
        if n_out:
            warnings.warn(
                f"{label}: deflection left the angular window at {n_out} of "
                f"{grid.x_samples} positions; those columns were dropped",
                ClippedOrderWarning,
                stacklevel=3,  # the caller of canonical_transformer
            )
        return LightFieldTransformer(grid, _freeze(kernel), {"element": label, "clipped_columns": n_out})


@dataclass(frozen=True, slots=True)
class Pinhole:
    """Idealized point opening at `position`; passes all angles."""

    position: float = 0.0

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return _spikes(x, dx, self.position)

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        kernel = np.zeros(_shape(grid))
        kernel[grid.checked_x_index(self.position, "pinhole"), :] = 1.0 / (grid.wavelength * grid.dx)
        return LightFieldTransformer(grid, _freeze(kernel), {"element": "pinhole"})


@dataclass(frozen=True, slots=True)
class TwoPinholes:
    """Pair of point openings; the classic two-path interferometer."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == self.b:
            raise InvalidConfigurationError("two pinholes at the same position; use Pinhole")

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return _spikes(x, dx, self.a, self.b)

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        lam = grid.wavelength
        kernel = np.zeros(_shape(grid))
        kernel[grid.checked_x_index(self.a, "pinhole a"), :] += 1.0 / (lam * grid.dx)
        kernel[grid.checked_x_index(self.b, "pinhole b"), :] += 1.0 / (lam * grid.dx)
        kernel[grid.x_index(0.5 * (self.a + self.b)), :] += 2.0 * np.cos(
            2.0 * np.pi * (self.a - self.b) * _relative_axis(grid) / lam
        ) / (lam * grid.dx)
        return LightFieldTransformer(grid, _freeze(kernel), {"element": "two_pinholes"})


@dataclass(frozen=True, slots=True)
class RectAperture:
    """Hard slit of full width `width` centered on the axis."""

    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise InvalidConfigurationError(f"slit width must be positive, got {self.width!r}")

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return _rect(x, self.width)

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> NumericTransformer:
        return _transmittance_kernel(self, grid, options)


@dataclass(frozen=True, slots=True)
class AmplitudeGrating:
    """Sinusoidal amplitude mask 0.5 (1 + modulation cos(2 pi x / period))."""

    modulation: float
    period: float

    def __post_init__(self):
        if not 0.0 <= self.modulation <= 1.0:
            raise InvalidConfigurationError(f"modulation must lie in [0, 1], got {self.modulation!r}")
        if not self.period > 0:
            raise InvalidConfigurationError(f"grating period must be positive, got {self.period!r}")

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return (0.5 * (1.0 + self.modulation * np.cos(2.0 * np.pi * x / self.period))).astype(complex)

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        x = grid.x_axis()
        lam = grid.wavelength
        m = self.modulation
        p = self.period
        phase = 2.0 * np.pi * x / p
        dc = 0.25 * (1.0 + 0.5 * m * m * np.cos(2.0 * phase))
        half_order = 0.25 * m * np.cos(phase)
        full_order = np.full_like(x, m * m / 16.0)
        orders = np.array(
            [0.0, 0.5 * lam / p, -0.5 * lam / p, lam / p, -lam / p]
        )
        weights = np.stack([dc, half_order, half_order, full_order, full_order])
        kernel = np.zeros(_shape(grid))
        clipped = _deposit_rows(kernel, grid, orders, weights)
        return _order_kernel(grid, kernel, clipped, "amplitude_grating")


@dataclass(frozen=True, slots=True)
class CodedAperture:
    """Arbitrary sampled complex transmittance on the grid's x axis."""

    mask: ComplexField

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        inner = self.mask
        t = np.zeros_like(x, dtype=complex)
        xi = inner.grid.x_axis()
        # align by nearest node; outside the sampled support the mask is opaque
        lo, hi = xi[0] - inner.grid.dx / 2, xi[-1] + inner.grid.dx / 2
        inside = (x >= lo) & (x <= hi)
        idx = np.clip(np.round((x[inside] - xi[0]) / inner.grid.dx).astype(int), 0, len(xi) - 1)
        t[inside] = inner.samples[idx]
        return t

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> NumericTransformer:
        return transformer_from_transmittance(self.mask, options)


@dataclass(frozen=True, slots=True)
class Prism(_Deflector):
    """Linear phase ramp phi = phase_slope * x (rad/m); a pure beam tilt."""

    phase_slope: float

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return np.exp(1j * self.phase_slope * x)

    def deflection(self, wavelength: float, x: np.ndarray) -> np.ndarray:
        return np.full_like(x, wavelength * self.phase_slope / (2.0 * np.pi))


@dataclass(frozen=True, slots=True)
class Lens(_Deflector):
    """Thin lens; focal_length > 0 converges. Phase -pi x^2 / (lambda focal_length)."""

    focal_length: float

    def __post_init__(self):
        if self.focal_length == 0:
            raise InvalidConfigurationError("focal length must be nonzero")

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return np.exp(-1j * np.pi * x ** 2 / (wavelength * self.focal_length))

    def deflection(self, wavelength: float, x: np.ndarray) -> np.ndarray:
        return -x / self.focal_length


@dataclass(frozen=True, slots=True)
class CubicPhase:
    """Cubic mask phi = coefficient * x^3 (rad/m^3); the wavefront-coding element."""

    coefficient: float

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return np.exp(1j * self.coefficient * x ** 3)

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> NumericTransformer:
        return _transmittance_kernel(self, grid, options)


@dataclass(frozen=True, slots=True)
class PhaseGrating:
    """Sinusoidal phase mask exp(i depth sin(2 pi x / period))."""

    depth: float
    period: float

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidConfigurationError(f"grating depth must be >= 0, got {self.depth!r}")
        if not self.period > 0:
            raise InvalidConfigurationError(f"grating period must be positive, got {self.period!r}")

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return np.exp(1j * self.depth * np.sin(2.0 * np.pi * x / self.period))

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        from scipy.special import jv  # here, to keep SciPy off the import path

        x = grid.x_axis()
        lam = grid.wavelength
        # The element couples an incoming ray into harmonics
        # exp(i 2 pi n x / p) with Bessel weights J_n(depth).  Outgoing
        # deflection orders s sit at lam*s/(2p); the profile of order s sums
        # harmonic terms J_{s-n} J_n exp(i 2 pi (s - 2 n) x / p).
        m_max = int(np.ceil(abs(self.depth))) + 25
        ks = np.arange(-m_max, m_max + 1)
        kernel = np.zeros(_shape(grid))
        clipped_total = 0.0
        for s in range(-2 * m_max, 2 * m_max + 1):
            ns = ks[(np.abs(s - ks) <= m_max)]
            c = jv(s - ns, self.depth) * jv(ns, self.depth)
            keep = np.abs(c) > _BESSEL_FLOOR
            if not keep.any():
                continue
            ns, c = ns[keep], c[keep]
            harm = np.exp(2j * np.pi * np.outer(x, (s - 2 * ns)) / self.period)
            profile = harm @ c
            peak = float(np.abs(profile).max())
            if peak > 0 and float(np.abs(profile.imag).max()) > 1e-9 * peak:
                raise RealnessError(
                    "phase grating order profile acquired a non-real part"
                )
            clipped_total += _deposit_rows(
                kernel,
                grid,
                np.array([0.5 * lam * s / self.period]),
                profile.real[np.newaxis, :],
            )
        return _order_kernel(grid, kernel, clipped_total, "phase_grating")


@dataclass(frozen=True, slots=True)
class PhasePlate:
    """Free-form phase profile sampled on the grid's x axis (radians)."""

    phase: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phase, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidConfigurationError("phase plate needs a 1-D profile of at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise DegenerateInputError("phase plate profile contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "phase", arr)

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        t = np.ones_like(x, dtype=complex)
        n = len(self.phase)
        # the profile is pinned to the central n samples of a length-n axis;
        # for a padded axis, locate the window by matching sample counts
        if len(x) == n:
            t[:] = np.exp(1j * self.phase)
        else:
            start = (len(x) - n) // 2
            t[start : start + n] = np.exp(1j * self.phase)
        return t

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> NumericTransformer:
        if len(self.phase) != grid.x_samples:
            raise InvalidConfigurationError("phase plate profile does not match the grid")
        # sampled, so its lag-grid values come from band-limited interpolation
        t = ComplexField(grid, np.exp(1j * self.phase))
        return transformer_from_transmittance(t, options or WdfOptions())


@dataclass(frozen=True, slots=True)
class Hologram:
    """Recorded interference of an axial point source at distance `source_distance`.

    The transmittance keeps both conjugate chirps (DC dropped); on
    reconstruction one converges to a real image at z = source_distance.
    width, when set, limits the recorded plate to |x| <= width/2; unset,
    the plate fills the position window.  The kernel is the numeric one of
    the transmittance: a deflection ridge per chirp and the cross term
    between them.  It warns (SamplingWarning) when the grid undersamples
    the recorded chirp at the window edge.
    """

    source_distance: float
    width: Optional[float] = None

    def __post_init__(self):
        if not self.source_distance > 0:
            raise InvalidConfigurationError(
                f"hologram source distance must be positive, got {self.source_distance!r}"
            )
        if self.width is not None and not self.width > 0:
            raise InvalidConfigurationError(
                f"hologram plate width must be positive, got {self.width!r}"
            )

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        d = self.source_distance
        fringes = (2.0 * np.cos(2.0 * np.pi * d / wavelength + np.pi * x ** 2 / (wavelength * d))).astype(complex)
        if self.width is not None:
            fringes *= _rect(x, self.width)
        return fringes

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> NumericTransformer:
        edge_freq = 0.5 * grid.x_extent / (grid.wavelength * self.source_distance)
        if edge_freq > 0.5 / grid.dx:
            warnings.warn(
                f"recorded fringe frequency {edge_freq:g} cycles/m at the window edge "
                f"exceeds the grid Nyquist {0.5 / grid.dx:g}; the recording is undersampled",
                SamplingWarning,
                stacklevel=3,  # the caller of canonical_transformer
            )
        return _transmittance_kernel(self, grid, options)


ElementSpec = Union[
    Pinhole,
    TwoPinholes,
    RectAperture,
    AmplitudeGrating,
    CodedAperture,
    Prism,
    Lens,
    CubicPhase,
    PhaseGrating,
    PhasePlate,
    Hologram,
]


def element_label(spec) -> str:
    """Snake-case tag of an element or element class.

    Names the element in snapshots and manifests, and is its kind in a
    scenario file.
    """
    name = (spec if isinstance(spec, type) else type(spec)).__name__
    return "".join(("_" + c.lower()) if c.isupper() else c for c in name).lstrip("_")
