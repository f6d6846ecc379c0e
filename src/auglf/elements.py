"""Thin-element catalog shared by the phase-space and wave pipelines.

Each element is a frozen spec carrying its physical parameters and the
physics built from them:

- ``transmittance(wavelength, x, dx)``: the complex transmittance t(x),
  sampled at positions ``x`` of uniform spacing ``dx``.  It feeds the wave
  pipeline and the numeric kernel path, and ``x`` is only ever the grid's
  axis or its lag grid (``_transmittance_kernel``): both pipelines see the
  element on the position window and nowhere else.
- ``kernel(grid, options)``: the element's light-field transformer.  The
  prism, the lens and the gratings build theirs in closed form as delta
  lines, and the pinholes as full rows at their nodes; neither is a
  table.  Every other element's kernel is the numeric Wigner kernel of
  its transmittance (``transformer_from_transmittance``): the slit, the
  cubic phase plate and the hologram from their analytic transmittance on
  the lag grid, a coded aperture (any sampled transmittance, a free-form
  phase plate among them) from its samples on the grid.  Their closed
  forms are test oracles.
- ``deflection(wavelength, x)``, on the prism and the lens only: the ray
  deflection profile d_theta(x) = (lambda / 2 pi) * dphi/dx, whose single
  delta per position is their kernel.

Conventions: a converging lens (focal_length > 0) deflects a ray at
height x by -x/f, i.e. carries phase -pi x^2 / (lambda f); idealized
pinholes become single samples of amplitude 1/dx (the same delta
convention the Wigner module uses) at the node ``PhaseSpaceGrid.x_index``
picks, in the kernel's rows and in the wave pipeline alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    ComplexField,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    RealnessError,
    SamplingWarning,
    _nearest_node,
)
from .transformers import (
    LightFieldTransformer,
    NumericTransformer,
    _delta_lines,
    transformer_from_transmittance,
)
from .wdf import WdfOptions, _lag_axis

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
    "Hologram",
    "ElementSpec",
    "element_label",
]

# Bessel coefficients below this magnitude contribute nothing at double
# precision and are dropped from the phase-grating order sum.
_BESSEL_FLOOR = 1e-14


def _spikes(x: np.ndarray, dx: float, *positions: float) -> np.ndarray:
    """Spikes of 1/dx at the nodes of ``x`` that ``PhaseSpaceGrid.x_index`` picks."""
    t = np.zeros_like(x, dtype=complex)
    for position in positions:
        t[_nearest_node((position - x[0]) / dx, len(x))] += 1.0 / dx
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
    t = spec.transmittance(grid.wavelength, grid.x_axis(), grid.dx)
    fine_dx = grid.dx / (2 * options.oversample_factor)
    fine = spec.transmittance(grid.wavelength, _lag_axis(grid, options), fine_dx)
    return transformer_from_transmittance(ComplexField(grid, t), options, fine)


class _Deflector:
    """Kernel of the prism and the lens: one delta line, at each position's deflection."""

    __slots__ = ()

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        bend = self.deflection(grid.wavelength, grid.x_axis())
        return _delta_lines(grid, bend[np.newaxis, :], 1.0, element_label(self))


@dataclass(frozen=True, slots=True)
class Pinhole:
    """Idealized point opening at `position`; passes all angles."""

    position: float = 0.0

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return _spikes(x, dx, self.position)

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        row = np.full(2 * grid.theta_samples - 1, 1.0 / (grid.wavelength * grid.dx))
        i = grid.checked_x_index(self.position, "pinhole")
        return LightFieldTransformer(grid, (), (), {i: row}, {"element": "pinhole"})


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
        flat = np.full(2 * grid.theta_samples - 1, 1.0 / (lam * grid.dx))
        deflections = (np.arange(len(flat)) - (grid.theta_samples - 1)) * grid.dtheta
        cross = 2.0 * np.cos(2.0 * np.pi * (self.a - self.b) * deflections / lam) / (lam * grid.dx)
        a, b = grid.checked_x_index(self.a, "pinhole a"), grid.checked_x_index(self.b, "pinhole b")
        rows = {a: flat}
        for i, row in ((b, flat), (grid.x_index(0.5 * (self.a + self.b)), cross)):
            rows[i] = rows.get(i, 0.0) + row
        return LightFieldTransformer(grid, (), (), rows, {"element": "two_pinholes"})


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
        return _delta_lines(grid, orders[:, np.newaxis], weights, "amplitude_grating")


@dataclass(frozen=True, slots=True)
class CodedAperture:
    """Arbitrary sampled complex transmittance on the grid's x axis.

    A free-form phase profile is ``CodedAperture(ComplexField(grid,
    np.exp(1j * phase)))``.
    """

    mask: ComplexField

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return self.mask.samples  # x is the mask grid's axis

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> NumericTransformer:
        if grid != self.mask.grid:
            raise InvalidConfigurationError("coded aperture mask is not sampled on the grid")
        return transformer_from_transmittance(self.mask, options or WdfOptions())


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
        orders, profiles = [], []
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
            orders.append(0.5 * lam * s / self.period)
            profiles.append(profile.real)
        return _delta_lines(grid, np.array(orders)[:, np.newaxis], np.array(profiles), "phase_grating")


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
    Hologram,
]


def element_label(spec) -> str:
    """Snake-case tag of an element or element class.

    Names the element in snapshots and manifests, and is its kind in a
    scenario file.
    """
    name = (spec if isinstance(spec, type) else type(spec)).__name__
    return "".join(("_" + c.lower()) if c.isupper() else c for c in name).lstrip("_")
