"""Thin-element catalog shared by the phase-space and wave pipelines.

Each element is a frozen spec carrying its physical parameters and the
physics built from them:

- ``transmittance(wavelength, x, dx)``: the complex transmittance t(x),
  sampled at positions ``x`` of uniform spacing ``dx``.  It feeds the wave
  pipeline and the numeric kernel path.  ``x`` may extend beyond the
  nominal window (padded wave pipeline): parametric elements continue
  analytically, a CodedAperture is opaque outside its sampled support, a
  PhasePlate is transparent there.
- ``kernel(grid, options)``: the element's closed-form light-field
  transformer.  A coded aperture falls back to the numeric path through
  its sampled transmittance.
- ``deflection(wavelength, x)``, on slowly-varying phase elements only:
  the ray deflection profile d_theta(x) = (lambda / 2 pi) * dphi/dx, whose
  single delta per position is their kernel.

Conventions: a converging lens (focal_length > 0) deflects a ray at
height x by -x/f, i.e. carries phase -pi x^2 / (lambda f); idealized
pinholes become single samples of amplitude 1/dx (the same delta
convention the Wigner module uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import fresnel, jv

from .core import (
    ComplexField,
    DegenerateInputError,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    RealnessError,
    _freeze,
)
from .transformers import (
    LightFieldTransformer,
    _deflection_kernel,
    _deposit_rows,
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


class _Deflector:
    """Kernel of a pure phase element: one delta per position at its deflection."""

    __slots__ = ()

    def kernel(
        self, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
    ) -> LightFieldTransformer:
        bend = self.deflection(grid.wavelength, grid.x_axis())
        return _deflection_kernel(grid, bend, element_label(self))


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
        kernel[grid.x_index(self.position), :] = 1.0 / (grid.wavelength * grid.dx)
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
        kernel[grid.x_index(self.a), :] += 1.0 / (lam * grid.dx)
        kernel[grid.x_index(self.b), :] += 1.0 / (lam * grid.dx)
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
    ) -> LightFieldTransformer:
        x = grid.x_axis()
        lam = grid.wavelength
        width_left = np.clip(self.width - 2.0 * np.abs(x), 0.0, None)
        u = _relative_axis(grid)[np.newaxis, :] / lam
        kernel = (
            2.0
            * width_left[:, np.newaxis]
            * np.sinc(2.0 * u * width_left[:, np.newaxis])
            / lam
        )
        kernel[np.abs(x) >= 0.5 * self.width, :] = 0.0
        return LightFieldTransformer(grid, _freeze(kernel), {"element": "rect_aperture"})


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
        clipped = _deposit_rows(kernel, grid, orders, weights, "amplitude_grating")
        return LightFieldTransformer(
            grid, _freeze(kernel), {"clipped_weight": clipped, "element": "amplitude_grating"}
        )


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
    ) -> LightFieldTransformer:
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
class CubicPhase(_Deflector):
    """Cubic mask phi = coefficient * x^3 (rad/m^3); the wavefront-coding element."""

    coefficient: float

    def transmittance(self, wavelength: float, x: np.ndarray, dx: float) -> np.ndarray:
        return np.exp(1j * self.coefficient * x ** 3)

    def deflection(self, wavelength: float, x: np.ndarray) -> np.ndarray:
        return 3.0 * wavelength * self.coefficient * x ** 2 / (2.0 * np.pi)


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
                "phase_grating",
            )
        return LightFieldTransformer(
            grid, _freeze(kernel), {"clipped_weight": clipped_total, "element": "phase_grating"}
        )


@dataclass(frozen=True, slots=True)
class PhasePlate(_Deflector):
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

    def deflection(self, wavelength: float, x: np.ndarray) -> np.ndarray:
        if len(x) != len(self.phase):
            raise InvalidConfigurationError("phase plate profile does not match the grid")
        grad = np.gradient(self.phase, x)
        return wavelength * grad / (2.0 * np.pi)


@dataclass(frozen=True, slots=True)
class Hologram:
    """Recorded interference of an axial point source at distance `source_distance`.

    The transmittance keeps both conjugate chirps (DC dropped); on
    reconstruction one converges to a real image at z = source_distance.
    include_oscillatory controls whether the canonical kernel keeps the
    cross term between the two chirps.  width, when set, limits the
    recorded plate to |x| <= width/2: the kernel's deflection ridges then
    broaden into sinc profiles whose width follows the remaining plate
    span at each position.
    """

    source_distance: float
    include_oscillatory: bool = True
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
    ) -> LightFieldTransformer:
        n = grid.theta_samples
        dax = _relative_axis(grid)
        x = grid.x_axis()
        lam = grid.wavelength
        d = self.source_distance
        kernel = np.zeros(_shape(grid))
        if self.width is None:
            # unbounded plate: each chirp is a sharp deflection ridge
            for sign in (+1.0, -1.0):
                cols = np.rint((sign * x / d) / grid.dtheta).astype(int) + n - 1
                inside = (cols >= 0) & (cols <= 2 * n - 2)
                rows = np.nonzero(inside)[0]
                np.add.at(kernel, (rows, cols[inside]), 1.0 / grid.dtheta)
            if self.include_oscillatory:
                kernel += 2.0 * np.cos(
                    (2.0 * np.pi / lam)
                    * (2.0 * d + x[:, np.newaxis] ** 2 / d - d * dax[np.newaxis, :] ** 2)
                )
        else:
            # finite plate: the remaining span 2*ell(x) bounds the lag
            # integral, so each ridge becomes a sinc of that width and the
            # chirp cross term becomes a pair of Fresnel integrals taken
            # between the plate edges
            ell = np.maximum(self.width / 2 - np.abs(x), 0.0)[:, np.newaxis]
            on_plate = ell > 0
            for sign in (+1.0, -1.0):
                off = dax[np.newaxis, :] - sign * x[:, np.newaxis] / d
                kernel += np.where(on_plate, (4.0 * ell / lam) * np.sinc(4.0 * ell * off / lam), 0.0)
            if self.include_oscillatory:
                root = np.sqrt(lam * d)
                s_star = d * dax[np.newaxis, :]
                s2, c2 = fresnel(2.0 * (ell - s_star) / root)
                s1, c1 = fresnel(-2.0 * (ell + s_star) / root)
                segment = (c2 - c1) + 1j * (s2 - s1)
                carrier = np.exp(
                    1j * (2.0 * np.pi / lam)
                    * (2.0 * d + x[:, np.newaxis] ** 2 / d - d * dax[np.newaxis, :] ** 2)
                )
                film = (2.0 * root / lam) * (carrier * segment).real
                kernel += np.where(on_plate, film, 0.0)
        return LightFieldTransformer(
            grid,
            _freeze(kernel),
            {"include_oscillatory": self.include_oscillatory, "element": "hologram"},
        )


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
