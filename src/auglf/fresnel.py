"""Scalar paraxial wave propagation, used as the reference pipeline.

This module is deliberately independent of the phase-space machinery: it
propagates complex field samples with the standard transfer-function method
and knows nothing about radiance.  Scenario checks compare intensities from
both pipelines.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .core import ComplexField, InvalidConfigurationError, SamplingWarning

# Spectral amplitudes this far below the peak are treated as unoccupied when
# estimating the field's bandwidth for the sampling check.
_OCCUPANCY_FLOOR = 1e-9


def fresnel_propagate(field: ComplexField, distance: float) -> ComplexField:
    """Propagate a sampled field by the paraxial transfer function.

    The constant carrier phase exp(i 2 pi z / lambda) is dropped; it cancels
    in every intensity and interference observable formed within one plane.

    Negative and non-finite distances are rejected: backpropagation is out
    of scope.  The method is unitary, so total energy is preserved exactly;
    the quadratic spectral phase must however stay resolved on the
    frequency grid, and a SamplingWarning is raised when the distance is
    too large for the bandwidth the field actually occupies.
    """
    if not (0.0 <= distance < np.inf):
        raise InvalidConfigurationError(
            f"propagation distance must be finite and non-negative, got {distance:g}"
        )
    grid = field.grid
    if distance == 0.0:
        return ComplexField(grid, field.samples.copy())

    n = grid.x_samples
    u = fftfreq(n, d=grid.dx)
    spectrum = fft(field.samples)

    mag = np.abs(spectrum)
    peak = float(mag.max())
    if peak > 0.0:
        occupied = np.abs(u[mag > _OCCUPANCY_FLOOR * peak])
        u_max = float(occupied.max()) if occupied.size else 0.0
        # Adjacent-sample phase step of the kernel at the occupied band edge;
        # beyond pi the chirp aliases.  For a full-band field this reduces to
        # the textbook limit z <= n * dx**2 / lambda.
        du = 1.0 / (n * grid.dx)
        step = 2.0 * np.pi * grid.wavelength * distance * u_max * du
        if step > np.pi:
            z_ok = distance * np.pi / step
            warnings.warn(
                f"transfer-function chirp is undersampled at {distance:g} m "
                f"for the occupied bandwidth {u_max:g} cycles/m; results "
                f"alias (resolved up to ~{z_ok:g} m on this grid)",
                SamplingWarning,
                stacklevel=2,
            )

    kernel = np.exp(-1j * np.pi * grid.wavelength * distance * u * u)
    out = ifft(spectrum * kernel)
    return ComplexField(grid, out)


def apply_mask(field: ComplexField, spec) -> ComplexField:
    """Multiply a field by an element's complex transmittance."""
    grid = field.grid
    t = spec.transmittance(grid.wavelength, grid.x_axis(), grid.dx)
    return ComplexField(grid, field.samples * t)
