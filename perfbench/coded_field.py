"""Seeded inputs of the ``coded_field`` workload.

A Gaussian beam passes a coded aperture and then 5 cm of free space on a
2048 x 2048 grid (4.096 mm position window, 16 mrad angle window, 633 nm).
The aperture is a 1 mm stop times a smooth random phase screen: a Fourier
series of MODES harmonics of a 0.5 mm period with fixed 1/k amplitudes and
seeded phases, scaled to a 1 mrad RMS ray deflection.  Fixing the spectrum
and drawing only the phases keeps the screens statistically alike, so the
seed changes the input without changing how hard it is.

The phase screen's local deflection is bounded by construction (all
harmonics in step) well inside the half angle window, so the source never
draws a BandwidthWarning and the kernel's Wigner table stays real.
"""

from __future__ import annotations

import numpy as np

X_SAMPLES = 2048
X_EXTENT = 4.096e-3
THETA_SAMPLES = 2048
THETA_EXTENT = 16e-3
WAVELENGTH = 633e-9
BEAM_RADIUS = 0.4e-3
STOP_WIDTH = 1e-3
DISTANCE = 0.05
MODES = 16
FUNDAMENTAL = 2e3  # cycles per metre
RMS_DEFLECTION = 1e-3  # radians


def phase_screen(x: np.ndarray, seed: int, index: int) -> np.ndarray:
    """Screen number ``index`` of the set that ``seed`` defines, in radians."""
    rng = np.random.default_rng([seed, index])
    k = np.arange(1, MODES + 1)
    offsets = rng.uniform(0.0, 2.0 * np.pi, MODES)
    amplitude = 1.0 / k
    wavenumber = 2.0 * np.pi * FUNDAMENTAL * k
    rms_slope = np.sqrt(0.5 * np.sum((amplitude * wavenumber) ** 2))
    scale = (2.0 * np.pi / WAVELENGTH) * RMS_DEFLECTION / rms_slope
    worst_deflection = scale * np.sum(amplitude * wavenumber) * WAVELENGTH / (2.0 * np.pi)
    if worst_deflection >= 0.5 * THETA_EXTENT:
        raise ValueError(
            f"screen deflects up to {worst_deflection:g} rad, outside the "
            f"{0.5 * THETA_EXTENT:g} rad half window"
        )
    arg = wavenumber[:, None] * x[None, :] + offsets[:, None]
    return scale * (amplitude[:, None] * np.cos(arg)).sum(axis=0)


def build_train(auglf, seed: int, index: int):
    """The optical train for one screen; the program sees only these arrays."""
    grid = auglf.PhaseSpaceGrid(X_SAMPLES, X_EXTENT, THETA_SAMPLES, THETA_EXTENT, WAVELENGTH)
    x = grid.x_axis()
    stop = np.abs(x) < 0.5 * STOP_WIDTH
    mask = auglf.ComplexField(grid, stop * np.exp(1j * phase_screen(x, seed, index)))
    beam = auglf.ComplexField(grid, np.exp(-((x / BEAM_RADIUS) ** 2)))
    return auglf.OpticalTrain(
        grid,
        auglf.FieldSource(beam),
        (auglf.Element(auglf.CodedAperture(mask)), auglf.Propagate(DISTANCE)),
    )
