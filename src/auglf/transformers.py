"""Angle-redistribution kernels for thin optical elements.

A transformer describes how an element redistributes radiance over angle at
each position.  For thin elements the redistribution is shift-invariant in
angle, so the kernel is stored per position on a *relative-angle* axis: entry
``kernel[i, m]`` is the density coupling an incoming ray at ``x_i`` to an
outgoing ray deflected by ``(m - (n_theta - 1)) * dtheta``.  Applying such a
kernel is a linear convolution along the angle axis.

Kernels are real but not necessarily positive; negative lobes carry the
interference structure of coherent elements.

Rows of a convolution are independent, so kernels are applied and composed
a block of rows at a time (``_row_convolutions``).  Besides its inputs and
its result, a dense apply holds only one block's spectra and products, about
3 MiB whatever the grid.  The apply transforms at the shortest length that
keeps the n output bins free of wrap-around, ``next_fast_len(2n - 1)``, and
gives the same bits as transforming whole arrays at that length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .core import (
    AugmentedLightField,
    ClippedOrderWarning,
    ComplexField,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    _freeze,
    _frozen_array,
)
from .wdf import WdfOptions, wigner_table

import warnings

# Spectrum bytes per block of the row-blocked convolutions; rows per block
# follow from the transform length.
_BLOCK_BYTES = 1 << 20


def _relative_axis(grid: PhaseSpaceGrid) -> np.ndarray:
    """Deflection values carried by the kernel columns."""
    n = grid.theta_samples
    return (np.arange(2 * n - 1) - (n - 1)) * grid.dtheta


@dataclass(frozen=True, slots=True)
class LightFieldTransformer:
    """Per-position angle-redistribution kernel on a relative-angle axis.

    kernel has shape ``(x_samples, 2 * theta_samples - 1)``; column ``m``
    corresponds to a deflection of ``(m - (theta_samples - 1)) * dtheta``.
    """

    grid: PhaseSpaceGrid
    kernel: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (self.grid.x_samples, 2 * self.grid.theta_samples - 1)
        arr = _frozen_array(self.kernel, np.float64, expected, "kernel")
        object.__setattr__(self, "kernel", arr)

    def deflection_axis(self) -> np.ndarray:
        return _relative_axis(self.grid)

    def on_theta_axis(self) -> np.ndarray:
        """Kernel resampled onto the grid's absolute angle axis.

        Picks the relative-axis column nearest each grid angle.  On an even
        angle count the grid angles coincide with kernel columns exactly, so
        this is a plain slice.  This is what a unit plane-wave probe at zero
        angle returns when pushed through the kernel.
        """
        n = self.grid.theta_samples
        offsets = np.rint(self.grid.theta_axis() / self.grid.dtheta).astype(int)
        cols = np.clip(offsets + n - 1, 0, 2 * n - 2)
        return self.kernel[:, cols]


def identity_transformer(grid: PhaseSpaceGrid) -> LightFieldTransformer:
    """Kernel that leaves any light field unchanged under apply_transformer."""
    n = grid.theta_samples
    kernel = np.zeros((grid.x_samples, 2 * n - 1))
    kernel[:, n - 1] = 1.0 / grid.dtheta
    return LightFieldTransformer(grid, _freeze(kernel), {"element": "identity"})


def _deposit_rows(
    kernel: np.ndarray,
    grid: PhaseSpaceGrid,
    deflections: np.ndarray,
    weights: np.ndarray,
    label: str,
) -> float:
    """Add delta rows ``weights[k] / dtheta`` at the given deflections.

    deflections: (n_rows,) deflection of each order; weights: (n_rows, x_samples)
    or (n_rows,).  Returns the total weight magnitude clipped because an order
    fell outside the representable deflection range.
    """
    n = grid.theta_samples
    cols = np.rint(deflections / grid.dtheta).astype(int) + n - 1
    inside = (cols >= 0) & (cols <= 2 * n - 2)
    weights = np.atleast_2d(weights)
    if weights.shape[0] != deflections.shape[0]:
        weights = np.broadcast_to(weights, (deflections.shape[0], kernel.shape[0]))
    clipped = 0.0
    for k, col in enumerate(cols):
        if inside[k]:
            kernel[:, col] += weights[k] / grid.dtheta
        else:
            clipped += float(np.abs(weights[k]).sum()) * grid.dx
    if clipped > 0.0:
        warnings.warn(
            f"{label}: diffraction orders outside the angular window were "
            f"dropped (clipped weight {clipped:.3g})",
            ClippedOrderWarning,
            stacklevel=4,  # the caller of canonical_transformer
        )
    return clipped


def _deflection_kernel(
    grid: PhaseSpaceGrid, bend: np.ndarray, label: str
) -> LightFieldTransformer:
    """Kernel for a pure phase element: one delta per position at its deflection."""
    n = grid.theta_samples
    cols = np.rint(bend / grid.dtheta).astype(int) + n - 1
    inside = (cols >= 0) & (cols <= 2 * n - 2)
    kernel = np.zeros((grid.x_samples, 2 * n - 1))
    rows = np.nonzero(inside)[0]
    np.add.at(kernel, (rows, cols[inside]), 1.0 / grid.dtheta)
    n_out = int((~inside).sum())
    if n_out:
        warnings.warn(
            f"{label}: deflection left the angular window at {n_out} of "
            f"{grid.x_samples} positions; those columns were dropped",
            ClippedOrderWarning,
            stacklevel=4,  # the caller of canonical_transformer
        )
    return LightFieldTransformer(
        grid, _freeze(kernel), {"element": label, "clipped_columns": n_out}
    )


def canonical_transformer(
    spec, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
) -> LightFieldTransformer:
    """Closed-form kernel of a catalogued element: ``spec.kernel(grid, options)``.

    Each element class of :mod:`auglf.elements` builds its own kernel; a
    coded aperture falls back to the numeric path through its sampled
    transmittance.
    """
    return spec.kernel(grid, options)


def transformer_from_transmittance(
    transmittance: ComplexField,
    options: Optional[WdfOptions] = None,
    fine_samples: Optional[np.ndarray] = None,
) -> LightFieldTransformer:
    """Numeric kernel from a sampled complex transmittance.

    The kernel is the phase-space density of the transmittance itself,
    evaluated on the relative-angle axis.  This reproduces every catalogued
    kernel in the limit of fine sampling and covers arbitrary masks.

    Default boundary is periodic: a mask is a multiplicative screen whose
    pattern is taken to continue beyond the simulated patch, so the uniform
    mask maps to the identity kernel and on-grid gratings keep exact order
    weights.  Pass options with boundary "zero" for masks that genuinely
    end inside the window.

    fine_samples optionally supplies the mask on the lag grid (2 *
    oversample_factor values per sample, starting at the first x node);
    exact values there sidestep the ringing that band-limited
    interpolation adds around jumps.
    """
    grid = transmittance.grid
    if options is None:
        options = WdfOptions(boundary="periodic")
    n = grid.theta_samples
    u_step = grid.dtheta / grid.wavelength
    table = wigner_table(
        grid,
        transmittance.samples,
        u_start=-(n - 1) * u_step,
        du=u_step,
        n_u=2 * n - 1,
        options=options,
        fine_samples=fine_samples,
    )
    table /= grid.wavelength
    return LightFieldTransformer(
        grid,
        _freeze(table),
        {"element": "numeric", "wdf_options": options},
    )


def _block_rows(nfft: int) -> int:
    """Rows per block whose spectra of length ``nfft`` fill ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (16 * (nfft // 2 + 1)))


def _row_convolutions(a: np.ndarray, b: np.ndarray, nfft: int):
    """Circular convolutions of matching rows of ``a`` and ``b``, block by block.

    Yields ``(rows, full)``: the slice of rows covered and their ``nfft``
    circular convolution samples, a fresh array the caller may overwrite.
    Every row is transformed on its own, so the values equal those of
    transforming the whole arrays at once.
    """
    step = _block_rows(nfft)
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        spec = rfft(a[rows], nfft, axis=1)
        spec *= rfft(b[rows], nfft, axis=1)
        yield rows, irfft(spec, nfft, axis=1, overwrite_x=True)


def compose_transformers(
    first: LightFieldTransformer,
    second: LightFieldTransformer,
) -> LightFieldTransformer:
    """Kernel of two stacked screens applied in sequence at one plane.

    Row-wise convolution over the deflection axis: a deflection a from the
    first screen followed by b from the second lands at a + b.  The result
    is cropped back to the shared relative-angle axis; deflections pushed
    beyond it are dropped, mirroring apply_transformer's angle window.
    """
    if first.grid is not second.grid and first.grid != second.grid:
        raise InvalidConfigurationError("composed transformers must share a grid")
    grid = first.grid
    n = grid.theta_samples
    width = 2 * n - 1
    # full convolution length 4n-3; the shared axis sits centred on it
    lo = width - 1 - (n - 1)
    kernel = np.empty_like(first.kernel)
    for rows, full in _row_convolutions(
        first.kernel, second.kernel, next_fast_len(2 * width - 1)
    ):
        kernel[rows] = full[:, lo : lo + width] * grid.dtheta
    return LightFieldTransformer(grid, _freeze(kernel), {"element": "composite"})


def apply_transformer(
    alf: AugmentedLightField, transformer: LightFieldTransformer
) -> AugmentedLightField:
    """Push a light field through a relative-angle kernel.

    Linear convolution along the angle axis, weighted by the angle step.
    Radiance redistributed beyond the angular window is dropped; the dropped
    share is reported in ``meta['theta_leak']`` (absolute signed content) and
    ``meta['theta_leak_fraction']``.

    The convolution is circular, at ``nfft = next_fast_len(2n - 1)`` for n
    angle samples.  A kernel row has 2n - 1 columns, so the kept bins
    ``[n - 1, 2n - 2]`` receive exactly their own linear terms, and every
    linear term outside that window wraps into some other bin outside it.
    A row's signed leak is therefore the sum of its circular bins outside
    the window, and its total the sum over all bins.

    Rows are convolved a block at a time straight into the result, so the
    working memory beyond the input and output radiance is one block's
    spectra and products: about 3 MiB, independent of the grid.
    """
    grid = alf.grid
    if transformer.grid != grid:
        raise InvalidConfigurationError(
            "transformer and light field live on different grids"
        )
    n = grid.theta_samples
    out = np.empty_like(alf.radiance)
    leak_rows = np.empty(grid.x_samples)
    total_in = np.empty(grid.x_samples)
    for rows, full in _row_convolutions(
        transformer.kernel, alf.radiance, next_fast_len(2 * n - 1)
    ):
        full *= grid.dtheta
        out[rows] = full[:, n - 1 : 2 * n - 1]
        leak_rows[rows] = full[:, : n - 1].sum(axis=1) + full[:, 2 * n - 1 :].sum(axis=1)
        total_in[rows] = np.abs(full.sum(axis=1))
        del full  # free this block before the next one is transformed
    denom = float(total_in.sum())
    leak = float(leak_rows.sum()) * grid.dtheta * grid.dx
    frac = float(np.abs(leak_rows).sum()) / denom if denom > 0 else 0.0
    meta = dict(alf.meta)
    meta["theta_leak"] = leak
    meta["theta_leak_fraction"] = frac
    return AugmentedLightField(grid, _freeze(out), meta)


def apply_shield_field(
    alf: AugmentedLightField, shield: np.ndarray
) -> AugmentedLightField:
    """Attenuate radiance ray by ray with occlusion factors in [0, 1]."""
    shield = np.asarray(shield, dtype=np.float64)
    if shield.shape != alf.radiance.shape:
        raise InvalidConfigurationError(
            f"shield shape {shield.shape} does not match radiance "
            f"{alf.radiance.shape}"
        )
    if not np.all(np.isfinite(shield)):
        raise InvalidConfigurationError("shield contains non-finite entries")
    if shield.min() < 0.0 or shield.max() > 1.0:
        raise InvalidConfigurationError("shield factors must lie in [0, 1]")
    return AugmentedLightField(alf.grid, alf.radiance * shield, dict(alf.meta))

