"""Angle-redistribution kernels for thin optical elements.

A transformer describes how an element redistributes radiance over angle at
each position.  For thin elements the redistribution is shift-invariant in
angle, so the kernel is stored per position on a *relative-angle* axis: entry
``kernel[i, m]`` is the density coupling an incoming ray at ``x_i`` to an
outgoing ray deflected by ``(m - (n_theta - 1)) * dtheta``.  Applying such a
kernel is a linear convolution along the angle axis.

Kernels are real but not necessarily positive; negative lobes carry the
interference structure of coherent elements.

Rows of a convolution are independent, so kernels are applied a block of
rows at a time, and every transformer hands out its kernel a block of rows
at a time through ``rows(lo, hi)``.  A closed-form kernel is a table
(``LightFieldTransformer``) and answers by slicing it; elements build one
only when their kernel is a few delta rows or columns.  The numeric kernel
of a sampled transmittance (``NumericTransformer``), which every dense
element uses, makes each block from the transmittance's Wigner rows when
the apply asks for it, so its ``(x_samples, 2n - 1)`` table is never held
whole; ``kernel`` assembles that table only for callers that want it.
The apply transforms with ``numpy.fft`` at the shortest fast length that
keeps the n output bins free of wrap-around, the smallest
2-3-5-7-11-smooth length of at least 2n - 1 (``core._next_fast_len``),
and gives the same bits as transforming whole arrays at that length.

The apply splits the rows into one contiguous range per CPU the process
may use (``core._over_rows``); each range runs its own block loop on its
own thread into its own rows of the result, and the leak and power sums
are taken after the join, in row order, so the bits do not depend on the
thread count.  The workers share one block budget, a 1/w share each, so
besides its inputs and its result an apply holds about 3 MiB of kernel
rows, spectra and products whatever the grid and the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.fft import irfft, rfft

from .core import (
    AugmentedLightField,
    ClippedOrderWarning,
    ComplexField,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    _freeze,
    _frozen_array,
    _next_fast_len,
    _over_rows,
)
from .wdf import WdfOptions, WignerRows, wigner_table

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
    """Per-position angle-redistribution kernel on a relative-angle axis, as a table.

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

    def rows(self, lo: int, hi: int, workers: int = 1) -> np.ndarray:
        """Kernel rows lo..hi-1, a read-only view of the table (``workers`` is unused)."""
        return self.kernel[lo:hi]


@dataclass(frozen=True, slots=True, eq=False)
class NumericTransformer:
    """Kernel of a sampled transmittance whose rows are made when asked for.

    Row i is the Wigner row of the transmittance around x_i on the
    relative-angle axis, divided by the wavelength.  ``rows`` computes a
    block from ``source``, set up (and its settings checked) at build time,
    so the whole ``(x_samples, 2 * theta_samples - 1)`` table never exists
    on the apply path.  ``kernel`` assembles that table through
    ``wigner_table`` on each access and does not keep it; the values are
    the same bits as the rows.
    """

    grid: PhaseSpaceGrid
    transmittance: ComplexField
    options: WdfOptions
    fine_samples: Optional[np.ndarray]
    source: WignerRows
    meta: dict

    def rows(self, lo: int, hi: int, workers: int = 1) -> np.ndarray:
        """Kernel rows lo..hi-1, a fresh array.

        ``workers`` callers making rows at once share the chirp-z scratch
        budget (see ``WignerRows.write``).
        """
        block = np.empty((hi - lo, self.source.shape[1]))
        self.source.write(lo, hi, block, workers)
        block /= self.grid.wavelength
        return block

    @property
    def kernel(self) -> np.ndarray:
        table = wigner_table(
            self.grid,
            self.transmittance.samples,
            *_relative_frequencies(self.grid),
            options=self.options,
            fine_samples=self.fine_samples,
        )
        table /= self.grid.wavelength
        return _freeze(table)


def _deposit_rows(
    kernel: np.ndarray,
    grid: PhaseSpaceGrid,
    deflections: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Add delta rows ``weights[k] / dtheta`` at the given deflections.

    deflections: (n_rows,) deflection of each order; weights: (n_rows, x_samples)
    or (n_rows,).  Returns the total weight magnitude clipped because an order
    fell outside the representable deflection range; the caller warns once
    for the whole kernel (``_order_kernel``).
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
    return clipped


def _order_kernel(
    grid: PhaseSpaceGrid, kernel: np.ndarray, clipped: float, label: str
) -> LightFieldTransformer:
    """Transformer of a grating's deposited orders, warning once if any were clipped."""
    if clipped > 0.0:
        warnings.warn(
            f"{label}: diffraction orders outside the angular window were "
            f"dropped (clipped weight {clipped:.3g})",
            ClippedOrderWarning,
            stacklevel=4,  # the caller of canonical_transformer
        )
    return LightFieldTransformer(
        grid, _freeze(kernel), {"clipped_weight": clipped, "element": label}
    )


def canonical_transformer(
    spec, grid: PhaseSpaceGrid, options: Optional[WdfOptions] = None
) -> LightFieldTransformer:
    """Kernel of a catalogued element: ``spec.kernel(grid, options)``.

    Each element class of :mod:`auglf.elements` builds its own kernel,
    closed-form or numeric.
    """
    return spec.kernel(grid, options)


def _relative_frequencies(grid: PhaseSpaceGrid) -> tuple[float, float, int]:
    """``(u_start, du, n_u)`` of the relative-angle axis as spatial frequencies."""
    n = grid.theta_samples
    u_step = grid.dtheta / grid.wavelength
    return -(n - 1) * u_step, u_step, 2 * n - 1


def transformer_from_transmittance(
    transmittance: ComplexField,
    options: Optional[WdfOptions] = None,
    fine_samples: Optional[np.ndarray] = None,
) -> NumericTransformer:
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

    The settings are checked here; the kernel rows are made block by block
    by the apply (see NumericTransformer).
    """
    grid = transmittance.grid
    if options is None:
        options = WdfOptions(boundary="periodic")
    source = WignerRows(
        grid,
        transmittance.samples,
        *_relative_frequencies(grid),
        options=options,
        fine_samples=fine_samples,
    )
    if fine_samples is not None:  # kept for ``kernel``; checked by WignerRows
        fine_samples = _freeze(np.array(fine_samples, dtype=np.complex128))
    return NumericTransformer(
        grid,
        transmittance,
        options,
        fine_samples,
        source,
        {"element": "numeric", "wdf_options": options},
    )


def _block_rows(nfft: int, workers: int = 1) -> int:
    """Rows per block whose spectra of length ``nfft`` fill a ``workers``-th of ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // workers // (16 * (nfft // 2 + 1)))


def apply_transformer(
    alf: AugmentedLightField, transformer: LightFieldTransformer
) -> AugmentedLightField:
    """Push a light field through a relative-angle kernel.

    Linear convolution along the angle axis, weighted by the angle step.
    Radiance redistributed beyond the angular window is dropped; the dropped
    share is reported in ``meta['theta_leak']`` (absolute signed content) and
    ``meta['theta_leak_fraction']``.

    The convolution is circular, at ``nfft = _next_fast_len(2n - 1)`` for n
    angle samples.  A kernel row has 2n - 1 columns, so the kept bins
    ``[n - 1, 2n - 2]`` receive exactly their own linear terms, and every
    linear term outside that window wraps into some other bin outside it.
    A row's signed leak is therefore the sum of its circular bins outside
    the window, and its total the sum over all bins.

    Rows are convolved a block at a time straight into the result, each
    block of kernel rows taken from ``transformer.rows``, so the working
    memory beyond the input and output radiance is one block's kernel rows,
    spectra and products: about 3 MiB, independent of the grid, plus a
    numeric kernel's chirp-z scratch while it makes the block's rows.
    """
    grid = alf.grid
    if transformer.grid != grid:
        raise InvalidConfigurationError(
            "transformer and light field live on different grids"
        )
    n = grid.theta_samples
    nfft = _next_fast_len(2 * n - 1)
    out = np.empty_like(alf.radiance)
    leak_rows = np.empty(grid.x_samples)
    total_in = np.empty(grid.x_samples)

    def convolve(start: int, stop: int, workers: int) -> None:
        # every row is transformed on its own, so the values equal those of
        # transforming the whole arrays at once
        step = _block_rows(nfft, workers)
        for lo in range(start, stop, step):
            rows = slice(lo, min(lo + step, stop))
            spec = rfft(transformer.rows(rows.start, rows.stop, workers), nfft, axis=1)
            spec *= rfft(alf.radiance[rows], nfft, axis=1)
            full = irfft(spec, nfft, axis=1)
            full *= grid.dtheta
            out[rows] = full[:, n - 1 : 2 * n - 1]
            leak_rows[rows] = full[:, : n - 1].sum(axis=1) + full[:, 2 * n - 1 :].sum(axis=1)
            total_in[rows] = np.abs(full.sum(axis=1))
            del spec, full  # free this block before the next one is transformed

    _over_rows(grid.x_samples, convolve)
    denom = float(total_in.sum())
    leak = float(leak_rows.sum()) * grid.dtheta * grid.dx
    frac = float(np.abs(leak_rows).sum()) / denom if denom > 0 else 0.0
    meta = dict(alf.meta)
    meta["theta_leak"] = leak
    meta["theta_leak_fraction"] = frac
    return AugmentedLightField(grid, _freeze(out), meta)
