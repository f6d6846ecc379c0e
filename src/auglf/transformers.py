"""Angle-redistribution kernels for thin optical elements.

A transformer describes how an element redistributes radiance over angle at
each position.  For thin elements the redistribution is shift-invariant in
angle, so the kernel is stored per position on a *relative-angle* axis: entry
``kernel[i, m]`` is the density coupling an incoming ray at ``x_i`` to an
outgoing ray deflected by ``(m - (n_theta - 1)) * dtheta``.  Applying such a
kernel is a linear convolution along the angle axis.

Kernels are real but not necessarily positive; negative lobes carry the
interference structure of coherent elements.

Each kernel kind brings its own apply (``convolver``).  A closed-form kernel
is a table (``LightFieldTransformer``), built only when it is a few delta
rows or columns, and convolves by ``numpy.fft`` rfft at the smallest
2-3-5-7-11-smooth length of at least 2n - 1 (``core._next_fast_len``).
The numeric kernel of a sampled transmittance (``NumericTransformer``),
which every dense element uses, never makes its ``(x_samples, 2n - 1)``
table on the apply path: an angle convolution by a Wigner row is a
multiplication by the row's lag products t(x + s/2) t*(x - s/2)
(Bastiaans, JOSA 69, 1710, 1979), so it moves each radiance row to the lag
domain, multiplies, and moves back, by two zoom DFTs; ``kernel`` assembles
the table only for callers that want it.

Rows are independent, so the apply splits them into one contiguous range
per CPU the process may use (``core._over_rows``); each range runs its own
block loop on its own thread into its own rows of the result, and the leak
and power sums are taken after the join, in row order, so the bits do not
depend on the thread count.  The workers share one block budget, a 1/w
share each, so besides its inputs and its result an apply holds about
3 MiB of kernel rows, spectra and products whatever the grid and the
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

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

    def convolver(self, radiance, out, leak_rows, totals):
        """Row-range worker of ``apply_transformer``: rfft convolution by the rows.

        The convolution is circular, at ``nfft = _next_fast_len(2n - 1)``, so
        the kept bins ``[n - 1, 2n - 2]`` receive exactly their own linear
        terms and every other term wraps into a bin outside them: a row's
        leak is the sum of those bins, and its total the sum of all.
        """
        grid = self.grid
        n = grid.theta_samples
        nfft = _next_fast_len(2 * n - 1)

        def convolve(start: int, stop: int, workers: int) -> None:
            # every row is transformed on its own, so the values equal those of
            # transforming the whole arrays at once
            step = _block_rows(nfft, workers)
            for lo in range(start, stop, step):
                rows = slice(lo, min(lo + step, stop))
                spec = rfft(self.kernel[rows], nfft, axis=1)
                spec *= rfft(radiance[rows], nfft, axis=1)
                full = irfft(spec, nfft, axis=1)
                full *= grid.dtheta
                out[rows] = full[:, n - 1 : 2 * n - 1]
                leak_rows[rows] = full[:, : n - 1].sum(axis=1) + full[:, 2 * n - 1 :].sum(axis=1)
                totals[rows] = full.sum(axis=1)
                del spec, full  # free this block before the next one is transformed

        return convolve


@dataclass(frozen=True, slots=True, eq=False)
class NumericTransformer:
    """Kernel of a sampled transmittance, applied in the lag domain.

    Row i is the Wigner row of the transmittance around x_i on the
    relative-angle axis, divided by the wavelength.  ``source`` is set up
    (and its settings checked) at build time and gives the lag products of
    any block of rows.  ``kernel`` assembles the whole table through
    ``wigner_table`` on each access and does not keep it.
    """

    grid: PhaseSpaceGrid
    transmittance: ComplexField
    options: WdfOptions
    fine_samples: Optional[np.ndarray]
    source: WignerRows
    meta: dict

    def convolver(self, radiance, out, leak_rows, totals):
        """Row-range worker of ``apply_transformer``: a multiplication by the lag products.

        With beta = ds dtheta / lambda and the half-weighted lag products
        c_0..c_K of ``WignerRows.lags``, the kernel at deflection m dtheta
        is (2 ds / lambda) Re sum_l c_l e^{-2 pi i beta m l}, so a radiance
        row L goes to out_j = 2 beta Re sum_l c_l G_l e^{-2 pi i beta j l},
        G_l = sum_j L_j e^{2 pi i beta j l}.  Both are zoom DFTs
        (Bluestein's chirp-z) at ``_next_fast_len(n + K)``; the chirps
        between them cancel, and the second filter is the mirror image of
        the first, so its spectrum is the conjugate.  A row's total over all
        2n - 1 deflections is 2 beta (sum_j L_j) Re sum_l c_l D_l, with
        D_l = sum_{|m| < n} e^{-2 pi i beta l m} = 2 Re S_l - 1 for the
        first zoom DFT S of a row of ones (beta l can be a whole number, so
        no sine ratio); the leak is that total less the kept sum.
        """
        grid, source = self.grid, self.source
        n, m = grid.theta_samples, source.n_lags
        nfft = _next_fast_len(n + m - 1)
        beta = source.ds * grid.dtheta / grid.wavelength
        k = np.arange(max(n, m))
        chirp = np.exp(1j * np.pi * beta * k**2)
        # the first filter e^{-i pi beta k^2} at k = -(n - 1) .. K, mod nfft
        taps = np.zeros(nfft, dtype=np.complex128)
        taps[:m] = np.conj(chirp[:m])
        taps[nfft - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
        forward = fft(taps)
        backward = np.conj(forward)
        dirichlet = 2.0 * (ifft(fft(chirp[:n], nfft) * forward)[:m] * chirp[:m]).real - 1.0
        unchirp = 2.0 * beta * np.conj(chirp[:n])

        def convolve(start: int, stop: int, workers: int) -> None:
            step = _block_rows(2 * nfft, workers)
            buf = np.empty((min(step, stop - start), nfft), dtype=np.complex128)
            lags = np.empty((len(buf), m), dtype=np.complex128)
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                spec, c = buf[: hi - lo], lags[: hi - lo]
                np.multiply(radiance[lo:hi], chirp[:n], out=spec[:, :n])
                spec[:, n:] = 0.0
                fft(spec, axis=1, out=spec)
                spec *= forward
                ifft(spec, axis=1, out=spec)
                source.lags(lo, hi, c)
                total = 2.0 * beta * radiance[lo:hi].sum(axis=1) * (c.real * dirichlet).sum(axis=1)
                spec[:, :m] *= c
                spec[:, m:] = 0.0
                fft(spec, axis=1, out=spec)
                spec *= backward
                ifft(spec, axis=1, out=spec)
                kept = np.multiply(spec[:, :n], unchirp, out=spec[:, :n])
                out[lo:hi] = kept.real
                leak_rows[lo:hi] = total - out[lo:hi].sum(axis=1)
                totals[lo:hi] = total

        return convolve

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
) -> LightFieldTransformer | NumericTransformer:
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

    The settings are checked here (see NumericTransformer).
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
    alf: AugmentedLightField, transformer: LightFieldTransformer | NumericTransformer
) -> AugmentedLightField:
    """Push a light field through a relative-angle kernel.

    Linear convolution along the angle axis, weighted by the angle step.
    Radiance redistributed beyond the angular window is dropped; the dropped
    share is reported in ``meta['theta_leak']`` (absolute signed content) and
    ``meta['theta_leak_fraction']``.

    Each kernel kind convolves by its own ``convolver``: a table by rfft
    convolution with its rows, a numeric kernel by a multiplication in the
    lag domain.  Either works a block of rows at a time straight into the
    result, so the working memory beyond the input and output radiance is
    one block's transforms: about 3 MiB, independent of the grid.
    """
    grid = alf.grid
    if transformer.grid != grid:
        raise InvalidConfigurationError(
            "transformer and light field live on different grids"
        )
    out = np.empty_like(alf.radiance)
    leak_rows = np.empty(grid.x_samples)
    totals = np.empty(grid.x_samples)
    _over_rows(grid.x_samples, transformer.convolver(alf.radiance, out, leak_rows, totals))
    denom = float(np.abs(totals).sum())
    leak = float(leak_rows.sum()) * grid.dtheta * grid.dx
    frac = float(np.abs(leak_rows).sum()) / denom if denom > 0 else 0.0
    meta = dict(alf.meta)
    meta["theta_leak"] = leak
    meta["theta_leak_fraction"] = frac
    return AugmentedLightField(grid, _freeze(out), meta)
