"""Angle-redistribution kernels for thin optical elements.

A transformer describes how an element redistributes radiance over angle at
each position.  For thin elements the redistribution is shift-invariant in
angle, so the kernel is stored per position on a *relative-angle* axis: entry
``kernel[i, m]`` is the density coupling an incoming ray at ``x_i`` to an
outgoing ray deflected by ``(m - (n_theta - 1)) * dtheta``.  Applying such a
kernel is a linear convolution along the angle axis.

Kernels are real but not necessarily positive; negative lobes carry the
interference structure of coherent elements.

Each kernel kind brings its own apply (``convolver``); neither makes its
``(x_samples, 2n - 1)`` table, which ``kernel`` assembles only when read.
A closed-form kernel (``LightFieldTransformer``) is delta lines that move
a weighted share of each row by a fractional number of angle steps
(prism, lens, gratings): a shear along theta by the row shifter the
free-space shear uses (``propagation._shift_rows``).  Its few full rows
(pinholes) are convolved by rfft.
The numeric kernel of a sampled transmittance (``NumericTransformer``),
which every dense element uses, is a multiplication by the lag products
t(x + s/2) t*(x - s/2) in the lag domain (Bastiaans, JOSA 69, 1710,
1979), reached and left by two zoom DFTs: the chirp-z of ``wdf``, whose
way back from lags to angles (``wdf._lags_to_angles``) is the one the
Wigner rows and this kernel's table take.  It keeps only its grid, its
``WignerRows`` of the transmittance on the lag grid
(``_numeric_transformer``) and its meta; the table comes from those rows.
A numeric kernel met by a field source or a plane wave at its own plane
is not applied at all: ``trace_train`` folds the source into it
(``NumericTransformer.fold``), one table of the product of the source's
and the kernel's lag-grid signals, whose leak the apply's own rule for a
row's total gives (``NumericTransformer._deflections``).

Rows are independent, so the apply splits them into one contiguous range
per CPU the process may use (``core._over_rows``); each range runs its own
block loop on its own thread into its own rows of the result, and the leak
and power sums are taken after the join, in row order, so the bits do not
depend on the thread count.  The workers share one block budget
(``core._block_rows``), a 1/w share each, so besides its inputs and its
result an apply holds a few MiB of copies, spectra and products whatever
the grid and the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

from .core import (
    AugmentedLightField,
    ClippedOrderWarning,
    ComplexField,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    _block_rows,
    _freeze,
    _frozen_array,
    _leak_meta,
    _next_fast_len,
    _over_rows,
)
from .propagation import _MARGIN, ShearedProjection, _padded_rows, _shift_rows
from .wdf import (
    ApplyLeak,
    WdfOptions,
    WignerRows,
    _angle_frequencies,
    _lag_chirps,
    _lag_signal,
    _lags_to_angles,
    _pi_phase,
    _ufunc_buffers,
    wigner_table,
)

import warnings

@dataclass(frozen=True, slots=True, eq=False)
class LightFieldTransformer:
    """Closed-form kernel as delta lines and a few full rows.

    Line k moves the share ``weights[k, i]`` of position row i by
    ``shifts[k, i]`` angle steps, a fraction included: a delta of
    ``weights[k, i] / dtheta`` at that relative angle, which the apply
    spreads over the 8 taps of ``propagation._shift_rows``.  Both arrays
    are ``(lines, x_samples)``, and no shift leaves the relative-angle axis
    (at most ``theta_samples - 1`` steps either way).  ``rows`` maps a
    position row to its full kernel row.  ``kernel`` assembles the table on
    each access.
    """

    grid: PhaseSpaceGrid
    shifts: np.ndarray
    weights: np.ndarray
    rows: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_x, n = self.grid.x_samples, self.grid.theta_samples
        shifts = _freeze(np.array(self.shifts, dtype=np.float64).reshape(-1, n_x))
        weights = _freeze(np.array(self.weights, dtype=np.float64).reshape(shifts.shape))
        rows = {int(i): _frozen_array(row, np.float64, (2 * n - 1,), "kernel row") for i, row in self.rows.items()}
        on_table = (np.abs(shifts) <= n - 1).all() and all(0 <= i < n_x for i in rows)
        if not (on_table and np.isfinite(weights).all()):
            raise InvalidConfigurationError("kernel lines and rows must lie on the table, with finite weights")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rows", rows)

    def convolver(self, radiance, out, leak_rows, totals):
        """Row-range worker of ``apply_transformer``: a theta-shear per line, rfft of the rows.

        Each block of rows is copied between zero margins, and each line
        moves its weighted rows by its shifts (``propagation._shift_rows``),
        the first straight into the result and the others through a
        scratch block added to it.  A row's total is its sum times its line
        weights, and its leak that total less the kept sum; a kernel
        without lines (the pinholes) leaves rows, totals and leaks at the
        zeros ``apply_transformer`` starts them from.  A full row is
        convolved by rfft at ``nfft = _next_fast_len(2n - 1)``: the kept
        bins ``[n - 1, 2n - 2]`` receive exactly their own linear terms and
        every other term wraps into a bin outside them, whose sum is its
        leak.
        """
        grid, n = self.grid, self.grid.theta_samples
        nfft = _next_fast_len(2 * n - 1)
        row_weights = self.weights.sum(axis=0)

        def lines(start: int, stop: int, workers: int) -> None:
            step = _block_rows(16 * n, workers)  # margined rows and scratch
            padded_buf = _padded_rows(min(step, stop - start), n)
            scratch = np.empty((len(padded_buf), n))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                padded = padded_buf[: hi - lo]
                padded[:, _MARGIN:-_MARGIN] = radiance[lo:hi]
                for k, (shifts, weights) in enumerate(zip(self.shifts, self.weights)):
                    moved = out[lo:hi] if k == 0 else scratch[: hi - lo]
                    _shift_rows(padded, shifts[lo:hi], moved, weights[lo:hi])
                    if k:
                        out[lo:hi] += moved
                totals[lo:hi] = radiance[lo:hi].sum(axis=1) * row_weights[lo:hi]
                leak_rows[lo:hi] = totals[lo:hi] - out[lo:hi].sum(axis=1)

        def convolve(start: int, stop: int, workers: int) -> None:
            if len(self.shifts):
                lines(start, stop, workers)
            for i, row in self.rows.items():
                if start <= i < stop:
                    spec = rfft(row, nfft)
                    spec *= rfft(radiance[i], nfft)
                    full = irfft(spec, nfft)
                    full *= grid.dtheta
                    out[i] += full[n - 1 : 2 * n - 1]
                    leak_rows[i] += full[: n - 1].sum() + full[2 * n - 1 :].sum()
                    totals[i] += full.sum()

        return convolve

    @property
    def kernel(self) -> np.ndarray:
        """The table: each line moving a delta at zero deflection, the taps off the table dropped, and the full rows."""
        n_x, width = self.grid.x_samples, 2 * self.grid.theta_samples - 1
        deltas = _padded_rows(n_x, width)
        deltas[:, _MARGIN + width // 2] = 1.0 / self.grid.dtheta
        table, moved = np.zeros((n_x, width)), np.empty((n_x, width))
        for shifts, weights in zip(self.shifts, self.weights):
            _shift_rows(deltas, shifts, moved, weights)
            table += moved
        for i, row in self.rows.items():
            table[i] += row
        return _freeze(table)


@dataclass(frozen=True, slots=True, eq=False)
class NumericTransformer:
    """Kernel of a sampled transmittance, applied in the lag domain.

    Row i is the Wigner row of the transmittance around x_i on the
    relative-angle axis, divided by the wavelength.  ``source`` is set up
    (and its settings checked) at build time and gives the lag products of
    any block of rows.  ``kernel`` assembles its table through
    ``wigner_table``, and does not keep it; ``fold`` makes the radiance
    behind the element of a source met at its plane.
    """

    grid: PhaseSpaceGrid
    source: WignerRows
    meta: dict

    def _deflections(self):
        """The chirp-z set-up the apply and the fold share, and the apply's rule for a row's total.

        Returns beta = ds dtheta / lambda; ``wdf._lag_chirps``' chirp,
        spectrum and Dirichlet sums S_l for the n angle nodes and K + 1
        lags; and ``total(row_sums, c)``, the totals over all 2n - 1
        deflections of rows whose sums over the angle nodes are ``row_sums``
        and whose kernel lag products (``WignerRows.lags``) are c:
        2 beta (sum_j L_j) Re sum_l c_l D_l, D_l = 2 Re S_l - 1.
        """
        grid, source = self.grid, self.source
        beta = source.ds * grid.dtheta / grid.wavelength
        chirp, spectrum, sums = _lag_chirps(beta, grid.theta_samples, source.n_lags)
        dirichlet = 2.0 * sums.real - 1.0

        def total(row_sums, c: np.ndarray) -> np.ndarray:
            return 2.0 * beta * row_sums * (c.real * dirichlet).sum(axis=1)

        return beta, chirp, spectrum, sums, total

    def convolver(self, radiance, out, leak_rows, totals):
        """Row-range worker of ``apply_transformer``: a multiplication by the lag products.

        With beta = ds dtheta / lambda and the half-weighted lag products
        c_0..c_K of ``WignerRows.lags``, the kernel at deflection m dtheta
        is (2 ds / lambda) Re sum_l c_l e^{-2 pi i beta m l}, so a radiance
        row L goes to out_j = 2 beta Re sum_l c_l G_l e^{-2 pi i beta j l},
        G_l = sum_j L_j e^{2 pi i beta j l}.  Both are zoom DFTs
        (Bluestein's chirp-z) at ``_next_fast_len(n + K)``; the chirps
        between them cancel, and the second is the Wigner rows' own way
        from lags to angles (``wdf._lags_to_angles``).  A row's total is
        ``_deflections``' rule, and its leak that total less the kept sum.
        The block loop runs with ``wdf._UFUNC_BUFFER``-element ufunc buffers.
        """
        grid, source = self.grid, self.source
        n, m = grid.theta_samples, source.n_lags
        beta, chirp, forward, _, total = self._deflections()
        nfft = len(forward)
        backward = np.conj(forward)
        unchirp = 2.0 * beta * np.conj(chirp[:n])

        def convolve(start: int, stop: int, workers: int) -> None:
            step = _block_rows(16 * nfft, workers)
            buf = np.empty((min(step, stop - start), nfft), dtype=np.complex128)
            lags = np.empty((len(buf), m), dtype=np.complex128)
            with _ufunc_buffers():
                for lo in range(start, stop, step):
                    hi = min(lo + step, stop)
                    spec, c = buf[: hi - lo], lags[: hi - lo]
                    np.multiply(radiance[lo:hi], chirp[:n], out=spec[:, :n])
                    spec[:, n:] = 0.0
                    fft(spec, axis=1, out=spec)
                    spec *= forward
                    ifft(spec, axis=1, out=spec)
                    source.lags(lo, hi, c)
                    totals[lo:hi] = total(radiance[lo:hi].sum(axis=1), c)
                    spec[:, :m] *= c
                    _lags_to_angles(spec, m, backward, unchirp, out[lo:hi])
                    leak_rows[lo:hi] = totals[lo:hi] - out[lo:hi].sum(axis=1)

        return convolve

    @property
    def kernel(self) -> np.ndarray:
        """The table of ``source`` on the relative-angle axis, over the wavelength."""
        table = wigner_table(self.source)
        table /= self.grid.wavelength
        return _freeze(table)

    def fold(
        self, rows: WignerRows, meta: dict, row_sum: Optional[float] = None, into: Optional[ShearedProjection] = None
    ) -> Union[AugmentedLightField, dict]:
        """The radiance behind this element of a source met at its plane, without the source's radiance or the apply.

        ``rows`` are the source's Wigner rows on the grid's angles and the
        kernel's lag grid, and ``meta`` its radiance's meta.  The result is
        the Wigner transform of the product of the two lag-grid signals,
        which wraps around only if both factors do.  Its lag products are
        the source's times the kernel's, so it is the kernel applied to the
        source's radiance (Bastiaans, JOSA 69, 1710, 1979); where that
        radiance passes the angle window, it keeps what the apply would
        have dropped with it.

        The meta adds the apply's ``theta_leak`` and ``theta_leak_fraction``,
        summed in the table's block loop (``wdf.ApplyLeak``) by
        ``_deflections``' rule, from each row's sum over the angle nodes of
        the source's radiance: ``row_sum`` when given (a plane wave's one
        column), else (2 ds / lambda) Re sum_l c_l E_l from the source's lag
        products c, E_l = sum_j e^{-2 pi i (u_start + j du) l ds}
        = e^{-2 pi i u_start l ds} conj(S_l).  With ``into``, a
        ``propagation.ShearedProjection`` of a hop from this plane, the rows
        go into it as they are written (``wdf.wigner_table``), no radiance
        is made, and only the meta is returned.
        """
        grid, source = self.grid, self.source
        if (rows.signal.shape, rows.ds) != (source.signal.shape, source.ds):
            raise InvalidConfigurationError("the kernel's lag grid is not the source's")
        axis = _angle_frequencies(grid)
        _, _, _, sums, total = self._deflections()
        nodes = _pi_phase(-2.0 * axis[0] * rows.ds, np.arange(rows.n_lags)) * np.conj(sums)
        scale = 2.0 * rows.ds / grid.wavelength

        def row_totals(lo: int, hi: int, c: np.ndarray) -> np.ndarray:
            sums_over_angles = row_sum
            if row_sum is None:
                rows.lags(lo, hi, c)
                sums_over_angles = scale * np.multiply(c, nodes, out=c).real.sum(axis=1)
            source.lags(lo, hi, c)
            return total(sums_over_angles, c)

        wraps = rows.options.boundary == source.options.boundary == "periodic"
        options = WdfOptions(rows.options.oversample_factor, "periodic" if wraps else "zero")
        leak = ApplyLeak(grid, row_totals)
        table = wigner_table(WignerRows(grid, _freeze(rows.signal * source.signal), *axis, options), leak, into)
        meta = {**meta, **leak.meta()}
        return meta if into is not None else AugmentedLightField(grid, _freeze(table), meta)


def _delta_lines(grid: PhaseSpaceGrid, deflections, weights, label: str) -> LightFieldTransformer:
    """Transformer of delta lines, warning once if any deflection left the axis.

    ``deflections`` and ``weights`` broadcast to ``(lines, x_samples)``;
    each deflection becomes a shift of ``deflection / dtheta`` angle steps,
    not rounded.  A weight whose shift is off the relative-angle axis (more
    than ``theta_samples - 1`` steps) is dropped and adds ``|weight| dx``
    to ``meta["clipped_weight"]``.
    """
    n = grid.theta_samples
    deflections, weights = np.broadcast_arrays(deflections, np.asarray(weights, dtype=np.float64))
    shifts = deflections / grid.dtheta
    off = np.abs(shifts) > n - 1
    clipped = float(np.abs(weights[off]).sum()) * grid.dx
    if clipped > 0.0:
        warnings.warn(
            f"{label}: {np.count_nonzero(weights[off])} deflections left the angular "
            f"window and were dropped (clipped weight {clipped:.3g})",
            ClippedOrderWarning,
            stacklevel=4,  # the caller of canonical_transformer
        )
    weights = np.where(off, 0.0, weights)
    lines = weights.any(axis=1)  # a line left without weight goes
    return LightFieldTransformer(
        grid, np.where(off, 0.0, shifts)[lines], weights[lines], meta={"element": label, "clipped_weight": clipped}
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


def _numeric_transformer(grid: PhaseSpaceGrid, signal: np.ndarray, options: WdfOptions) -> NumericTransformer:
    """Numeric kernel of a transmittance given on the lag grid (``wdf._lag_axis``); ``WignerRows`` checks it."""
    rows = WignerRows(grid, signal, *_relative_frequencies(grid), options)
    return NumericTransformer(grid, rows, {"element": "numeric"})


def transformer_from_transmittance(
    transmittance: ComplexField, options: Optional[WdfOptions] = None
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

    The samples are upsampled, band-limited, onto the lag grid
    (``wdf._lag_signal``), and the settings are checked there (see
    NumericTransformer).  An element whose transmittance is known between
    the samples is evaluated on the lag grid instead
    (``elements._transmittance_kernel``), which avoids the ringing that
    interpolation adds around jumps.
    """
    if options is None:
        options = WdfOptions(boundary="periodic")
    return _numeric_transformer(transmittance.grid, _lag_signal(transmittance.samples, options), options)


def apply_transformer(
    alf: AugmentedLightField, transformer: LightFieldTransformer | NumericTransformer
) -> AugmentedLightField:
    """Push a light field through a relative-angle kernel.

    Linear convolution along the angle axis, weighted by the angle step.
    Radiance redistributed beyond the angular window is dropped; the dropped
    share is reported in ``meta['theta_leak']`` (absolute signed content) and
    ``meta['theta_leak_fraction']``.

    Each kernel kind convolves by its own ``convolver``, a block of rows at
    a time straight into the result, so beyond the input and output
    radiance it holds a few MiB whatever the grid.  The result starts as
    calloc'd zeros (``np.zeros``): rows a convolver leaves alone, as the
    pinholes do, cost neither a pass nor a page.
    """
    grid = alf.grid
    if transformer.grid != grid:
        raise InvalidConfigurationError(
            "transformer and light field live on different grids"
        )
    out = np.zeros(alf.radiance.shape)
    leak_rows = np.zeros(grid.x_samples)
    totals = np.zeros(grid.x_samples)
    _over_rows(grid.x_samples, transformer.convolver(alf.radiance, out, leak_rows, totals))
    meta = {**alf.meta, **_leak_meta(grid, leak_rows, totals)}
    return AugmentedLightField(grid, _freeze(out), meta)
