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
``WignerRows`` and its meta; the table comes from the rows' lag-grid
signal.  A numeric kernel met by a field source or a plane wave at its
own plane is not applied at all: ``trace_train`` folds it into the
source's Wigner transform (``wdf_from_field``'s ``through``), or takes the
kernel's own table shifted by the wave's angle node
(``NumericTransformer.behind_plane_wave``); both share this apply's
Dirichlet sums (``wdf._lag_chirps``).

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
from typing import Optional

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
from .propagation import _MARGIN, _padded_rows, _shift_rows
from .wdf import ApplyLeak, WdfOptions, WignerRows, _lag_chirps, _lags_to_angles, wigner_table

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
    any block of rows.  ``table`` assembles a whole table through
    ``wigner_table`` from ``source.signal`` on any frequency axis, and does
    not keep it: ``kernel`` on the relative-angle axis, and
    ``behind_plane_wave`` on the grid's angles less a plane wave's.
    """

    grid: PhaseSpaceGrid
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
        between them cancel, and the second is the Wigner rows' own way
        from lags to angles (``wdf._lags_to_angles``).  A row's total over
        all 2n - 1 deflections is 2 beta (sum_j L_j) Re sum_l c_l D_l, with
        D_l = sum_{|m| < n} e^{-2 pi i beta l m} = 2 Re S_l - 1 for the
        Dirichlet sums S of ``wdf._lag_chirps``; the leak is that total less
        the kept sum.
        """
        grid, source = self.grid, self.source
        n, m = grid.theta_samples, source.n_lags
        beta = source.ds * grid.dtheta / grid.wavelength
        chirp, forward, sums = _lag_chirps(beta, n, m)
        nfft = len(forward)
        backward = np.conj(forward)
        dirichlet = 2.0 * sums.real - 1.0
        unchirp = 2.0 * beta * np.conj(chirp[:n])

        def convolve(start: int, stop: int, workers: int) -> None:
            step = _block_rows(16 * nfft, workers)
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
                _lags_to_angles(spec, m, backward, unchirp, out[lo:hi])
                leak_rows[lo:hi] = total - out[lo:hi].sum(axis=1)
                totals[lo:hi] = total

        return convolve

    def table(self, u_start: float, du: float, n_u: int, leak: Optional[ApplyLeak] = None) -> np.ndarray:
        """Wigner table of the lag-grid signal at u_start + k du, k < n_u: window "none", since ``source`` has applied it; ``leak`` is ``wigner_table``'s."""
        signal, options = self.source.signal, self.source.options
        plain = WdfOptions(options.oversample_factor, "none", options.boundary)
        coarse = signal[:: 2 * options.oversample_factor]
        return wigner_table(self.grid, coarse, u_start, du, n_u, plain, fine_samples=signal, leak=leak)

    @property
    def kernel(self) -> np.ndarray:
        """The table on the relative-angle axis, over the wavelength."""
        table = self.table(*_relative_frequencies(self.grid))
        table /= self.grid.wavelength
        return _freeze(table)

    def behind_plane_wave(self, node: int) -> AugmentedLightField:
        """What the apply makes of a unit plane wave on angle node ``node``, without the wave's radiance.

        That radiance is one column of L0 = 1 / (dtheta x_extent), so the
        apply's row i at angle node j is dtheta L0 K_i((j - node) dtheta):
        the table at u_start = -node du over lambda x_extent.  A row's total
        is the convolver's, 2 beta L0 Re sum_l c_l D_l, and its leak that
        total less the row's sum; the lag products are formed in the
        table's block buffer, and each block is scaled and summed as it is
        written (``wdf.ApplyLeak``).
        """
        grid, source = self.grid, self.source
        n, m = grid.theta_samples, source.n_lags
        du = grid.dtheta / grid.wavelength
        beta = source.ds * du
        _, _, sums = _lag_chirps(beta, n, m)
        dirichlet = 2.0 * sums.real - 1.0
        scale = 2.0 * beta * (1.0 / (grid.dtheta * grid.x_extent))

        def row_totals(lo: int, hi: int, c: np.ndarray) -> np.ndarray:
            source.lags(lo, hi, c)
            return scale * (c.real * dirichlet).sum(axis=1)

        leak = ApplyLeak(grid.x_samples, grid.wavelength * grid.x_extent, row_totals)
        radiance = self.table(-node * du, du, n, leak)
        meta = {"source": "plane", **leak.meta(grid)}
        return AugmentedLightField(grid, _freeze(radiance), meta)


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
    return NumericTransformer(grid, source, {"element": "numeric", "wdf_options": options})


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
