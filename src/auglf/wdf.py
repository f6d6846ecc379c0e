"""Wigner phase-space representation of coherent fields.

The Wigner transform W(x,u) = int g(x + s/2) conj(g(x - s/2)) e^{-2pi i u s} ds
is real, can go negative, and its frequency marginal recovers |g(x)|^2.
We store it remapped to ray angle, L(x, theta) = W(x, theta/lambda) / lambda,
so the angular projection of the result reproduces |g|^2 in absolute units.

Discretization: the half-sample shifts g(x +/- s/2) are taken on a
band-limited 2x oversampling of the field (plus optional extra
oversampling), which keeps the usable frequency band at the field's
full Nyquist width instead of half of it.  The lag-to-frequency sum is
evaluated with a chirp transform at exactly the grid's angle nodes;
tests pin it against a naive direct-sum oracle.

The lag products of one row are Hermitian, c[-l] = conj(c[l]), so each
row is summed over the non-negative lags only and the real part doubled:
W(u) = ds * (c[0] + 2 Re sum_{l>0} c[l] e^{-2pi i u l ds}).  That halves the
products and shortens the chirp transform, and the table comes out real by
construction, so there is no imaginary residue to check or report.  It
agrees with the two-sided sum over all lags to within 1e-12 of the
table's peak (rounding only); tests pin that.

The chirp-z transform (Bluestein's algorithm; Rabiner, Schafer & Rader,
Bell Syst. Tech. J. 48, 1969) and the Fourier upsampling are written here
on top of ``numpy.fft`` rather than taken from SciPy: importing its signal
package also loads ``scipy.stats`` and costs about a second of start-up
on every run, and ``scipy.fft`` alone about 0.3 s and 22 MiB, whether or
not a Wigner transform is computed.  Since numpy 2.0, ``numpy.fft`` runs
the same pocketfft C++ code as ``scipy.fft``, and its ``out=`` argument
keeps the transforms in place.  The upsampling follows SciPy's order of
operations and tests pin it to ``scipy.signal`` bit for bit.  One chirp-z
(``_lag_chirps`` and ``_lags_to_angles``) serves every sum between lags
and angles: the table's rows, the numeric kernel's apply and the fold's
leak.  Its chirp phase is reduced modulo 2 pi exactly (``_pi_phase``), so
its rounding does not grow with the lag count; tests pin it to direct
sums, in long double where the phase is large.

Rows of the table are independent.  ``WignerRows`` does the shared set-up
once (upsampling, lag windows, chirps); it then gives the lag products of
any block of rows (``lags``), which the numeric light-field kernel
multiplies into each radiance row in the lag domain, so that kernel's table
is never made on the apply path, or writes the block's rows of the table
into a buffer its caller owns (``write``), through an in-place chirp-z.
``wigner_table`` fills a whole table from it (the field transform) or
streams its rows ``into`` a projection, in one loop over chunks of rows,
each split into one contiguous range per CPU the process may use, each
range on its own thread in blocks of a 1/w share of the block budget
(``core._block_rows``, ``core._row_threads``); a whole table is one
chunk.  The bits depend on neither the thread count nor the budget.

A source met at its own plane by a numeric kernel is folded into it
(``transformers.NumericTransformer.fold``), from the source's rows
(``field_rows`` for a field): one table of the product of the two
lag-grid signals replaces the source's table and the kernel's apply, and
the apply's leak is taken block by block in the table's own loop and
scratch buffer (``ApplyLeak``).  A fold whose radiance only feeds the
projection after a last hop is never made whole: its chunks go into the
hop's ``propagation.ShearedProjection`` one by one as they are written.
The chunks' size follows from the block budget, not from the thread
count, so the projection's bits do not depend on the thread count either.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.fft import fft, ifft

from .core import (
    AugmentedLightField,
    BandwidthWarning,
    ComplexField,
    DegenerateInputError,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    _block_rows,
    _freeze,
    _leak_meta,
    _next_fast_len,
    _row_threads,
)
from .propagation import ShearedProjection

__all__ = ["WdfOptions", "wdf_from_field"]

# Elements of each operand that a ufunc buffers at a time in the lag-domain
# block loops (``WignerRows.write``, the numeric kernel's apply).  Their
# in-place products over a block's lag columns (a strided view of the
# scratch buffer) and by one broadcast row go through ufunc buffers; at
# numpy's default of 8192 elements those take up to 384 KiB a call in each
# thread, which add up across the threads of a fold that holds no radiance.
# 1024 elements measured no slower.
_UFUNC_BUFFER = 1024


@contextmanager
def _ufunc_buffers():
    """Run the block with ``_UFUNC_BUFFER``-element ufunc buffers in this thread."""
    default = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(default)


@dataclass(frozen=True, slots=True)
class WdfOptions:
    """Numerical knobs for the discrete Wigner transform.

    oversample_factor : extra band-limited field upsampling (1, 2 or 4)
        on top of the built-in factor 2 for half-sample shifts.  Helps
        hard-edged fields at the cost of memory.
    boundary : treatment of samples pulled from beyond the window in the
        lag products.  "zero" extends the field with zeros (physical
        fields that decay inside the window); "periodic" wraps around,
        which is the faithful choice for transmittance masks that
        continue beyond the simulated patch (gratings, uniform plates).
    """

    oversample_factor: int = 1
    boundary: str = "zero"

    def __post_init__(self):
        if self.oversample_factor not in (1, 2, 4):
            raise InvalidConfigurationError(
                f"oversample_factor must be 1, 2 or 4, got {self.oversample_factor!r}"
            )
        if self.boundary not in ("zero", "periodic"):
            raise InvalidConfigurationError(f"unknown boundary {self.boundary!r}")


def _upsample(x: np.ndarray, num: int) -> np.ndarray:
    """Band-limited Fourier upsampling of complex x to num > len samples on the last axis.

    An even-length input's Nyquist bin is split in half between the
    positive and negative frequency, which keeps real signals real.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    spec = fft(x)
    out = np.zeros(x.shape[:-1] + (num,), dtype=spec.dtype)
    half = n // 2 + 1
    out[..., :half] = spec[..., :half]
    if half < n:
        out[..., half - n:] = spec[..., half - n:]
    if n % 2 == 0:
        out[..., n // 2] /= 2
        out[..., num - n // 2] = out[..., n // 2]
    out /= n / num
    return ifft(out, out=out)


def _pi_phase(a: float, k: np.ndarray) -> np.ndarray:
    """e^{i pi a k} for whole numbers 0 <= k < 2**53, with a k taken modulo 2 exactly.

    a splits into a head short enough that its product with every k is
    exact, so ``fmod`` reduces it exactly, and a tail whose small product
    adds the only rounding; a k itself, up to about 1e4 in a chirp, would
    round by 1e-12.
    """
    k = np.asarray(k, dtype=np.float64)
    bits = max(53 - int(k.max(initial=0)).bit_length(), 0)
    mantissa, exponent = math.frexp(a)
    head = math.ldexp(round(math.ldexp(mantissa, bits)), exponent - bits)
    turns = np.fmod(head * k, 2.0)
    turns += (a - head) * k
    return np.exp(1j * np.pi * turns)


def _lag_chirps(beta: float, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chirp-z pieces of the sums between n angle nodes and m lags, beta = ds du.

    Returns the chirp e^{i pi beta k^2} for k < max(n, m) (``_pi_phase``);
    the spectrum, at ``_next_fast_len(n + m - 1)``, of the filter
    e^{-i pi beta k^2} at k = -(n - 1) .. m - 1, so that
    ifft(fft(chirp row) * spectrum) times the chirp is a zoom DFT
    sum_{j<n} r_j e^{2 pi i beta j l}; and that DFT of a row of ones, the
    Dirichlet sums S_l (beta l can be a whole number, so no sine ratio).
    The way back, lags to angles, filters with the conjugate spectrum
    (``_lags_to_angles``).
    """
    nfft = _next_fast_len(n + m - 1)
    k = np.arange(max(n, m))
    chirp = _pi_phase(beta, k * k)
    taps = np.zeros(nfft, dtype=np.complex128)
    taps[:m] = np.conj(chirp[:m])
    taps[nfft - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    spectrum = fft(taps)
    sums = ifft(fft(chirp[:n], nfft) * spectrum)[:m] * chirp[:m]
    return chirp, spectrum, sums


def _lags_to_angles(buf: np.ndarray, m: int, backward: np.ndarray, unchirp: np.ndarray, out: np.ndarray) -> None:
    """Write scale Re sum_{l<m} v_l e^{-2 pi i beta j l} for j < n = len(unchirp) to out.

    buf is (rows, nfft) complex scratch holding v_l e^{-i pi beta l^2} in
    its first m columns, backward the conjugate of ``_lag_chirps``'s
    spectrum and unchirp scale e^{-i pi beta j^2}.  buf is overwritten.
    """
    n = len(unchirp)
    buf[:, m:] = 0.0
    fft(buf, axis=1, out=buf)
    buf *= backward
    ifft(buf, axis=1, out=buf)
    kept = np.multiply(buf[:, :n], unchirp, out=buf[:, :n])
    out[...] = kept.real


class WignerRows:
    """Rows of a real Wigner table, made on demand.

    The table holds the Wigner values at every grid x node and n_u
    frequencies u_start + k*du.  Everything the rows share is set up here,
    once: the checks on the settings, the upsampled signal, the forward and
    backward lag windows over it, and the chirp-z transform.  ``write``
    then fills any range of rows into a buffer the caller owns, so a
    consumer can take the table a block at a time without it ever being
    whole.  Rows are independent and each is transformed on its own, so the
    values do not depend on how the rows are split into calls.

    fine_samples, when given, supplies the signal on the lag grid (factor *
    len(samples) values, factor = 2 * oversample_factor) and replaces the
    interpolation step; use it when the signal is known analytically
    between samples, e.g. hard-edged masks whose band-limited interpolant
    would ring.  ``signal`` keeps the signal on the lag grid, upsampled or
    given, whose lag products the rows are, and ``options`` the settings.

    Each row's lag products are Hermitian, c[-l] = conj(c[l]), so the row
    is summed over the lags 0..K only:
    W(u) = ds * (c[0] + 2 Re sum_{l=1..K} c[l] e^{-2 pi i u l ds}).
    The table is real by construction; there is no discarded imaginary
    part to report.  It matches the two-sided sum over all 2K+1 lags to
    rounding (within 1e-12 of the table's peak; tests pin it).

    With periodic boundary the two half-window end lags alias onto the same
    circular displacement, so each enters with half weight; that keeps the
    lag window an exact full period and the uniform mask an exact identity
    on matched grids.  With zero boundary, lags that reach past either end
    of the field pair a sample with the zero padding and vanish.
    """

    def __init__(
        self,
        grid: PhaseSpaceGrid,
        samples: np.ndarray,
        u_start: float,
        du: float,
        n_u: int,
        options: WdfOptions,
        fine_samples: np.ndarray = None,
    ):
        if n_u < 2:
            raise InvalidConfigurationError(f"need at least 2 frequencies, got n_u={n_u!r}")
        n = grid.x_samples
        factor = 2 * options.oversample_factor
        u_stop = u_start + du * (n_u - 1)
        u_max = max(abs(u_start), abs(u_stop))
        achievable = factor / (4.0 * grid.dx)
        if u_max > achievable * (1 + 1e-12):
            raise InvalidConfigurationError(
                f"requested frequencies reach {u_max:.4g} /m but the lag sampling "
                f"supports only {achievable:.4g} /m; enlarge oversample_factor or "
                f"shrink the angle window"
            )

        m_total = factor * n
        gf = np.array(samples if fine_samples is None else fine_samples, dtype=np.complex128)
        if fine_samples is not None and gf.shape != (m_total,):
            raise InvalidConfigurationError(f"fine_samples must have shape ({m_total},), got {gf.shape}")
        if fine_samples is None:
            gf = _upsample(gf, m_total)
        self.options, self.signal = options, _freeze(gf)  # a copy: the caller's array may change
        self.ds = 2.0 * grid.dx / factor  # lag step: s = 2 * (fine sample step)
        k_half = m_total // 2
        self.n_lags = n_lags = k_half + 1
        # Lag l of row q pairs gf[q + l] with conj(gf[q - l]).  For a block
        # of rows both factors are strided windows, over `source` and over
        # its conjugated mirror; `source` holds gf at `off`, between zero
        # pads or, for periodic wrap, between two copies of itself.
        if options.boundary == "periodic":
            source, off = np.concatenate((gf, gf, gf)), m_total
        else:
            pad = np.zeros(k_half, dtype=np.complex128)
            source, off = np.concatenate((pad, gf, pad)), k_half
        self._forward = sliding_window_view(source, n_lags)[off::factor]
        first_back = len(source) - 1 - off
        self._backward = sliding_window_view(np.conj(source[::-1]), n_lags)[first_back::-factor]
        # doubling the one-sided sum counts lag 0 twice, so it enters at
        # half weight; so does the periodic end lag
        self._half_weight = slice(0, None, n_lags - 1) if options.boundary == "periodic" else slice(0, 1)

        # W(u_start + j du) = 2 ds Re sum_l (c[l] e^{-2 pi i u_start l ds})
        # e^{-2 pi i beta j l}, beta = du ds: the start is a per-lag phase
        chirp, spectrum, _ = _lag_chirps(du * self.ds, n_u, n_lags)
        lag_phase = _pi_phase(-2.0 * u_start * self.ds, np.arange(n_lags))
        self._lag_phase = lag_phase * np.conj(chirp[:n_lags])
        self._filter = np.conj(spectrum)
        self._unchirp = 2.0 * self.ds * np.conj(chirp[:n_u])
        self.shape = (n, n_u)

    def lags(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write the one-sided lag products c[0..K] of rows lo..hi-1 into out.

        out is complex, of shape (hi - lo, n_lags); lag 0 and, with periodic
        boundary, lag K carry their half weight, so row q of the table is
        W(u) = 2 ds Re sum_l out[q, l] e^{-2 pi i u l ds}.
        """
        np.multiply(self._forward[lo:hi], self._backward[lo:hi], out=out)
        out[:, self._half_weight] *= 0.5

    def write(self, lo: int, hi: int, out: np.ndarray, workers: int = 1, leak: ApplyLeak = None) -> None:
        """Write rows lo..hi-1 of the table into out, of shape (hi - lo, n_u).

        Works through blocks of a ``workers``-th of the block budget
        (``core._block_rows``), for that many writers running at once, in
        one complex scratch buffer of the chirp-z length, allocated per call.
        With ``leak``, each block's totals are taken in that buffer before
        the block's lag products, and the written block is divided by the
        wavelength and its rows summed (``ApplyLeak``).
        """
        m, nfft = self.n_lags, len(self._filter)
        step = _block_rows(16 * nfft, workers)
        buf = np.empty((min(step, hi - lo), nfft), dtype=np.complex128)
        with _ufunc_buffers():
            for start in range(lo, hi, step):
                stop = min(start + step, hi)
                rows, block = buf[: stop - start], out[start - lo : stop - lo]
                if leak is not None:
                    leak.totals[start:stop] = leak.row_totals(start, stop, rows[:, :m])
                self.lags(start, stop, rows[:, :m])
                rows[:, :m] *= self._lag_phase
                _lags_to_angles(rows, m, self._filter, self._unchirp, block)
                if leak is not None:
                    block /= leak.grid.wavelength
                    leak.leak_rows[start:stop] = leak.totals[start:stop] - block.sum(axis=1)


class ApplyLeak:
    """The leak of the kernel's apply that a fold replaces, summed in the fold's table's block loop.

    ``row_totals(lo, hi, scratch)`` returns the totals of rows lo..hi-1 over
    all 2n - 1 deflections of the apply, from lag products it forms in
    ``scratch``: complex, (hi - lo, n_lags), the table's own block buffer
    before the table's lag products go there.  Each written block of the
    table is divided by the wavelength, since the fold's radiance is the
    table over it, and a row's leak is its total less its sum
    (``WignerRows.write``).
    """

    def __init__(self, grid: PhaseSpaceGrid, row_totals):
        self.grid, self.row_totals = grid, row_totals
        self.totals = np.empty(grid.x_samples)
        self.leak_rows = np.empty(grid.x_samples)

    def meta(self) -> dict:
        return _leak_meta(self.grid, self.leak_rows, self.totals)


def wigner_table(rows: WignerRows, leak: ApplyLeak = None, into: ShearedProjection = None) -> Optional[np.ndarray]:
    """The whole table of ``rows``, as one array, or its rows streamed ``into`` a projection.

    The field transform, a numeric kernel's assembled table and the fold
    (``NumericTransformer.fold``) all take it; ``leak`` is
    ``WignerRows.write``'s.  The rows are written a chunk at a time into
    one buffer, each chunk split among the workers of one pool kept for
    the call (``core._row_threads``).  Without ``into`` the chunk is the
    whole table, which is returned.  With ``into``, a
    ``propagation.ShearedProjection`` on the grid's angles, a chunk is
    ``into.chunk_rows`` rows, each goes to ``into.add`` in row order before
    the next is written, and None is returned.  The chunks follow from the
    block budget, so they, and the bits, do not depend on the worker count.
    """
    n, n_u = rows.shape
    table = np.empty(rows.shape) if into is None else None
    size = n if into is None else min(into.chunk_rows, n)
    chunk = table if into is None else np.empty((size, n_u))
    with _row_threads() as over:
        for start in range(0, n, size):
            block = chunk[: min(size, n - start)]
            over(len(block), lambda lo, hi, workers: rows.write(start + lo, start + hi, block[lo:hi], workers, leak))
            if into is not None:
                into.add(start, block)
    return table


def _local_frequency_check(field: ComplexField) -> None:
    """Warn when the field's instantaneous frequency leaves the angle window."""
    g = field.samples
    mag = np.abs(g)
    peak = mag.max()
    if peak == 0:
        return
    significant = mag > 1e-3 * peak
    if significant.sum() < 3:
        return
    phase = np.unwrap(np.angle(g[significant]))
    x = field.grid.x_axis()[significant]
    with np.errstate(divide="ignore", invalid="ignore"):
        u_local = np.gradient(phase, x) / (2.0 * np.pi)
    u_limit = field.grid.theta_extent / (2.0 * field.grid.wavelength)
    worst = float(np.nanmax(np.abs(u_local)))
    if worst > u_limit:
        warnings.warn(
            f"field local frequency {worst:.4g} /m exceeds the angle window's "
            f"{u_limit:.4g} /m; content will fold or vanish",
            BandwidthWarning,
            stacklevel=4,  # the caller of wdf_from_field
        )


def _angle_frequencies(grid: PhaseSpaceGrid) -> tuple[float, float, int]:
    """``(u_start, du, n_u)`` of the grid's angle axis as spatial frequencies."""
    return float(grid.u_axis()[0]), grid.dtheta / grid.wavelength, grid.theta_samples


def _lag_axis(grid: PhaseSpaceGrid, options: WdfOptions) -> np.ndarray:
    """The lag grid's positions: 2 * oversample_factor points per sample, from the first x node."""
    factor = 2 * options.oversample_factor
    return grid.x_axis()[0] + (grid.dx / factor) * np.arange(factor * grid.x_samples)


def _options_meta(options: WdfOptions) -> dict:
    """The meta of a field's radiance: the settings of its transform."""
    return {"wdf_options": (options.oversample_factor, options.boundary)}


def field_rows(field: ComplexField, options: WdfOptions = WdfOptions()) -> WignerRows:
    """The Wigner rows of a sampled field on its grid's angles, for ``wdf_from_field`` or a fold.

    A field that vanishes is rejected, and one whose local frequency
    leaves the angle window draws BandwidthWarning.
    """
    if not np.any(field.samples):
        raise DegenerateInputError("field is identically zero")
    _local_frequency_check(field)
    return WignerRows(field.grid, field.samples, *_angle_frequencies(field.grid), options)


def wdf_from_field(field: ComplexField, options: WdfOptions = WdfOptions()) -> AugmentedLightField:
    """Numeric Wigner transform of a sampled coherent field.

    Returns the signed radiance L(x, theta) = W(x, theta/lambda)/lambda on
    the field's own grid.  The grid's angle axis must lie inside the
    frequency band achievable from the lag sampling (``field_rows``).
    """
    w = wigner_table(field_rows(field, options))
    w /= field.grid.wavelength
    return AugmentedLightField(field.grid, _freeze(w), _options_meta(options))
