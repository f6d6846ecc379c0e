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
Bell Syst. Tech. J. 48, 1969), the Fourier upsampling and the Tukey
window are written here on top of ``numpy.fft`` rather than taken from
SciPy: importing its signal package also loads ``scipy.stats`` and costs
about a second of start-up on every run, and ``scipy.fft`` alone about
0.3 s and 22 MiB, whether or not a Wigner transform is computed.  Since
numpy 2.0, ``numpy.fft`` runs the same pocketfft C++ code as
``scipy.fft``, and its ``out=`` argument keeps the transforms in place.
The upsampling and the window follow SciPy's order of operations and
tests pin them to ``scipy.signal`` bit for bit.  One chirp-z
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
``wigner_table`` fills a whole table from it (the field transform), one
contiguous range of rows per CPU the process may use, each on its own
thread in blocks of a 1/w share of the block budget (``core._block_rows``,
``core._over_rows``); the bits depend on neither the thread count nor the
budget.

A field met at its own plane by a numeric kernel is folded into it
(``wdf_from_field(..., through=...)``): the Wigner transform of the product
of the two lag-grid signals is the kernel's angle convolution of the
field's (Bastiaans, JOSA 69, 1710, 1979), since its lag products are the
two factors' lag products multiplied.  One table then replaces the field's
table and the kernel's apply, and the apply's leak comes from the lag
products and Dirichlet sums alone, taken block by block in the table's own
loop and scratch buffer (``_fold_leak``, ``ApplyLeak``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    _over_rows,
)

__all__ = ["WdfOptions", "wdf_from_field"]

# Fraction of the window tapered on each side by the raised-cosine option.
EDGE_TAPER_FRACTION = 0.1


@dataclass(frozen=True, slots=True)
class WdfOptions:
    """Numerical knobs for the discrete Wigner transform.

    oversample_factor : extra band-limited field upsampling (1, 2 or 4)
        on top of the built-in factor 2 for half-sample shifts.  Helps
        hard-edged fields at the cost of memory.
    window : "none" or "raised-cosine" edge apodization of the field
        before the correlation; suppresses lag-window sidelobes when
        extracting diffraction-order weights.
    boundary : treatment of samples pulled from beyond the window in the
        lag products.  "zero" extends the field with zeros (physical
        fields that decay inside the window); "periodic" wraps around,
        which is the faithful choice for transmittance masks that
        continue beyond the simulated patch (gratings, uniform plates).
    """

    oversample_factor: int = 1
    window: str = "none"
    boundary: str = "zero"

    def __post_init__(self):
        if self.oversample_factor not in (1, 2, 4):
            raise InvalidConfigurationError(
                f"oversample_factor must be 1, 2 or 4, got {self.oversample_factor!r}"
            )
        if self.window not in ("none", "raised-cosine"):
            raise InvalidConfigurationError(f"unknown window {self.window!r}")
        if self.boundary not in ("zero", "periodic"):
            raise InvalidConfigurationError(f"unknown boundary {self.boundary!r}")


def _tukey(m: int, alpha: float) -> np.ndarray:
    """Symmetric Tukey (tapered cosine) window of m points, 0 < alpha < 1."""
    if m <= 1:
        return np.ones(m)
    n = np.arange(0, m, dtype=np.float64)
    width = int(np.floor(alpha * (m - 1) / 2.0))
    n1 = n[0:width + 1]
    n3 = n[m - width - 1:]
    w1 = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n1 / alpha / (m - 1))))
    w2 = np.ones(m - 2 * width - 2)
    w3 = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n3 / alpha / (m - 1))))
    return np.concatenate((w1, w2, w3))


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
    given and apodized, whose lag products the rows are, and ``options``
    the settings.

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
        if options.window != "none":
            gf = gf * _tukey(len(gf), 2 * EDGE_TAPER_FRACTION)
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
        the block's lag products, and the written block is scaled and its
        rows summed (``ApplyLeak``).
        """
        m, nfft = self.n_lags, len(self._filter)
        step = _block_rows(16 * nfft, workers)
        buf = np.empty((min(step, hi - lo), nfft), dtype=np.complex128)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            rows, block = buf[: stop - start], out[start - lo : stop - lo]
            if leak is not None:
                leak.totals[start:stop] = leak.row_totals(start, stop, rows[:, :m])
            self.lags(start, stop, rows[:, :m])
            rows[:, :m] *= self._lag_phase
            _lags_to_angles(rows, m, self._filter, self._unchirp, block)
            if leak is not None:
                block /= leak.divisor
                leak.leak_rows[start:stop] = leak.totals[start:stop] - block.sum(axis=1)


class ApplyLeak:
    """The leak of a kernel's apply that a table replaces, summed in that table's block loop.

    ``row_totals(lo, hi, scratch)`` returns the totals of rows lo..hi-1 over
    all 2n - 1 deflections of the apply, from lag products it forms in
    ``scratch``: complex, (hi - lo, n_lags), the table's own block buffer
    before the table's lag products go there.  Each written block of the
    table is divided by ``divisor``, and a row's leak is its total less its
    sum (``WignerRows.write``).
    """

    def __init__(self, rows: int, divisor: float, row_totals):
        self.divisor, self.row_totals = divisor, row_totals
        self.totals = np.empty(rows)
        self.leak_rows = np.empty(rows)

    def meta(self, grid: PhaseSpaceGrid) -> dict:
        return _leak_meta(grid, self.leak_rows, self.totals)


def wigner_table(
    grid: PhaseSpaceGrid,
    samples: np.ndarray,
    u_start: float,
    du: float,
    n_u: int,
    options: WdfOptions,
    fine_samples: np.ndarray = None,
    leak: ApplyLeak = None,
) -> np.ndarray:
    """The whole (x_samples, n_u) table of ``WignerRows``, as one array.

    Shared by the field transform (u from the grid's theta axis) and the
    assembled form of a numeric kernel (u from a symmetric relative-angle
    axis).  ``leak`` is ``WignerRows.write``'s.
    """
    rows = WignerRows(grid, samples, u_start, du, n_u, options, fine_samples)
    out = np.empty(rows.shape)
    _over_rows(rows.shape[0], lambda lo, hi, workers: rows.write(lo, hi, out[lo:hi], workers, leak))
    return out


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
            stacklevel=3,
        )


def wdf_from_field(
    field: ComplexField, options: WdfOptions = WdfOptions(), through: WignerRows = None
) -> AugmentedLightField:
    """Numeric Wigner transform of a sampled coherent field.

    Returns the signed radiance L(x, theta) = W(x, theta/lambda)/lambda on
    the field's own grid.  The grid's angle axis must lie inside the
    frequency band achievable from the lag sampling; a field whose local
    frequency leaves the window draws BandwidthWarning.

    through, when given, is a numeric kernel's rows (``NumericTransformer.
    source``) on the field's lag grid, and the result is the
    radiance behind that element: the Wigner transform of the product of
    the two lag-grid signals, each already upsampled or analytic and
    apodized, so taken with window "none".  Its lag products are those of
    the field times those of the kernel, so it is the kernel applied to the
    field's radiance (Bastiaans, JOSA 69, 1710, 1979) without that radiance
    and its apply; where the field's radiance passes the angle window, it
    keeps what the apply would have dropped with it.  ``meta`` then gives
    the apply's ``theta_leak`` and ``theta_leak_fraction``, summed in the
    table's own block loop (``_fold_leak``).
    """
    if not np.any(field.samples):
        raise DegenerateInputError("field is identically zero")
    grid = field.grid
    _local_frequency_check(field)
    axis = (float(grid.u_axis()[0]), grid.dtheta / grid.wavelength, grid.theta_samples)
    meta = {
        "wdf_options": (options.oversample_factor, options.window, options.boundary),
    }
    if through is None:
        w = wigner_table(grid, field.samples, *axis, options)
        w /= grid.wavelength
    else:
        rows = WignerRows(grid, field.samples, *axis, options)
        if (through.signal.shape, through.ds) != (rows.signal.shape, rows.ds):
            raise InvalidConfigurationError("the kernel's lag grid is not the field's")
        product = rows.signal * through.signal
        factor = 2 * options.oversample_factor
        # the product wraps around only if both factors do
        wraps = options.boundary == through.options.boundary == "periodic"
        plain = WdfOptions(options.oversample_factor, "none", "periodic" if wraps else "zero")
        leak = _fold_leak(grid, rows, through, axis[0])
        w = wigner_table(grid, product[::factor], *axis, plain, fine_samples=product, leak=leak)
        meta.update(leak.meta(grid))
    return AugmentedLightField(grid, _freeze(w), meta)


def _fold_leak(grid: PhaseSpaceGrid, rows: WignerRows, through: WignerRows, u_start: float) -> ApplyLeak:
    """The leak that applying ``through``'s kernel to the radiance of ``rows`` would report.

    That apply gives a row the total (sum_j L_j) (2 beta Re sum_l k_l D_l)
    over all 2n - 1 deflections, with k the kernel's lag products and D_l
    the Dirichlet sums of ``NumericTransformer.convolver``.  The field's row
    sum over the n angle nodes u_start + j du is
    sum_j L_j = (2 ds / lambda) Re sum_l c_l E_l, with c its lag products and
    E_l = sum_j e^{-2 pi i (u_start + j du) l ds} = e^{-2 pi i u_start l ds} conj(S_l)
    for the same Dirichlet sums S (du ds = beta).  Both lag products are
    formed in the product table's block buffer, the field's first, and the
    table is divided by lambda as it is written.
    """
    n, m, ds = grid.theta_samples, rows.n_lags, rows.ds
    beta = ds * grid.dtheta / grid.wavelength
    _, _, sums = _lag_chirps(beta, n, m)
    dirichlet = 2.0 * sums.real - 1.0
    nodes = _pi_phase(-2.0 * u_start * ds, np.arange(m)) * np.conj(sums)
    scale = 2.0 * beta * 2.0 * ds / grid.wavelength

    def row_totals(lo: int, hi: int, c: np.ndarray) -> np.ndarray:
        rows.lags(lo, hi, c)
        power = np.multiply(c, nodes, out=c).real.sum(axis=1)
        through.lags(lo, hi, c)
        return scale * power * (c.real * dirichlet).sum(axis=1)

    return ApplyLeak(grid.x_samples, grid.wavelength, row_totals)
