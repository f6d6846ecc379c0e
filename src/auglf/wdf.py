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
``scipy.fft``, and its ``out=`` argument keeps the chirp-z and upsampling
transforms in place.  Each helper follows SciPy's order of operations, so
results are bitwise the same; tests pin them to ``scipy.signal``.

Rows of the table are independent.  ``WignerRows`` does the shared set-up
once (upsampling, lag windows, chirps); it then gives the lag products of
any block of rows (``lags``), which the numeric light-field kernel
multiplies into each radiance row in the lag domain, so that kernel's table
is never made on the apply path, or writes the block's rows of the table
into a buffer its caller owns (``write``), through an in-place chirp-z.
``wigner_table`` fills a whole table from it (the field transform), one
contiguous range of rows per CPU the process may use, each on its own
thread with a 1/w share of the ``chunk_rows`` scratch budget
(``core._over_rows``); the bits do not depend on the thread count.
"""

from __future__ import annotations

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
    _freeze,
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


class _ZoomDft:
    """DFT of length-n rows at m frequencies f1 .. f2 inclusive, sample rate fs.

    Bluestein's chirp-z algorithm: the chirps and the transformed filter
    are built once, then each call costs two FFTs of a fast length.
    """

    def __init__(self, n: int, f1: float, f2: float, m: int, fs: float):
        k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
        scale = ((f2 - f1) * m) / (fs * (m - 1))
        wk2 = np.exp(-(1j * np.pi * scale * k**2) / m)
        ak = np.exp(-2j * np.pi * f1 / fs * k[:n])
        self._awk2 = ak * wk2[:n]
        self.nfft = _next_fast_len(n + m - 1)
        self._fwk2 = fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), self.nfft)
        self._wk2 = wk2[:m]
        self._out = slice(n - 1, n + m - 1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = ifft(self._fwk2 * fft(x * self._awk2, self.nfft))
        return y[..., self._out] * self._wk2

    def real_into(self, buf: np.ndarray, scale: float, out: np.ndarray) -> None:
        """Write scale * Re(transform) of the rows held in buf[:, :n] to out.

        In-place variant of __call__ for (rows, nfft) complex scratch, with
        the same values; it overwrites buf and allocates nothing of the
        block's size.
        """
        n = len(self._awk2)
        buf[:, :n] *= self._awk2
        buf[:, n:] = 0.0
        spec = fft(buf, axis=-1, out=buf)
        np.multiply(self._fwk2, spec, out=spec)  # __call__'s operand order
        y = ifft(spec, axis=-1, out=spec)[:, self._out]
        y *= self._wk2
        np.multiply(y.real, scale, out=out)


def _apodized(samples: np.ndarray, window: str) -> np.ndarray:
    if window == "none":
        return samples
    return samples * _tukey(len(samples), 2 * EDGE_TAPER_FRACTION)


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
    would ring.

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
        chunk_rows: int = 32,
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

        g = _apodized(np.asarray(samples, dtype=np.complex128), options.window)
        m_total = factor * n
        if fine_samples is not None:
            gf = np.asarray(fine_samples, dtype=np.complex128)
            if gf.shape != (m_total,):
                raise InvalidConfigurationError(
                    f"fine_samples must have shape ({m_total},), got {gf.shape}"
                )
            if options.window != "none":
                gf = gf * _tukey(m_total, 2 * EDGE_TAPER_FRACTION)
        else:
            gf = _upsample(g, m_total)
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
        self._half_weight = [0, n_lags - 1] if options.boundary == "periodic" else [0]

        u_nodes = u_start + du * np.arange(n_u)
        self._zoom = _ZoomDft(n_lags, u_nodes[0], u_nodes[-1], n_u, 1.0 / self.ds)
        self._chunk_rows = chunk_rows
        self.shape = (n, n_u)

    def lags(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write the one-sided lag products c[0..K] of rows lo..hi-1 into out.

        out is complex, of shape (hi - lo, n_lags); lag 0 and, with periodic
        boundary, lag K carry their half weight, so row q of the table is
        W(u) = 2 ds Re sum_l out[q, l] e^{-2 pi i u l ds}.
        """
        np.multiply(self._forward[lo:hi], self._backward[lo:hi], out=out)
        out[:, self._half_weight] *= 0.5

    def write(self, lo: int, hi: int, out: np.ndarray, workers: int = 1) -> None:
        """Write rows lo..hi-1 of the table into out, of shape (hi - lo, n_u).

        Works through a ``workers``-th of ``chunk_rows`` rows at a time, for
        that many writers running at once, in one complex scratch buffer of
        the chirp-z length, allocated per call.
        """
        step = max(1, self._chunk_rows // workers)
        buf = np.empty((min(step, hi - lo), self._zoom.nfft), dtype=np.complex128)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            rows = buf[: stop - start]
            self.lags(start, stop, rows[:, : self.n_lags])
            self._zoom.real_into(rows, 2.0 * self.ds, out[start - lo : stop - lo])


def wigner_table(
    grid: PhaseSpaceGrid,
    samples: np.ndarray,
    u_start: float,
    du: float,
    n_u: int,
    options: WdfOptions,
    chunk_rows: int = 32,
    fine_samples: np.ndarray = None,
) -> np.ndarray:
    """The whole (x_samples, n_u) table of ``WignerRows``, as one array.

    Shared by the field transform (u from the grid's theta axis) and the
    assembled form of a numeric kernel (u from a symmetric relative-angle
    axis).
    """
    rows = WignerRows(grid, samples, u_start, du, n_u, options, fine_samples, chunk_rows)
    out = np.empty(rows.shape)
    _over_rows(rows.shape[0], lambda lo, hi, workers: rows.write(lo, hi, out[lo:hi], workers))
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


def wdf_from_field(field: ComplexField, options: WdfOptions = WdfOptions()) -> AugmentedLightField:
    """Numeric Wigner transform of a sampled coherent field.

    Returns the signed radiance L(x, theta) = W(x, theta/lambda)/lambda on
    the field's own grid.  The grid's angle axis must lie inside the
    frequency band achievable from the lag sampling; a field whose local
    frequency leaves the window draws BandwidthWarning.
    """
    if not np.any(field.samples):
        raise DegenerateInputError("field is identically zero")
    grid = field.grid
    _local_frequency_check(field)
    u_axis = grid.u_axis()
    w = wigner_table(grid, field.samples, float(u_axis[0]), grid.dtheta / grid.wavelength, grid.theta_samples, options)
    meta = {
        "wdf_options": (options.oversample_factor, options.window, options.boundary),
    }
    w /= grid.wavelength
    return AugmentedLightField(grid, _freeze(w), meta)
