"""Free-space transport of phase-space radiance.

Paraxial propagation acts on radiance as a shear: each angle row slides in
position by ``z * theta`` while the angle coordinate is untouched.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq

from .core import (
    AugmentedLightField,
    InvalidConfigurationError,
    TruncationWarning,
    _freeze,
    _next_fast_len,
)
from .transformers import _BLOCK_BYTES, _block_rows

_INTERP_MODES = ("bandlimited", "linear")


def shear_propagate(
    alf: AugmentedLightField,
    distance: float,
    interp: str = "bandlimited",
) -> tuple[AugmentedLightField, float]:
    """Slide each angle row by ``distance * theta`` along position.

    Returns the propagated field together with the truncation loss: the
    share of (absolute) radiance content pushed past the position window,
    which is dropped rather than wrapped.

    bandlimited interpolation shifts rows exactly for fields that respect
    the grid bandwidth but rings on spike-like rows; linear interpolation
    spreads a shifted sample over its two neighbours and never rings.

    Both run on a block of angle columns at a time, copied into a small
    row-major buffer and written straight back into the ``(x, theta)``
    result, so the working memory beyond the input and output radiance
    does not grow with the angle count.  The linear shift takes about
    1 MiB of columns per block and applies each row's single fractional
    weight as two slice axpys; it agrees with ``np.interp`` (zero outside
    the window) to rounding.  The bandlimited shift takes about 1 MiB of
    spectra per block.
    """
    if interp not in _INTERP_MODES:
        raise InvalidConfigurationError(
            f"interp must be one of {_INTERP_MODES}, got {interp!r}"
        )
    if not np.isfinite(distance):
        raise InvalidConfigurationError(f"propagation distance must be finite, got {distance!r}")
    grid = alf.grid
    if distance == 0.0:
        meta = dict(alf.meta)
        meta["truncation_loss"] = 0.0
        return AugmentedLightField(grid, _freeze(alf.radiance.copy()), meta), 0.0

    theta = grid.theta_axis()
    shifts = distance * theta
    max_shift = float(np.abs(shifts).max())
    if max_shift > grid.x_extent:
        warnings.warn(
            f"shear of {distance:g} m moves the steepest rays "
            f"{max_shift:g} m, beyond the {grid.x_extent:g} m window; "
            "most of their content will be truncated",
            TruncationWarning,
            stacklevel=2,
        )

    if interp == "linear":
        shift_rows, step = _linear_rows(grid.x_axis(), grid.dx, shifts)
    else:
        shift_rows, step = _bandlimited_rows(grid.x_samples, shifts / grid.dx)
    out, in_sums, out_sums = _sheared_columns(alf.radiance, step, shift_rows)

    leak = in_sums - out_sums
    denom = float(np.abs(in_sums).sum())
    loss = float(np.abs(leak).sum()) / denom if denom > 0.0 else 0.0

    meta = dict(alf.meta)
    meta["truncation_loss"] = loss
    return AugmentedLightField(grid, _freeze(out), meta), loss


def _sheared_columns(radiance: np.ndarray, step: int, shift_rows):
    """Shear ``radiance`` a block of ``step`` angle columns at a time.

    Each block is copied into a row-major ``(columns, x)`` buffer;
    ``shift_rows(cols, src, dst)`` writes the shifted rows of ``src`` into
    ``dst``, which goes straight into a C-ordered ``(x, theta)`` result.
    Returns the result and the position sums of every angle row before and
    after the shift.
    """
    n_x, n_theta = radiance.shape
    out = np.empty_like(radiance)
    in_sums = np.empty(n_theta)
    out_sums = np.empty(n_theta)
    src_buf = np.empty((min(step, n_theta), n_x))
    dst_buf = np.empty_like(src_buf)
    for start in range(0, n_theta, step):
        cols = slice(start, start + step)
        block = radiance[:, cols]
        src = src_buf[: block.shape[1]]
        dst = dst_buf[: block.shape[1]]
        src[...] = block.T
        in_sums[cols] = src.sum(axis=1)
        shift_rows(cols, src, dst)
        out_sums[cols] = dst.sum(axis=1)
        out[:, cols] = dst.T
    return out, in_sums, out_sums


def _linear_rows(x: np.ndarray, dx: float, shifts: np.ndarray):
    """Row shifter of ``np.interp(x - shift, x, row, left=0, right=0)``, and its block size.

    Output sample i of a row shifted by b = shift / dx bins, with
    k = floor(b) and f = b - k, is (1 - f) row[i - k] + f row[i - k - 1],
    leaving out a neighbour that lies off the row.  It is nonzero only
    where np.interp counts ``x[i] - shift`` as inside ``[x[0], x[-1]]`` in
    float arithmetic, which can differ from the exact edge by one sample
    when b lies within rounding of an integer.  Consecutive rows that share
    k and both edges are shifted together as one 2-D slice.
    """
    n = len(x)
    step = max(1, _BLOCK_BYTES // (8 * n))
    bins = shifts / dx
    whole = np.floor(bins)
    frac = (bins - whole)[:, np.newaxis]
    # inside from the first i with x[i] - shift >= x[0] (exactly, i >= b)
    # up to the first with x[i] - shift > x[-1] (exactly, i > b + n - 1)
    lo = _first_sample(x, shifts, np.ceil(bins), lambda xq: xq >= x[0])
    hi = _first_sample(x, shifts, whole + n, lambda xq: xq > x[-1])
    # a row shifted by more than n bins is empty (lo >= hi) whatever its k
    whole = np.clip(whole, -n - 2, n + 2).astype(np.int64)
    keys = np.stack((whole, lo, hi), axis=1)
    starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    keys = keys.tolist()
    scratch = np.empty((step, n))

    def shift_rows(cols: slice, src: np.ndarray, dst: np.ndarray) -> None:
        first, last = cols.start, cols.start + len(src)
        inner = starts[(starts > first) & (starts < last)].tolist()
        for g0, g1 in zip([first] + inner, inner + [last]):
            k, lo, hi = keys[g0]
            rows, out = src[g0 - first : g1 - first], dst[g0 - first : g1 - first]
            f = frac[g0:g1]
            near_lo, near_hi = max(lo, k), min(hi, k + n)
            if near_lo < near_hi:
                out[:, :near_lo] = 0.0
                out[:, near_hi:] = 0.0
                np.multiply(rows[:, near_lo - k : near_hi - k], 1.0 - f, out=out[:, near_lo:near_hi])
            else:
                out[...] = 0.0
            far_lo, far_hi = max(lo, k + 1), min(hi, k + n + 1)
            if far_lo < far_hi:
                far = scratch[: g1 - g0, : far_hi - far_lo]
                np.multiply(rows[:, far_lo - k - 1 : far_hi - k - 1], f, out=far)
                out[:, far_lo:far_hi] += far

    return shift_rows, step


def _first_sample(x: np.ndarray, shifts: np.ndarray, exact: np.ndarray, test) -> np.ndarray:
    """Per shift, the first i in [0, n] with ``test(x[i] - shift)``, which holds from there on.

    ``exact`` is that index in exact arithmetic; rounding of ``x[i] - shift``
    moves it by at most one sample either way.
    """
    n = len(x)
    i = np.clip(exact, 0, n).astype(np.int64)
    i -= (i > 0) & test(x[np.maximum(i - 1, 0)] - shifts)
    i += (i < n) & ~test(x[np.minimum(i, n - 1)] - shifts)
    return i


def _bandlimited_rows(n_x: int, bins: np.ndarray):
    """Row shifter of the exact Fourier shift by ``bins`` samples, and its block size.

    Rows are zero-padded by a guard beyond the largest shift, so content
    pushed past the window is dropped rather than wrapped.  The padded rows,
    their spectra, the phase ramps and the shifted rows live in buffers
    made once per shear; every block is transformed into them through
    ``out=``.
    """
    guard = int(np.ceil(np.abs(bins).max())) + 4
    padded_len = _next_fast_len(n_x + 2 * guard)
    ramp = -2j * np.pi * rfftfreq(padded_len)[np.newaxis, :]
    step = _block_rows(padded_len)
    rows = min(step, len(bins))
    padded = np.zeros((rows, padded_len))
    spectra = np.empty((rows, ramp.shape[1]), complex)
    phases = np.empty_like(spectra)
    shifted = np.empty_like(padded)

    def shift_rows(cols: slice, src: np.ndarray, dst: np.ndarray) -> None:
        pad, spec, phase, out = (buf[: len(src)] for buf in (padded, spectra, phases, shifted))
        pad[:, guard : guard + n_x] = src
        rfft(pad, axis=1, out=spec)
        np.multiply(ramp, bins[cols, np.newaxis], out=phase)
        spec *= np.exp(phase, out=phase)
        irfft(spec, padded_len, axis=1, out=out)
        dst[...] = out[:, guard : guard + n_x]

    return shift_rows, step
