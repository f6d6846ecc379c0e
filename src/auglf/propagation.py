"""Phase-space shears: free-space transport, and the row shifter of both shears.

Under first-order optics the radiance only moves through phase space
(Bastiaans, JOSA 69, 1710, 1979).  Paraxial propagation slides each angle
row in position by ``z * theta`` (a shear along x, ``shear_propagate``);
a lens or a prism slides each position row in angle (a shear along theta,
the delta lines of ``transformers.LightFieldTransformer``).  Both move
rows by a fractional number of samples with one shifter, ``_shift_rows``:
an 8-tap Lanczos-4 windowed sinc whose weights sum to 1.  A whole-sample
move is a plain slice copy, and content pushed past the window is
dropped, never wrapped.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    _BLOCK_BYTES,
    AugmentedLightField,
    InvalidConfigurationError,
    TruncationWarning,
    _freeze,
    _over_rows,
)

_TAPS = 8  # Lanczos-4: sinc(x) sinc(x / 4) on |x| < 4
_HALF = _TAPS // 2
_MARGIN = _TAPS - 1  # zeros on either side of a row that ``_shift_rows`` reads


def shear_propagate(alf: AugmentedLightField, distance: float) -> tuple[AugmentedLightField, float]:
    """Slide each angle row by ``distance * theta`` along position.

    Returns the propagated field together with the truncation loss: the
    share of (absolute) radiance content pushed past the position window,
    which is dropped rather than wrapped.  Each row moves by
    ``distance * theta / dx`` samples through ``_shift_rows``, so a zero
    distance returns an exact copy.
    """
    if not np.isfinite(distance):
        raise InvalidConfigurationError(f"propagation distance must be finite, got {distance!r}")
    grid = alf.grid
    shifts = distance * grid.theta_axis()
    max_shift = float(np.abs(shifts).max())
    if max_shift > grid.x_extent:
        warnings.warn(
            f"shear of {distance:g} m moves the steepest rays "
            f"{max_shift:g} m, beyond the {grid.x_extent:g} m window; "
            "most of their content will be truncated",
            TruncationWarning,
            stacklevel=2,
        )
    out, in_sums, out_sums = _sheared_columns(alf.radiance, shifts / grid.dx)
    denom = float(np.abs(in_sums).sum())
    loss = float(np.abs(in_sums - out_sums).sum()) / denom if denom > 0.0 else 0.0
    return AugmentedLightField(grid, _freeze(out), {**alf.meta, "truncation_loss": loss}), loss


def _sheared_columns(radiance: np.ndarray, bins: np.ndarray):
    """Shift angle column j of ``radiance`` by ``bins[j]`` samples, a block of columns at a time.

    Each worker (``core._over_rows``) takes blocks of a ``workers``-th of
    ``_BLOCK_BYTES`` of columns, copied transposed between the zero
    margins of a row-major buffer, shifts them into a second buffer and
    writes that straight into the C-ordered ``(x, theta)`` result, so the
    working memory does not grow with the grid.  Returns the result and
    the position sums of every angle row before and after the shift;
    neither depends on the block size or the worker count.
    """
    n_x, n_theta = radiance.shape
    out = np.empty_like(radiance)
    in_sums = np.empty(n_theta)
    out_sums = np.empty(n_theta)

    def shear(lo: int, hi: int, workers: int) -> None:
        width = max(1, _BLOCK_BYTES // workers // (8 * n_x))
        padded_buf = _padded_rows(min(width, hi - lo), n_x)
        dst_buf = np.empty((len(padded_buf), n_x))
        for start in range(lo, hi, width):
            cols = slice(start, min(start + width, hi))
            block = radiance[:, cols]
            padded = padded_buf[: block.shape[1]]
            dst = dst_buf[: block.shape[1]]
            padded[:, _MARGIN:-_MARGIN] = block.T
            in_sums[cols] = padded[:, _MARGIN:-_MARGIN].sum(axis=1)
            _shift_rows(padded, bins[cols], dst)
            out_sums[cols] = dst.sum(axis=1)
            out[:, cols] = dst.T

    _over_rows(n_theta, shear)
    return out, in_sums, out_sums


def _padded_rows(rows: int, n: int) -> np.ndarray:
    """Zeroed buffer for ``rows`` rows of ``n`` samples between the margins ``_shift_rows`` reads."""
    return np.zeros((rows, n + 2 * _MARGIN))


def _shift_rows(padded: np.ndarray, bins: np.ndarray, out: np.ndarray, weights=1.0) -> None:
    """Write row r of ``padded``, moved by ``bins[r]`` samples and scaled by ``weights[r]``, into ``out[r]``.

    ``padded`` holds rows of ``out``'s length n between ``_MARGIN`` zeros
    on either side (``_padded_rows``).  A move by b = k + f, k = floor(b),
    puts sample i of a row at i + k + 4 - q with weight tap_q, q = 0..7:
    the Lanczos-4 kernel sinc(x) sinc(x / 4) at x = 4 - f - q, scaled to
    sum to 1.  What lands off the row is dropped.  A whole move (f = 0) is
    the slice copy times the weight, bit for bit.  Consecutive rows that
    share k and whether f is 0 run together: a whole move as one 2-D slice
    product, a fractional one as one ``einsum`` over the rows' sliding
    windows of 8 samples, straight into ``out``.
    """
    n = out.shape[1]
    whole = np.floor(bins)
    frac = bins - whole
    x = (_HALF - frac)[:, np.newaxis] - np.arange(_TAPS)
    taps = np.sinc(x) * np.sinc(x / _HALF)
    weights = np.broadcast_to(weights, bins.shape)
    taps *= (weights / taps.sum(axis=1))[:, np.newaxis]
    # past n + _TAPS samples every row is dropped whole; clipping keeps k an int64
    shifts = np.clip(whole, -n - _TAPS, n + _TAPS).astype(np.int64)
    exact = frac == 0.0
    cuts = (np.flatnonzero((shifts[1:] != shifts[:-1]) | (exact[1:] != exact[:-1])) + 1).tolist()
    windows = sliding_window_view(padded, _TAPS, axis=1)
    for a, b, k, whole_move in zip([0] + cuts, cuts + [len(bins)], shifts[[0] + cuts].tolist(), exact[[0] + cuts].tolist()):
        if whole_move:
            lo, hi = max(0, k), min(n, n + k)
        else:
            lo, hi = max(0, k - _HALF + 1), min(n, n + k + _HALF)
        if lo >= hi:
            out[a:b] = 0.0
            continue
        if whole_move:
            src = padded[a:b, lo - k + _MARGIN : hi - k + _MARGIN]
            np.multiply(src, weights[a:b, np.newaxis], out=out[a:b, lo:hi])
        else:
            src = windows[a:b, lo - k + _HALF - 1 : hi - k + _HALF - 1]
            np.einsum("rjq,rq->rj", src, taps[a:b], out=out[a:b, lo:hi])
        out[a:b, :lo] = 0.0
        out[a:b, hi:] = 0.0
