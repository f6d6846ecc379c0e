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

The x-shear can write into its own input (``shear_propagate``'s ``out``):
a trace shears the radiance it holds in place, so free space costs no
second radiance.  A radiance a trace hands to its observer is therefore
valid only until the next stage runs; copy it to keep it.

The intensity after a last hop needs no sheared radiance: it is the
projection along the sheared lines, I(x) = sum_theta L(x - z theta, theta)
dtheta (``sheared_projection``).  A band of angle columns with the same
taps (``_taps``) is one small matrix product, and the hop's loss is what
the taps carry past the window's edges.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    AugmentedLightField,
    InvalidConfigurationError,
    TruncationWarning,
    _block_rows,
    _freeze,
    _over_rows,
)

_TAPS = 8  # Lanczos-4: sinc(x) sinc(x / 4) on |x| < 4
_HALF = _TAPS // 2
_MARGIN = _TAPS - 1  # zeros on either side of a row that ``_shift_rows`` reads


def _bins(alf: AugmentedLightField, distance: float) -> np.ndarray:
    """Samples each angle column moves over ``distance``; warns when the steepest rays leave the window."""
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
            stacklevel=3,
        )
    return shifts / grid.dx


def shear_propagate(
    alf: AugmentedLightField, distance: float, out: Optional[np.ndarray] = None
) -> tuple[AugmentedLightField, float]:
    """Slide each angle row by ``distance * theta`` along position.

    Returns the propagated field together with the truncation loss: the
    share of (absolute) radiance content pushed past the position window,
    which is dropped rather than wrapped.  Each row moves by
    ``distance * theta / dx`` samples through ``_shift_rows``, so a zero
    distance returns an exact copy.

    Without ``out`` the result is a new array and ``alf`` is left as it
    was.  ``out`` is a writable, C-ordered float64 array of the radiance's
    shape, which may be ``alf.radiance`` itself made writable: the result
    is written there, bit for bit as without it, and is then frozen into
    the returned field.
    """
    if out is not None and not (
        out.shape == alf.radiance.shape
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise InvalidConfigurationError(
            "out must be a writable C-ordered float64 array of the radiance's shape"
        )
    bins = _bins(alf, distance)
    out, in_sums, out_sums = _sheared_columns(alf.radiance, bins, out)
    loss = _loss(in_sums, in_sums - out_sums)
    return AugmentedLightField(alf.grid, _freeze(out), {**alf.meta, "truncation_loss": loss}), loss


def _loss(in_sums: np.ndarray, dropped: np.ndarray) -> float:
    """Share of the columns' absolute content that the hop drops, 0 for a dark radiance."""
    denom = float(np.abs(in_sums).sum())
    return float(np.abs(dropped).sum()) / denom if denom > 0.0 else 0.0


def sheared_projection(alf: AugmentedLightField, distance: float) -> tuple[np.ndarray, float]:
    """The intensity after a hop by ``distance`` and the hop's truncation loss, with no sheared radiance.

    I(x_i) = dtheta sum_j sum_q tap_q(j) L(x_{i - k_j - 4 + q}, theta_j) is
    ``project_intensity(shear_propagate(alf, distance)[0])`` summed in
    another order, so the two agree to rounding, and the loss is
    ``shear_propagate``'s.  The values come back as a new writable array;
    the caller checks them against the negativity floor
    (``core._intensity_profile``).  It draws ``shear_propagate``'s
    ``TruncationWarning``.

    The angle columns go in bands of C, about ``_TAPS`` over the shift per
    column (at most a block of columns, ``core._block_rows``).  A band's
    taps sit at its columns' whole shifts in a C x M matrix P, one column
    of P per offset o from the band's lowest, M about C times the shift
    per column plus 8; ``P.T @ L[:, band].T`` gives each source row's
    contribution at each offset, and a skewed sum (rows of an (M, W)
    buffer read at a row stride of W - 1) adds row m at offset m.  What a
    column loses is its content weighted by the share of its taps that
    lands past either edge, summed over the band's edge strips.  The work
    runs in the calling thread.
    """
    bins = _bins(alf, distance)
    radiance = alf.radiance
    n_x, n_theta = radiance.shape
    shifts, _, taps = _taps(bins, n_x)
    # share of a column's taps at or past tap q (carried below row 0 from
    # where q is first past it), and before tap q (carried past row n_x)
    tail = np.zeros((n_theta, _TAPS + 1))
    tail[:, :_TAPS] = np.cumsum(taps[:, ::-1], axis=1)[:, ::-1]
    head = np.zeros((n_theta, _TAPS + 1))
    head[:, 1:] = np.cumsum(taps, axis=1)
    width = min(n_theta, _block_rows(8 * n_x))
    step = float(abs(bins[1] - bins[0]))  # samples a column moves more than the last
    if step * width > _TAPS:
        width = max(1, int(_TAPS / step))
    values = np.zeros(n_x)
    dropped = np.zeros(n_theta)
    buf = np.empty(0)
    for start in range(0, n_theta, width):
        cols = slice(start, min(start + width, n_theta))
        k, band = shifts[cols], radiance[:, cols]
        k_lo, k_hi = int(k.min()), int(k.max())
        # what each column drops past either edge: the outer rows, which
        # every column of the band drops whole, then the rows some of whose
        # taps cross the edge, by the share of the taps that do
        whole = min(n_x, max(0, -k_hi - _HALF))
        part = min(n_x, max(whole, _HALF - 1 - k_lo))
        dropped[cols] += np.einsum("ic->c", band[:whole]) * tail[cols, 0]
        dropped[cols] += _edge_sums(band[whole:part], tail[cols], k + (whole + _HALF + 1))
        whole = min(n_x, max(0, n_x - k_lo + _HALF - 1))
        part = min(whole, max(0, n_x - k_hi - _HALF))
        dropped[cols] += np.einsum("ic->c", band[whole:]) * head[cols, _TAPS]
        dropped[cols] += _edge_sums(band[part:whole], head[cols], k + (part + _HALF + 1 - n_x))
        # tap q of column c moves row i to i + o, o = k_c + 4 - q; only
        # offsets with an overlap of source and window rows are kept
        o_lo = max(k_lo - _HALF + 1, 1 - n_x)
        o_hi = min(k_hi + _HALF, n_x - 1)
        if o_lo > o_hi:
            continue
        m = o_hi - o_lo + 1
        span = k_hi - k_lo + _TAPS
        p = np.zeros((len(k), span))
        p[np.arange(len(k))[:, np.newaxis], (k - k_lo)[:, np.newaxis] + np.arange(_TAPS)] = taps[cols, ::-1]
        p = p[:, o_lo - (k_lo - _HALF + 1) :][:, :m]
        src_lo, src_hi = max(0, -o_hi), min(n_x, n_x - o_lo)
        w = src_hi - src_lo + m
        if buf.size < m * w:
            buf = np.empty(m * w)
        rows_at = buf[: m * w].reshape(m, w)
        np.matmul(p.T, band[src_lo:src_hi].T, out=rows_at[:, : w - m])
        rows_at[:, w - m :] = 0.0
        # row m of the (m, w - 1) view is row m of rows_at moved m along
        skewed = buf[: m * (w - 1)].reshape(m, w - 1).sum(axis=0)
        first = src_lo + o_lo  # where skewed[0] lands
        lo, hi = max(first, 0), min(first + w - 1, n_x)
        values[lo:hi] += skewed[lo - first : hi - first]
    values *= alf.grid.dtheta
    return values, _loss(radiance.sum(axis=0), dropped)


def _sheared_columns(radiance: np.ndarray, bins: np.ndarray, out: Optional[np.ndarray] = None):
    """Shift angle column j of ``radiance`` by ``bins[j]`` samples, a block of columns at a time.

    Each worker (``core._over_rows``) takes blocks of columns sized by
    ``core._block_rows``, copied transposed between the zero margins of a
    row-major buffer, shifts them into a second buffer and writes that
    straight into the C-ordered ``(x, theta)`` result, so the working
    memory does not grow with the grid.  The result is ``out``, a new
    array when it is None; ``out`` may be ``radiance`` itself, since a
    block's columns are copied out before the same columns are written
    back, and no worker touches another's columns.  Returns the result
    and the position sums of every angle row before and after the shift;
    none depends on the block size, the worker count or whether the
    shear runs in place.
    """
    n_x, n_theta = radiance.shape
    if out is None:
        out = np.empty_like(radiance)
    in_sums = np.empty(n_theta)
    out_sums = np.empty(n_theta)

    def shear(lo: int, hi: int, workers: int) -> None:
        width = _block_rows(8 * n_x, workers)
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


def _edge_sums(rows: np.ndarray, shares: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sum over ``rows`` of row i of column c times ``shares[c, first[c] + i]``, the index clipped to the taps."""
    index = np.arange(len(rows))[:, np.newaxis] + first
    np.minimum(np.maximum(index, 0, out=index), _TAPS, out=index)
    return np.einsum("ic,ic->c", rows, shares[np.arange(len(first)), index])


def _taps(bins: np.ndarray, n: int, weights=1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tap rule of moves by ``bins`` samples along rows of ``n``: whole shifts, which moves are whole, and taps.

    A move by b = k + f, k = floor(b), puts sample i of a row at i + k + 4 - q
    with weight tap_q, q = 0..7: the Lanczos-4 kernel sinc(x) sinc(x / 4) at
    x = 4 - f - q, scaled to sum to the row's weight.  A whole move (f = 0)
    has the one tap q = 4, the weight.  Past n + ``_TAPS`` samples a row is
    dropped whole, so a move is clipped there, which keeps k an int64 and
    the taps finite.
    """
    bins = np.clip(bins, -n - _TAPS, n + _TAPS)
    whole = np.floor(bins)
    frac = bins - whole
    x = (_HALF - frac)[:, np.newaxis] - np.arange(_TAPS)
    taps = np.sinc(x) * np.sinc(x / _HALF)
    weights = np.broadcast_to(weights, bins.shape)
    taps *= (weights / taps.sum(axis=1))[:, np.newaxis]
    exact = frac == 0.0
    taps[exact] = 0.0
    taps[exact, _HALF] = weights[exact]
    return whole.astype(np.int64), exact, taps


def _shift_rows(padded: np.ndarray, bins: np.ndarray, out: np.ndarray, weights=1.0) -> None:
    """Write row r of ``padded``, moved by ``bins[r]`` samples and scaled by ``weights[r]``, into ``out[r]``.

    ``padded`` holds rows of ``out``'s length n between ``_MARGIN`` zeros
    on either side (``_padded_rows``); the move follows ``_taps``, and
    what lands off the row is dropped.  A whole move (f = 0) is the slice
    copy times the weight, bit for bit.  Consecutive rows that share k and
    whether f is 0 run together: a whole move as one 2-D slice product, a
    fractional one as one ``einsum`` over the rows' sliding windows of 8
    samples, straight into ``out``.
    """
    n = out.shape[1]
    shifts, exact, taps = _taps(bins, n, weights)
    weights = np.broadcast_to(weights, bins.shape)
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
