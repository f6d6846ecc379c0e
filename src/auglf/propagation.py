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
dtheta, summed a chunk of position rows at a time (``ShearedProjection``).
The rows may come from a radiance a trace holds (``sheared_projection``)
or straight from a fold that writes them and keeps none
(``wdf.wigner_table``'s ``into``).  A band of angle columns with the same
taps (``_taps``) is one small matrix product, and the hop's loss is what
the taps carry past the window's edges.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .core import (
    AugmentedLightField,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    TruncationWarning,
    _block_rows,
    _freeze,
    _over_rows,
)

_TAPS = 8  # Lanczos-4: sinc(x) sinc(x / 4) on |x| < 4
_HALF = _TAPS // 2
_MARGIN = _TAPS - 1  # zeros on either side of a row that ``_shift_rows`` reads


def _bins(grid: PhaseSpaceGrid, distance: float) -> np.ndarray:
    """Samples each angle column moves over a finite ``distance``."""
    if not np.isfinite(distance):
        raise InvalidConfigurationError(f"propagation distance must be finite, got {distance!r}")
    return distance * grid.theta_axis() / grid.dx


def _warn_reach(grid: PhaseSpaceGrid, distance: float, stacklevel: int) -> None:
    """Warn when a hop by ``distance`` moves the steepest rays past the window."""
    max_shift = abs(distance) * 0.5 * grid.theta_extent
    if max_shift > grid.x_extent:
        warnings.warn(
            f"shear of {distance:g} m moves the steepest rays "
            f"{max_shift:g} m, beyond the {grid.x_extent:g} m window; "
            "most of their content will be truncated",
            TruncationWarning,
            stacklevel=stacklevel + 1,
        )


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
    bins = _bins(alf.grid, distance)
    _warn_reach(alf.grid, distance, 2)
    out, in_sums, out_sums = _sheared_columns(alf.radiance, bins, out)
    loss = _loss(in_sums, in_sums - out_sums)
    return AugmentedLightField(alf.grid, _freeze(out), {**alf.meta, "truncation_loss": loss}), loss


def _loss(in_sums: np.ndarray, dropped: np.ndarray) -> float:
    """Share of the columns' absolute content that the hop drops, 0 for a dark radiance."""
    denom = float(np.abs(in_sums).sum())
    return float(np.abs(dropped).sum()) / denom if denom > 0.0 else 0.0


class ShearedProjection:
    """The intensity after a hop by ``distance`` and the hop's loss, summed a chunk of source rows at a time.

    I(x_i) = dtheta sum_j sum_q tap_q(j) L(x_{i - k_j - 4 + q}, theta_j) is
    ``project_intensity(shear_propagate(alf, distance)[0])`` summed in
    another order, so the two agree to rounding, and the loss is
    ``shear_propagate``'s.  It is linear in the radiance's position rows,
    so the rows can come a chunk at a time from whoever makes them: a
    radiance a trace holds (``sheared_projection``), or a fold that writes
    them and never keeps them (``wdf.wigner_table``'s ``into``).

    The rows come through ``add(first_row, rows)`` from one thread, in
    row order and in chunks of ``chunk_rows`` (the last one shorter), a
    number that follows from the block budget (``core._block_rows``), not
    from a worker count.  Each chunk's intensity, column sums and dropped
    content are added to the totals as it comes, in chunk order, so the
    bits depend neither on how many threads wrote the rows nor on the
    BLAS thread count.  Once every row is in, ``result()`` gives the
    intensity, as a new writable array the caller checks against the
    negativity floor (``core._intensity_profile``), and the loss, and
    draws ``shear_propagate``'s ``TruncationWarning``.

    The set-up is done once.  The angle columns go in bands of C, about
    ``_TAPS`` over the shift per column.  Band b's taps sit at its columns'
    whole shifts in an M x C matrix, one row per offset from the band's
    lowest, M about C times the shift per column plus 8, every band
    padded to one M and one C.  A chunk's bands are one batched ``matmul``
    of those matrices by the chunk's band columns, which gives each source
    row's contribution at each offset; one strided sum over a zero-padded
    buffer (the (M, W) rows of a band read at a row stride of W - 1) adds
    row m at offset m; and one ``bincount`` adds every band at its own
    offset.  What a column loses is its content weighted by the share of
    its taps that lands past either edge, from the chunks near the edges.
    """

    def __init__(self, grid: PhaseSpaceGrid, distance: float):
        self.grid, self.distance = grid, distance
        n_x, n_theta = grid.x_samples, grid.theta_samples
        bins = _bins(grid, distance)
        k, _, taps = _taps(bins, n_x)
        # share of a column's taps at or past tap q (carried below row 0 from
        # where q is first past it), and before tap q (carried past row n_x)
        self._tail = np.zeros((n_theta, _TAPS + 1))
        self._tail[:, :_TAPS] = np.cumsum(taps[:, ::-1], axis=1)[:, ::-1]
        self._head = np.zeros((n_theta, _TAPS + 1))
        self._head[:, 1:] = np.cumsum(taps, axis=1)
        self._k = k
        # rows whose taps can cross an edge: below row 0 before the first,
        # past the last from the second
        self._low_rows = int(np.max(_HALF - 1 - k, initial=0))
        self._high_rows = int(np.min(n_x - _HALF - k))
        step = float(abs(bins[1] - bins[0]))  # samples a column moves more than the last
        width = n_theta if step * n_theta <= _TAPS else max(1, int(_TAPS / step))
        bands = -(-n_theta // width)
        cols = np.arange(bands * width).reshape(bands, width)
        k_band = k[np.minimum(cols, n_theta - 1)]  # the padding takes the last column's shift
        k_lo, k_hi = k_band.min(axis=1), k_band.max(axis=1)
        self.width, self.span = width, int((k_hi - k_lo).max()) + _TAPS
        self._o_lo = k_lo - _HALF + 1  # the offset of each band's first matrix row
        # tap q of column c moves row i to i + o, o = k_c + 4 - q
        offsets = (k_band - k_lo[:, np.newaxis])[..., np.newaxis] + np.arange(_TAPS)[::-1]
        padded = np.zeros((bands, width, _TAPS))
        padded.reshape(-1, _TAPS)[:n_theta] = taps
        self._p = np.zeros((bands, self.span, width))
        np.put_along_axis(self._p.transpose(0, 2, 1), offsets, padded, axis=2)
        # a chunk's buffers: its rows, and its bands' products with their padding
        self.chunk_rows = _block_rows(8 * (n_theta + bands * self.span))
        self._values = np.zeros(n_x)
        self._sums = np.zeros(n_theta)
        self._dropped = np.zeros(n_theta)
        self._next = 0  # the first row of the next chunk

    def add(self, first_row: int, rows: np.ndarray) -> None:
        """Add the chunk of ``rows`` from ``first_row``, the row after the last chunk's."""
        n_x, count = self.grid.x_samples, len(rows)
        if first_row != self._next or count != min(self.chunk_rows, n_x - first_row):
            raise InvalidConfigurationError(
                f"rows {first_row}..{first_row + count} are not the projection's next chunk"
            )
        self._next += count
        sums = rows.sum(axis=0)
        self._sums += sums
        if not (self._low_rows <= first_row and first_row + count <= self._high_rows):
            self._dropped += self._edge_drops(first_row, rows, sums)
        # bands with an offset that brings one of the chunk's rows into the window
        live = np.flatnonzero((first_row + self._o_lo < n_x) & (first_row + count + self._o_lo + self.span > 1))
        if live.size:
            lo, hi = int(live[0]), int(live[-1]) + 1
            skewed = self._project(rows, lo, hi)
            at = (first_row + 1 + self._o_lo[lo:hi])[:, np.newaxis] + np.arange(skewed.shape[1])
            np.clip(at, 0, n_x + 1, out=at)  # 0 and n_x + 1 gather what lands off the window
            self._values += np.bincount(at.ravel(), skewed.ravel(), minlength=n_x + 2)[1:-1]

    def _project(self, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Bands lo..hi of the chunk of ``rows``, each summed at its offsets from the band's first."""
        n_theta, count, width, span = self.grid.theta_samples, len(rows), self.width, self.span
        whole = min(hi, n_theta // width)  # bands of ``width`` columns
        w = count + span
        buf = np.empty((hi - lo, span, w))
        if whole > lo:
            band_cols = rows[:, lo * width : whole * width].reshape(count, whole - lo, width)
            np.matmul(self._p[lo:whole], band_cols.transpose(1, 2, 0), out=buf[: whole - lo, :, :count])
        if hi > whole:  # the narrower last band
            last = rows[:, whole * width :]
            np.matmul(self._p[whole, :, : last.shape[1]], last.T, out=buf[-1, :, :count])
        buf[:, :, count:] = 0.0
        # row m of a band's (span, w - 1) view is its row m of buf moved m along
        return np.einsum("bmj->bj", as_strided(buf, (hi - lo, span, w - 1), (buf.strides[0], 8 * (w - 1), 8)))

    def _edge_drops(self, first_row: int, rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Each column's content in the chunk times the share of its taps that crosses an edge.

        Row first_row + i of column c crosses row 0 by tail[c, low_c + i]
        (from 8 on, none) and the last row by head[c, low_c + i - n_x] (up
        to 0, none).  A column all of whose chunk rows take tail[c, 0] or
        head[c, 8] drops their sum (``sums``) times that.
        """
        count = len(rows)
        low = first_row + self._k + (_HALF + 1)
        high = low - self.grid.x_samples
        dropped = sums * (self._tail[:, 0] * (low + count <= 1) + self._head[:, _TAPS] * (high >= _TAPS))
        for first, shares in ((low, self._tail), (high, self._head)):
            cols = np.flatnonzero((first < _TAPS) & (first + count > 1))
            if cols.size:
                index = np.clip(np.arange(count)[:, np.newaxis] + first[cols], 0, _TAPS)
                dropped[cols] += np.einsum("ic,ic->c", rows[:, cols], shares[cols, index])
        return dropped

    def result(self) -> tuple[np.ndarray, float]:
        """The intensity and the hop's loss, once every chunk is in."""
        if self._next != self.grid.x_samples:
            raise InvalidConfigurationError("the projection is missing rows")
        _warn_reach(self.grid, self.distance, 2)
        return self._values * self.grid.dtheta, _loss(self._sums, self._dropped)


def sheared_projection(alf: AugmentedLightField, distance: float) -> tuple[np.ndarray, float]:
    """The intensity after a hop by ``distance`` and the hop's loss, from a radiance held whole.

    Its rows go to a ``ShearedProjection`` a chunk at a time, in the
    calling thread.
    """
    projection = ShearedProjection(alf.grid, distance)
    for lo in range(0, alf.grid.x_samples, projection.chunk_rows):
        projection.add(lo, alf.radiance[lo : lo + projection.chunk_rows])
    return projection.result()


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
