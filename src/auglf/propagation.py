"""Free-space transport of phase-space radiance.

Paraxial propagation acts on radiance as a shear: each angle row slides in
position by ``z * theta`` while the angle coordinate is untouched.  The
far-field limit is available separately as a quarter rotation of the plane
on square grids.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft, rfftfreq

from .core import (
    AugmentedLightField,
    InvalidConfigurationError,
    TruncationWarning,
)
from .transformers import _block_rows

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

    The bandlimited shift runs a block of angle rows at a time (about
    1 MiB of spectra each), so its working memory beyond the input and
    output radiance does not grow with the grid.
    """
    if interp not in _INTERP_MODES:
        raise InvalidConfigurationError(
            f"interp must be one of {_INTERP_MODES}, got {interp!r}"
        )
    grid = alf.grid
    if distance == 0.0:
        return AugmentedLightField(grid, alf.radiance.copy(), dict(alf.meta)), 0.0

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

    rows = np.ascontiguousarray(alf.radiance.T)
    in_sums = rows.sum(axis=1)
    out_rows = np.empty_like(rows)

    if interp == "linear":
        x = grid.x_axis()
        for j in range(rows.shape[0]):
            out_rows[j] = np.interp(x - shifts[j], x, rows[j], left=0.0, right=0.0)
    else:
        bins = shifts / grid.dx
        guard = int(np.ceil(np.abs(bins).max())) + 4
        padded_len = next_fast_len(grid.x_samples + 2 * guard)
        freqs = rfftfreq(padded_len)
        step = _block_rows(padded_len)
        padded = np.zeros((min(step, rows.shape[0]), padded_len))
        for start in range(0, rows.shape[0], step):
            block = slice(start, start + step)
            pad = padded[: len(rows[block])]
            pad[:, guard : guard + grid.x_samples] = rows[block]
            spec = rfft(pad, axis=1)
            phase = -2j * np.pi * freqs[np.newaxis, :] * bins[block, np.newaxis]
            spec *= np.exp(phase, out=phase)
            shifted = irfft(spec, padded_len, axis=1, overwrite_x=True)
            out_rows[block] = shifted[:, guard : guard + grid.x_samples]

    leak = in_sums - out_rows.sum(axis=1)
    denom = float(np.abs(in_sums).sum())
    loss = float(np.abs(leak).sum()) / denom if denom > 0.0 else 0.0

    meta = dict(alf.meta)
    meta["truncation_loss"] = loss
    out = AugmentedLightField(grid, out_rows.T, meta)
    return out, loss


def fraunhofer_rotate(alf: AugmentedLightField) -> AugmentedLightField:
    """Quarter rotation of the phase plane: the far-field limit.

    Position maps to angle and angle to (negated) position, so a pure
    position structure becomes a pure angle structure and vice versa.  The
    grid must be square (equal sample counts on both axes) for the rotation
    to be a bin-exact permutation; the physical scale relating the outgoing
    position axis to the incoming angle axis is recorded in
    ``meta['fraunhofer_scale']`` (metres per radian).

    The half-open axes have no partner for the lowest-index line, so that
    single row of the output is zeroed; interior content is permuted without
    loss.
    """
    grid = alf.grid
    n = grid.x_samples
    if grid.theta_samples != n:
        raise InvalidConfigurationError(
            f"far-field rotation needs a square grid, got {n} position and "
            f"{grid.theta_samples} angle samples; rebuild the grid with "
            "matching counts"
        )
    out = np.zeros_like(alf.radiance)
    # out[i, j] = in[n - j, i] for j >= 1; the j = 0 column has no source bin.
    out[:, 1:] = alf.radiance[n - 1 : 0 : -1, :].T
    meta = dict(alf.meta)
    meta["fraunhofer_scale"] = grid.x_extent / grid.theta_extent
    return AugmentedLightField(grid, out, meta)
