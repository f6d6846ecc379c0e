"""Phase-space grids and container types.

A simulation lives on a shared rectangular grid over position x (meters)
and ray angle theta (radians).  Both axes use the half-open symmetric
convention x[i] = -extent/2 + i*step with step = extent/samples, so an
even sample count puts 0 exactly on a node and step * samples == extent
holds without rounding games.  Angle and spatial frequency are related
exactly by u = theta / wavelength.

Radiance arrays are signed float64: interference terms of the Wigner
representation are negative-valued by nature and must not be clipped.
All containers are frozen and their arrays are marked read-only; ops
return new objects instead of mutating.

A container copies every array it is given unless that array is already
frozen: C-contiguous, of the container's dtype, owner of its data and
read-only.  Such an array is taken as is.  Library functions mark the
arrays they have just allocated read-only (``_freeze``) before wrapping
them, so a result is never copied; a writable array from a caller is
always copied, so mutating it later leaves the container unchanged.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhaseSpaceGrid",
    "ComplexField",
    "AugmentedLightField",
    "IntensityProfile",
    "make_grid",
    "project_intensity",
    "InvalidConfigurationError",
    "DegenerateInputError",
    "ScenarioAbortError",
    "RealnessError",
    "ParaxialGuardWarning",
    "BandwidthWarning",
    "ClippedOrderWarning",
    "SamplingWarning",
    "NegativeIntensityWarning",
]

# Half-angle above which small-angle replacements (sin t ~ t, cos t ~ 1)
# start to accumulate percent-level error.
PARAXIAL_HALF_ANGLE = 0.15


class InvalidConfigurationError(ValueError):
    """Grid, element, or option values that cannot describe a simulation."""


class DegenerateInputError(ValueError):
    """Structurally valid input that is numerically meaningless (NaN, empty, zero-size)."""


class ScenarioAbortError(RuntimeError):
    """A train stage destroyed too much of the signal to continue."""

    def __init__(self, stage_index: int, message: str):
        super().__init__(f"stage {stage_index}: {message}")
        self.stage_index = stage_index


class RealnessError(ArithmeticError):
    """A quantity that must be real carried a non-negligible imaginary part."""


class ParaxialGuardWarning(UserWarning):
    """Angle window exceeds the small-angle regime."""


class BandwidthWarning(UserWarning):
    """Field content approaches or exceeds the representable angular band."""


class ClippedOrderWarning(UserWarning):
    """Diffraction orders fell outside the kernel's angle axis and were dropped."""


class SamplingWarning(UserWarning):
    """A numerical kernel is undersampled for the requested propagation."""


class NegativeIntensityWarning(UserWarning):
    """Projected intensity dipped below the configured negativity floor."""


class TruncationWarning(UserWarning):
    """A transport step pushed a significant share of the signal out of the window."""


@dataclass(frozen=True, slots=True)
class PhaseSpaceGrid:
    """Shared (x, theta) sampling lattice.

    Attributes
    ----------
    x_samples, theta_samples : int
        Sample counts along each axis (>= 2).
    x_extent : float
        Full spatial window in meters.
    theta_extent : float
        Full angular window in radians.
    wavelength : float
        Vacuum wavelength in meters.
    """

    x_samples: int
    x_extent: float
    theta_samples: int
    theta_extent: float
    wavelength: float

    @property
    def dx(self) -> float:
        return self.x_extent / self.x_samples

    @property
    def dtheta(self) -> float:
        return self.theta_extent / self.theta_samples

    def x_axis(self) -> np.ndarray:
        return -0.5 * self.x_extent + self.dx * np.arange(self.x_samples)

    def theta_axis(self) -> np.ndarray:
        return -0.5 * self.theta_extent + self.dtheta * np.arange(self.theta_samples)

    def u_axis(self) -> np.ndarray:
        return self.theta_axis() / self.wavelength

    def x_index(self, x: float) -> int:
        """Nearest-node index for a position (``_nearest_node``); clipped to the window."""
        return _nearest_node((x + 0.5 * self.x_extent) / self.dx, self.x_samples)

    def checked_x_index(self, x: float, what: str) -> int:
        """``x_index`` of a position that must lie in [-x_extent/2, x_extent/2)."""
        if not (-0.5 * self.x_extent <= x < 0.5 * self.x_extent):
            raise InvalidConfigurationError(f"{what} at {x:g} m lies outside the window")
        return self.x_index(x)

    def theta_index(self, theta: float) -> int:
        """Nearest-node index for an angle (``_nearest_node``); clipped to the window."""
        return _nearest_node((theta + 0.5 * self.theta_extent) / self.dtheta, self.theta_samples)


def _nearest_node(steps: float, count: int) -> int:
    """Node nearest ``steps`` spacings past the first, clipped to ``[0, count)``.

    Halfway between two nodes (to 1e-9 of a spacing) it takes the lower
    one, so unlike rounding half to even the rule does not depend on how
    the step count was reached: ``PhaseSpaceGrid.x_index`` counts from
    -x_extent/2 and a pinhole's transmittance from the first node of its
    axis, and both pick one node.  ``PhaseSpaceGrid.theta_index`` takes a
    plane wave's node by the same rule, in both pipelines.
    """
    return min(max(math.ceil(steps - 0.5 - 1e-9), 0), count - 1)


def make_grid(
    x_samples: int,
    x_extent: float,
    theta_samples: int,
    theta_extent: float,
    wavelength: float,
) -> PhaseSpaceGrid:
    """Validate and build a phase-space grid.

    Raises InvalidConfigurationError for non-positive extents, sample
    counts below 2, or a non-positive wavelength.  A half-angle window
    beyond ``PARAXIAL_HALF_ANGLE`` is legal but draws a ParaxialGuardWarning,
    since every operator here is paraxial.
    """
    if int(x_samples) != x_samples or int(theta_samples) != theta_samples:
        raise InvalidConfigurationError("sample counts must be integers")
    x_samples, theta_samples = int(x_samples), int(theta_samples)
    if x_samples < 2 or theta_samples < 2:
        raise InvalidConfigurationError(
            f"need at least 2 samples per axis, got {x_samples} x {theta_samples}"
        )
    if not (x_extent > 0 and theta_extent > 0):
        raise InvalidConfigurationError(
            f"extents must be positive, got x_extent={x_extent!r}, theta_extent={theta_extent!r}"
        )
    if not wavelength > 0:
        raise InvalidConfigurationError(f"wavelength must be positive, got {wavelength!r}")
    if theta_extent / 2 > PARAXIAL_HALF_ANGLE:
        warnings.warn(
            f"half-angle window {theta_extent / 2:.3g} rad exceeds the paraxial guard "
            f"{PARAXIAL_HALF_ANGLE:.3g} rad; small-angle formulas degrade out here",
            ParaxialGuardWarning,
            stacklevel=2,
        )
    return PhaseSpaceGrid(x_samples, float(x_extent), theta_samples, float(theta_extent), float(wavelength))


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly allocated array read-only, so a container takes it as is."""
    arr.setflags(write=False)
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every sample is finite, without a mask the size of ``arr``.

    The min and max of an array are finite exactly when every sample is:
    a NaN propagates through both, and an infinity is one of them.  A
    complex array is checked through its real and imaginary views.
    """
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    return all(np.isfinite(part.min()) and np.isfinite(part.max()) for part in parts)


def _frozen_array(values, dtype, shape, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != shape:
        raise InvalidConfigurationError(f"{what}: expected shape {shape}, got {arr.shape}")
    if arr.size == 0:
        raise DegenerateInputError(f"{what}: empty array")
    if not _all_finite(arr):
        raise DegenerateInputError(f"{what}: non-finite samples")
    flags = arr.flags
    if flags.writeable or not (flags.c_contiguous and flags.owndata):
        arr = _freeze(arr.copy())
    return arr


def _next_fast_len(target: int) -> int:
    """Smallest 2-3-5-7-11-smooth integer >= target, a fast transform length.

    This is what ``scipy.fft.next_fast_len`` returns by default.  Every
    product of powers of 3, 5, 7 and 11 below the best length so far is
    raised by the power of two that first reaches the target.
    """
    best = 1 << (target - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    best = min(best, p3 << (-(-target // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


# Bytes of buffers per block of every row-blocked loop (the shear, the
# kernel applies, the Wigner sums); rows per block follow from the row
# length (``_block_rows``).
_BLOCK_BYTES = 1 << 20


def _block_rows(row_bytes: int, workers: int = 1) -> int:
    """Rows per block whose buffers, ``row_bytes`` a row, fill a ``workers``-th of ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // workers // row_bytes)


def _worker_count() -> int:
    """Threads a row loop may use: the CPUs this process is allowed to run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _over_rows(count: int, work) -> None:
    """Run ``work(lo, hi, workers)`` over rows ``[0, count)``, one range per worker.

    The rows are cut into ``workers = min(_worker_count(), count)``
    contiguous ranges.  All but the last run on a thread pool made for
    this call, the last in the calling thread; with one worker there is no
    pool.  ``work`` gets the worker count so that it can size its blocks
    to its share of a memory budget.  Each range must write only its own
    rows, so the result does not depend on the worker count.  An exception
    raised in any range reaches the caller after every range has ended.
    """
    with _row_threads() as over:
        over(count, work)


@contextmanager
def _row_threads():
    """A function ``over(count, work)`` that runs as ``_over_rows`` does, on one pool kept for the block.

    A caller that splits many small pieces of work in turn (the chunks of
    a streamed projection, ``propagation.ShearedProjection``) starts the
    pool's threads once instead of once a piece.  The threads end with
    the block, and an exception leaves it only after every range of the
    ``over`` that raised it has ended.
    """
    cpus = _worker_count()
    if cpus == 1:
        yield lambda count, work: work(0, count, 1)
        return
    with ThreadPoolExecutor(cpus - 1) as pool:

        def over(count: int, work) -> None:
            workers = max(1, min(cpus, count))
            bounds = [count * k // workers for k in range(workers + 1)]
            futures = [pool.submit(work, bounds[k], bounds[k + 1], workers) for k in range(workers - 1)]
            try:
                work(bounds[-2], bounds[-1], workers)
            finally:
                for future in futures:
                    future.exception()  # waits, without raising
            for future in futures:
                future.result()

        yield over


def _leak_meta(grid: PhaseSpaceGrid, leak_rows: np.ndarray, totals: np.ndarray) -> dict:
    """``theta_leak`` and ``theta_leak_fraction`` of rows whose full totals and dropped shares are given.

    The leak is the signed content dropped past the angle window; the
    fraction is the sum of the rows' absolute leaks over that of their
    absolute totals, 0 when every total is 0.
    """
    denom = float(np.abs(totals).sum())
    return {
        "theta_leak": float(leak_rows.sum()) * grid.dtheta * grid.dx,
        "theta_leak_fraction": float(np.abs(leak_rows).sum()) / denom if denom > 0 else 0.0,
    }


@dataclass(frozen=True, slots=True)
class ComplexField:
    """Scalar coherent field g(x) sampled on the grid's x axis."""

    grid: PhaseSpaceGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.samples, np.complex128, (self.grid.x_samples,), "field samples")
        object.__setattr__(self, "samples", arr)

    def total_energy(self) -> float:
        """Sum |g|^2 dx over the window."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dx)


@dataclass(frozen=True, slots=True)
class AugmentedLightField:
    """Signed radiance L(x, theta) on the shared grid.

    Stored with x along axis 0 and theta along axis 1.  Values are a
    phase-space density (per meter per radian) in arbitrary power units;
    only relative comparisons between pipelines are meaningful.  `meta`
    carries bookkeeping attached by operators (truncation losses, scale
    factors); it is never read back by the physics.
    """

    grid: PhaseSpaceGrid
    radiance: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.grid.x_samples, self.grid.theta_samples)
        arr = _frozen_array(self.radiance, np.float64, shape, "radiance")
        object.__setattr__(self, "radiance", arr)

    def total_power(self) -> float:
        return float(np.sum(self.radiance) * self.grid.dx * self.grid.dtheta)


@dataclass(frozen=True, slots=True)
class IntensityProfile:
    """Non-negative-up-to-epsilon observable intensity I(x)."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, np.float64, (self.grid.x_samples,), "intensity")
        object.__setattr__(self, "values", arr)

    def total_power(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)


def project_intensity(alf: AugmentedLightField) -> IntensityProfile:
    """Angular projection I(x) = sum_theta L(x, theta) * dtheta.

    The summation order is fixed (single numpy reduction along the theta
    axis) so repeated projections of the same field are bit-identical.
    Interference terms should cancel in the projection; residuals below
    -1e-2 of the peak (the negativity the shipped scenarios are gated at)
    draw NegativeIntensityWarning rather than an error, because window
    truncation legitimately leaves small signed residue.  A trace reports
    the residue whatever its size, as ``ComparisonReport.negativity``.
    """
    return _intensity_profile(alf.grid, alf.radiance.sum(axis=1) * alf.grid.dtheta)


def _intensity_profile(grid: PhaseSpaceGrid, values: np.ndarray) -> IntensityProfile:
    """The profile of freshly projected ``values``, warned about below the negativity floor.

    The warning points at the caller of the function that calls this one.
    """
    peak = float(np.max(values, initial=0.0))
    floor = 1e-2 * peak
    worst = float(values.min())
    if worst < -floor:
        warnings.warn(
            f"projected intensity reaches {worst:.3e}, below the negativity floor {-floor:.3e}",
            NegativeIntensityWarning,
            stacklevel=3,
        )
    return IntensityProfile(grid, _freeze(values))
