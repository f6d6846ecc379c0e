"""End-to-end optical trains run through both pipelines.

A train is a source followed by a sequence of stages (free-space hops and
thin elements).  It can be traced through the phase-space pipeline (radiance
sheared and pushed through kernels) and, independently, through the scalar
wave pipeline of :mod:`auglf.fresnel`.  The comparison report quantifies how
well the two agree on the observable intensity.

A field source followed at once by a lone element with a numeric kernel is
traced in one step: the Wigner transform of the field times the element's
transmittance is the radiance behind the element, so the source's own
radiance is never made or kept (``trace_train``).  Closed-form first
elements, the other sources, elements after a hop and groups of elements
at one plane take the source radiance and apply each kernel.

The wave pipeline runs on an enlarged internal axis so that masks and
quadratic phases are evaluated beyond the observation window instead of
wrapping, and optionally discards spatial frequencies outside the angular
window so both pipelines transport the same etendue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union, get_args

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .core import (
    AugmentedLightField,
    ComplexField,
    IntensityProfile,
    InvalidConfigurationError,
    PhaseSpaceGrid,
    ScenarioAbortError,
    _freeze,
    project_intensity,
)
from .elements import CubicPhase, ElementSpec, Lens, RectAperture, element_label
from .fresnel import apply_mask, fresnel_propagate
from .propagation import _INTERP_MODES, shear_propagate
from .transformers import NumericTransformer, apply_transformer, canonical_transformer
from .wdf import WdfOptions, wdf_from_field


@dataclass(frozen=True, slots=True)
class PointSource:
    """Ideal point emitter at a position in the source plane."""

    position: float = 0.0


@dataclass(frozen=True, slots=True)
class PlaneWave:
    """Uniform wave tilted by a small angle."""

    angle: float = 0.0


@dataclass(frozen=True, slots=True)
class FieldSource:
    """Arbitrary sampled complex field in the source plane."""

    field: ComplexField


SourceSpec = Union[PointSource, PlaneWave, FieldSource]


@dataclass(frozen=True, slots=True)
class Propagate:
    """Free-space hop by a finite, non-negative distance (metres)."""

    distance: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.distance < np.inf):
            raise InvalidConfigurationError(
                f"propagation distance must be finite and non-negative, got {self.distance!r}"
            )


@dataclass(frozen=True, slots=True)
class Element:
    """A thin element inserted at the current plane."""

    spec: ElementSpec

    def __post_init__(self) -> None:
        if not isinstance(self.spec, get_args(ElementSpec)):
            raise InvalidConfigurationError(
                f"{type(self.spec).__name__} is not a catalogued element"
            )


Stage = Union[Propagate, Element]


@dataclass(frozen=True)
class OpticalTrain:
    grid: PhaseSpaceGrid
    source: SourceSpec
    stages: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        for k, stage in enumerate(self.stages, start=1):
            if not isinstance(stage, (Propagate, Element)):
                raise InvalidConfigurationError(
                    f"stage {k} is {type(stage).__name__}, expected Propagate or Element"
                )
        if isinstance(self.source, FieldSource) and self.source.field.grid != self.grid:
            raise InvalidConfigurationError(
                "field source was sampled on a different grid than the train"
            )


@dataclass(frozen=True)
class TraceOptions:
    """Numerical choices shared by one trace.

    Each field but compare_oracle is a ``[numerics]`` key of a scenario file.

    interp          : shear interpolation; linear is robust for the spike-like
                      radiance of ideal sources, bandlimited is exact for
                      smooth fields
    oracle_pad      : wave pipeline axis enlargement factor (integer >= 1)
    match_etendue   : clamp the wave field to the angular window's bandwidth
                      so both pipelines carry the same etendue
    abort_loss      : abort the trace when a single stage truncates more than
                      this fraction of the signal
    oversample, window : WdfOptions oversample_factor and window of every
                      Wigner transform and numeric kernel, built and checked
                      once as ``wdf_options``
    compare_oracle  : run the wave pipeline and fill the comparison fields
    """

    interp: str = "linear"
    oracle_pad: int = 2
    match_etendue: bool = True
    abort_loss: float = 0.9
    oversample: int = 1
    window: str = "none"
    compare_oracle: bool = True
    wdf_options: WdfOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "wdf_options", WdfOptions(oversample_factor=self.oversample, window=self.window)
        )
        if self.interp not in _INTERP_MODES:
            raise InvalidConfigurationError(
                f"interp must be one of {_INTERP_MODES}, got {self.interp!r}"
            )
        if self.oracle_pad < 1 or self.oracle_pad != int(self.oracle_pad):
            raise InvalidConfigurationError(
                f"oracle_pad must be a positive integer, got {self.oracle_pad!r}"
            )
        if not (0.0 < self.abort_loss <= 1.0):
            raise InvalidConfigurationError(
                f"abort_loss must lie in (0, 1], got {self.abort_loss!r}"
            )


@dataclass(frozen=True)
class StageRecord:
    """Phase-space snapshot after one stage (index 0 is the source itself)."""

    index: int
    label: str
    alf: AugmentedLightField
    truncation_loss: float
    kernel: Optional[str] = None  # an element's ``meta["element"]``: "numeric" or its label


@dataclass(frozen=True)
class ComparisonReport:
    alf_intensity: IntensityProfile
    oracle_intensity: Optional[IntensityProfile]
    relative_l2_error: float
    peak_offset_cells: float
    truncation_loss: float
    negativity: float  # -min I / peak I of the final intensity


@dataclass(frozen=True)
class TrainTrace:
    train: OpticalTrain
    stages: tuple
    final: AugmentedLightField
    report: ComparisonReport


def _source_radiance(grid: PhaseSpaceGrid, source: SourceSpec, options: TraceOptions):
    if isinstance(source, PointSource):
        radiance = np.zeros((grid.x_samples, grid.theta_samples))
        radiance[grid.checked_x_index(source.position, "point source"), :] = 1.0 / (
            grid.dx * grid.theta_extent
        )
        return AugmentedLightField(grid, _freeze(radiance), {"source": "point"})
    if isinstance(source, PlaneWave):
        half = 0.5 * grid.theta_extent
        if not (-half <= source.angle < half):
            raise InvalidConfigurationError(
                f"plane wave at {source.angle:g} rad lies outside the angular window"
            )
        radiance = np.zeros((grid.x_samples, grid.theta_samples))
        radiance[:, grid.theta_index(source.angle)] = 1.0 / (
            grid.dtheta * grid.x_extent
        )
        return AugmentedLightField(grid, _freeze(radiance), {"source": "plane"})
    if isinstance(source, FieldSource):
        return wdf_from_field(source.field, options.wdf_options)
    raise InvalidConfigurationError(f"unknown source {type(source).__name__}")


def _stage_label(stage: Stage) -> str:
    if isinstance(stage, Propagate):
        return f"propagate_{stage.distance:g}m"
    return element_label(stage.spec)


def _padded_grid(grid: PhaseSpaceGrid, pad: int) -> PhaseSpaceGrid:
    """The wave pipeline's axis: ``pad`` times the grid's, plus one sample if that pads by an odd
    count, so that the window from ``(x_samples - n) // 2`` lies on the grid's nodes."""
    if pad == 1:
        return grid
    n = grid.x_samples
    wide = pad * n + (pad - 1) * n % 2
    return PhaseSpaceGrid(
        x_samples=wide,
        x_extent=grid.x_extent * (wide / n),
        theta_samples=grid.theta_samples,
        theta_extent=grid.theta_extent,
        wavelength=grid.wavelength,
    )


def _bandlimit(field: ComplexField, u_cut: float) -> ComplexField:
    grid = field.grid
    u = fftfreq(grid.x_samples, d=grid.dx)
    spectrum = fft(field.samples)
    spectrum[np.abs(u) > u_cut] = 0.0
    return ComplexField(grid, ifft(spectrum))


def _oracle_intensity(train: OpticalTrain, options: TraceOptions) -> IntensityProfile:
    """Trace the train with the scalar wave pipeline and return |g|^2."""
    grid = train.grid
    wide = _padded_grid(grid, options.oracle_pad)
    x = wide.x_axis()
    u_cut = grid.theta_extent / (2.0 * grid.wavelength)

    source = train.source
    stages = list(train.stages)
    if isinstance(source, PlaneWave):
        g = ComplexField(
            wide, np.exp(2j * np.pi * source.angle * x / grid.wavelength)
        )
    elif isinstance(source, FieldSource):
        samples = np.zeros(wide.x_samples, dtype=np.complex128)
        start = (wide.x_samples - grid.x_samples) // 2
        samples[start : start + grid.x_samples] = source.field.samples
        g = ComplexField(wide, samples)
    else:
        # A bare spike is hostile to the transfer-function method, so when
        # the first hop is free space the point source is materialised as
        # the analytic diverging wave at the far end of that hop.
        if stages and isinstance(stages[0], Propagate) and stages[0].distance > 0.0:
            z0 = stages[0].distance
            g = ComplexField(
                wide,
                np.exp(
                    1j * np.pi * (x - source.position) ** 2 / (grid.wavelength * z0)
                ),
            )
            stages = stages[1:]
        else:
            samples = np.zeros(wide.x_samples, dtype=np.complex128)
            samples[wide.x_index(source.position)] = 1.0 / wide.dx
            g = ComplexField(wide, samples)
    if options.match_etendue:
        g = _bandlimit(g, u_cut)

    for stage in stages:
        if isinstance(stage, Propagate):
            g = fresnel_propagate(g, stage.distance)
        else:
            g = apply_mask(g, stage.spec)
            if options.match_etendue:
                g = _bandlimit(g, u_cut)

    start = (wide.x_samples - grid.x_samples) // 2
    window = g.samples[start : start + grid.x_samples]
    return IntensityProfile(grid, np.abs(window) ** 2)


def _lone_element(stages: tuple) -> bool:
    """Whether the first stage is an element with no second element at its plane."""
    return bool(stages) and isinstance(stages[0], Element) and not (
        len(stages) > 1 and isinstance(stages[1], Element)
    )


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0.0 else v


def trace_train(
    train: OpticalTrain, options: Optional[TraceOptions] = None
) -> TrainTrace:
    """Run the phase-space pipeline stage by stage, keeping snapshots.

    A field source whose first stage is a lone element with a numeric
    kernel (no second element at the same plane) is folded into it: one
    Wigner transform of the product of field and transmittance
    (``wdf_from_field(..., through=...)``) replaces the source transform and
    the apply, and gives the apply's numbers to rounding.  Such a trace has
    no source record; its first record is ``StageRecord(1,
    "source+<element label>", ..., kernel="numeric")``, whose loss is the
    leak the apply would report.  Every other train starts from the
    source's record, index 0.

    Raises ScenarioAbortError when one stage truncates more than the
    configured share of the signal; the exception carries the 1-based index
    of the offending stage.
    """
    if options is None:
        options = TraceOptions()
    grid = train.grid
    first = None  # stage 1's kernel, built before the source to fold into it
    if isinstance(train.source, FieldSource) and _lone_element(train.stages):
        first = canonical_transformer(train.stages[0].spec, grid, options.wdf_options)
    folded = isinstance(first, NumericTransformer)
    if folded:
        alf = wdf_from_field(train.source.field, options.wdf_options, through=first.source)
        records = []
    else:
        alf = _source_radiance(grid, train.source, options)
        records = [StageRecord(0, "source", alf, 0.0)]
    kept = 1.0

    for k, stage in enumerate(train.stages, start=1):
        label, kernel = _stage_label(stage), None
        if isinstance(stage, Propagate):
            alf, loss = shear_propagate(alf, stage.distance, interp=options.interp)
        else:
            transformer = first if k == 1 and first is not None else canonical_transformer(
                stage.spec, grid, options.wdf_options
            )
            kernel = transformer.meta["element"]
            if k == 1 and folded:
                label = "source+" + label
            else:
                alf = apply_transformer(alf, transformer)
            loss = alf.meta.get("theta_leak_fraction", 0.0)
        if loss > options.abort_loss:
            raise ScenarioAbortError(
                k,
                f"{_stage_label(stage)} truncated {loss:.1%} of the signal "
                f"(limit {options.abort_loss:.0%})",
            )
        kept *= 1.0 - loss
        records.append(StageRecord(k, label, alf, loss, kernel))

    alf_intensity = project_intensity(alf)
    if options.compare_oracle:
        oracle = _oracle_intensity(train, options)
        a = _unit(alf_intensity.values)
        o = _unit(oracle.values)
        err = float(np.linalg.norm(a - o))
        offset = float(int(np.argmax(alf_intensity.values)) - int(np.argmax(oracle.values)))
    else:
        oracle = None
        err = float("nan")
        offset = float("nan")

    peak = float(alf_intensity.values.max())
    report = ComparisonReport(
        alf_intensity=alf_intensity,
        oracle_intensity=oracle,
        relative_l2_error=err,
        peak_offset_cells=offset,
        truncation_loss=1.0 - kept,
        negativity=-float(alf_intensity.values.min()) / peak if peak > 0.0 else 0.0,
    )
    return TrainTrace(train, tuple(records), alf, report)


def normalized_cross_correlation(
    p: np.ndarray, q: np.ndarray, align: bool = True
) -> float:
    """Pearson correlation of two profiles, optionally centroid-aligned.

    Alignment shifts ``q`` (by linear interpolation, fractional bins allowed)
    so its centroid coincides with that of ``p``; this compares shapes while
    forgiving a bulk displacement.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise InvalidConfigurationError("profiles must be 1-D and equal length")
    if align:
        idx = np.arange(p.size, dtype=np.float64)
        wp = np.abs(p)
        wq = np.abs(q)
        if wp.sum() > 0.0 and wq.sum() > 0.0:
            cp = float((idx * wp).sum() / wp.sum())
            cq = float((idx * wq).sum() / wq.sum())
            q = np.interp(idx + (cq - cp), idx, q, left=0.0, right=0.0)
    dp = p - p.mean()
    dq = q - q.mean()
    denom = float(np.linalg.norm(dp) * np.linalg.norm(dq))
    if denom == 0.0:
        return 0.0
    return float(dp @ dq / denom)


@dataclass(frozen=True)
class PsfSweepResult:
    """Point-spread functions over a defocus sweep, from both pipelines.

    similarity matrices hold centroid-aligned correlations between every
    pair of defocus settings; entry [i, j] compares offsets i and j.
    """

    defocus_offsets: np.ndarray
    psfs: np.ndarray
    oracle_psfs: Optional[np.ndarray]
    similarity: np.ndarray
    oracle_similarity: Optional[np.ndarray]
    reports: tuple


def _similarity_matrix(profiles: np.ndarray) -> np.ndarray:
    n = profiles.shape[0]
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = normalized_cross_correlation(
                profiles[i], profiles[j]
            )
    return out


def cubic_phase_psf_sweep(
    grid: PhaseSpaceGrid,
    focal_length: float,
    aperture_width: float,
    cubic_coefficient: float,
    object_distance: float,
    image_distance: float,
    defocus_offsets: Sequence[float],
    options: Optional[TraceOptions] = None,
) -> PsfSweepResult:
    """Image a point source for several object displacements.

    Each sweep entry moves the point source along the axis by one offset and
    records the imaged intensity.  A zero ``cubic_coefficient`` gives the
    plain-lens control sweep.  Pairwise shape similarity across the sweep is
    the depth-of-field figure of merit.
    """
    if options is None:
        options = TraceOptions()
    offsets = np.asarray(list(defocus_offsets), dtype=np.float64)
    if offsets.size == 0:
        raise InvalidConfigurationError("defocus sweep needs at least one offset")

    psfs = []
    oracle_psfs = []
    reports = []
    for delta in offsets:
        stages = [
            Propagate(object_distance + float(delta)),
            Element(Lens(focal_length)),
        ]
        if cubic_coefficient != 0.0:
            stages.append(Element(CubicPhase(cubic_coefficient)))
        stages.append(Element(RectAperture(aperture_width)))
        stages.append(Propagate(image_distance))
        train = OpticalTrain(grid, PointSource(0.0), tuple(stages))
        trace = trace_train(train, options)
        psfs.append(trace.report.alf_intensity.values)
        if trace.report.oracle_intensity is not None:
            oracle_psfs.append(trace.report.oracle_intensity.values)
        reports.append(trace.report)

    psfs = np.asarray(psfs)
    have_oracle = len(oracle_psfs) == offsets.size
    oracle_arr = np.asarray(oracle_psfs) if have_oracle else None
    return PsfSweepResult(
        defocus_offsets=offsets,
        psfs=psfs,
        oracle_psfs=oracle_arr,
        similarity=_similarity_matrix(psfs),
        oracle_similarity=_similarity_matrix(oracle_arr) if have_oracle else None,
        reports=tuple(reports),
    )
