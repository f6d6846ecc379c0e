"""End-to-end optical trains run through both pipelines.

A train is a source followed by a sequence of stages (free-space hops and
thin elements).  It can be traced through the phase-space pipeline (radiance
sheared and pushed through kernels) and, independently, through the scalar
wave pipeline of :mod:`auglf.fresnel`.  The comparison report quantifies how
well the two agree on the observable intensity.

A field source or a plane wave followed at once by a lone element with a
numeric kernel is traced in one step, and the source's own radiance is
never made or kept (``trace_train``): the Wigner transform of the field
times the element's transmittance is the radiance behind the element, and
behind a plane wave it is the element's own kernel rows, shifted by the
wave's angle node.  Closed-form first elements, point sources, elements
after a hop and groups of elements at one plane take the source radiance
and apply each kernel.

A trace keeps one working radiance and hands it out only to an observer
(``trace_train``'s ``observe``).  When nobody observes it, a last hop is
not sheared: the final intensity is projected along the hop's sheared
lines straight from the radiance before it
(``propagation.sheared_projection``).

The wave pipeline lives on the position window, as the radiance does:
sources are built and elements evaluated on the grid's own axis, so both
pipelines see one scene.  Only a free-space hop (``_hop``) widens the
axis, ``oracle_pad`` times, so that the field spreads instead of wrapping;
it also drops spatial frequencies outside the angular window, so both
pipelines transport the same etendue, and cuts the result back to the
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union, get_args

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
    _intensity_profile,
    project_intensity,
)
from .elements import CubicPhase, ElementSpec, Lens, RectAperture, element_label
from .fresnel import apply_mask, fresnel_propagate
from .propagation import shear_propagate, sheared_projection
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
        half = 0.5 * self.grid.theta_extent
        if isinstance(self.source, PlaneWave) and not (-half <= self.source.angle < half):
            raise InvalidConfigurationError(
                f"plane wave at {self.source.angle:g} rad lies outside the angular window"
            )


@dataclass(frozen=True)
class TraceOptions:
    """Numerical choices shared by one trace.

    Each field but compare_oracle is a ``[numerics]`` key of a scenario file;
    none picks how rows move (every shear uses ``propagation._shift_rows``).

    oracle_pad      : axis enlargement factor of the wave pipeline's hops
                      (integer >= 1)
    abort_loss      : abort the trace when a single stage truncates more than
                      this fraction of the signal
    oversample, window : WdfOptions oversample_factor and window of every
                      Wigner transform and numeric kernel, built and checked
                      once as ``wdf_options``
    compare_oracle  : run the wave pipeline and fill the comparison fields
    """

    oracle_pad: int = 2
    abort_loss: float = 0.9
    oversample: int = 1
    window: str = "none"
    compare_oracle: bool = True
    wdf_options: WdfOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "wdf_options", WdfOptions(oversample_factor=self.oversample, window=self.window)
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
    """What one stage did (index 0 is the source itself); it keeps no radiance.

    The radiance after the stage goes to ``trace_train``'s ``observe``
    along with its record, and is valid only until the next stage runs.
    """

    index: int
    label: str
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
    """A finished trace: its stage records and the comparison; it keeps no radiance.

    Radiances reach a caller only through ``trace_train``'s ``observe``.
    """

    train: OpticalTrain
    stages: tuple
    report: ComparisonReport


def _source_radiance(grid: PhaseSpaceGrid, source: SourceSpec, options: TraceOptions):
    if isinstance(source, PointSource):
        radiance = np.zeros((grid.x_samples, grid.theta_samples))
        radiance[grid.checked_x_index(source.position, "point source"), :] = 1.0 / (
            grid.dx * grid.theta_extent
        )
        return AugmentedLightField(grid, _freeze(radiance), {"source": "point"})
    if isinstance(source, PlaneWave):
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
    """A hop's axis: ``pad`` times the grid's, plus one sample if that pads by an odd count, so
    that the window from ``(x_samples - n) // 2`` lies on the grid's nodes."""
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


def _hop(g: ComplexField, distance: float, pad: int) -> ComplexField:
    """Free-space hop of a field on the window, the one place the wave axis widens.

    The field is embedded in the ``_padded_grid`` axis (zero outside the
    window), its spatial frequencies beyond the angular window's band
    (|u| > theta_extent / (2 lambda)) are zeroed, and after
    ``fresnel_propagate`` the result is cut back to the window: light that
    leaves the window is dropped, as the shear drops it.
    """
    grid = g.grid
    wide = _padded_grid(grid, pad)
    start = (wide.x_samples - grid.x_samples) // 2
    window = slice(start, start + grid.x_samples)
    samples = np.zeros(wide.x_samples, dtype=np.complex128)
    samples[window] = g.samples
    spectrum = fft(samples)
    band = grid.theta_extent / (2.0 * grid.wavelength)
    spectrum[np.abs(fftfreq(wide.x_samples, d=wide.dx)) > band] = 0.0
    out = fresnel_propagate(ComplexField(wide, ifft(spectrum)), distance)
    return ComplexField(grid, out.samples[window])


def _oracle_intensity(train: OpticalTrain, options: TraceOptions) -> IntensityProfile:
    """Trace the train with the scalar wave pipeline and return |g|^2 on the window."""
    grid = train.grid
    x = grid.x_axis()
    source = train.source
    stages = list(train.stages)
    if isinstance(source, PlaneWave):
        # launched on the angle node its radiance takes
        angle = grid.theta_axis()[grid.theta_index(source.angle)]
        g = ComplexField(grid, np.exp(2j * np.pi * angle * x / grid.wavelength))
    elif isinstance(source, FieldSource):
        g = source.field
    elif stages and isinstance(stages[0], Propagate) and stages[0].distance > 0.0:
        # A bare spike is hostile to the transfer-function method, so when
        # the first hop is free space the point source is materialised as
        # the analytic diverging wave at the far end of that hop.
        z0 = stages.pop(0).distance
        g = ComplexField(
            grid, np.exp(1j * np.pi * (x - source.position) ** 2 / (grid.wavelength * z0))
        )
    else:
        samples = np.zeros(grid.x_samples, dtype=np.complex128)
        samples[grid.x_index(source.position)] = 1.0 / grid.dx
        g = ComplexField(grid, samples)

    for stage in stages:
        if isinstance(stage, Propagate):
            g = _hop(g, stage.distance, options.oracle_pad)
        else:
            g = apply_mask(g, stage.spec)
    return IntensityProfile(grid, np.abs(g.samples) ** 2)


def _lone_element(stages: tuple) -> bool:
    """Whether the first stage is an element with no second element at its plane."""
    return bool(stages) and isinstance(stages[0], Element) and not (
        len(stages) > 1 and isinstance(stages[1], Element)
    )


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0.0 else v


def trace_train(
    train: OpticalTrain,
    options: Optional[TraceOptions] = None,
    observe: Optional[Callable[[StageRecord, AugmentedLightField], None]] = None,
) -> TrainTrace:
    """Run the phase-space pipeline stage by stage on one working radiance.

    A field source or a plane wave whose first stage is a lone element
    with a numeric kernel (no second element at the same plane) is folded
    into it, and gives the apply's numbers to rounding.  For a field, one
    Wigner transform of the product of field and transmittance
    (``wdf_from_field(..., through=...)``) replaces the source transform
    and the apply; for a plane wave, one table of the kernel's own signal,
    shifted by the wave's angle node (``NumericTransformer.
    behind_plane_wave``), replaces the wave's one-column radiance and the
    apply.  Such a trace has no source record; its first record is
    ``StageRecord(1, "source+<element label>", ..., kernel="numeric")``,
    whose loss is the leak the apply would report.  Every other train
    starts from the source's record, index 0.

    The records keep scalars only.  ``observe(record, alf)``, when given,
    is called as each stage completes with that stage's radiance, which is
    valid only until the next stage runs: a hop shears the radiance in
    place (``shear_propagate``'s ``out``), so copy it to keep it; the last
    stage's radiance stays valid after the trace returns.  The trace holds
    at most two radiances at once, an apply's input and output.

    Without an observer nobody sees the radiance after a last hop, so the
    trace does not make it: the final intensity is the projection along
    the hop's sheared lines (``sheared_projection``), which agrees with
    the projection of the sheared radiance to rounding and reports the
    same loss.

    Raises ScenarioAbortError when one stage truncates more than the
    configured share of the signal; the exception carries the 1-based index
    of the offending stage.
    """
    if options is None:
        options = TraceOptions()
    grid = train.grid
    source = train.source
    first = None  # stage 1's kernel, built before the source to fold into it
    if isinstance(source, (FieldSource, PlaneWave)) and _lone_element(train.stages):
        first = canonical_transformer(train.stages[0].spec, grid, options.wdf_options)
    folded = isinstance(first, NumericTransformer)
    if not folded:
        alf = _source_radiance(grid, source, options)
    elif isinstance(source, PlaneWave):
        alf = first.behind_plane_wave(grid.theta_index(source.angle))
    else:
        alf = wdf_from_field(source.field, options.wdf_options, through=first.source)
    records = []

    def finish(record: StageRecord, alf: AugmentedLightField) -> None:
        records.append(record)
        if observe is not None:
            observe(record, alf)

    if not folded:
        finish(StageRecord(0, "source", 0.0), alf)
    kept = 1.0
    projected = None  # the intensity after an unobserved last hop

    for k, stage in enumerate(train.stages, start=1):
        label, kernel = _stage_label(stage), None
        if isinstance(stage, Propagate) and observe is None and k == len(train.stages):
            projected, loss = sheared_projection(alf, stage.distance)
        elif isinstance(stage, Propagate):
            # every radiance here was allocated by this trace, so the shear
            # may write into it; no name is left holding the array
            alf.radiance.setflags(write=True)
            alf, loss = shear_propagate(alf, stage.distance, out=alf.radiance)
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
        finish(StageRecord(k, label, loss, kernel), alf)

    if projected is None:
        alf_intensity = project_intensity(alf)
    else:
        alf_intensity = _intensity_profile(grid, projected)
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
    return TrainTrace(train, tuple(records), report)


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
