import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from auglf import (
    AugmentedLightField,
    CodedAperture,
    ComplexField,
    CubicPhase,
    DegenerateInputError,
    Element,
    FieldSource,
    Hologram,
    InvalidConfigurationError,
    NegativeIntensityWarning,
    OpticalTrain,
    PlaneWave,
    PointSource,
    Propagate,
    RectAperture,
    SamplingWarning,
    ScenarioAbortError,
    TraceOptions,
    TruncationWarning,
    TwoPinholes,
    WdfOptions,
    apply_transformer,
    canonical_transformer,
    cubic_phase_psf_sweep,
    make_grid,
    normalized_cross_correlation,
    project_intensity,
    trace_train,
    wdf_from_field,
)
from auglf import Lens
from auglf.elements import element_label
from auglf.wdf import _upsample, wigner_table
from auglf.config import OutputOptions, parse_config
from auglf.scenarios import _padded_grid

LAM = 633e-9
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_young_train_agrees_with_wave_pipeline():
    # pinhole gap 100 um, screen at 100 mm; the angle window overfills the
    # position window by 1.5x (fan edges stay outside the comparison) and
    # the angle step keeps the per-row shear under a quarter position cell
    g = make_grid(1024, 2.048e-3, 8192, 3.165e-2, LAM)
    train = OpticalTrain(
        g, PlaneWave(0.0), (Element(TwoPinholes(5e-5, -5e-5)), Propagate(0.1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        trace = trace_train(train, TraceOptions(oracle_pad=4))
    assert trace.report.relative_l2_error < 2e-2
    assert trace.report.oracle_intensity is not None
    # in a near-uniform fringe comb the global argmax may sit on a different
    # fringe in each pipeline; it must still sit on the same comb
    period_cells = LAM * 0.1 / 1e-4 / g.dx
    offset = trace.report.peak_offset_cells
    assert abs(offset - period_cells * round(offset / period_cells)) <= 2
    assert [r.label for r in trace.stages] == [
        "source",
        "two_pinholes",
        "propagate_0.1m",
    ]
    assert trace.report.truncation_loss < 0.9


def test_single_lens_config_agrees_with_wave_pipeline():
    cfg = parse_config(str(CONFIG_DIR / "single_lens.cfg"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        trace = trace_train(cfg.train(), cfg.trace_options())
    # measured 0.0333 with the spot peak on the wave reference's
    assert trace.report.relative_l2_error < 0.04
    assert abs(trace.report.peak_offset_cells) <= 2


@pytest.mark.filterwarnings("error::auglf.NegativeIntensityWarning")
def test_plane_wave_through_a_slit_keeps_its_intensity_non_negative():
    # the slit kernel takes the slit's exact values between the samples; a
    # band-limited interpolant of the jump rings and drives the projected
    # intensity negative, right after the slit and after 2 cm
    g = make_grid(256, 2.048e-3, 256, 1.2e-2, LAM)
    train = OpticalTrain(g, PlaneWave(0.0), (Element(RectAperture(5e-4)), Propagate(0.02)))
    trace = trace_train(train, TraceOptions(compare_oracle=False))
    for alf in (trace.stages[1].alf, trace.final):
        values = project_intensity(alf).values
        assert values.min() >= 0.0


def test_virtual_source_leaves_intensity_dark():
    # the angle window spans exactly three oscillation periods of the
    # midpoint column, so its projection cancels to rounding
    g = make_grid(1024, 2.048e-3, 1024, 1.899e-2, LAM)
    train = OpticalTrain(g, PlaneWave(0.0), (Element(TwoPinholes(5e-5, -5e-5)),))
    trace = trace_train(train, TraceOptions(compare_oracle=False))
    report = trace.report
    I = project_intensity(trace.final).values
    assert I[g.x_index(0.0)] / I.max() < 1e-6
    assert np.isnan(report.relative_l2_error)
    assert report.oracle_intensity is None


def test_abort_on_heavy_truncation():
    g = make_grid(128, 1.28e-3, 128, 128 * LAM / 1.28e-3, LAM)
    angle = 30 * g.dtheta
    z = 3 * g.x_extent / angle  # slides the occupied row three windows away
    train = OpticalTrain(g, PlaneWave(angle), (Propagate(z),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(ScenarioAbortError) as err:
            trace_train(train, TraceOptions(compare_oracle=False))
    assert err.value.stage_index == 1
    assert "truncated" in str(err.value)


@pytest.mark.parametrize("distance", [float("nan"), float("inf"), float("-inf")])
def test_propagate_rejects_non_finite_distance(distance):
    with pytest.raises(InvalidConfigurationError, match="finite"):
        Propagate(distance)


def test_stage_validation():
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    with pytest.raises(InvalidConfigurationError):
        OpticalTrain(g, PlaneWave(0.0), ("not a stage",))
    with pytest.raises(InvalidConfigurationError, match="observation"):
        OutputOptions(observation="hologram")
    with pytest.raises(InvalidConfigurationError):
        Propagate(-0.1)
    with pytest.raises(InvalidConfigurationError):
        TraceOptions(oracle_pad=0)
    with pytest.raises(InvalidConfigurationError):
        TraceOptions(abort_loss=0.0)
    with pytest.raises(InvalidConfigurationError, match="interp"):
        TraceOptions(interp="cubic")


def test_source_materialization():
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    point = trace_train(
        OpticalTrain(g, PointSource(5 * g.dx), ()),
        TraceOptions(compare_oracle=False),
    ).final
    I = project_intensity(point).values
    assert np.count_nonzero(I) == 1
    assert I.argmax() == g.x_index(5 * g.dx)

    plane = trace_train(
        OpticalTrain(g, PlaneWave(3 * g.dtheta), ()),
        TraceOptions(compare_oracle=False),
    ).final
    assert np.count_nonzero(plane.radiance[:, g.theta_index(3 * g.dtheta)]) == 64
    np.testing.assert_allclose(
        project_intensity(plane).values, 1.0 / g.x_extent, rtol=1e-12
    )

    with pytest.raises(InvalidConfigurationError):
        trace_train(OpticalTrain(g, PointSource(g.x_extent), ()))
    with pytest.raises(InvalidConfigurationError):
        trace_train(OpticalTrain(g, PlaneWave(g.theta_extent), ()))


def test_field_source_grid_checked():
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    other = make_grid(64, 2.56e-3, 64, 1e-2, LAM)
    fld = ComplexField(other, np.ones(64, complex))
    with pytest.raises(InvalidConfigurationError):
        OpticalTrain(g, FieldSource(fld), ())


def test_field_source_radiance_is_its_wdf():
    g = make_grid(64, 1.28e-3, 64, 64 * LAM / 1.28e-3, LAM)
    sig = np.exp(-g.x_axis() ** 2 / (2 * (5 * g.dx) ** 2)).astype(complex)
    src = FieldSource(ComplexField(g, sig))
    final = trace_train(
        OpticalTrain(g, src, ()), TraceOptions(compare_oracle=False)
    ).final
    I = project_intensity(final).values
    np.testing.assert_allclose(I, np.abs(sig) ** 2, atol=1e-12 * I.max())


def test_cross_correlation_properties():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=101)
    assert normalized_cross_correlation(p, p) == pytest.approx(1.0)
    assert normalized_cross_correlation(p, 3.5 * p) == pytest.approx(1.0)
    assert normalized_cross_correlation(p, -p, align=False) == pytest.approx(-1.0)

    bump = np.exp(-((np.arange(101) - 50.0) ** 2) / 30.0)
    moved = np.roll(bump, 9)
    aligned = normalized_cross_correlation(bump, moved)
    raw = normalized_cross_correlation(bump, moved, align=False)
    assert aligned > 0.999
    assert raw < aligned

    with pytest.raises(InvalidConfigurationError):
        normalized_cross_correlation(p, p[:-1])
    with pytest.raises(InvalidConfigurationError):
        normalized_cross_correlation(p.reshape(-1, 1), p.reshape(-1, 1))


def test_hologram_recording_guard():
    # the recorded chirp's edge frequency x_extent / (2 lambda d) against the
    # grid Nyquist 1 / (2 dx): 1.1e4 of 2.5e5 cycles/m at d = 0.15 m, 1.6e6 at 1 mm
    g = make_grid(1024, 2.048e-3, 1024, 1.899e-2, LAM)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SamplingWarning)
        Hologram(0.15).kernel(g)
        Hologram(0.15, width=1.5e-3).kernel(g)
    for spec in (Hologram(1e-3), Hologram(1e-3, width=1.5e-3)):
        with pytest.warns(SamplingWarning, match="undersampled"):
            spec.kernel(g)


def test_defocus_sweep_shapes():
    g = make_grid(256, 2.048e-3, 256, 1.2e-2, LAM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        res = cubic_phase_psf_sweep(
            g,
            focal_length=0.1,  # every deflection stays on the relative axis
            aperture_width=1e-3,
            cubic_coefficient=0.0,
            object_distance=0.2,
            image_distance=0.2,
            defocus_offsets=(-1e-3, 0.0, 1e-3),
            options=TraceOptions(compare_oracle=False),
        )
    assert res.psfs.shape == (3, 256)
    assert res.oracle_psfs is None and res.oracle_similarity is None
    assert res.similarity.shape == (3, 3)
    np.testing.assert_allclose(np.diag(res.similarity), 1.0)
    np.testing.assert_allclose(res.similarity, res.similarity.T)
    assert len(res.reports) == 3
    with pytest.raises(InvalidConfigurationError):
        cubic_phase_psf_sweep(g, 5e-2, 1e-3, 0.0, 0.1, 0.1, ())


@pytest.mark.parametrize("pad", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [63, 64])
def test_the_padded_wave_axis_holds_the_grid_nodes(n, pad):
    # the wave reference is read from the window (wide - n) // 2 onwards, so
    # the padding must be even in number: odd n with an even pad gets one more
    g = make_grid(n, n * 2e-6, 16, 1e-2, LAM)
    wide = _padded_grid(g, pad)
    start = (wide.x_samples - n) // 2
    assert wide.x_samples in (pad * n, pad * n + 1)
    assert wide.dx == pytest.approx(g.dx, rel=1e-15)
    window = wide.x_axis()[start : start + n]
    assert np.abs(window - g.x_axis()).max() <= 1e-9 * g.dx


# A field source whose first stage is a lone numeric element is folded into
# it: one Wigner transform of the product of field and transmittance.
FOLD_GRID = make_grid(256, 2.56e-3, 256, 0.02, LAM)


def fold_beam(radius):
    return ComplexField(FOLD_GRID, np.exp(-((FOLD_GRID.x_axis() / radius) ** 2)))


def coded_mask():
    x = FOLD_GRID.x_axis()
    phase = np.random.default_rng(9).uniform(-0.5, 0.5, FOLD_GRID.x_samples)
    return ComplexField(FOLD_GRID, (np.abs(x) < 0.4e-3) * np.exp(1j * phase))


FOLDED_ELEMENTS = {
    "coded_aperture": CodedAperture(coded_mask()),
    "rect_aperture": RectAperture(6e-4),
    "cubic_phase": CubicPhase(2e10),
    "bounded_hologram": Hologram(0.15, width=1e-3),
}
FOLD_OPTIONS = [
    pytest.param(oversample, window, id=f"oversample_{oversample}-{window}")
    for oversample in (1, 2, 4)
    for window in ("none", "raised-cosine")
]


def folded_record(field, spec, options):
    train = OpticalTrain(FOLD_GRID, FieldSource(field), (Element(spec), Propagate(0.01)))
    trace = trace_train(train, options)
    assert [(r.index, r.label, r.kernel) for r in trace.stages] == [
        (1, f"source+{element_label(spec)}", "numeric"),
        (2, "propagate_0.01m", None),
    ]
    return trace.stages[0]


@pytest.mark.parametrize("oversample, window", FOLD_OPTIONS)
@pytest.mark.parametrize("spec", FOLDED_ELEMENTS.values(), ids=FOLDED_ELEMENTS.keys())
def test_a_folded_source_gives_the_applied_numbers(spec, oversample, window):
    # the beam and its Wigner function decay below 1e-15 inside the window,
    # so the source radiance the two-step path keeps has lost nothing
    beam = fold_beam(0.15e-3)
    options = TraceOptions(oversample=oversample, window=window, compare_oracle=False)
    record = folded_record(beam, spec, options)
    wdf_options = options.wdf_options
    applied = apply_transformer(
        wdf_from_field(beam, wdf_options), canonical_transformer(spec, FOLD_GRID, wdf_options)
    )
    peak = np.abs(applied.radiance).max()
    assert np.abs(record.alf.radiance - applied.radiance).max() <= 1e-12 * peak
    assert abs(record.truncation_loss - applied.meta["theta_leak_fraction"]) <= 1e-12
    assert record.alf.meta["theta_leak_fraction"] == record.truncation_loss
    content = np.abs(applied.radiance).sum() * FOLD_GRID.dtheta * FOLD_GRID.dx
    assert abs(record.alf.meta["theta_leak"] - applied.meta["theta_leak"]) <= 1e-12 * content


def test_a_folded_source_keeps_what_the_window_cuts_from_the_source():
    # a wider beam is cut by the position window, so its radiance passes the
    # angle window; the two-step path drops that part before the slit and
    # the fold keeps it, so the fold is the product's own Wigner transform
    beam = fold_beam(0.3e-3)
    spec = RectAperture(6e-4)
    options = TraceOptions(compare_oracle=False)
    record = folded_record(beam, spec, options)
    kernel = canonical_transformer(spec, FOLD_GRID, options.wdf_options)
    n = FOLD_GRID.x_samples
    product = _upsample(beam.samples, 2 * n) * kernel.source.signal
    u = FOLD_GRID.u_axis()
    want = wigner_table(
        FOLD_GRID, product[::2], float(u[0]), float(u[1] - u[0]), n, WdfOptions(), fine_samples=product
    ) / LAM
    peak = np.abs(want).max()
    assert np.abs(record.alf.radiance - want).max() <= 1e-12 * peak
    # measured 7.8e-11, 7e-14 of the peak
    applied = apply_transformer(wdf_from_field(beam), kernel)
    assert np.abs(record.alf.radiance - applied.radiance).max() <= 1e-8 * peak


def test_the_fold_takes_an_opaque_mask_and_rejects_a_dark_field_or_another_lag_grid():
    zeros = ComplexField(FOLD_GRID, np.zeros(FOLD_GRID.x_samples))
    options = TraceOptions(compare_oracle=False)
    record = folded_record(fold_beam(0.15e-3), CodedAperture(zeros), options)
    assert not record.alf.radiance.any()
    assert record.truncation_loss == 0.0
    assert record.alf.meta["theta_leak"] == 0.0
    train = OpticalTrain(FOLD_GRID, FieldSource(zeros), (Element(RectAperture(6e-4)), Propagate(0.01)))
    with pytest.raises(DegenerateInputError, match="zero"):
        trace_train(train, options)
    kernel = canonical_transformer(RectAperture(6e-4), FOLD_GRID, WdfOptions())
    for grid, oversample in ((FOLD_GRID, 2), (make_grid(128, 2.56e-3, 256, 0.02, LAM), 1)):
        beam = ComplexField(grid, np.exp(-((grid.x_axis() / 0.15e-3) ** 2)))
        with pytest.raises(InvalidConfigurationError, match="lag grid"):
            wdf_from_field(beam, WdfOptions(oversample_factor=oversample), through=kernel.source)


def test_a_folded_trace_holds_two_radiances_and_the_working_set():
    g = make_grid(1024, 2.048e-3, 1024, 0.016, LAM)
    x = g.x_axis()
    beam = ComplexField(g, np.exp(-((x / 0.2e-3) ** 2)))
    phase = np.random.default_rng(4).uniform(-0.5, 0.5, g.x_samples)
    mask = ComplexField(g, (np.abs(x) < 0.5e-3) * np.exp(1j * phase))
    train = OpticalTrain(g, FieldSource(beam), (Element(CodedAperture(mask)), Propagate(0.01)))
    tracemalloc.start()
    try:
        trace = trace_train(train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.label for r in trace.stages] == ["source+coded_aperture", "propagate_0.01m"]
    # the folded record and the sheared one (8 MiB each) and block buffers;
    # the source record the two-step path keeps would make a third
    radiance = trace.final.radiance.nbytes
    assert peak < 3 * radiance


# Trains that keep the source record and apply their first element: a
# closed-form kernel, a hop before the element, a second element at the same
# plane, and a source other than a sampled field.
UNFOLDED = {
    "closed_form": (FieldSource, (Element(Lens(0.1)), Propagate(0.01)), ["source", "lens", "propagate_0.01m"]),
    "after_a_hop": (
        FieldSource,
        (Propagate(0.01), Element(RectAperture(6e-4))),
        ["source", "propagate_0.01m", "rect_aperture"],
    ),
    "same_plane_group": (
        FieldSource,
        (Element(CubicPhase(2e10)), Element(RectAperture(6e-4))),
        ["source", "cubic_phase", "rect_aperture"],
    ),
    "plane_wave": (PlaneWave, (Element(RectAperture(6e-4)),), ["source", "rect_aperture"]),
}


@pytest.mark.parametrize("source, stages, labels", UNFOLDED.values(), ids=UNFOLDED.keys())
def test_other_trains_keep_the_source_record_and_apply(source, stages, labels):
    src = FieldSource(fold_beam(0.15e-3)) if source is FieldSource else source(0.0)
    trace = trace_train(OpticalTrain(FOLD_GRID, src, stages), TraceOptions(compare_oracle=False))
    assert [r.label for r in trace.stages] == labels
    assert [r.index for r in trace.stages] == list(range(len(labels)))


BOUNDARIES = {
    f"field_{a}-kernel_{b}": (a, b, "periodic" if a == b == "periodic" else "zero")
    for a in ("zero", "periodic")
    for b in ("zero", "periodic")
}


@pytest.mark.parametrize("field_edge, kernel_edge, product_edge", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_the_fold_wraps_the_product_only_if_field_and_kernel_wrap(field_edge, kernel_edge, product_edge):
    # a field and a mask that do not vanish at the window's edges
    x = FOLD_GRID.x_axis()
    field = ComplexField(FOLD_GRID, 1.0 + 0.5 * np.cos(2 * np.pi * x / 6.4e-4))
    mask = ComplexField(FOLD_GRID, np.exp(0.3j * np.sin(2 * np.pi * x / 1.28e-3)))
    kernel = canonical_transformer(CodedAperture(mask), FOLD_GRID, WdfOptions(boundary=kernel_edge))
    folded = wdf_from_field(field, WdfOptions(boundary=field_edge), through=kernel.source)
    n = FOLD_GRID.x_samples
    product = _upsample(field.samples, 2 * n) * _upsample(mask.samples, 2 * n)
    u = FOLD_GRID.u_axis()
    options = WdfOptions(boundary=product_edge)
    want = wigner_table(FOLD_GRID, product[::2], float(u[0]), float(u[1] - u[0]), n, options, fine_samples=product)
    want /= LAM
    assert np.abs(folded.radiance - want).max() <= 1e-12 * np.abs(want).max()
