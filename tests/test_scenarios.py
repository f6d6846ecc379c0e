import contextlib
import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from auglf import (
    AugmentedLightField,
    BandwidthWarning,
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
    shear_propagate,
    trace_train,
    wdf_from_field,
)
from auglf import Lens
from auglf.elements import element_label
from auglf.wdf import WignerRows, _upsample, field_rows, wigner_table
from auglf.config import OutputOptions, parse_config
from auglf import core, scenarios
from auglf.propagation import ShearedProjection, sheared_projection
from auglf.scenarios import _hop, _launch, _oracle_intensity, _padded_grid
from oracles import fourier_shear

LAM = 633e-9
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def observed_trace(train, options=None):
    """``trace_train`` and a copy of each stage's radiance, by record index, taken by its observer."""
    radiances = {}

    def keep(record, alf):
        radiances[record.index] = AugmentedLightField(alf.grid, alf.radiance.copy(), alf.meta)

    return trace_train(train, options, observe=keep), radiances


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
        trace = trace_train(train)
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
def test_plane_wave_through_a_slit_is_non_negative_and_rings_as_the_exact_shear_does():
    # the slit kernel takes the slit's exact values between the samples; a
    # band-limited interpolant of the jump rings and drives the projected
    # intensity negative right after the slit
    g = make_grid(256, 2.048e-3, 256, 1.2e-2, LAM)
    train = OpticalTrain(g, PlaneWave(0.0), (Element(RectAperture(5e-4)), Propagate(0.02)))
    trace, radiances = observed_trace(train, TraceOptions(compare_oracle=False))
    slit = trace.stages[0]  # the plane wave is folded into the slit
    assert slit.label == "source+rect_aperture"
    assert project_intensity(radiances[slit.index]).values.min() >= 0.0
    # every angle row of the slit's radiance has a kink at both edges, on
    # which a shift that keeps more than linear accuracy rings a little:
    # after 2 cm the exact Fourier shift gives a negativity of 5.1e-5 of
    # the peak, the Lanczos-4 shear 3.1e-5 and agrees with it to 3.8e-4
    final = project_intensity(radiances[trace.stages[-1].index]).values
    exact, _ = fourier_shear(radiances[slit.index].radiance, 0.02 * g.theta_axis() / g.dx)
    exact = exact.sum(axis=1) * g.dtheta
    assert -final.min() <= 1e-4 * final.max()
    assert np.abs(final - exact).max() <= 1e-3 * exact.max()


def test_virtual_source_leaves_intensity_dark():
    # the angle window spans exactly three oscillation periods of the
    # midpoint column, so its projection cancels to rounding
    g = make_grid(1024, 2.048e-3, 1024, 1.899e-2, LAM)
    train = OpticalTrain(g, PlaneWave(0.0), (Element(TwoPinholes(5e-5, -5e-5)),))
    trace, radiances = observed_trace(train, TraceOptions(compare_oracle=False))
    report = trace.report
    I = project_intensity(radiances[trace.stages[-1].index]).values
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
    with pytest.raises(InvalidConfigurationError, match="source is str"):
        OpticalTrain(g, "not a source", ())
    with pytest.raises(InvalidConfigurationError, match="observation"):
        OutputOptions(observation="hologram")
    with pytest.raises(InvalidConfigurationError):
        Propagate(-0.1)
    with pytest.raises(InvalidConfigurationError):
        TraceOptions(abort_loss=0.0)
    with pytest.raises(TypeError, match="interp"):
        TraceOptions(interp="linear")
    with pytest.raises(TypeError, match="oracle_pad"):
        TraceOptions(oracle_pad=2)


def test_source_materialization():
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    _, radiances = observed_trace(
        OpticalTrain(g, PointSource(5 * g.dx), ()),
        TraceOptions(compare_oracle=False),
    )
    I = project_intensity(radiances[0]).values
    assert np.count_nonzero(I) == 1
    assert I.argmax() == g.x_index(5 * g.dx)

    _, radiances = observed_trace(
        OpticalTrain(g, PlaneWave(3 * g.dtheta), ()),
        TraceOptions(compare_oracle=False),
    )
    plane = radiances[0]
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
    _, radiances = observed_trace(OpticalTrain(g, src, ()), TraceOptions(compare_oracle=False))
    I = project_intensity(radiances[0]).values
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


@pytest.mark.parametrize("n", [2, 3, 63, 64, 255, 256, 1023, 1024])
def test_the_padded_wave_axis_holds_the_grid_nodes(n):
    # the wave reference is read from the window (wide - n) // 2 onwards, so
    # the padding must be even in number: odd n gets one more
    g = make_grid(n, n * 2e-6, 16, 1e-2, LAM)
    wide = _padded_grid(g)
    start = (wide.x_samples - n) // 2
    assert wide.x_samples == 2 * n + n % 2
    assert wide.dx == pytest.approx(g.dx, rel=1e-15)
    window = wide.x_axis()[start : start + n]
    assert np.abs(window - g.x_axis()).max() <= 1e-9 * g.dx


def gaussian_beam(g, x0, angle, waist, z):
    """Paraxial intensity of exp(-((x - x0) / waist)^2 + 2 pi i angle x / lambda) after z."""
    rayleigh = np.pi * waist**2 / g.wavelength
    w = waist * np.hypot(1.0, z / rayleigh)
    return (waist / w) * np.exp(-2.0 * (g.x_axis() - x0 - angle * z) ** 2 / w**2)


def tilted_gaussian(g, x0, angle, waist):
    x = g.x_axis()
    return ComplexField(g, np.exp(-(((x - x0) / waist) ** 2) + 2j * np.pi * angle * x / g.wavelength))


@pytest.mark.parametrize("n", [255, 256])
def test_a_hop_follows_the_gaussian_beam(n):
    # a 60 um waist sits well inside both the window and the angle band, so
    # neither the clamp nor the cut takes any of it; measured 8.9e-6 of the
    # peak apart for both n
    g = make_grid(n, n * 2e-6, 256, 0.02, LAM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.abs(_hop(tilted_gaussian(g, 0.0, 0.0, 6e-5), 0.02).samples) ** 2
    want = gaussian_beam(g, 0.0, 0.0, 6e-5, 0.02)
    assert np.abs(got - want).max() <= 1e-4 * want.max()


@pytest.mark.parametrize("n", [255, 256])
def test_light_that_leaves_the_window_is_dropped_not_wrapped(n):
    # a beam tilted towards the right edge ends centred 16 um inside it, so
    # about a third of its light leaves the window; the hop keeps what stays
    # and lets none of the rest back in at the left edge, as a periodic axis
    # on the window alone would.  Measured 1.3e-3 of the peak from the beam (the window
    # cuts the input's tail) and 1.2e-6 of the peak left of the axis.
    g = make_grid(n, n * 2e-6, 256, 0.04, LAM)
    source = tilted_gaussian(g, 1.2e-4, 6e-3, 6e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.abs(_hop(source, 0.02).samples) ** 2
    want = gaussian_beam(g, 1.2e-4, 6e-3, 6e-5, 0.02)
    assert np.abs(got - want).max() <= 5e-3 * want.max()
    assert got[g.x_axis() < 0.0].max() <= 1e-5 * got.max()
    assert got.sum() <= 0.7 * (np.abs(source.samples) ** 2).sum()


def test_the_wave_reference_bounds_every_element_to_the_window(monkeypatch):
    # a plate a hair wider than the window is the unbounded plate on it, so
    # a wave reference that evaluates elements on the window only gives both
    # the same bits; one that lit the padded axis would tell them apart (by
    # 0.68 of the peak on this grid).  Only a hop widens the axis.  The 2 cm
    # hop stays well inside the transfer function's sampling.
    g = make_grid(256, 0.512e-3, 256, 0.02, LAM)
    masked, hopped = set(), set()

    def spy(seen, call):
        def wrapped(field, arg):
            seen.add(field.grid)
            return call(field, arg)

        return wrapped

    monkeypatch.setattr(scenarios, "apply_mask", spy(masked, scenarios.apply_mask))
    monkeypatch.setattr(scenarios, "fresnel_propagate", spy(hopped, scenarios.fresnel_propagate))
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for plate in (Hologram(0.05), Hologram(0.05, width=1.01 * g.x_extent)):
            train = OpticalTrain(g, PlaneWave(0.0), (Element(plate), Propagate(0.02)))
            got.append(_oracle_intensity(train).values)
    assert np.array_equal(got[0], got[1])
    assert masked == {g} and hopped == {_padded_grid(g)}


# A field source whose first stage is a lone numeric element is folded into
# it: one Wigner transform of the product of field and transmittance.
FOLD_GRID = make_grid(256, 2.56e-3, 256, 0.02, LAM)


def fold_beam(radius):
    return ComplexField(FOLD_GRID, np.exp(-((FOLD_GRID.x_axis() / radius) ** 2)))


# Fields the fold takes: a 150 um beam on the axis, off it, tilted, and
# both; each and its Wigner function decay below 1e-15 inside the window.
FOLD_BEAMS = {
    "centred": fold_beam(0.15e-3),
    "off_centre": tilted_gaussian(FOLD_GRID, 0.2e-3, 0.0, 0.15e-3),
    "tilted": tilted_gaussian(FOLD_GRID, 0.0, 3e-3, 0.15e-3),
    "off_centre_tilted": tilted_gaussian(FOLD_GRID, -0.2e-3, -4e-3, 0.15e-3),
}


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
FOLD_OPTIONS = [pytest.param(oversample, id=f"oversample_{oversample}") for oversample in (1, 2, 4)]
# Elements and beams whose final projection passes the warning floor (1e-2
# of the peak), with a ceiling on its negativity: the coded mask's random
# phase passes the angle window, so after the hop the projection dips to
# 1.349e-2 of its peak for the centred beam at every oversample (1.27e-2
# with the exact Fourier shear) and to 3.148e-2 for the tilted one.  Off
# the axis the mask meets less of the beam: 4.6e-3 and 7.0e-3.
FOLDED_NEGATIVITY = {("coded_aperture", "centred"): 1.4e-2, ("coded_aperture", "tilted"): 3.2e-2}


def folded_trace(field, spec, options):
    """The fold's trace, its first record and that record's radiance."""
    train = OpticalTrain(FOLD_GRID, FieldSource(field), (Element(spec), Propagate(0.01)))
    trace, radiances = observed_trace(train, options)
    assert [(r.index, r.label, r.kernel) for r in trace.stages] == [
        (1, f"source+{element_label(spec)}", "numeric"),
        (2, "propagate_0.01m", None),
    ]
    return trace, trace.stages[0], radiances[1]


@pytest.mark.parametrize("beam_name", FOLD_BEAMS)
@pytest.mark.parametrize("oversample", FOLD_OPTIONS)
@pytest.mark.parametrize("name", FOLDED_ELEMENTS)
def test_a_folded_source_gives_the_applied_numbers(name, oversample, beam_name):
    # the beam and its Wigner function decay below 1e-15 inside the window,
    # so the source radiance the two-step path keeps has lost nothing
    beam, spec = FOLD_BEAMS[beam_name], FOLDED_ELEMENTS[name]
    options = TraceOptions(oversample=oversample, compare_oracle=False)
    ceiling = FOLDED_NEGATIVITY.get((name, beam_name))
    with pytest.warns(NegativeIntensityWarning) if ceiling else contextlib.nullcontext():
        trace, record, alf = folded_trace(beam, spec, options)
    assert trace.report.negativity <= (ceiling or 1e-2)
    wdf_options = options.wdf_options
    applied = apply_transformer(
        wdf_from_field(beam, wdf_options), canonical_transformer(spec, FOLD_GRID, wdf_options)
    )
    peak = np.abs(applied.radiance).max()
    assert np.abs(alf.radiance - applied.radiance).max() <= 1e-12 * peak
    assert abs(record.truncation_loss - applied.meta["theta_leak_fraction"]) <= 1e-12
    assert alf.meta["theta_leak_fraction"] == record.truncation_loss
    content = np.abs(applied.radiance).sum() * FOLD_GRID.dtheta * FOLD_GRID.dx
    assert abs(alf.meta["theta_leak"] - applied.meta["theta_leak"]) <= 1e-12 * content


def test_a_folded_source_keeps_what_the_window_cuts_from_the_source():
    # a wider beam is cut by the position window, so its radiance passes the
    # angle window; the two-step path drops that part before the slit and
    # the fold keeps it, so the fold is the product's own Wigner transform
    beam = fold_beam(0.3e-3)
    spec = RectAperture(6e-4)
    options = TraceOptions(compare_oracle=False)
    _, _, alf = folded_trace(beam, spec, options)
    kernel = canonical_transformer(spec, FOLD_GRID, options.wdf_options)
    n = FOLD_GRID.x_samples
    product = _upsample(beam.samples, 2 * n) * kernel.source.signal
    u = FOLD_GRID.u_axis()
    rows = WignerRows(FOLD_GRID, product[::2], float(u[0]), float(u[1] - u[0]), n, WdfOptions(), product)
    want = wigner_table(rows) / LAM
    peak = np.abs(want).max()
    assert np.abs(alf.radiance - want).max() <= 1e-12 * peak
    # measured 7.8e-11, 7e-14 of the peak
    applied = apply_transformer(wdf_from_field(beam), kernel)
    assert np.abs(alf.radiance - applied.radiance).max() <= 1e-8 * peak


def test_the_fold_takes_an_opaque_mask_and_rejects_a_dark_field_or_another_lag_grid():
    zeros = ComplexField(FOLD_GRID, np.zeros(FOLD_GRID.x_samples))
    options = TraceOptions(compare_oracle=False)
    _, record, alf = folded_trace(fold_beam(0.15e-3), CodedAperture(zeros), options)
    assert not alf.radiance.any()
    assert record.truncation_loss == 0.0
    assert alf.meta["theta_leak"] == 0.0
    train = OpticalTrain(FOLD_GRID, FieldSource(zeros), (Element(RectAperture(6e-4)), Propagate(0.01)))
    with pytest.raises(DegenerateInputError, match="zero"):
        trace_train(train, options)
    kernel = canonical_transformer(RectAperture(6e-4), FOLD_GRID, WdfOptions())
    for grid, oversample in ((FOLD_GRID, 2), (make_grid(128, 2.56e-3, 256, 0.02, LAM), 1)):
        beam = ComplexField(grid, np.exp(-((grid.x_axis() / 0.15e-3) ** 2)))
        with pytest.raises(InvalidConfigurationError, match="lag grid"):
            kernel.fold(field_rows(beam, WdfOptions(oversample_factor=oversample)), {})


def test_a_folded_trace_holds_one_radiance_and_the_working_set(observe=None):
    g = make_grid(1024, 2.048e-3, 1024, 0.016, LAM)
    x = g.x_axis()
    beam = ComplexField(g, np.exp(-((x / 0.2e-3) ** 2)))
    phase = np.random.default_rng(4).uniform(-0.5, 0.5, g.x_samples)
    mask = ComplexField(g, (np.abs(x) < 0.5e-3) * np.exp(1j * phase))
    train = OpticalTrain(g, FieldSource(beam), (Element(CodedAperture(mask)), Propagate(0.01)))
    tracemalloc.start()
    try:
        trace = trace_train(train, observe=observe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.label for r in trace.stages] == ["source+coded_aperture", "propagate_0.01m"]
    assert_fold_memory(g, peak, observe)


def assert_fold_memory(g, peak, observe):
    """Observed, a fold's radiance (8 MiB) sheared in place, and block buffers;
    unobserved, the fold's rows go into the hop's projection a chunk at a time,
    so the trace peaks below one radiance (measured 3.4 MiB for the coded
    aperture, whose chunk is 0.85 MiB, and 2.1-2.4 MiB for the hologram, at
    1, 2 and 4 workers)."""
    radiance = 8 * g.x_samples * g.theta_samples
    assert peak < (radiance if observe else 0) + 4 * 2**20


UNFOLDED_MEMORY_TRAINS = [
    (Element(Lens(0.2)), Element(RectAperture(1e-3)), Propagate(0.05)),
    (Element(Lens(0.2)), Propagate(0.02), Element(RectAperture(1e-3)), Propagate(0.05)),
    # two applies after a hop, as in single_lens.cfg: the hop's array
    # must be let go once the lens has read it
    (Propagate(0.02), Element(Lens(0.2)), Element(RectAperture(1e-3)), Propagate(0.05)),
]


@pytest.mark.parametrize(
    "stages", UNFOLDED_MEMORY_TRAINS, ids=["one_hop", "lens_to_slit_hop", "hop_before_two_applies"]
)
def test_an_unfolded_trace_holds_two_radiances_and_the_working_set(stages, observe=None):
    g = make_grid(1024, 2.048e-3, 1024, 2.2e-2, LAM)
    train = OpticalTrain(g, PlaneWave(0.0), stages)
    tracemalloc.start()
    try:
        trace = trace_train(train, TraceOptions(compare_oracle=False), observe=observe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.stages[0].label == "source"
    # an apply's input and output (8 MiB each) and block buffers: the
    # records keep no radiance, and every hop shears in place
    radiance = 8 * g.x_samples * g.theta_samples
    assert peak < 2 * radiance + 4 * 2**20


def test_an_observed_trace_keeps_the_memory_bounds():
    # without an observer the memory gates above project the last hop, from
    # the fold's rows as they are written; an observer that keeps nothing
    # makes the fold write its radiance and every hop shear it in place
    def observe(record, alf):
        pass

    test_a_folded_trace_holds_one_radiance_and_the_working_set(observe)
    test_a_folded_plane_wave_holds_one_radiance_and_the_working_set(observe)
    for stages in UNFOLDED_MEMORY_TRAINS:
        test_an_unfolded_trace_holds_two_radiances_and_the_working_set(stages, observe)


# A plane wave whose first stage is a lone numeric element is folded into
# it, as a field is: its analytic lag-grid samples times the transmittance.
# Angles on the axis, on a node off it, between nodes (which takes the
# nearer one), far off the axis either way, where the wave's phase turns
# fastest across the window, and on the window's first and last nodes,
# where the element deflects light out of the window on one side.
PLANE_ANGLES = {
    "on_axis": 0.0,
    "off_axis_node": 3.0,
    "between_nodes": -4.4,
    "far_up": 100.0,
    "far_down": -101.0,
    "low_edge": -128.0,
    "high_edge": 127.0,
}


@pytest.mark.parametrize("steps", PLANE_ANGLES.values(), ids=PLANE_ANGLES.keys())
@pytest.mark.parametrize("oversample", FOLD_OPTIONS)
@pytest.mark.parametrize("name", FOLDED_ELEMENTS)
def test_a_folded_plane_wave_gives_the_applied_numbers(name, oversample, steps):
    spec, angle = FOLDED_ELEMENTS[name], steps * FOLD_GRID.dtheta
    # on the window's edges an element can deflect most of the light out
    # of it (the cubic phase 95 %), so no leak aborts: it is compared
    options = TraceOptions(oversample=oversample, abort_loss=1.0, compare_oracle=False)
    with warnings.catch_warnings():
        # right behind the coded mask and the bounded hologram the projection
        # passes the floor, where their light passes the angle window; the
        # two-step path warns alike, and the subject here is the radiance
        warnings.simplefilter("ignore", NegativeIntensityWarning)
        trace, radiances = observed_trace(OpticalTrain(FOLD_GRID, PlaneWave(angle), (Element(spec),)), options)
    [record] = trace.stages
    alf = radiances[record.index]
    assert (record.index, record.label, record.kernel) == (1, f"source+{element_label(spec)}", "numeric")
    wdf_options = options.wdf_options
    applied = apply_transformer(
        scenarios._source_radiance(FOLD_GRID, PlaneWave(angle), options),
        canonical_transformer(spec, FOLD_GRID, wdf_options),
    )
    peak = np.abs(applied.radiance).max()
    assert np.abs(alf.radiance - applied.radiance).max() <= 1e-12 * peak
    assert abs(record.truncation_loss - applied.meta["theta_leak_fraction"]) <= 1e-12
    assert alf.meta["theta_leak_fraction"] == record.truncation_loss
    content = np.abs(applied.radiance).sum() * FOLD_GRID.dtheta * FOLD_GRID.dx
    assert abs(alf.meta["theta_leak"] - applied.meta["theta_leak"]) <= 1e-12 * content
    assert alf.meta["source"] == applied.meta["source"] == "plane"


def test_a_folded_plane_wave_holds_one_radiance_and_the_working_set(observe=None):
    # hologram.cfg's train; the two-step path makes the wave's one-column
    # radiance as well
    g = make_grid(1024, 2.048e-3, 1024, 2.2e-2, LAM)
    train = OpticalTrain(g, PlaneWave(0.0), (Element(Hologram(0.1)), Propagate(0.1)))
    tracemalloc.start()
    try:
        trace = trace_train(train, observe=observe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.label for r in trace.stages] == ["source+hologram", "propagate_0.1m"]
    assert_fold_memory(g, peak, observe)


def test_an_out_of_window_plane_wave_is_rejected_before_a_numeric_element():
    for angle in (0.5 * FOLD_GRID.theta_extent, -0.5 * FOLD_GRID.theta_extent - FOLD_GRID.dtheta):
        with pytest.raises(InvalidConfigurationError, match="angular window"):
            OpticalTrain(FOLD_GRID, PlaneWave(angle), (Element(RectAperture(6e-4)), Propagate(0.01)))
    # the lower edge is the first node, inside the window
    low = OpticalTrain(FOLD_GRID, PlaneWave(-0.5 * FOLD_GRID.theta_extent), (Element(RectAperture(6e-4)),))
    assert trace_train(low, TraceOptions(compare_oracle=False)).stages[0].label == "source+rect_aperture"


def test_a_plane_wave_takes_the_nearer_angle_node_in_both_pipelines():
    # halfway between two nodes the lower one, as positions do
    g = make_grid(256, 2.048e-3, 256, 1.2e-2, LAM)
    assert g.theta_index(0.5 * g.dtheta) == 128
    assert g.theta_index(1.5 * g.dtheta) == 129
    assert g.theta_index(-0.5 * g.dtheta) == 127
    # off the node, the wave reference launches on the node the radiance
    # takes, so both pipelines see the on-node scene (rel. L2 0.095)
    errors = []
    for steps in (0.0, 0.3, 0.49, 0.5):
        train = OpticalTrain(g, PlaneWave(steps * g.dtheta), (Element(RectAperture(5e-4)), Propagate(0.05)))
        errors.append(trace_train(train).report.relative_l2_error)
    assert errors == [errors[0]] * 4
    assert errors[0] < 0.1


# Trains that keep the source record and apply their first element: a
# closed-form kernel (after a field or a plane wave), a hop before the
# element, and a second element at the same plane.
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
    # every deflection of this lens stays inside the angle window
    "plane_wave": (PlaneWave, (Element(Lens(0.2)),), ["source", "lens"]),
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
    folded = kernel.fold(field_rows(field, WdfOptions(boundary=field_edge)), {})
    n = FOLD_GRID.x_samples
    product = _upsample(field.samples, 2 * n) * _upsample(mask.samples, 2 * n)
    u = FOLD_GRID.u_axis()
    options = WdfOptions(boundary=product_edge)
    want = wigner_table(WignerRows(FOLD_GRID, product[::2], float(u[0]), float(u[1] - u[0]), n, options, product))
    want /= LAM
    assert np.abs(folded.radiance - want).max() <= 1e-12 * np.abs(want).max()


# Without an observer a last hop is projected along its sheared lines; with
# one it is sheared and the sheared radiance projected.  Both must report
# the same records, losses and warnings, and intensities equal to rounding.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def coded_field_train(seed):
    """The benchmark's coded_field train for one seed (its first screen)."""
    spec = importlib.util.spec_from_file_location("perfbench_coded_field", PERFBENCH / "coded_field.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    import auglf

    return module.build_train(auglf, seed, 0)


def traced_both_ways(train, options):
    """The train's trace with an observer that keeps nothing and without one, each with its warnings' classes."""
    runs = []
    for observe in (lambda record, alf: None, None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = trace_train(train, options, observe=observe)
        runs.append((trace, [w.category for w in caught]))
    return runs


def assert_same_report(observed, unobserved):
    assert [(r.index, r.label, r.kernel) for r in unobserved.stages] == [
        (r.index, r.label, r.kernel) for r in observed.stages
    ]
    for got, want in zip(unobserved.stages, observed.stages):
        assert abs(got.truncation_loss - want.truncation_loss) <= 1e-12
    got, want = unobserved.report, observed.report
    assert np.abs(got.alf_intensity.values - want.alf_intensity.values).max() <= 1e-12 * want.alf_intensity.values.max()
    assert np.array_equal(got.oracle_intensity.values, want.oracle_intensity.values)
    assert abs(got.truncation_loss - want.truncation_loss) <= 1e-12
    assert abs(got.negativity - want.negativity) <= 1e-12
    assert abs(got.relative_l2_error - want.relative_l2_error) <= 1e-12 * want.relative_l2_error
    assert got.peak_offset_cells == want.peak_offset_cells


SHIPPED = {path.stem: path for path in sorted(CONFIG_DIR.glob("*.cfg"))}


@pytest.mark.parametrize("path", SHIPPED.values(), ids=SHIPPED.keys())
def test_a_shipped_config_traces_alike_with_and_without_an_observer(path):
    cfg = parse_config(str(path))
    (observed, observed_warnings), (unobserved, unobserved_warnings) = traced_both_ways(
        cfg.train(), cfg.trace_options()
    )
    assert unobserved_warnings == observed_warnings
    assert_same_report(observed, unobserved)
    # the same bounds as the CLI's config test
    assert unobserved.report.negativity <= 1e-2
    assert isinstance(unobserved.train.stages[-1], Propagate)


# Every source against each shape of train the trace's one loop meets: no
# stage, hops alone, a fold alone, before one or two last hops and before
# later stages; a numeric element that is not folded, because a hop comes
# first or a second element shares its plane; and a closed-form element.
NUMERIC, CLOSED_FORM = Element(RectAperture(6e-4)), Element(Lens(0.2))
TRAIN_SHAPES = {
    "source_only": (),
    "hop": (Propagate(0.01),),
    "hop_hop": (Propagate(0.005), Propagate(0.005)),
    "numeric": (NUMERIC,),
    "numeric_hop": (NUMERIC, Propagate(0.01)),
    "numeric_hop_hop": (NUMERIC, Propagate(0.005), Propagate(0.005)),
    "numeric_hop_numeric": (NUMERIC, Propagate(0.01), Element(RectAperture(4e-4))),
    "numeric_hop_lens_hop": (NUMERIC, Propagate(0.01), CLOSED_FORM, Propagate(0.01)),
    "numeric_lens_hop": (NUMERIC, CLOSED_FORM, Propagate(0.01)),
    "numeric_numeric_hop": (Element(CubicPhase(2e10)), NUMERIC, Propagate(0.01)),
    "lens_hop": (CLOSED_FORM, Propagate(0.01)),
    "hop_numeric_hop": (Propagate(0.01), NUMERIC, Propagate(0.01)),
}
# the shapes whose first element is folded into a field or a plane wave
FOLDING_SHAPES = {"numeric", "numeric_hop", "numeric_hop_hop", "numeric_hop_numeric", "numeric_hop_lens_hop"}
LOOP_SOURCES = {
    "point": PointSource(0.0),
    "plane_on_axis": PlaneWave(0.0),
    "plane_off_axis": PlaneWave(3.0 * FOLD_GRID.dtheta),
    "field": FieldSource(fold_beam(0.15e-3)),
}


def stepwise_trace(train, options):
    """Each stage's ``(index, label, loss)``, from the source's record on, and
    the last radiance, made one stage at a time: the source's radiance, each
    element's kernel applied and each hop sheared into a new array."""
    alf = scenarios._source_radiance(train.grid, train.source, options)
    records = [(0, "source", 0.0)]
    for k, stage in enumerate(train.stages, start=1):
        if isinstance(stage, Propagate):
            alf, loss = shear_propagate(alf, stage.distance)
        else:
            alf = apply_transformer(alf, canonical_transformer(stage.spec, train.grid, options.wdf_options))
            loss = alf.meta.get("theta_leak_fraction", 0.0)
        records.append((k, scenarios._stage_label(stage), loss))
    return records, alf


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("source_name", LOOP_SOURCES)
@pytest.mark.parametrize("shape", TRAIN_SHAPES)
def test_every_train_shape_traces_as_its_stages_run_one_at_a_time(shape, source_name, oversample):
    source = LOOP_SOURCES[source_name]
    train = OpticalTrain(FOLD_GRID, source, TRAIN_SHAPES[shape])
    options = TraceOptions(oversample=oversample, compare_oracle=False)
    (observed, observed_warnings), (unobserved, unobserved_warnings) = traced_both_ways(train, options)
    assert unobserved_warnings == observed_warnings
    with warnings.catch_warnings():
        # the trace's warnings are checked against each other above; the
        # subject here is its records and numbers
        warnings.simplefilter("ignore")
        want_records, want_alf = stepwise_trace(train, options)
        want = project_intensity(want_alf).values
    if shape in FOLDING_SHAPES and not isinstance(source, PointSource):
        # the fold replaces the source's record and the first apply's, and
        # reports that apply's leak
        (index, label, loss) = want_records[1]
        want_records = [(index, "source+" + label, loss)] + want_records[2:]
    for trace in (observed, unobserved):
        got_records = [(r.index, r.label, r.truncation_loss) for r in trace.stages]
        assert [r[:2] for r in got_records] == [r[:2] for r in want_records]
        for (_, _, got_loss), (_, _, want_loss) in zip(got_records, want_records):
            assert abs(got_loss - want_loss) <= 1e-12
        assert np.abs(trace.report.alf_intensity.values - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("seed", [1, 2])
def test_coded_field_traces_alike_with_and_without_an_observer(seed):
    (observed, observed_warnings), (unobserved, unobserved_warnings) = traced_both_ways(
        coded_field_train(seed), TraceOptions()
    )
    assert unobserved_warnings == observed_warnings == []
    assert_same_report(observed, unobserved)
    # the benchmark's ceiling on the error against the wave reference
    assert unobserved.report.relative_l2_error <= 0.08


def heavy_throw():
    # slides the occupied row three windows away
    g = make_grid(128, 1.28e-3, 128, 128 * LAM / 1.28e-3, LAM)
    angle = 30 * g.dtheta
    return OpticalTrain(g, PlaneWave(angle), (Propagate(3 * g.x_extent / angle),)), TraceOptions(compare_oracle=False)


def rough_field_past_a_tight_limit():
    # after the hop this hard-edged random-phase field projects to 1.6e-2 of
    # its peak below zero, past the floor, but the hop drops 1.8e-8 of it
    # and the limit is 1e-8, so the trace aborts first and must not warn
    x = FOLD_GRID.x_axis()
    phase = np.random.default_rng(9).uniform(-0.5, 0.5, FOLD_GRID.x_samples)
    field = ComplexField(FOLD_GRID, (np.abs(x) < 0.2e-3) * np.exp(1j * phase))
    train = OpticalTrain(FOLD_GRID, FieldSource(field), (Propagate(0.02),))
    return train, TraceOptions(abort_loss=1e-8, compare_oracle=False)


def chirped_beam():
    # its local frequency leaves the angle window, so its transform draws a
    # BandwidthWarning
    x = FOLD_GRID.x_axis()
    return ComplexField(FOLD_GRID, np.exp(-((x / 0.6e-3) ** 2) + 1j * np.pi * 2e7 * x**2))


def chirp_past_a_limit(abort_loss):
    # the fold leaks 0.104 of its content past the angle window, and the
    # hop then throws 0.540 past both edges of the position window
    train = OpticalTrain(FOLD_GRID, FieldSource(chirped_beam()), (Element(CodedAperture(coded_mask())), Propagate(0.6)))
    return train, TraceOptions(abort_loss=abort_loss, compare_oracle=False)


# each with the stage it aborts at, the label its message names the stage
# by (a fold's record's, which names the source and its element) and the
# warnings it draws
ABORTS = {
    "heavy_throw": (heavy_throw, 1, "propagate_0.258831m", [TruncationWarning]),
    "rough_field_past_a_tight_limit": (rough_field_past_a_tight_limit, 1, "propagate_0.02m", []),
    # streamed: the fold's abort check comes before the hop's result, and
    # the hop's warning with that result
    "fold_leak_past_the_limit": (lambda: chirp_past_a_limit(0.05), 1, "source+coded_aperture", [BandwidthWarning]),
    "fold_hop_past_the_limit": (
        lambda: chirp_past_a_limit(0.3), 2, "propagate_0.6m", [BandwidthWarning, TruncationWarning]
    ),
}


@pytest.mark.parametrize("make, stage, label, categories", ABORTS.values(), ids=ABORTS.keys())
def test_an_unobserved_trace_aborts_and_warns_as_an_observed_one(make, stage, label, categories):
    train, options = make()
    outcomes = []
    for observe in (lambda record, alf: None, None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ScenarioAbortError) as err:
                trace_train(train, options, observe=observe)
        outcomes.append((err.value.stage_index, str(err.value), [w.category for w in caught]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == stage
    assert outcomes[1][1].startswith(f"stage {stage}: {label} truncated ")
    assert outcomes[1][2] == categories


# A fold followed by an unobserved hop streams its rows into the hop's
# projection and makes no radiance.  Hops by 0, 0.2 samples per column
# (coded_field's last hop), 1.46 (single_lens's) and one that throws light
# past both edges of the window.
STREAM_HOPS = {
    "zero": 0.0,
    "shallow": 0.2 * FOLD_GRID.dx / FOLD_GRID.dtheta,
    "steep": 1.46 * FOLD_GRID.dx / FOLD_GRID.dtheta,
    "past_both_edges": 0.6,
}
# a block budget whose chunks (232, 166, 62 and 26 rows for the hops
# above, from a row and its band products) do not divide the fold's 256 rows
STREAM_BUDGET = 40 * 16 * 768


def assert_streams_as_materialised(fold, distance, monkeypatch):
    """``fold(into)`` streamed into a hop by ``distance`` against its radiance (``fold(None)``) projected whole."""
    chunks = []
    add = ShearedProjection.add
    monkeypatch.setattr(ShearedProjection, "add", lambda self, lo, rows: chunks.append(len(rows)) or add(self, lo, rows))
    runs = []
    for streamed in (False, True):
        chunks.clear()
        projection = ShearedProjection(FOLD_GRID, distance) if streamed else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            folded = fold(projection)
            if streamed:
                meta = folded
                values, loss = projection.result()
            else:
                meta = folded.meta
                values, loss = sheared_projection(folded, distance)
        runs.append((meta, values, loss, [w.category for w in caught]))
    (want_meta, want, want_loss, want_warnings), (meta, got, loss, got_warnings) = runs
    assert got_warnings == want_warnings
    assert (TruncationWarning in got_warnings) == (distance == STREAM_HOPS["past_both_edges"])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(loss - want_loss) <= 1e-12
    assert meta.keys() == want_meta.keys()
    for key in ("theta_leak", "theta_leak_fraction"):
        assert abs(meta[key] - want_meta[key]) <= 1e-12
    # equal chunks but a short last one
    assert sum(chunks) == FOLD_GRID.x_samples and set(chunks[:-1]) == {chunks[0]} and chunks[-1] < chunks[0]


@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("beam_name", FOLD_BEAMS)
@pytest.mark.parametrize("oversample", FOLD_OPTIONS)
@pytest.mark.parametrize("name", FOLDED_ELEMENTS)
def test_a_streamed_field_fold_projects_as_its_radiance_does(name, oversample, beam_name, boundary, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_BYTES", STREAM_BUDGET)
    options = WdfOptions(oversample, boundary)
    kernel = canonical_transformer(FOLDED_ELEMENTS[name], FOLD_GRID, options)
    beam = FOLD_BEAMS[beam_name]
    for distance in STREAM_HOPS.values():
        assert_streams_as_materialised(
            lambda into: kernel.fold(field_rows(beam, options), {}, into=into), distance, monkeypatch
        )


@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("steps", PLANE_ANGLES.values(), ids=PLANE_ANGLES.keys())
@pytest.mark.parametrize("oversample", FOLD_OPTIONS)
@pytest.mark.parametrize("name", FOLDED_ELEMENTS)
def test_a_streamed_plane_wave_fold_projects_as_its_radiance_does(name, oversample, steps, boundary, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_BYTES", STREAM_BUDGET)
    kernel = canonical_transformer(FOLDED_ELEMENTS[name], FOLD_GRID, WdfOptions(oversample, boundary))
    launch = _launch(FOLD_GRID, PlaneWave(steps * FOLD_GRID.dtheta), TraceOptions(oversample=oversample))
    for distance in STREAM_HOPS.values():
        assert_streams_as_materialised(lambda into: kernel.fold(*launch, into=into), distance, monkeypatch)


STREAMED_TRAINS = {
    "chirp_through_a_mask_past_both_edges": (FieldSource(chirped_beam()), CodedAperture(coded_mask()), STREAM_HOPS["past_both_edges"]),
    "plane_wave_through_a_hologram_steep": (PlaneWave(3 * FOLD_GRID.dtheta), Hologram(0.15, width=1e-3), STREAM_HOPS["steep"]),
}


@pytest.mark.parametrize("source, spec, distance", STREAMED_TRAINS.values(), ids=STREAMED_TRAINS.keys())
def test_a_streamed_trace_records_and_warns_as_an_observed_one(source, spec, distance):
    train = OpticalTrain(FOLD_GRID, source, (Element(spec), Propagate(distance)))
    (observed, observed_warnings), (unobserved, unobserved_warnings) = traced_both_ways(train, TraceOptions(abort_loss=1.0))
    # the field's BandwidthWarning before the hop's TruncationWarning
    assert unobserved_warnings == observed_warnings
    if isinstance(source, FieldSource):
        assert unobserved_warnings[:2] == [BandwidthWarning, TruncationWarning]
    assert_same_report(observed, unobserved)
