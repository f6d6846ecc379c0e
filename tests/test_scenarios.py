import warnings
from pathlib import Path

import numpy as np
import pytest

from auglf import (
    AugmentedLightField,
    ComplexField,
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
    cubic_phase_psf_sweep,
    make_grid,
    normalized_cross_correlation,
    project_intensity,
    trace_train,
)
from auglf import Lens
from auglf.config import OutputOptions, parse_config

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
