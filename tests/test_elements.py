import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from auglf import (
    AmplitudeGrating,
    AugmentedLightField,
    CodedAperture,
    ComplexField,
    CubicPhase,
    DegenerateInputError,
    Hologram,
    InvalidConfigurationError,
    Lens,
    PhaseGrating,
    PhasePlate,
    PhaseSpaceGrid,
    Pinhole,
    Prism,
    RectAperture,
    TwoPinholes,
    WdfOptions,
    apply_transformer,
    element_label,
    make_grid,
    transformer_from_transmittance,
)
from auglf.elements import ElementSpec
from auglf.scenarios import Element

from oracles import cubic_phase_kernel, hologram_kernel, rect_wigner

LAM = 633e-9


def axis(n=256, extent=2.56e-3):
    return make_grid(n, extent, 16, 1e-2, LAM)


def test_labels_are_snake_case():
    assert element_label(Pinhole()) == "pinhole"
    assert element_label(TwoPinholes(1e-5, -1e-5)) == "two_pinholes"
    assert element_label(RectAperture(1e-4)) == "rect_aperture"
    assert element_label(CubicPhase(1.0)) == "cubic_phase"
    assert element_label(Hologram(0.1)) == "hologram"


def test_closed_form_kernels_carry_the_element_label():
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    specs = (
        Pinhole(),
        TwoPinholes(1e-4, -1e-4),
        RectAperture(4e-4),
        AmplitudeGrating(0.5, 1e-4),
        Prism(1e4),
        Lens(0.5),
        CubicPhase(1e9),
        PhaseGrating(1.0, 1e-4),
        PhasePlate(np.linspace(0.0, 3.0, 64) ** 2),
        Hologram(0.1),
        Hologram(0.1, width=4e-4),
    )
    # every element class but the coded aperture; only the delta-line kernels
    # are closed-form, the rest take the numeric path of their transmittance
    assert {type(spec) for spec in specs} == set(typing.get_args(ElementSpec)) - {CodedAperture}
    numeric = (RectAperture, CubicPhase, PhasePlate, Hologram)
    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            label = "numeric" if isinstance(spec, numeric) else element_label(spec)
            assert spec.kernel(g).meta["element"] == label


def test_constructor_validation():
    with pytest.raises(InvalidConfigurationError):
        TwoPinholes(1e-5, 1e-5)
    with pytest.raises(InvalidConfigurationError):
        RectAperture(0.0)
    with pytest.raises(InvalidConfigurationError):
        AmplitudeGrating(1.5, 1e-4)
    with pytest.raises(InvalidConfigurationError):
        AmplitudeGrating(0.5, -1e-4)
    with pytest.raises(InvalidConfigurationError):
        Lens(0.0)
    with pytest.raises(InvalidConfigurationError):
        PhaseGrating(-1.0, 1e-4)
    with pytest.raises(InvalidConfigurationError):
        PhaseGrating(1.0, 0.0)
    with pytest.raises(InvalidConfigurationError):
        PhasePlate(np.array(3.0))
    with pytest.raises(DegenerateInputError):
        PhasePlate(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(InvalidConfigurationError):
        Hologram(-0.1)
    with pytest.raises(InvalidConfigurationError):
        Hologram(0.1, width=0.0)


def test_pinhole_spike_convention():
    g = axis()
    x = g.x_axis()
    t = Pinhole(17 * g.dx).transmittance(LAM, x, g.dx)
    assert t[g.x_index(17 * g.dx)] == 1.0 / g.dx
    assert np.count_nonzero(t) == 1

    t2 = TwoPinholes(32 * g.dx, -32 * g.dx).transmittance(LAM, x, g.dx)
    assert np.count_nonzero(t2) == 2
    assert t2[g.x_index(32 * g.dx)] == 1.0 / g.dx


@pytest.mark.parametrize(
    "spec",
    [Pinhole(0.64e-3), Pinhole(-0.65e-3), TwoPinholes(2.0, -1e-4), TwoPinholes(1e-4, -0.64000001e-3)],
    ids=["pinhole_right_edge", "pinhole_left", "two_pinholes_far", "two_pinholes_left"],
)
def test_pinholes_off_the_window_are_rejected(spec):
    # the window is [-x_extent/2, x_extent/2): a pinhole past either end
    # would otherwise be clipped onto the edge row
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    with pytest.raises(InvalidConfigurationError, match="outside the window"):
        spec.kernel(g)


def test_pinholes_at_the_window_edges_keep_their_rows():
    g = make_grid(64, 1.28e-3, 64, 1e-2, LAM)
    left, right = -0.64e-3, 0.64e-3 - g.dx  # the first and last nodes
    assert np.flatnonzero(Pinhole(left).kernel(g).kernel.any(axis=1)).tolist() == [0]
    assert np.flatnonzero(Pinhole(right).kernel(g).kernel.any(axis=1)).tolist() == [63]
    rows = TwoPinholes(left, right - g.dx).kernel(g).kernel.any(axis=1)
    assert np.flatnonzero(rows).tolist() == [0, 31, 62]


def test_rect_halves_its_edge_samples():
    g = axis()
    x = g.x_axis()
    width = 64 * g.dx  # edges land exactly on nodes
    t = RectAperture(width).transmittance(LAM, x, g.dx).real
    assert np.count_nonzero(t == 1.0) == 63
    assert np.count_nonzero(t == 0.5) == 2
    assert t[g.x_index(32 * g.dx)] == 0.5


def test_amplitude_grating_range_and_mean():
    g = axis()
    x = g.x_axis()
    t = AmplitudeGrating(0.8, g.x_extent / 16).transmittance(LAM, x, g.dx).real
    assert t.min() == pytest.approx(0.1, abs=1e-12)
    assert t.max() == pytest.approx(0.9, abs=1e-12)
    assert t.mean() == pytest.approx(0.5, abs=1e-12)


def test_pure_phase_elements_have_unit_modulus():
    g = axis()
    x = g.x_axis()
    for spec in (Prism(1e4), Lens(0.1), CubicPhase(1e9), PhaseGrating(2.0, 1e-4)):
        t = spec.transmittance(LAM, x, g.dx)
        np.testing.assert_allclose(np.abs(t), 1.0, atol=1e-12)


def test_lens_phase_profile():
    g = axis()
    x = g.x_axis()
    f = 0.25
    t = Lens(f).transmittance(LAM, x, g.dx)
    expect = np.exp(-1j * np.pi * x ** 2 / (LAM * f))
    np.testing.assert_allclose(t, expect, atol=1e-12)


def test_deflection_profiles():
    g = axis()
    x = g.x_axis()
    np.testing.assert_allclose(
        Prism(2e4).deflection(LAM, x), LAM * 2e4 / (2 * np.pi), atol=1e-15
    )
    np.testing.assert_allclose(Lens(0.2).deflection(LAM, x), -x / 0.2, atol=1e-15)
    # only the prism and the lens have a delta-line kernel; every other
    # element takes the numeric kernel of its transmittance
    for spec in (RectAperture(1e-4), CubicPhase(3e9), PhasePlate(1.5e4 * x), Hologram(0.1)):
        assert not hasattr(spec, "deflection"), spec


def test_phase_plate_kernel_needs_a_profile_per_position():
    g = axis()
    with pytest.raises(InvalidConfigurationError, match="does not match the grid"):
        PhasePlate(np.zeros(g.x_samples - 1)).kernel(g)


def test_hologram_fringes():
    g = axis()
    x = g.x_axis()
    d = 0.1
    t = Hologram(d).transmittance(LAM, x, g.dx)
    expect = 2 * np.cos(2 * np.pi * d / LAM + np.pi * x ** 2 / (LAM * d))
    np.testing.assert_allclose(t.real, expect, atol=1e-9)
    np.testing.assert_allclose(t.imag, 0.0, atol=1e-12)

    w = 64 * g.dx
    tw = Hologram(d, width=w).transmittance(LAM, x, g.dx)
    assert np.all(tw[np.abs(x) > w / 2 + g.dx] == 0)


def rel_axis(g):
    return (np.arange(2 * g.theta_samples - 1) - (g.theta_samples - 1)) * g.dtheta


# Dense kernels are numeric; their closed forms are the oracles.  Each
# bound sits above the largest difference measured on that grid, as a
# share of the kernel's peak: 0.27 % for single_lens's 1 mm slit on
# 2048 x 2048, 1.0 % for a 0.5 mm slit on 256 x 256 (the sinc lobes are
# coarser there) and 0.04 % for a 1.5 mm hologram plate on 512 x 512.
SLITS = {
    "single_lens_2048": (RectAperture(1e-3), PhaseSpaceGrid(2048, 8.192e-3, 2048, 6e-2, LAM), 4e-3),
    "small_256": (RectAperture(5e-4), PhaseSpaceGrid(256, 2.048e-3, 256, 1.2e-2, LAM), 2e-2),
}


@pytest.mark.parametrize("case", SLITS.values(), ids=SLITS.keys())
def test_slit_kernel_matches_the_closed_form_wigner(case):
    slit, g, bound = case
    got = slit.kernel(g).kernel
    want = rect_wigner(g.x_axis()[:, None], rel_axis(g)[None, :] / LAM, slit.width) / LAM
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_bounded_hologram_kernel_matches_the_closed_form():
    g = PhaseSpaceGrid(512, 2.048e-3, 512, 2.2e-2, 6.33e-7)
    got = Hologram(0.1, width=1.5e-3).kernel(g).kernel
    want = hologram_kernel(g, 0.1, 1.5e-3)
    assert np.abs(got - want).max() <= 1e-3 * np.abs(want).max()


CUBIC_GRID = PhaseSpaceGrid(512, 2.048e-3, 512, 2e-2, LAM)


def test_cubic_phase_kernel_matches_the_airy_form():
    # cubic_phase.cfg's coefficient.  Away from the window edges the numeric
    # kernel follows the Airy form of the unbounded plate; the plate's ends
    # add fine ripple in angle, which the smoothing takes out.  Measured
    # 0.021; a ray-optics kernel (one delta at each position's deflection)
    # scores 0.185.
    g = CUBIC_GRID
    rows = np.abs(g.x_axis()) < g.x_extent / 8
    got = gaussian_filter1d(CubicPhase(4e9).kernel(g).kernel[rows], 5, axis=1)
    want = gaussian_filter1d(cubic_phase_kernel(g, 4e9)[rows], 5, axis=1)
    assert np.linalg.norm(got - want) <= 0.05 * np.linalg.norm(want)


def test_phase_plate_of_a_cubic_matches_the_cubic_plate():
    # the sampled profile is interpolated between nodes, the cubic plate's
    # values are exact there; measured 0.30 % of the peak apart
    g = CUBIC_GRID
    plate = PhasePlate(4e9 * g.x_axis() ** 3).kernel(g).kernel
    cubic = CubicPhase(4e9).kernel(g).kernel
    assert np.abs(plate - cubic).max() <= 1e-2 * np.abs(cubic).max()


DENSE_PLATES = {
    "slit": (RectAperture(5e-4), PhaseSpaceGrid(256, 2.048e-3, 256, 1.2e-2, LAM)),
    "bounded_hologram": (Hologram(0.1, width=1.5e-3), PhaseSpaceGrid(512, 2.048e-3, 512, 2.2e-2, LAM)),
    "unbounded_hologram": (Hologram(0.1), PhaseSpaceGrid(512, 2.048e-3, 512, 2.2e-2, LAM)),
}


@pytest.mark.parametrize("case", DENSE_PLATES.values(), ids=DENSE_PLATES.keys())
def test_centred_dense_kernels_are_even_in_position_and_angle(case):
    # every transmittance here is real and even in x, so its Wigner kernel
    # is even in deflection and in position; on the node-centred axis row i
    # mirrors row n - i, and row 0 has no partner.  A plate that fills the
    # window is nonzero at the first node, whose mirror lies past the last
    # node, so its kernel is even in deflection only (1.8e-3 of the peak
    # apart in position for the unbounded hologram).
    plate, g = case
    K = plate.kernel(g).kernel
    scale = np.abs(K).max()
    if plate.width is not None:
        assert np.abs(K[1:] - K[:0:-1]).max() <= 1e-12 * scale
    assert np.abs(K - K[:, ::-1]).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", DENSE_PLATES.values(), ids=DENSE_PLATES.keys())
def test_dense_kernels_reject_an_angle_window_their_lag_sampling_misses(case):
    plate, _ = case
    # a 10 um pitch samples lags up to wavelength / (2 dx) = 0.0317 rad of deflection
    with pytest.raises(InvalidConfigurationError, match="lag sampling"):
        plate.kernel(make_grid(256, 2.56e-3, 256, 0.1, LAM))
    assert plate.kernel(make_grid(256, 2.56e-3, 256, 0.03, LAM)).kernel.shape == (256, 511)


@pytest.mark.parametrize("plate", [Hologram(0.1, width=1.5e-3), Hologram(0.1)], ids=["bounded", "unbounded"])
def test_hologram_kernel_build_and_apply_hold_no_table(plate):
    # hologram.cfg's grid
    g = PhaseSpaceGrid(1024, 2.048e-3, 1024, 2.2e-2, 6.33e-7)
    radiance = np.random.default_rng(5).normal(size=(g.x_samples, g.theta_samples))
    alf = AugmentedLightField(g, radiance)
    tracemalloc.start()
    try:
        apply_transformer(alf, plate.kernel(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (8 MiB) and a few MiB of one block's kernel rows, chirp-z
    # scratch and transforms; the 16 MiB table would not fit
    table_bytes = g.x_samples * (2 * g.theta_samples - 1) * 8
    assert peak < alf.radiance.nbytes + 6 * 2**20 < alf.radiance.nbytes + table_bytes


def test_coded_aperture_alignment_and_padding():
    g = make_grid(64, 1.28e-3, 16, 1e-2, LAM)
    rng = np.random.default_rng(2)
    vals = rng.uniform(size=64).astype(complex)
    spec = CodedAperture(ComplexField(g, vals))
    t = spec.transmittance(LAM, g.x_axis(), g.dx)
    np.testing.assert_allclose(t, vals, atol=1e-15)
    # padded axis: opaque outside the sampled support
    xp = (np.arange(256) - 128) * g.dx
    tp = spec.transmittance(LAM, xp, g.dx)
    assert np.all(tp[:90] == 0) and np.all(tp[-60:] == 0)
    np.testing.assert_allclose(tp[96:160], vals, atol=1e-15)


def test_phase_plate_pinned_to_central_window():
    g = axis(64)
    phase = np.linspace(0, 1, 64)
    spec = PhasePlate(phase)
    xp = (np.arange(128) - 64) * g.dx
    t = spec.transmittance(LAM, xp, g.dx)
    np.testing.assert_allclose(t[32:96], np.exp(1j * phase), atol=1e-15)
    np.testing.assert_allclose(t[:32], 1.0, atol=1e-15)


def test_unknown_spec_rejected():
    with pytest.raises(InvalidConfigurationError):
        Element(object())


# The closed-form deflectors against the numeric kernel of their own
# transmittance (periodic boundary, exact values on the lag grid), both
# applied to one smooth radiance on a 256 x 256 grid: a Gaussian of a
# twelfth of the window in x and of 16 angle steps in angle.  On-bin
# deflections agree to the Gaussian's 1.5e-8 at the window edge (measured
# 1.5e-8 lens, 3.1e-8 prism).  Off-bin, the delta kernel rounds each
# deflection to a column, which moves the output by up to e^{-1/2} / 16 of
# the peak per angle step of rounding (measured 1.14e-2 at 0.3 steps, 1.84e-2
# at up to 0.5 steps).
DEFLECTORS = {
    "lens_on_bin": (lambda g: Lens(g.x_extent / g.theta_extent), 1e-7),
    "prism_on_bin": (lambda g: Prism(2 * np.pi * 3 * g.dtheta / LAM), 1e-7),
    "lens_off_bin": (lambda g: Lens(g.x_extent / (0.7 * g.theta_extent)), 0.02),
    "prism_off_bin": (lambda g: Prism(2 * np.pi * 3.3 * g.dtheta / LAM), 0.0125),
}


@pytest.mark.parametrize("case", DEFLECTORS.values(), ids=DEFLECTORS.keys())
def test_closed_form_deflectors_match_their_numeric_kernel(case):
    make_spec, bound = case
    n = 256
    g = PhaseSpaceGrid(n, n * 1e-5, n, 0.5 * LAM / 1e-5, LAM)  # dx * theta window = lambda / 2
    x, theta = g.x_axis(), g.theta_axis()
    radiance = np.exp(-0.5 * (12 * x[:, None] / g.x_extent) ** 2 - 0.5 * (theta[None, :] / (16 * g.dtheta)) ** 2)
    alf = AugmentedLightField(g, radiance)
    spec = make_spec(g)
    fine_x = x[0] + 0.5 * g.dx * np.arange(2 * n)
    numeric = transformer_from_transmittance(
        ComplexField(g, spec.transmittance(LAM, x, g.dx)),
        WdfOptions(boundary="periodic"),
        spec.transmittance(LAM, fine_x, 0.5 * g.dx),
    )
    want = apply_transformer(alf, numeric).radiance
    got = apply_transformer(alf, spec.kernel(g)).radiance
    assert np.abs(got - want).max() <= bound * np.abs(want).max()
