import tracemalloc
import typing
import warnings

import numpy as np
import pytest

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
    apply_transformer,
    element_label,
    make_grid,
)
from auglf.elements import ElementSpec
from auglf.scenarios import Element

from oracles import hologram_kernel, rect_wigner

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
    # every element class but the coded aperture; the slit and the bounded
    # hologram take the numeric path of their transmittance
    assert {type(spec) for spec in specs} == set(typing.get_args(ElementSpec)) - {CodedAperture}
    numeric = (RectAperture(4e-4), Hologram(0.1, width=4e-4))
    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            label = "numeric" if spec in numeric else element_label(spec)
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
    # the numeric kernel of a bounded plate always carries the cross term
    with pytest.raises(InvalidConfigurationError, match="unbounded plate"):
        Hologram(0.1, include_oscillatory=False, width=1.5e-3)


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
    alpha = 3e9
    np.testing.assert_allclose(
        CubicPhase(alpha).deflection(LAM, x),
        3 * LAM * alpha * x ** 2 / (2 * np.pi),
        atol=1e-15,
    )
    # a plate holding a linear ramp acts as the matching prism
    slope = 1.5e4
    plate = PhasePlate(slope * x)
    np.testing.assert_allclose(
        plate.deflection(LAM, x),
        LAM * slope / (2 * np.pi),
        rtol=1e-9,
    )
    with pytest.raises(InvalidConfigurationError):
        plate.deflection(LAM, x[:-1])
    # amplitude elements have no single-valued deflection profile
    assert not hasattr(RectAperture(1e-4), "deflection")


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


HOLOGRAM_PLATES = {
    "unbounded": Hologram(0.1),
    "unbounded_no_cross_term": Hologram(0.1, include_oscillatory=False),
}


@pytest.mark.parametrize("plate", HOLOGRAM_PLATES.values(), ids=HOLOGRAM_PLATES.keys())
def test_hologram_kernel_blocks_match_the_one_shot_formula_bits(plate):
    # 203 positions: several blocks of rows and a ragged last one
    g = PhaseSpaceGrid(203, 2.048e-3, 512, 2.2e-2, 6.33e-7)
    want = hologram_kernel(g, plate.source_distance, plate.include_oscillatory)
    assert np.array_equal(plate.kernel(g).kernel, want)


HOLOGRAM_BUILDS = {
    # hologram.cfg's plate and grid
    "unbounded": (Hologram(0.1), PhaseSpaceGrid(1024, 2.048e-3, 1024, 2.2e-2, 6.33e-7)),
}


@pytest.mark.parametrize("build", HOLOGRAM_BUILDS.values(), ids=HOLOGRAM_BUILDS.keys())
def test_hologram_kernel_build_holds_the_table_and_small_blocks(build):
    plate, g = build
    tracemalloc.start()
    try:
        table = plate.kernel(g).kernel
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the cross term evaluated over the whole table would hold several
    # table-sized temporaries at once (16 MiB each)
    assert peak < table.nbytes + 4 * 2**20


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
    want = hologram_kernel(g, 0.1, True, 1.5e-3)
    assert np.abs(got - want).max() <= 1e-3 * np.abs(want).max()


DENSE_PLATES = {
    "slit": (RectAperture(5e-4), PhaseSpaceGrid(256, 2.048e-3, 256, 1.2e-2, LAM)),
    "bounded_hologram": (Hologram(0.1, width=1.5e-3), PhaseSpaceGrid(512, 2.048e-3, 512, 2.2e-2, LAM)),
}


@pytest.mark.parametrize("case", DENSE_PLATES.values(), ids=DENSE_PLATES.keys())
def test_centred_dense_kernels_are_even_in_position_and_angle(case):
    # both transmittances are even in x, so their Wigner kernels are even
    # in position and in deflection; on the node-centred axis row i
    # mirrors row n - i, and row 0 has no partner
    plate, g = case
    K = plate.kernel(g).kernel
    scale = np.abs(K).max()
    assert np.abs(K[1:] - K[:0:-1]).max() <= 1e-12 * scale
    assert np.abs(K - K[:, ::-1]).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", DENSE_PLATES.values(), ids=DENSE_PLATES.keys())
def test_dense_kernels_reject_an_angle_window_their_lag_sampling_misses(case):
    plate, _ = case
    # a 10 um pitch samples lags up to wavelength / (2 dx) = 0.0317 rad of deflection
    with pytest.raises(InvalidConfigurationError, match="lag sampling"):
        plate.kernel(make_grid(256, 2.56e-3, 256, 0.1, LAM))
    assert plate.kernel(make_grid(256, 2.56e-3, 256, 0.03, LAM)).kernel.shape == (256, 511)


def test_bounded_hologram_kernel_build_and_apply_hold_no_table():
    g = PhaseSpaceGrid(1024, 2.048e-3, 1024, 2.2e-2, 6.33e-7)
    radiance = np.random.default_rng(5).normal(size=(g.x_samples, g.theta_samples))
    alf = AugmentedLightField(g, radiance)
    tracemalloc.start()
    try:
        apply_transformer(alf, Hologram(0.1, width=1.5e-3).kernel(g))
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
