import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import irfft, next_fast_len, rfft

from auglf import (
    AmplitudeGrating,
    AugmentedLightField,
    ClippedOrderWarning,
    CodedAperture,
    ComplexField,
    InvalidConfigurationError,
    Lens,
    LightFieldTransformer,
    PhaseGrating,
    PhaseSpaceGrid,
    Pinhole,
    Prism,
    TwoPinholes,
    WdfOptions,
    apply_transformer,
    canonical_transformer,
    make_grid,
    transformer_from_transmittance,
)
import auglf.core as core
from auglf.config import parse_config
from auglf.transformers import _BLOCK_BYTES, _block_rows
from oracles import (
    angle_convolution,
    apply_dense_kernel,
    fourier_shear,
    lanczos_shift,
    linear_apply,
    phase_grating_orders,
)

LAM = 633e-9


def resonant_grid(n=128, extent=2.56e-3):
    # dtheta = lambda / (2 extent): every half-order deflection of an
    # on-window grating lands exactly on a kernel column
    return make_grid(n, extent, n, n * LAM / (2 * extent), LAM)


def random_alf(grid, seed=0):
    rng = np.random.default_rng(seed)
    return AugmentedLightField(
        grid, rng.normal(size=(grid.x_samples, grid.theta_samples))
    )


def on_bin_prism(grid, bins):
    return Prism(2 * np.pi * bins * grid.dtheta / LAM)


def identity(grid):
    """Kernel that leaves any light field unchanged: one line of weight 1 at zero deflection."""
    lines = (1, grid.x_samples)
    return LightFieldTransformer(grid, np.zeros(lines), np.ones(lines))


def random_lines(grid, rng, lines=3, rows=2):
    """A closed-form kernel of random delta lines and full rows.

    The first line keeps one shift, as a grating order does; the others
    keep each shift over a run of up to 4 rows, as a lens does.  Shifts
    are whole on the second line, and wherever some of the 8 taps of a
    fractional shift would fall off the table, so that the assembled table
    holds every line whole; the rest are fractional.  The full rows sit on
    random positions, on top of the lines.
    """
    n, n_x = grid.theta_samples, grid.x_samples
    shifts = rng.uniform(1 - n, n - 1, size=(lines, n_x // 4 + 1)).repeat(4, axis=1)[:, :n_x]
    shifts[:1] = rng.uniform(1 - n, n - 1)
    shifts[1:2] = np.rint(shifts[1:2])
    off_table = (np.floor(shifts) < 4 - n) | (np.floor(shifts) > n - 5)
    shifts = np.where(off_table, np.rint(shifts), shifts)
    profiles = rng.normal(size=(min(rows, n_x), 2 * n - 1))
    at = rng.choice(n_x, size=len(profiles), replace=False).tolist()
    return LightFieldTransformer(grid, shifts, rng.normal(size=shifts.shape), dict(zip(at, profiles)))


def test_identity_application_is_exact():
    g = resonant_grid()
    alf = random_alf(g)
    out = apply_transformer(alf, identity(g))
    scale = np.abs(alf.radiance).max()
    np.testing.assert_allclose(out.radiance, alf.radiance, atol=1e-12 * scale)
    assert abs(out.meta["theta_leak"]) < 1e-12 * alf.total_power()
    assert out.meta["theta_leak_fraction"] < 1e-12


def test_uniform_mask_is_identity_kernel():
    g = resonant_grid()
    t = transformer_from_transmittance(ComplexField(g, np.ones(g.x_samples, complex)))
    ref = identity(g)
    assert np.abs(t.kernel - ref.kernel).max() < 1e-12 * ref.kernel.max()


def test_pinhole_kernel_rows():
    g = resonant_grid()
    t = canonical_transformer(Pinhole(10 * g.dx), g)
    row = g.x_index(10 * g.dx)
    np.testing.assert_allclose(t.kernel[row], 1.0 / (LAM * g.dx), atol=1e-6)
    others = np.delete(t.kernel, row, axis=0)
    assert np.abs(others).max() == 0.0


def test_two_pinholes_midpoint_oscillation():
    g = resonant_grid()
    a, b = 16 * g.dx, -16 * g.dx
    t = canonical_transformer(TwoPinholes(a, b), g)
    mid = t.kernel[g.x_index(0.0)]
    rel = (np.arange(2 * g.theta_samples - 1) - (g.theta_samples - 1)) * g.dtheta
    expect = 2.0 * np.cos(2 * np.pi * (a - b) * rel / LAM) / (LAM * g.dx)
    np.testing.assert_allclose(mid, expect, atol=1e-9 / (LAM * g.dx))


def test_prism_composition_adds_deflections():
    # two on-bin prisms in a row move the field by whole angle bins, as one
    # prism of the summed deflection does; what leaves the window on the
    # way is lost either way
    g = resonant_grid()
    alf = random_alf(g, 5)
    t3, t5, t8 = (canonical_transformer(on_bin_prism(g, k), g) for k in (3, 5, 8))
    got = apply_transformer(apply_transformer(alf, t3), t5)
    want = apply_transformer(alf, t8)
    scale = np.abs(alf.radiance).max()
    np.testing.assert_allclose(got.radiance, want.radiance, atol=1e-10 * scale)
    np.testing.assert_allclose(want.radiance[:, 8:], alf.radiance[:, :-8], atol=1e-10 * scale)
    np.testing.assert_allclose(want.radiance[:, :8], 0.0, atol=1e-10 * scale)


def test_lens_composition_adds_power():
    g = resonant_grid()
    # dx/f equal to one angle bin per position step keeps every deflection on-bin
    f = g.dx / g.dtheta
    ta = canonical_transformer(Lens(f), g)
    with pytest.warns(ClippedOrderWarning):
        # the f/2 lens bends the outermost row just past the kernel's end
        tb = canonical_transformer(Lens(f / 2), g)
    alf = random_alf(g, 6)
    got = apply_transformer(apply_transformer(alf, ta), ta).radiance
    want = apply_transformer(alf, tb).radiance
    keep = slice(1, g.x_samples)
    scale = np.abs(alf.radiance).max()
    np.testing.assert_allclose(got[keep], want[keep], atol=1e-10 * scale)


def test_elements_at_one_plane_commute():
    # each kernel convolves every position's angle row, and convolutions
    # commute; the field is confined to the central angles so that no
    # order of the three leaves the window
    g = resonant_grid()
    a = canonical_transformer(on_bin_prism(g, 2), g)
    b = canonical_transformer(Lens(8 * g.dx / g.dtheta), g)
    c = canonical_transformer(AmplitudeGrating(0.6, g.x_extent / 16), g)
    radiance = random_alf(g, 7).radiance.copy()
    centre = np.abs(np.arange(g.theta_samples) - g.theta_samples // 2) <= 8
    radiance[:, ~centre] = 0.0
    alf = AugmentedLightField(g, radiance)
    left = apply_transformer(apply_transformer(apply_transformer(alf, a), b), c)
    right = apply_transformer(apply_transformer(apply_transformer(alf, c), b), a)
    scale = np.abs(left.radiance).max()
    np.testing.assert_allclose(left.radiance, right.radiance, atol=1e-10 * scale)
    for out in (left, right):
        assert abs(out.meta["theta_leak"]) < 1e-10 * np.abs(alf.radiance).sum() * g.dx * g.dtheta


def test_amplitude_grating_matches_numeric_kernel():
    g = resonant_grid()
    spec = AmplitudeGrating(0.7, g.x_extent / 16)
    cat = canonical_transformer(spec, g)
    num = transformer_from_transmittance(
        ComplexField(g, np.asarray(
            0.5 * (1 + 0.7 * np.cos(2 * np.pi * g.x_axis() / (g.x_extent / 16))),
            dtype=complex,
        ))
    )
    scale = np.abs(cat.kernel).max()
    assert np.abs(cat.kernel - num.kernel).max() < 1e-9 * scale


def test_phase_grating_matches_numeric_kernel():
    import warnings as _w

    g = resonant_grid()
    # 32 samples per period: every Bessel harmonic that carries weight
    # stays below the position-sampling Nyquist
    period = g.x_extent / 4
    spec = PhaseGrating(1.8, period)
    with _w.catch_warnings():
        _w.simplefilter("ignore", ClippedOrderWarning)
        cat = canonical_transformer(spec, g)
    num = transformer_from_transmittance(
        ComplexField(g, np.exp(1.8j * np.sin(2 * np.pi * g.x_axis() / period)))
    )
    scale = np.abs(cat.kernel).max()
    assert np.abs(cat.kernel - num.kernel).max() < 1e-9 * scale


def test_coded_aperture_routes_to_numeric_path():
    g = resonant_grid()
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.2, 1.0, size=g.x_samples).astype(complex)
    fld = ComplexField(g, vals)
    cat = canonical_transformer(CodedAperture(fld), g)
    num = transformer_from_transmittance(fld, WdfOptions())
    np.testing.assert_array_equal(cat.kernel, num.kernel)


def test_coded_aperture_defaults_to_the_zero_boundary():
    # like every other element, and like its own transmittance, which is
    # opaque outside the mask; a periodic wrap of a cubic mask is far off
    g = resonant_grid(256)
    spec = CodedAperture(ComplexField(g, np.exp(1j * 4e9 * g.x_axis() ** 3)))
    zero = spec.kernel(g, WdfOptions()).kernel
    np.testing.assert_array_equal(spec.kernel(g).kernel, zero)
    periodic = spec.kernel(g, WdfOptions(boundary="periodic")).kernel
    assert np.abs(periodic - zero).max() > 0.5 * np.abs(zero).max()


def test_coded_aperture_rejects_a_grid_other_than_its_mask_grid():
    g = resonant_grid(256)
    spec = CodedAperture(ComplexField(g, np.ones(g.x_samples, dtype=complex)))
    with pytest.raises(InvalidConfigurationError, match="coded aperture"):
        spec.kernel(resonant_grid(128))


def test_application_is_linear():
    g = resonant_grid()
    t = canonical_transformer(AmplitudeGrating(0.5, g.x_extent / 16), g)
    a, b = random_alf(g, 1), random_alf(g, 2)
    combo = AugmentedLightField(g, 2.0 * a.radiance - 0.5 * b.radiance)
    lhs = apply_transformer(combo, t).radiance
    rhs = 2.0 * apply_transformer(a, t).radiance - 0.5 * apply_transformer(b, t).radiance
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.abs(rhs).max())


def test_leak_accounting_balances_power():
    g = resonant_grid()
    t = canonical_transformer(on_bin_prism(g, 100), g)
    alf = AugmentedLightField(g, np.abs(random_alf(g, 3).radiance))
    out = apply_transformer(alf, t)
    leak = out.meta["theta_leak"]
    assert leak > 0
    assert out.total_power() + leak == pytest.approx(alf.total_power(), rel=1e-9)
    assert 0 < out.meta["theta_leak_fraction"] < 1


def test_grid_mismatch_rejected():
    t = identity(resonant_grid())
    other = random_alf(resonant_grid(extent=1.28e-3))
    with pytest.raises(InvalidConfigurationError):
        apply_transformer(other, t)


def test_general_form_reproduces_relative_form():
    g = resonant_grid(64, 1.28e-3)
    t = canonical_transformer(AmplitudeGrating(0.8, g.x_extent / 8), g)
    alf = random_alf(g, 4)
    via_rel = apply_transformer(alf, t)
    via_gen = apply_dense_kernel(t.kernel, alf.radiance, g.dtheta)
    np.testing.assert_allclose(
        via_gen, via_rel.radiance, atol=1e-10 * np.abs(via_rel.radiance).max()
    )


def test_clipped_orders_warn():
    g = resonant_grid()
    with pytest.warns(ClippedOrderWarning):
        canonical_transformer(on_bin_prism(g, 4 * g.theta_samples), g)


def test_deflectors_keep_their_fractional_shifts():
    # each row moves by its deflection over dtheta, not rounded to a column
    g = resonant_grid()
    for spec in (Lens(g.x_extent / (0.7 * g.theta_extent)), on_bin_prism(g, 3.3)):
        t = canonical_transformer(spec, g)
        assert np.array_equal(t.shifts, spec.deflection(LAM, g.x_axis())[np.newaxis, :] / g.dtheta)
        assert np.any(t.shifts != np.rint(t.shifts))


@pytest.mark.parametrize("width", [3.0, 5.0, 8.0])
def test_a_lens_moves_smooth_rows_as_the_fourier_shift_does(width):
    # every position row is a Gaussian of ``width`` angle steps, and the
    # lens moves each by its own fraction, the edge rows 4.3 steps
    g = resonant_grid()
    theta = g.theta_axis()[np.newaxis, :]
    radiance = np.repeat(np.exp(-((theta / (width * g.dtheta)) ** 2)), g.x_samples, axis=0)
    kernel = canonical_transformer(Lens(g.x_extent / 2 / (4.3 * g.dtheta)), g)
    out = apply_transformer(AugmentedLightField(g, radiance), kernel)
    ref, _ = fourier_shear(radiance.T, kernel.shifts[0])
    # Lanczos-4 is not the exact shift: measured 2.3e-3, 1.8e-3 and 1.3e-3 of the peak
    assert np.abs(out.radiance - ref.T).max() <= 3e-3


def test_a_shift_past_the_axis_is_clipped_and_one_on_its_edge_kept():
    g = resonant_grid()
    n = g.theta_samples
    edge = LightFieldTransformer(g, np.full((1, g.x_samples), 1.0 - n), np.ones((1, g.x_samples)))
    assert edge.shifts.min() == 1 - n
    with pytest.raises(InvalidConfigurationError, match="on the table"):
        LightFieldTransformer(g, np.full((1, g.x_samples), n - 0.75), np.ones((1, g.x_samples)))
    with pytest.warns(ClippedOrderWarning):
        t = canonical_transformer(Prism(2 * np.pi * (n - 0.75) * g.dtheta / LAM), g)
    assert len(t.shifts) == 0 and t.meta["clipped_weight"] == pytest.approx(g.x_extent, rel=1e-12)


@pytest.mark.parametrize("depth", [2.0, 7.5])
def test_grating_warns_once_with_the_summed_clipped_weight(depth):
    # on a 512 x 512 grid dozens of orders of each grating fall partly or
    # wholly outside the angle window; one warning carries their total
    g = PhaseSpaceGrid(512, 2.048e-3, 512, 2.2e-2, LAM)
    for spec in (PhaseGrating(depth, 1e-4), AmplitudeGrating(depth / 7.5, 2e-5)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = canonical_transformer(spec, g)
        clipped = [w for w in caught if issubclass(w.category, ClippedOrderWarning)]
        assert len(clipped) == 1
        assert clipped[0].filename == __file__
        weight = t.meta["clipped_weight"]
        assert weight > 0 and f"clipped weight {weight:.3g}" in str(clipped[0].message)
    kernel, expected = phase_grating_orders(g, depth, 1e-4)
    with pytest.warns(ClippedOrderWarning):
        t = canonical_transformer(PhaseGrating(depth, 1e-4), g)
    assert t.meta["clipped_weight"] == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(t.kernel, kernel, rtol=0, atol=1e-12 * np.abs(kernel).max())


# Reference implementation of the full rows: one convolution over the whole
# assembled table at next_fast_len(2n - 1), the form each full row must
# reproduce bit for bit.


def one_shot_apply(alf, transformer):
    grid = alf.grid
    n = grid.theta_samples
    m = next_fast_len(2 * n - 1)
    spec = rfft(transformer.kernel, m, axis=1) * rfft(alf.radiance, m, axis=1)
    full = irfft(spec, m, axis=1) * grid.dtheta
    leak_rows = full[:, : n - 1].sum(axis=1) + full[:, 2 * n - 1 :].sum(axis=1)
    total_in = np.abs(full.sum(axis=1))
    denom = float(total_in.sum())
    leak = float(leak_rows.sum()) * grid.dtheta * grid.dx
    frac = float(np.abs(leak_rows).sum()) / denom if denom > 0 else 0.0
    return full[:, n - 1 : 2 * n - 1], leak, frac


# Row counts relative to the block size b of the line apply: one row, fewer
# than one block, a ragged last block, and several whole blocks.
ROW_COUNTS = {
    "single_row": lambda b: 1,
    "under_one_block": lambda b: b - 1,
    "ragged_blocks": lambda b: 2 * b + 3,
    "whole_blocks": lambda b: 3 * b,
}
BLOCK_THETA = 256
LINE_BLOCK = _BLOCK_BYTES // (16 * BLOCK_THETA)


@pytest.mark.parametrize("rows_of", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_line_apply_matches_the_assembled_table(rows_of):
    x_samples = rows_of(LINE_BLOCK)
    grid = PhaseSpaceGrid(x_samples, x_samples * 1e-5, BLOCK_THETA, 0.02, LAM)
    rng = np.random.default_rng(11)
    t = random_lines(grid, rng, rows=5)
    radiance = rng.normal(size=(x_samples, BLOCK_THETA))
    out = apply_transformer(AugmentedLightField(grid, radiance, {"tag": 1}), t)
    assert out.meta["tag"] == 1
    # the uncropped linear convolution at next_fast_len(3n - 2)
    lin, lin_leak, lin_frac = linear_apply(t.kernel, radiance, grid.dtheta, grid.dx)
    assert np.abs(out.radiance - lin).max() <= 1e-12 * np.abs(lin).max()
    content = np.abs(lin).sum() * grid.dtheta * grid.dx
    assert abs(out.meta["theta_leak"] - lin_leak) <= 1e-12 * content
    assert abs(out.meta["theta_leak_fraction"] - lin_frac) <= 1e-12


@pytest.mark.parametrize("rows_of", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_full_rows_keep_the_one_shot_bits(rows_of):
    # a kernel of full rows only, as the pinholes have, gives the bits of
    # the whole-table rfft convolution, leak and leak fraction included
    x_samples = rows_of(LINE_BLOCK)
    grid = PhaseSpaceGrid(x_samples, x_samples * 1e-5, BLOCK_THETA, 0.02, LAM)
    rng = np.random.default_rng(12)
    lines = random_lines(grid, rng, lines=0, rows=5)
    alf = AugmentedLightField(grid, rng.normal(size=(x_samples, BLOCK_THETA)))
    out = apply_transformer(alf, lines)
    ref, leak, frac = one_shot_apply(alf, lines)
    assert np.array_equal(out.radiance, ref)
    assert out.meta["theta_leak"] == leak
    assert out.meta["theta_leak_fraction"] == frac


def test_whole_step_lines_are_slice_copies_bit_for_bit():
    # a whole shift of weight 1 is the plain copy of the row, sign of zero included
    n = 64
    grid = PhaseSpaceGrid(40, 40e-5, n, 0.02, LAM)
    rng = np.random.default_rng(13)
    radiance = rng.normal(size=(40, n))
    radiance[:, ::5] = -0.0
    shifts = rng.integers(-n - 1, n, size=40).clip(1 - n, n - 1)
    out = apply_transformer(AugmentedLightField(grid, radiance), LightFieldTransformer(grid, shifts, np.ones(40)))
    want = np.zeros_like(radiance)
    for row, k in enumerate(shifts):
        want[row, max(k, 0) : n + min(k, 0)] = radiance[row, max(-k, 0) : n - max(k, 0)]
    assert np.array_equal(out.radiance, want)
    assert np.array_equal(np.signbit(out.radiance), np.signbit(want))


@pytest.mark.parametrize("theta_samples", [3, 64])
def test_lines_match_the_tap_by_tap_oracle(theta_samples):
    # fractional and whole shifts on three lines against the taps added one
    # at a time; the leak is the weighted content the taps move off the window
    grid = PhaseSpaceGrid(50, 50e-5, theta_samples, 0.02, LAM)
    rng = np.random.default_rng(theta_samples)
    t = random_lines(grid, rng, lines=3, rows=0)
    radiance = rng.normal(size=(50, theta_samples))
    out = apply_transformer(AugmentedLightField(grid, radiance), t)
    want, leak = np.zeros_like(radiance), np.zeros(50)
    for shifts, weights in zip(t.shifts, t.weights):
        for i, (b, w) in enumerate(zip(shifts, weights)):
            kept, dropped = lanczos_shift(radiance[i], b)
            want[i] += w * kept
            leak[i] += w * dropped
    assert np.abs(out.radiance - want).max() <= 1e-12 * np.abs(want).max()
    content = np.abs(radiance).sum() * np.abs(t.weights).sum(axis=0).max() * grid.dtheta * grid.dx
    assert abs(out.meta["theta_leak"] - leak.sum() * grid.dtheta * grid.dx) <= 1e-12 * content


def test_line_apply_working_memory_is_one_block():
    g = make_grid(512, 2.56e-3, 1024, 1024 * LAM / (2 * 2.56e-3), LAM)
    alf = random_alf(g, 6)
    t = random_lines(g, np.random.default_rng(7), lines=5, rows=8)
    tracemalloc.start()
    try:
        apply_transformer(alf, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (4 MiB), taken by the container without a copy, 1 MiB of
    # scratch and a full row's transforms; the 8 MiB table would pass 12 MiB
    assert peak < alf.radiance.nbytes + 2 * 2**20


# The closed-form element of each shipped config that has one: config name
# and the stage number of the element.
SHIPPED_DELTA_KERNELS = {"young": 1, "single_lens": 2, "cubic_phase": 2}


@pytest.mark.parametrize("name, stage", SHIPPED_DELTA_KERNELS.items(), ids=SHIPPED_DELTA_KERNELS.keys())
def test_shipped_closed_form_kernels_build_and_apply_without_a_table(name, stage):
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    train = parse_config(str(config)).train(1)
    g, spec = train.grid, train.stages[stage - 1].spec
    radiance = np.random.default_rng(3).normal(size=(g.x_samples, g.theta_samples))
    radiance.setflags(write=False)  # taken by the container as is
    alf = AugmentedLightField(g, radiance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClippedOrderWarning)  # cubic_phase's lens
        tracemalloc.start()
        try:
            apply_transformer(alf, spec.kernel(g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the result and a few MiB; one (x_samples, 2 theta_samples - 1) table
    # is about twice a radiance
    table_bytes = g.x_samples * (2 * g.theta_samples - 1) * 8
    assert peak < radiance.nbytes + 4 * 2**20 < table_bytes


# Property tests of the apply at its alias-free length next_fast_len(2n - 1).
# Angle counts n whose 2n - 1 is itself a fast length leave no bin right of
# the kept window, so every dropped term wraps into the bins left of it.
FAST_N = [n for n in range(2, 41) if next_fast_len(2 * n - 1) == 2 * n - 1]
APPLY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def apply_cases(draw):
    n = draw(st.one_of(st.sampled_from(FAST_N), st.integers(2, 40)))
    x_samples = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = PhaseSpaceGrid(x_samples, x_samples * 1e-5, n, 0.02, LAM)
    t = random_lines(grid, rng, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    radiance = rng.normal(size=(x_samples, n))
    return grid, t, radiance, rng.normal(size=(x_samples, n)), rng.normal(size=2)


@APPLY_SETTINGS
@given(apply_cases())
def test_apply_property_is_linear(case):
    grid, t, a, b, (alpha, beta) = case
    out_a = apply_transformer(AugmentedLightField(grid, a), t)
    out_b = apply_transformer(AugmentedLightField(grid, b), t)
    out = apply_transformer(AugmentedLightField(grid, alpha * a + beta * b), t)
    want = alpha * out_a.radiance + beta * out_b.radiance
    scale = np.abs(t.kernel).sum() * (np.abs(a) + np.abs(b)).max() * grid.dtheta
    assert np.abs(out.radiance - want).max() <= 1e-12 * scale
    want_leak = alpha * out_a.meta["theta_leak"] + beta * out_b.meta["theta_leak"]
    assert abs(out.meta["theta_leak"] - want_leak) <= 1e-12 * scale * grid.dtheta * grid.dx


@APPLY_SETTINGS
@given(apply_cases())
def test_apply_property_output_plus_leak_is_the_full_convolution(case):
    grid, t, radiance, _, _ = case
    n = grid.theta_samples
    out = apply_transformer(AugmentedLightField(grid, radiance), t)
    full = angle_convolution(t.kernel, radiance, grid.dtheta)
    cell = grid.dtheta * grid.dx
    scale = np.abs(full).sum() * cell
    assert abs(out.total_power() + out.meta["theta_leak"] - full.sum() * cell) <= 1e-12 * scale
    kept = full[:, n - 1 : 2 * n - 1]
    assert np.abs(out.radiance - kept).max() <= 1e-12 * np.abs(full).max()


# The numeric kernel is applied in the lag domain and never makes its table;
# assembled and applied as a table, it must give the same numbers to 1e-12.
# Settings: options, fine samples and angle count.
NUMERIC_SETTINGS = {
    "periodic": (WdfOptions(boundary="periodic"), False, BLOCK_THETA),
    "zero": (WdfOptions(boundary="zero"), False, BLOCK_THETA),
    "zero_fine_samples": (WdfOptions(boundary="zero"), True, BLOCK_THETA),
    "periodic_oversample_2": (WdfOptions(oversample_factor=2, boundary="periodic"), False, BLOCK_THETA),
    "zero_oversample_4": (WdfOptions(oversample_factor=4, boundary="zero"), False, BLOCK_THETA),
    "odd_theta": (WdfOptions(boundary="periodic"), False, BLOCK_THETA - 1),
}


def random_mask(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.x_samples
    return ComplexField(grid, rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-3, 3, n)))


def assert_lag_apply_matches_the_table(grid, options, fine_samples=None):
    t = transformer_from_transmittance(random_mask(grid, grid.x_samples), options, fine_samples)
    alf = random_alf(grid, 14)
    lagged = apply_transformer(alf, t)
    assembled, leak, frac = linear_apply(t.kernel, alf.radiance, grid.dtheta, grid.dx)
    peak = np.abs(assembled).max()
    assert np.abs(lagged.radiance - assembled).max() <= 1e-12 * peak
    content = np.abs(assembled).sum() * grid.dtheta * grid.dx
    assert abs(lagged.meta["theta_leak"] - leak) <= 1e-12 * content
    assert abs(lagged.meta["theta_leak_fraction"] - frac) <= 1e-12
    return t


def lag_block_rows(theta_samples, options, x_samples):
    """Rows per block of one worker's lag-domain apply, at the transform length of its lag count."""
    n_lags = options.oversample_factor * x_samples + 1
    return _block_rows(2 * next_fast_len(theta_samples + n_lags - 1))


# The lag apply's blocks shrink as rows are added, since the lag count grows
# with them, so each case is the first row count x of its shape, for the
# block size b(x) at x rows: one row, the most rows one block holds, a
# ragged last block after two whole ones, and two or more whole blocks.
LAG_ROW_SHAPES = {
    "single_row": lambda x, b: x == 1,
    "under_one_block": lambda x, b: x < b(x) and x + 1 >= b(x + 1),
    "ragged_blocks": lambda x, b: x > 2 * b(x) and x % b(x) > 0,
    "whole_blocks": lambda x, b: x >= 2 * b(x) and x % b(x) == 0,
}


@pytest.mark.parametrize("settings", NUMERIC_SETTINGS.values(), ids=NUMERIC_SETTINGS.keys())
@pytest.mark.parametrize("shape", LAG_ROW_SHAPES.values(), ids=LAG_ROW_SHAPES.keys())
def test_lag_domain_numeric_apply_matches_the_assembled_table(monkeypatch, shape, settings):
    monkeypatch.setattr(core, "_worker_count", lambda: 1)  # one worker's blocks
    options, fine, theta_samples = settings
    block = partial(lag_block_rows, theta_samples, options)
    x_samples = next(x for x in range(1, 1024) if shape(x, block))
    grid = PhaseSpaceGrid(x_samples, x_samples * 1e-5, theta_samples, 0.02, LAM)
    fine_samples = None
    if fine:
        fine_samples = np.repeat(random_mask(grid, x_samples).samples, 2 * options.oversample_factor)
    assert_lag_apply_matches_the_table(grid, options, fine_samples)


@pytest.mark.parametrize("oversample", [2, 4])
def test_lag_domain_apply_where_beta_l_is_a_whole_number(oversample):
    # an angle window of (oversample / 2) lambda / dx makes beta = ds dtheta /
    # lambda = 1 / (2n): the Dirichlet sum of the leak is 2n - 1 at l = 2n
    # and 4n, where a sine ratio would be 0 / 0
    n = 32
    x_samples = 4 * n // oversample
    grid = PhaseSpaceGrid(x_samples, x_samples * 1e-5, n, oversample / 2 * LAM / 1e-5, LAM)
    t = assert_lag_apply_matches_the_table(grid, WdfOptions(oversample, boundary="periodic"))
    beta_l = t.source.ds * grid.dtheta / LAM * np.arange(t.source.n_lags)
    assert np.count_nonzero(np.abs(beta_l - np.rint(beta_l))[1:] < 1e-9) == 2


def test_numeric_kernel_build_and_apply_never_hold_the_table():
    g = make_grid(512, 2.56e-3, 1024, 0.06, LAM)
    mask = ComplexField(g, np.exp(1j * np.random.default_rng(8).uniform(0, 0.1, 512)))
    alf = random_alf(g, 6)
    tracemalloc.start()
    try:
        apply_transformer(alf, transformer_from_transmittance(mask))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (4 MiB), taken by the container without a copy, and about
    # 4 MiB of one block's kernel rows, chirp-z scratch and transforms; the
    # 8 MiB table, held whole beside the result, would pass 12 MiB
    table_bytes = g.x_samples * (2 * g.theta_samples - 1) * 8
    assert peak < alf.radiance.nbytes + 5 * 2**20 < alf.radiance.nbytes + table_bytes


def test_numeric_kernel_settings_are_checked_at_build_time():
    g = PhaseSpaceGrid(64, 64e-5, 64, 0.02, LAM)
    mask = random_mask(g, 3)
    # the relative-angle axis reaches past what the lag sampling resolves
    wide = PhaseSpaceGrid(64, 64e-5, 64, 0.2, LAM)
    with pytest.raises(InvalidConfigurationError, match="lag sampling"):
        transformer_from_transmittance(random_mask(wide, 3))
    with pytest.raises(InvalidConfigurationError, match="fine_samples"):
        transformer_from_transmittance(mask, fine_samples=np.ones(64))
    with pytest.raises(InvalidConfigurationError, match="frequencies"):
        transformer_from_transmittance(random_mask(PhaseSpaceGrid(64, 64e-5, 1, 0.02, LAM), 3))
    with pytest.raises(InvalidConfigurationError, match="boundary"):
        transformer_from_transmittance(mask, WdfOptions(boundary="mirror"))
