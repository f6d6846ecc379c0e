import tracemalloc

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
    apply_shield_field,
    apply_transformer,
    canonical_transformer,
    compose_transformers,
    identity_transformer,
    make_grid,
    transformer_from_transmittance,
)
from auglf.transformers import _block_rows
from oracles import angle_convolution, apply_dense_kernel, linear_apply

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


def test_identity_application_is_exact():
    g = resonant_grid()
    alf = random_alf(g)
    out = apply_transformer(alf, identity_transformer(g))
    scale = np.abs(alf.radiance).max()
    np.testing.assert_allclose(out.radiance, alf.radiance, atol=1e-12 * scale)
    assert abs(out.meta["theta_leak"]) < 1e-12 * alf.total_power()
    assert out.meta["theta_leak_fraction"] < 1e-12


def test_uniform_mask_is_identity_kernel():
    g = resonant_grid()
    t = transformer_from_transmittance(ComplexField(g, np.ones(g.x_samples, complex)))
    ref = identity_transformer(g)
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
    rel = t.deflection_axis()
    expect = 2.0 * np.cos(2 * np.pi * (a - b) * rel / LAM) / (LAM * g.dx)
    np.testing.assert_allclose(mid, expect, atol=1e-9 / (LAM * g.dx))


def test_prism_composition_adds_deflections():
    g = resonant_grid()
    t3 = canonical_transformer(on_bin_prism(g, 3), g)
    t5 = canonical_transformer(on_bin_prism(g, 5), g)
    t8 = canonical_transformer(on_bin_prism(g, 8), g)
    got = compose_transformers(t3, t5)
    np.testing.assert_allclose(got.kernel, t8.kernel, atol=1e-10 * t8.kernel.max())
    assert got.meta["element"] == "composite"


def test_lens_composition_adds_power():
    g = resonant_grid()
    # dx/f equal to one angle bin per position step keeps every deflection on-bin
    f = g.dx / g.dtheta
    ta = canonical_transformer(Lens(f), g)
    with pytest.warns(ClippedOrderWarning):
        # the f/2 lens bends the outermost column just past the axis end
        tb = canonical_transformer(Lens(f / 2), g)
    got = compose_transformers(ta, ta)
    keep = slice(1, g.x_samples)
    np.testing.assert_allclose(
        got.kernel[keep], tb.kernel[keep], atol=1e-10 * tb.kernel.max()
    )


def test_composition_is_associative():
    g = resonant_grid()
    a = canonical_transformer(on_bin_prism(g, 2), g)
    b = canonical_transformer(Lens(g.dx / g.dtheta), g)
    c = canonical_transformer(AmplitudeGrating(0.6, g.x_extent / 16), g)
    left = compose_transformers(a, compose_transformers(b, c))
    right = compose_transformers(compose_transformers(a, b), c)
    scale = np.abs(left.kernel).max()
    np.testing.assert_allclose(left.kernel, right.kernel, atol=1e-10 * scale)


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
    num = transformer_from_transmittance(fld)
    np.testing.assert_array_equal(cat.kernel, num.kernel)


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
    t = identity_transformer(resonant_grid())
    other = random_alf(resonant_grid(extent=1.28e-3))
    with pytest.raises(InvalidConfigurationError):
        apply_transformer(other, t)
    with pytest.raises(InvalidConfigurationError):
        compose_transformers(t, identity_transformer(other.grid))


def test_shield_attenuates_and_validates():
    g = resonant_grid()
    alf = random_alf(g)
    same = apply_shield_field(alf, np.ones_like(alf.radiance))
    np.testing.assert_array_equal(same.radiance, alf.radiance)
    half = apply_shield_field(alf, np.full_like(alf.radiance, 0.5))
    np.testing.assert_allclose(half.radiance, alf.radiance * 0.5, atol=0)
    with pytest.raises(InvalidConfigurationError):
        apply_shield_field(alf, np.full_like(alf.radiance, 1.5))
    with pytest.raises(InvalidConfigurationError):
        apply_shield_field(alf, np.full_like(alf.radiance, -0.1))
    bad = np.ones_like(alf.radiance)
    bad[3, 4] = np.nan
    with pytest.raises(InvalidConfigurationError):
        apply_shield_field(alf, bad)
    with pytest.raises(InvalidConfigurationError):
        apply_shield_field(alf, np.ones((2, 2)))


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


def test_on_theta_axis_slice():
    g = resonant_grid()
    t = identity_transformer(g)
    sliced = t.on_theta_axis()
    assert sliced.shape == (g.x_samples, g.theta_samples)
    j0 = g.theta_index(0.0)
    assert np.all(sliced[:, j0] == 1.0 / g.dtheta)
    assert np.count_nonzero(sliced) == g.x_samples


# Reference implementations: one convolution over the whole arrays, the form
# the row-blocked versions must reproduce bit for bit.


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


def one_shot_compose(first, second):
    grid = first.grid
    n = grid.theta_samples
    width = 2 * n - 1
    nfft = next_fast_len(2 * width - 1)
    spec = rfft(first.kernel, nfft, axis=1) * rfft(second.kernel, nfft, axis=1)
    full = irfft(spec, nfft, axis=1)[:, : 2 * width - 1]
    lo = width - 1 - (n - 1)
    return full[:, lo : lo + width] * grid.dtheta


# Row counts relative to the block size b: one row, fewer than one block, a
# ragged last block, and several whole blocks.
ROW_COUNTS = {
    "single_row": lambda b: 1,
    "under_one_block": lambda b: b - 1,
    "ragged_blocks": lambda b: 2 * b + 3,
    "whole_blocks": lambda b: 3 * b,
}
BLOCK_THETA = 256


def dense_pair(x_samples, seed):
    grid = PhaseSpaceGrid(x_samples, x_samples * 1e-5, BLOCK_THETA, 0.02, LAM)
    rng = np.random.default_rng(seed)
    shape = (x_samples, 2 * BLOCK_THETA - 1)
    return grid, rng.normal(size=shape), rng.normal(size=shape)


@pytest.mark.parametrize("rows_of", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_blocked_apply_matches_one_shot_bits(rows_of):
    x_samples = rows_of(_block_rows(next_fast_len(2 * BLOCK_THETA - 1)))
    grid, kernel, _ = dense_pair(x_samples, 11)
    radiance = np.random.default_rng(12).normal(size=(x_samples, BLOCK_THETA))
    alf = AugmentedLightField(grid, radiance, {"tag": 1})
    t = LightFieldTransformer(grid, kernel)
    out = apply_transformer(alf, t)
    ref, leak, frac = one_shot_apply(alf, t)
    assert np.array_equal(out.radiance, ref)
    assert out.meta["theta_leak"] == leak
    assert out.meta["theta_leak_fraction"] == frac
    assert out.meta["tag"] == 1
    # the uncropped linear convolution at next_fast_len(3n - 2)
    lin, lin_leak, lin_frac = linear_apply(kernel, radiance, grid.dtheta, grid.dx)
    assert np.abs(out.radiance - lin).max() <= 1e-12 * np.abs(lin).max()
    assert abs(leak - lin_leak) <= 1e-12 * abs(lin_leak)
    assert abs(frac - lin_frac) <= 1e-12


@pytest.mark.parametrize("rows_of", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_blocked_compose_matches_one_shot_bits(rows_of):
    width = 2 * BLOCK_THETA - 1
    x_samples = rows_of(_block_rows(next_fast_len(2 * width - 1)))
    grid, a, b = dense_pair(x_samples, 13)
    first = LightFieldTransformer(grid, a)
    second = LightFieldTransformer(grid, b)
    got = compose_transformers(first, second)
    assert np.array_equal(got.kernel, one_shot_compose(first, second))
    assert got.meta == {"element": "composite"}


def test_apply_working_memory_is_one_block():
    g = make_grid(512, 2.56e-3, 1024, 1024 * LAM / (2 * 2.56e-3), LAM)
    alf = random_alf(g, 6)
    t = LightFieldTransformer(g, np.random.default_rng(7).normal(size=(512, 2047)))
    tracemalloc.start()
    try:
        apply_transformer(alf, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (4 MiB), taken by the container without a copy, and about
    # 3 MiB of block transforms; whole-array transforms would take over 30 MiB
    assert peak < alf.radiance.nbytes + 3 * 2**20


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
    kernel = rng.normal(size=(x_samples, 2 * n - 1))
    radiance = rng.normal(size=(x_samples, n))
    return grid, kernel, radiance, rng.normal(size=(x_samples, n)), rng.normal(size=2)


@APPLY_SETTINGS
@given(apply_cases())
def test_apply_property_is_linear(case):
    grid, kernel, a, b, (alpha, beta) = case
    t = LightFieldTransformer(grid, kernel)
    out_a = apply_transformer(AugmentedLightField(grid, a), t)
    out_b = apply_transformer(AugmentedLightField(grid, b), t)
    out = apply_transformer(AugmentedLightField(grid, alpha * a + beta * b), t)
    want = alpha * out_a.radiance + beta * out_b.radiance
    scale = np.abs(kernel).sum() * (np.abs(a) + np.abs(b)).max() * grid.dtheta
    assert np.abs(out.radiance - want).max() <= 1e-12 * scale
    want_leak = alpha * out_a.meta["theta_leak"] + beta * out_b.meta["theta_leak"]
    assert abs(out.meta["theta_leak"] - want_leak) <= 1e-12 * scale * grid.dtheta * grid.dx


@APPLY_SETTINGS
@given(apply_cases())
def test_apply_property_output_plus_leak_is_the_full_convolution(case):
    grid, kernel, radiance, _, _ = case
    n = grid.theta_samples
    out = apply_transformer(AugmentedLightField(grid, radiance), LightFieldTransformer(grid, kernel))
    full = angle_convolution(kernel, radiance, grid.dtheta)
    cell = grid.dtheta * grid.dx
    scale = np.abs(full).sum() * cell
    assert abs(out.total_power() + out.meta["theta_leak"] - full.sum() * cell) <= 1e-12 * scale
    kept = full[:, n - 1 : 2 * n - 1]
    assert np.abs(out.radiance - kept).max() <= 1e-12 * np.abs(full).max()


def test_numeric_kernel_table_is_wrapped_without_a_copy():
    g = make_grid(512, 2.56e-3, 512, 512 * LAM / (2 * 2.56e-3), LAM)
    mask = ComplexField(g, np.exp(1j * np.random.default_rng(8).uniform(0, 0.1, 512)))
    tracemalloc.start()
    try:
        t = transformer_from_transmittance(mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4 MiB table and about 1 MiB of chirp-z blocks; a frozen copy of
    # the table would add another 4 MiB
    assert peak < t.kernel.nbytes + 2 * 2**20
