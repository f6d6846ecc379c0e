import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auglf import (
    AugmentedLightField,
    ComplexField,
    InvalidConfigurationError,
    Lens,
    NegativeIntensityWarning,
    PhaseSpaceGrid,
    TruncationWarning,
    apply_transformer,
    canonical_transformer,
    fresnel_propagate,
    make_grid,
    project_intensity,
    shear_propagate,
    wdf_from_field,
)
from auglf.propagation import ShearedProjection, sheared_projection
import auglf.core as core
from auglf.core import _block_rows
import oracles

LAM = 633e-9


def grid_64():
    return make_grid(64, 1.28e-3, 64, 64 * LAM / 1.28e-3, LAM)


def gaussian_blob(grid, x0=0.0, t0=0.0, sx=3.0, st=3.0):
    x = grid.x_axis()[:, None]
    t = grid.theta_axis()[None, :]
    r = np.exp(-((x - x0) / (sx * grid.dx)) ** 2 - ((t - t0) / (st * grid.dtheta)) ** 2)
    return AugmentedLightField(grid, r)


def test_zero_distance_is_exact_copy():
    g = grid_64()
    rng = np.random.default_rng(0)
    alf = AugmentedLightField(g, rng.normal(size=(64, 64)))
    out, loss = shear_propagate(alf, 0.0)
    assert loss == 0.0 and out.meta["truncation_loss"] == 0.0
    np.testing.assert_array_equal(out.radiance, alf.radiance)
    assert out.radiance is not alf.radiance


@pytest.mark.parametrize("distance", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_distance_rejected(distance):
    with pytest.raises(InvalidConfigurationError, match="finite"):
        shear_propagate(gaussian_blob(grid_64()), distance)


def test_whole_bin_shear_moves_rows_exactly():
    g = grid_64()
    rng = np.random.default_rng(1)
    r = np.zeros((64, 64))
    # keep |shift| <= 12 cells so nothing crosses the window edge
    r[24:40, 20:45] = rng.uniform(size=(16, 25))
    alf = AugmentedLightField(g, r)
    z = g.dx / g.dtheta  # row j slides by exactly (j - n/2) cells
    out, loss = shear_propagate(alf, z)
    for j in (20, 32, 44):
        k = j - 32
        np.testing.assert_allclose(out.radiance[24 + k : 40 + k, j], r[24:40, j], atol=1e-12)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_power_balance_against_reported_loss():
    g = grid_64()
    rng = np.random.default_rng(2)
    alf = AugmentedLightField(g, rng.uniform(size=(64, 64)))
    out, loss = shear_propagate(alf, 0.08)
    assert 0 < loss < 1
    assert out.total_power() == pytest.approx(alf.total_power() * (1 - loss), rel=1e-9)
    assert out.meta["truncation_loss"] == loss


def test_two_hops_match_one_to_the_taps_error():
    # the taps of two moves do not compose exactly into those of their sum:
    # measured 4.1e-3 of the peak on a blob 3 cells wide
    g = grid_64()
    alf = gaussian_blob(g)
    one, _ = shear_propagate(alf, 0.03)
    two, _ = shear_propagate(one, 0.02)
    direct, _ = shear_propagate(alf, 0.05)
    assert np.abs(two.radiance - direct.radiance).max() <= 6e-3 * np.abs(direct.radiance).max()


def test_fractional_shear_keeps_interior_content():
    # the taps of every move sum to 1, so nothing is lost away from the edges
    g = grid_64()
    alf = gaussian_blob(g)
    out, loss = shear_propagate(alf, 0.35 * g.dx / g.dtheta)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert out.total_power() == pytest.approx(alf.total_power(), rel=1e-12)


def test_long_throw_draws_truncation_warning():
    g = grid_64()
    with pytest.warns(TruncationWarning):
        shear_propagate(gaussian_blob(g, t0=20 * g.dtheta), 3 * g.x_extent / g.theta_extent)


def test_shear_matches_wave_pipeline():
    g = grid_64()
    rng = np.random.default_rng(7)
    spec = np.zeros(64, complex)
    spec[:7] = rng.normal(size=7) + 1j * rng.normal(size=7)
    spec[-6:] = rng.normal(size=6) + 1j * rng.normal(size=6)
    # compact envelope keeps the field off the window edge, so the shear
    # loses nothing and the wrap-free/wrapping pipelines see the same field
    envelope = np.exp(-g.x_axis() ** 2 / (2 * (5 * g.dx) ** 2))
    fld = np.fft.ifft(spec) * envelope
    z = 0.01
    alf = wdf_from_field(ComplexField(g, fld))
    moved, loss = shear_propagate(alf, z)
    assert loss < 1e-9
    got = project_intensity(moved).values
    want = np.abs(fresnel_propagate(ComplexField(g, fld), z).samples) ** 2
    # the Lanczos-4 taps, not the exact shift, set the bound (measured 1.5e-3)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 2e-3


def fourier_system(alf):
    """Propagate f, pass a lens of focal length f, propagate f: (x, theta) -> (f theta, -x / f)."""
    g = alf.grid
    f = g.dx / g.dtheta  # one position step per angle bin: every move is whole bins
    alf, _ = shear_propagate(alf, f)
    alf = apply_transformer(alf, canonical_transformer(Lens(f), g))
    out, _ = shear_propagate(alf, f)
    return out.radiance


def test_rotation_permutes_bins():
    g = grid_64()
    r = np.zeros((64, 64))
    r[40, 10] = 5.0  # (x, theta) = (8 dx, -22 dtheta)
    out = fourier_system(AugmentedLightField(g, r)).copy()
    assert out[10, 24] == pytest.approx(5.0, rel=1e-12)  # (-22 dx, -8 dtheta)
    out[10, 24] = 0.0
    assert np.abs(out).max() < 1e-12


def test_rotation_conserves_interior_content():
    g = grid_64()
    rng = np.random.default_rng(3)
    i, j = np.meshgrid(np.arange(64) - 32, np.arange(64) - 32, indexing="ij")
    # inside this disk no ray leaves the window between the three steps
    r = np.where(i ** 2 + j ** 2 <= 20 ** 2, rng.uniform(size=(64, 64)), 0.0)
    out = fourier_system(AugmentedLightField(g, r))
    # a quarter turn: out[j, 64 - i] = r[i, j]; row 0 has no partner
    want = np.zeros_like(r)
    want[:, 1:] = r[63:0:-1, :].T
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    assert out.sum() == pytest.approx(r.sum(), rel=1e-12)


# The shifter against its oracles: the exact Fourier shift of all rows at
# once (smooth rows) and the Lanczos-4 taps added one at a time (any rows).


def whole_bin_grid(n_x, n_theta):
    """Grid whose steps are powers of two, so that a shear by dx / dtheta moves every row a whole number of cells in exact arithmetic."""
    return PhaseSpaceGrid(n_x, n_x * 2.0**-16, n_theta, n_theta * 2.0**-12, LAM)


def test_whole_sample_shear_is_the_slice_copy_bit_for_bit():
    g = whole_bin_grid(64, 64)
    rng = np.random.default_rng(8)
    r = rng.normal(size=(64, 64))
    r[::7] = -0.0  # a copy keeps the sign of zero
    out, loss = shear_propagate(AugmentedLightField(g, r), g.dx / g.dtheta)
    want = np.zeros_like(r)
    for j in range(64):
        k = j - 32  # theta_j / dtheta, exactly
        want[max(k, 0) : 64 + min(k, 0), j] = r[max(-k, 0) : 64 - max(k, 0), j]
    moved = want != 0.0
    assert np.array_equal(out.radiance[moved], want[moved])
    assert np.array_equal(np.signbit(out.radiance[moved]), np.signbit(want[moved]))
    assert np.array_equal(out.radiance == 0.0, ~moved)
    in_sums = np.abs(r.sum(axis=0)).sum()
    assert loss == pytest.approx(np.abs(r.sum(axis=0) - want.sum(axis=0)).sum() / in_sums, rel=1e-12)


@pytest.mark.parametrize("width", [3.0, 5.0, 8.0])
def test_smooth_rows_match_the_fourier_shift(width):
    g = grid_64()
    alf = gaussian_blob(g, sx=width)
    distance = 3.7 * g.dx / (g.theta_extent / 2)  # the steepest rows move 3.7 cells
    out, loss = shear_propagate(alf, distance)
    ref, ref_loss = oracles.fourier_shear(alf.radiance, distance * g.theta_axis() / g.dx)
    # Lanczos-4 is not the exact shift: measured 1.4e-3, 1.2e-3 and 9.0e-4 of the peak
    assert np.abs(out.radiance - ref).max() <= 2e-3 * np.abs(alf.radiance).max()
    assert abs(loss - ref_loss) <= 1e-8


def assert_matches_the_taps(alf, distance):
    """The shear against ``oracles.lanczos_shift`` of every angle column; its loss is the content moved off."""
    out, loss = shear_propagate(alf, distance)
    bins = distance * alf.grid.theta_axis() / alf.grid.dx
    moved = [oracles.lanczos_shift(col, b) for col, b in zip(alf.radiance.T, bins)]
    ref = np.array([kept for kept, _ in moved]).T
    dropped = np.array([off for _, off in moved])
    in_sums = alf.radiance.sum(axis=0)
    assert np.abs(out.radiance - ref).max() <= 1e-12 * np.abs(alf.radiance).max()
    assert abs(loss - np.abs(dropped).sum() / np.abs(in_sums).sum()) <= 1e-12
    assert out.meta["truncation_loss"] == loss
    assert out.radiance.flags.c_contiguous
    return out, loss


SHEAR_THETA_EXTENT = 0.02


def columns_per_block(x_samples):
    return _block_rows(8 * x_samples)


@pytest.mark.parametrize(
    "cols_of",
    [lambda b: 1, lambda b: b - 1, lambda b: 2 * b + 3, lambda b: 3 * b],
    ids=["single_column", "under_one_block", "ragged_blocks", "whole_blocks"],
)
def test_blocked_shear_matches_the_taps_and_the_block_size_changes_no_bit(cols_of, monkeypatch):
    monkeypatch.setattr(core, "_worker_count", lambda: 1)  # one worker's block size
    x_samples = 512
    theta_samples = cols_of(columns_per_block(x_samples))
    g = PhaseSpaceGrid(x_samples, x_samples * 1e-5, theta_samples, SHEAR_THETA_EXTENT, LAM)
    distance = 37.3 * g.dx / (SHEAR_THETA_EXTENT / 2)
    rng = np.random.default_rng(theta_samples)
    alf = AugmentedLightField(g, rng.normal(size=(x_samples, theta_samples)), {"tag": 1})
    out, loss = assert_matches_the_taps(alf, distance)
    assert out.meta["tag"] == 1
    # angle columns are independent, so the block size changes no bit
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * x_samples)
    one_by_one, loss_one = shear_propagate(alf, distance)
    assert np.array_equal(one_by_one.radiance, out.radiance) and loss_one == loss


def test_near_integer_bin_shifts_on_the_coded_field_grid():
    # 5 cm on this grid shifts column 1152 by 25.000000000000025 bins, a
    # fractional move whose taps are a whole move's to rounding
    g = PhaseSpaceGrid(2048, 4.096e-3, 2048, 16e-3, LAM)
    bins = 0.05 * g.theta_axis() / g.dx
    assert bins[1152] != 25.0 and abs(bins[1152] - 25.0) < 1e-13
    alf = AugmentedLightField(g, np.random.default_rng(5).normal(size=(2048, 2048)))
    assert_matches_the_taps(alf, 0.05)


@pytest.mark.parametrize("distance", [1e16, -1e300])
def test_shear_far_beyond_the_window(distance):
    # integer shifts past int64 must neither wrap nor warn
    g = grid_64()
    alf = AugmentedLightField(g, np.random.default_rng(4).normal(size=(64, 64)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        warnings.simplefilter("error", RuntimeWarning)
        out, loss = assert_matches_the_taps(alf, distance)
    # only the theta = 0 row stays
    assert np.count_nonzero(np.any(out.radiance != 0.0, axis=0)) == 1


@st.composite
def shear_cases(draw):
    """Random (not smooth) radiance and a distance, often with near-integer bin shifts."""
    x_samples = draw(st.integers(2, 40))
    theta_samples = draw(st.integers(2, 40))
    g = PhaseSpaceGrid(x_samples, x_samples * 1e-5, theta_samples, SHEAR_THETA_EXTENT, LAM)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radiance = rng.normal(size=(x_samples, theta_samples))
    # bins per angle step: a whole number nudged by a few ulps, or anything
    rate = draw(
        st.one_of(
            st.builds(
                lambda k, eps: k * (1.0 + eps),
                st.integers(-3 * x_samples, 3 * x_samples),
                st.sampled_from([0.0, 1e-15, -1e-15, 3e-14, -3e-14, 2.0**-52]),
            ),
            st.floats(-3.0 * x_samples, 3.0 * x_samples),
        )
    )
    return AugmentedLightField(g, radiance), rate * g.dx / g.dtheta


@pytest.mark.filterwarnings("ignore::auglf.core.TruncationWarning")  # long throws on purpose
@settings(max_examples=80, deadline=None, derandomize=True)
@given(shear_cases())
def test_shear_property_matches_the_taps_and_balances_power(case):
    alf, distance = case
    out, loss = assert_matches_the_taps(alf, distance)
    in_abs = np.abs(alf.radiance.sum(axis=0)).sum() * alf.grid.dx * alf.grid.dtheta
    scale = np.abs(alf.radiance).sum() * alf.grid.dx * alf.grid.dtheta
    drift = abs(out.total_power() - alf.total_power())
    assert drift <= loss * in_abs + 1e-12 * scale


def own_radiance(alf):
    """A field on a writable copy of ``alf``'s radiance, and that copy: what a trace shears in place."""
    work = alf.radiance.copy()
    work.setflags(write=False)
    own = AugmentedLightField(alf.grid, work, alf.meta)
    assert own.radiance is work
    work.setflags(write=True)
    return own, work


def assert_in_place_gives_the_new_array_bits(alf, distance):
    want, want_loss = shear_propagate(alf, distance)
    own, work = own_radiance(alf)
    got, loss = shear_propagate(own, distance, out=work)
    assert got.radiance is work and not work.flags.writeable
    assert np.array_equal(got.radiance, want.radiance) and loss == want_loss
    assert got.meta == want.meta


# Byte budgets of the column blocks: one column a block (the floor), a few
# columns, and blocks of many columns
BLOCK_BUDGETS = st.sampled_from([1, 1 << 12, 1 << 14, 1 << 16])


@pytest.mark.filterwarnings("ignore::auglf.core.TruncationWarning")  # long throws on purpose
@settings(max_examples=80, deadline=None, derandomize=True)
@given(shear_cases(), BLOCK_BUDGETS)
def test_shear_property_in_place_gives_the_new_array_bits(case, budget):
    # each block's columns are copied out before the same columns are
    # written back, so the shear may write into its own input
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_BYTES", budget)
        assert_in_place_gives_the_new_array_bits(*case)


def assert_projection_matches_the_sheared_one(alf, distance):
    """``sheared_projection`` against the projection of ``shear_propagate``'s radiance, and the same loss."""
    sheared, want_loss = shear_propagate(alf, distance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeIntensityWarning)  # random radiance
        want = project_intensity(sheared).values
    before = hashlib.sha256(alf.radiance.tobytes()).hexdigest()
    got, loss = sheared_projection(alf, distance)
    assert hashlib.sha256(alf.radiance.tobytes()).hexdigest() == before
    assert got.shape == want.shape and got.flags.writeable
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(loss - want_loss) <= 1e-12


@pytest.mark.filterwarnings("ignore::auglf.core.TruncationWarning")  # long throws on purpose
@settings(max_examples=120, deadline=None, derandomize=True)
@given(shear_cases(), BLOCK_BUDGETS)
def test_sheared_projection_property_matches_the_projected_shear(case, budget):
    # odd and even grids, theta_samples != x_samples, whole-sample and
    # near-whole shifts, throws past the window and zero distance; the
    # block budget caps the band of columns one product takes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_BYTES", budget)
        assert_projection_matches_the_sheared_one(*case)


@pytest.mark.parametrize("distance", [0.0, 0.05, 1e16, -1e300], ids=["zero", "coded_field", "far", "far_back"])
def test_sheared_projection_on_the_coded_field_grid(distance):
    g = PhaseSpaceGrid(2048, 4.096e-3, 2048, 16e-3, LAM)
    alf = AugmentedLightField(g, np.random.default_rng(9).normal(size=(2048, 2048)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert_projection_matches_the_sheared_one(alf, distance)


def test_a_projection_takes_its_chunks_in_order_and_all_of_them(monkeypatch):
    g = grid_64()
    alf = AugmentedLightField(g, np.random.default_rng(3).normal(size=(64, 64)))
    distance = 0.7 * g.dx / g.dtheta
    want, want_loss = sheared_projection(alf, distance)
    # chunks of one row, of 7 (a short last one) and all 64 give the whole
    # radiance's numbers to rounding
    full = ShearedProjection(g, distance)
    row_bytes = 8 * (64 + -(-64 // full.width) * full.span)  # a row and its band products
    for budget, size in ((1, 1), (7 * row_bytes, 7), (64 * row_bytes, 64)):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        projection = ShearedProjection(g, distance)
        assert projection.chunk_rows == size
        for lo in range(0, 64, size):
            projection.add(lo, alf.radiance[lo : lo + size])
        got, loss = projection.result()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert abs(loss - want_loss) <= 1e-12
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 20)
    projection = ShearedProjection(g, distance)
    assert projection.chunk_rows >= 64
    with pytest.raises(InvalidConfigurationError, match="next chunk"):
        projection.add(0, alf.radiance[:8])  # short of the chunk
    with pytest.raises(InvalidConfigurationError, match="next chunk"):
        projection.add(8, alf.radiance[8:])  # not from the next row
    with pytest.raises(InvalidConfigurationError, match="missing rows"):
        projection.result()


def test_sheared_projection_warns_and_rejects_as_the_shear_does():
    g = grid_64()
    blob = gaussian_blob(g, t0=20 * g.dtheta)
    with pytest.warns(TruncationWarning):
        sheared_projection(blob, 3 * g.x_extent / g.theta_extent)
    with pytest.raises(InvalidConfigurationError, match="finite"):
        sheared_projection(blob, float("nan"))


def test_a_shear_without_out_leaves_a_frozen_input_as_it_was():
    g = grid_64()
    alf = AugmentedLightField(g, np.random.default_rng(7).normal(size=(64, 64)))
    before = hashlib.sha256(alf.radiance.tobytes()).hexdigest()
    out, _ = shear_propagate(alf, 3.7 * g.dx / (g.theta_extent / 2))
    assert hashlib.sha256(alf.radiance.tobytes()).hexdigest() == before
    assert not alf.radiance.flags.writeable
    assert not np.shares_memory(out.radiance, alf.radiance)


def test_shear_rejects_an_out_it_cannot_write():
    g = grid_64()
    alf = gaussian_blob(g)
    bad = {
        "read_only": alf.radiance,
        "wrong_shape": np.empty((64, 63)),
        "wrong_dtype": np.empty((64, 64), dtype=np.float32),
        "column_major": np.empty((64, 64), order="F"),
    }
    for name, out in bad.items():
        with pytest.raises(InvalidConfigurationError, match="out must be"):
            shear_propagate(alf, 0.01, out=out)


def assert_shear_working_memory_is_three_column_blocks():
    g = make_grid(512, 2.56e-3, 2048, 2048 * LAM / (2 * 2.56e-3), LAM)
    alf = AugmentedLightField(g, np.random.default_rng(6).normal(size=(512, 2048)))
    tracemalloc.start()
    try:
        shear_propagate(alf, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (8 MiB), taken by the container without a copy, and at
    # most three 1 MiB column buffers (measured: the margined source and
    # the shifted columns, 2.2 MiB), shared by the workers; each full-size
    # copy would add 8 MiB
    assert peak < alf.radiance.nbytes + 3 * 2**20


def test_shear_working_memory_is_the_result_and_three_column_blocks(monkeypatch):
    monkeypatch.setattr(core, "_worker_count", lambda: 1)  # one worker's block budget
    assert_shear_working_memory_is_three_column_blocks()
