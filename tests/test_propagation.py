import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import irfft, next_fast_len, rfft, rfftfreq

from auglf import (
    AugmentedLightField,
    ComplexField,
    InvalidConfigurationError,
    Lens,
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
import auglf.core as core
from auglf import propagation
from auglf.transformers import _BLOCK_BYTES, _block_rows

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
    assert_matches_interp(alf, 0.0)


def test_interp_mode_validated():
    g = grid_64()
    with pytest.raises(InvalidConfigurationError):
        shear_propagate(gaussian_blob(g), 0.01, interp="cubic")


@pytest.mark.parametrize("distance", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("interp", ["bandlimited", "linear"])
def test_non_finite_distance_rejected(distance, interp):
    with pytest.raises(InvalidConfigurationError, match="finite"):
        shear_propagate(gaussian_blob(grid_64()), distance, interp=interp)


def test_whole_bin_shear_moves_rows_exactly():
    g = grid_64()
    rng = np.random.default_rng(1)
    r = np.zeros((64, 64))
    # keep |shift| <= 12 cells so nothing crosses the window edge
    r[24:40, 20:45] = rng.uniform(size=(16, 25))
    alf = AugmentedLightField(g, r)
    z = g.dx / g.dtheta  # row j slides by exactly (j - n/2) cells
    out, loss = shear_propagate(alf, z, interp="linear")
    for j in (20, 32, 44):
        k = j - 32
        np.testing.assert_allclose(out.radiance[24 + k : 40 + k, j], r[24:40, j], atol=1e-12)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_power_balance_against_reported_loss():
    g = grid_64()
    rng = np.random.default_rng(2)
    alf = AugmentedLightField(g, rng.uniform(size=(64, 64)))
    for interp in ("linear", "bandlimited"):
        out, loss = shear_propagate(alf, 0.08, interp=interp)
        assert 0 < loss < 1
        assert out.total_power() == pytest.approx(alf.total_power() * (1 - loss), rel=1e-9)
        assert out.meta["truncation_loss"] == loss


def test_bandlimited_semigroup():
    g = grid_64()
    alf = gaussian_blob(g)
    one, _ = shear_propagate(alf, 0.03)
    two, _ = shear_propagate(one, 0.02)
    direct, _ = shear_propagate(alf, 0.05)
    scale = np.abs(direct.radiance).max()
    np.testing.assert_allclose(two.radiance, direct.radiance, atol=1e-9 * scale)


def test_linear_interp_smears_but_conserves():
    g = grid_64()
    alf = gaussian_blob(g)
    out, loss = shear_propagate(alf, 0.35 * g.dx / g.dtheta, interp="linear")
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert out.total_power() == pytest.approx(alf.total_power(), rel=1e-12)
    assert out.radiance.min() >= 0.0  # two-point spreading never rings negative


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
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-9


def fourier_system(alf):
    """Propagate f, pass a lens of focal length f, propagate f: (x, theta) -> (f theta, -x / f)."""
    g = alf.grid
    f = g.dx / g.dtheta  # one position step per angle bin: every move is whole bins
    alf, _ = shear_propagate(alf, f, interp="linear")
    alf = apply_transformer(alf, canonical_transformer(Lens(f), g))
    out, _ = shear_propagate(alf, f, interp="linear")
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


# Reference: the bandlimited shear over all angle rows at once, the form the
# row-blocked version must reproduce bit for bit.


def one_shot_shear(alf, distance):
    grid = alf.grid
    rows = np.ascontiguousarray(alf.radiance.T)
    in_sums = rows.sum(axis=1)
    bins = distance * grid.theta_axis() / grid.dx
    guard = int(np.ceil(np.abs(bins).max())) + 4
    padded_len = next_fast_len(grid.x_samples + 2 * guard)
    padded = np.zeros((rows.shape[0], padded_len))
    padded[:, guard : guard + grid.x_samples] = rows
    phase = np.exp(-2j * np.pi * rfftfreq(padded_len)[np.newaxis, :] * bins[:, np.newaxis])
    shifted = irfft(rfft(padded, axis=1) * phase, padded_len, axis=1)
    out_rows = shifted[:, guard : guard + grid.x_samples]
    leak = in_sums - out_rows.sum(axis=1)
    loss = float(np.abs(leak).sum()) / float(np.abs(in_sums).sum())
    return out_rows.T, loss


SHEAR_X, SHEAR_THETA_EXTENT, SHEAR_BINS = 64, 0.02, 5.3


def shear_rows_per_block():
    # the steepest ray, at theta = -extent/2, moves SHEAR_BINS cells
    guard = int(np.ceil(SHEAR_BINS)) + 4
    return _block_rows(next_fast_len(SHEAR_X + 2 * guard))


@pytest.mark.parametrize(
    "rows_of",
    [lambda b: 1, lambda b: b - 1, lambda b: 2 * b + 3, lambda b: 3 * b],
    ids=["single_row", "under_one_block", "ragged_blocks", "whole_blocks"],
)
def test_blocked_bandlimited_shear_matches_one_shot_bits(rows_of):
    theta_samples = rows_of(shear_rows_per_block())
    g = PhaseSpaceGrid(SHEAR_X, SHEAR_X * 1e-5, theta_samples, SHEAR_THETA_EXTENT, LAM)
    distance = SHEAR_BINS * g.dx / (SHEAR_THETA_EXTENT / 2)
    rng = np.random.default_rng(theta_samples)
    alf = AugmentedLightField(g, rng.normal(size=(SHEAR_X, theta_samples)), {"tag": 1})
    out, loss = shear_propagate(alf, distance)
    ref, ref_loss = one_shot_shear(alf, distance)
    assert np.array_equal(out.radiance, ref)
    assert loss == ref_loss == out.meta["truncation_loss"]
    assert out.meta["tag"] == 1


def test_bandlimited_shear_working_memory_is_one_block(monkeypatch):
    monkeypatch.setattr(core, "_worker_count", lambda: 1)  # one worker's block budget
    g = make_grid(256, 2.56e-3, 1024, 1024 * LAM / (2 * 2.56e-3), LAM)
    alf = AugmentedLightField(g, np.random.default_rng(6).normal(size=(256, 1024)))
    bins = 0.01 * g.theta_axis() / g.dx
    padded_len = next_fast_len(256 + 2 * (int(np.ceil(np.abs(bins).max())) + 4))
    rows = min(_block_rows(padded_len), 1024)
    # padded and shifted rows, their spectra and phase ramps, and the
    # source and shifted columns
    buffers = rows * (2 * 8 * padded_len + 2 * 16 * (padded_len // 2 + 1) + 2 * 8 * 256)
    tracemalloc.start()
    try:
        shear_propagate(alf, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, taken by the container without a copy, and the block
    # buffers, each made once; shifting all rows at once would take 14 MiB
    assert peak < alf.radiance.nbytes + buffers + 2**20


@pytest.mark.parametrize("sign", [1, -1])
def test_bandlimited_shear_transforms_into_buffers_made_once(monkeypatch, sign):
    monkeypatch.setattr(core, "_worker_count", lambda: 1)  # one worker's buffers
    outs = {"rfft": [], "irfft": []}

    def spy(name):
        transform = getattr(propagation, name)

        def call(*args, out=None, **kwargs):
            outs[name].append(out)
            return transform(*args, out=out, **kwargs)

        return call

    for name in outs:
        monkeypatch.setattr(propagation, name, spy(name))
    theta_samples = 2 * shear_rows_per_block() + 3  # two whole blocks and a short one
    g = PhaseSpaceGrid(SHEAR_X, SHEAR_X * 1e-5, theta_samples, SHEAR_THETA_EXTENT, LAM)
    distance = sign * SHEAR_BINS * g.dx / (SHEAR_THETA_EXTENT / 2)
    alf = AugmentedLightField(g, np.random.default_rng(7).normal(size=(SHEAR_X, theta_samples)))
    out, loss = shear_propagate(alf, distance)
    ref, ref_loss = one_shot_shear(alf, distance)
    assert np.array_equal(out.radiance, ref) and loss == ref_loss
    for blocks in outs.values():
        assert [len(o) for o in blocks] == [shear_rows_per_block()] * 2 + [3]
        assert all(o.base is blocks[0].base is not None for o in blocks)


# Reference: the linear shear as np.interp per angle row, zero outside the
# window.  The blocked two-axpy shear must match it to rounding.


def interp_shear(alf, distance):
    grid = alf.grid
    x = grid.x_axis()
    rows = np.ascontiguousarray(alf.radiance.T)
    shifts = distance * grid.theta_axis()
    out_rows = np.array(
        [np.interp(x - s, x, row, left=0.0, right=0.0) for s, row in zip(shifts, rows)]
    )
    in_sums = rows.sum(axis=1)
    loss = float(np.abs(in_sums - out_rows.sum(axis=1)).sum()) / float(np.abs(in_sums).sum())
    return out_rows.T, loss


def assert_matches_interp(alf, distance):
    out, loss = shear_propagate(alf, distance, interp="linear")
    ref, ref_loss = interp_shear(alf, distance)
    assert np.abs(out.radiance - ref).max() <= 1e-12 * np.abs(alf.radiance).max()
    assert abs(loss - ref_loss) <= 1e-12
    assert out.meta["truncation_loss"] == loss
    assert out.radiance.flags.c_contiguous
    return out, loss


def linear_columns_per_block(x_samples):
    return max(1, _BLOCK_BYTES // (8 * x_samples))


@pytest.mark.parametrize(
    "cols_of",
    [lambda b: 1, lambda b: b - 1, lambda b: 2 * b + 3, lambda b: 3 * b],
    ids=["single_column", "under_one_block", "ragged_blocks", "whole_blocks"],
)
def test_blocked_linear_shear_matches_interp(cols_of, monkeypatch):
    x_samples = 512
    theta_samples = cols_of(linear_columns_per_block(x_samples))
    g = PhaseSpaceGrid(x_samples, x_samples * 1e-5, theta_samples, SHEAR_THETA_EXTENT, LAM)
    distance = 37.3 * g.dx / (SHEAR_THETA_EXTENT / 2)
    rng = np.random.default_rng(theta_samples)
    alf = AugmentedLightField(g, rng.normal(size=(x_samples, theta_samples)), {"tag": 1})
    out, loss = assert_matches_interp(alf, distance)
    assert out.meta["tag"] == 1
    # angle columns are independent, so the block size changes no bit
    monkeypatch.setattr(propagation, "_BLOCK_BYTES", 8 * x_samples)
    one_by_one, loss_one = shear_propagate(alf, distance, interp="linear")
    assert np.array_equal(one_by_one.radiance, out.radiance) and loss_one == loss


def test_linear_shear_near_integer_bin_shift_on_the_coded_field_grid():
    # 5 cm on this grid shifts column 1152 by 25.000000000000025 bins; where
    # np.interp counts the window edge as inside is decided in floats
    g = PhaseSpaceGrid(2048, 4.096e-3, 2048, 16e-3, LAM)
    bins = 0.05 * g.theta_axis() / g.dx
    assert bins[1152] != 25.0 and abs(bins[1152] - 25.0) < 1e-13
    alf = AugmentedLightField(g, np.random.default_rng(5).normal(size=(2048, 2048)))
    assert_matches_interp(alf, 0.05)


@pytest.mark.parametrize("distance", [1e16, -1e300])
def test_linear_shear_far_beyond_the_window(distance):
    # integer shifts past int64 must neither wrap nor warn
    g = grid_64()
    alf = AugmentedLightField(g, np.random.default_rng(4).normal(size=(64, 64)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        warnings.simplefilter("error", RuntimeWarning)
        out, loss = assert_matches_interp(alf, distance)
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
def test_linear_shear_property_matches_interp_and_balances_power(case):
    alf, distance = case
    out, loss = assert_matches_interp(alf, distance)
    in_abs = np.abs(alf.radiance.sum(axis=0)).sum() * alf.grid.dx * alf.grid.dtheta
    scale = np.abs(alf.radiance).sum() * alf.grid.dx * alf.grid.dtheta
    drift = abs(out.total_power() - alf.total_power())
    assert drift <= loss * in_abs + 1e-12 * scale


def test_linear_shear_working_memory_is_the_result_and_its_column_blocks(monkeypatch):
    monkeypatch.setattr(core, "_worker_count", lambda: 1)  # one worker's block budget
    g = make_grid(512, 2.56e-3, 2048, 2048 * LAM / (2 * 2.56e-3), LAM)
    alf = AugmentedLightField(g, np.random.default_rng(6).normal(size=(512, 2048)))
    tracemalloc.start()
    try:
        shear_propagate(alf, 0.01, interp="linear")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (8 MiB), taken by the container without a copy, and three
    # 1 MiB column buffers (source, shifted, far neighbours); each
    # full-size copy would add 8 MiB
    assert peak < alf.radiance.nbytes + 4 * 2**20
