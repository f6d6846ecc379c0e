import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import next_fast_len

from auglf import (
    AugmentedLightField,
    ComplexField,
    DegenerateInputError,
    IntensityProfile,
    InvalidConfigurationError,
    NegativeIntensityWarning,
    ParaxialGuardWarning,
    make_grid,
    project_intensity,
)
from auglf.core import PARAXIAL_HALF_ANGLE, _next_fast_len


def test_axes_are_node_centered():
    # even sample count puts 0 exactly on a node and step*samples == extent
    g = make_grid(8, 4.0, 6, 0.12, 5e-7)
    x = g.x_axis()
    assert x[0] == -2.0
    assert x[g.x_samples // 2] == 0.0
    assert g.dx * g.x_samples == g.x_extent
    th = g.theta_axis()
    assert th[0] == -0.06
    np.testing.assert_allclose(np.diff(th), g.dtheta)
    np.testing.assert_allclose(g.u_axis(), th / g.wavelength)


def test_index_round_trip():
    g = make_grid(128, 2.56e-3, 64, 0.02, 633e-9)
    x = g.x_axis()
    for i in (0, 1, 63, 64, 127):
        assert g.x_index(x[i]) == i
    th = g.theta_axis()
    for j in (0, 32, 63):
        assert g.theta_index(th[j]) == j
    # off-grid values snap to the nearest node, edges clip
    assert g.x_index(x[10] + 0.4 * g.dx) == 10
    assert g.x_index(-1.0) == 0
    assert g.x_index(1.0) == 127


def test_make_grid_rejects_bad_values():
    with pytest.raises(InvalidConfigurationError):
        make_grid(1, 1e-3, 64, 0.02, 633e-9)
    with pytest.raises(InvalidConfigurationError):
        make_grid(64, -1e-3, 64, 0.02, 633e-9)
    with pytest.raises(InvalidConfigurationError):
        make_grid(64, 1e-3, 64, 0.0, 633e-9)
    with pytest.raises(InvalidConfigurationError):
        make_grid(64, 1e-3, 64, 0.02, 0.0)


def test_wide_angle_window_warns():
    with pytest.warns(ParaxialGuardWarning):
        make_grid(64, 1e-3, 64, 0.5, 633e-9)


def test_paraxial_guard_starts_past_its_half_angle():
    edge = 2 * PARAXIAL_HALF_ANGLE
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParaxialGuardWarning)
        make_grid(64, 1e-3, 64, edge, 633e-9)
    with pytest.warns(ParaxialGuardWarning):
        make_grid(64, 1e-3, 64, np.nextafter(edge, np.inf), 633e-9)


def test_containers_validate_and_freeze():
    g = make_grid(16, 1e-3, 8, 0.01, 633e-9)
    f = ComplexField(g, np.ones(16))
    with pytest.raises((ValueError, RuntimeError)):
        f.samples[0] = 0.0
    with pytest.raises(InvalidConfigurationError):
        ComplexField(g, np.ones(15))
    with pytest.raises(DegenerateInputError):
        ComplexField(g, np.full(16, np.nan))
    alf = AugmentedLightField(g, np.zeros((16, 8)))
    with pytest.raises((ValueError, RuntimeError)):
        alf.radiance[0, 0] = 1.0
    with pytest.raises(InvalidConfigurationError):
        AugmentedLightField(g, np.zeros((8, 16)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(bad):
    g = make_grid(16, 1e-3, 8, 0.01, 633e-9)
    radiance = np.ones((16, 8))
    radiance[5, 3] = bad
    with pytest.raises(DegenerateInputError, match="non-finite"):
        AugmentedLightField(g, radiance)
    values = np.ones(16)
    values[-1] = bad
    with pytest.raises(DegenerateInputError, match="non-finite"):
        IntensityProfile(g, values)
    for sample in (complex(bad, 0.0), complex(0.0, bad)):
        samples = np.ones(16, complex)
        samples[7] = sample
        with pytest.raises(DegenerateInputError, match="non-finite"):
            ComplexField(g, samples)


def test_wrapping_a_frozen_array_allocates_no_mask():
    g = make_grid(2048, 1e-3, 512, 0.01, 633e-9)
    radiance = np.random.default_rng(0).normal(size=(2048, 512))
    radiance.setflags(write=False)
    samples = np.exp(1j * np.arange(2048 * 512.0))
    samples.setflags(write=False)
    wide = make_grid(2048 * 512, 1e-3, 8, 0.01, 633e-9)
    tracemalloc.start()
    try:
        alf = AugmentedLightField(g, radiance)
        field = ComplexField(wide, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alf.radiance is radiance and field.samples is samples
    assert peak < 64 * 1024


def test_radiance_is_stored_c_contiguous():
    g = make_grid(16, 1e-3, 8, 0.01, 633e-9)
    a = np.arange(128.0).reshape(8, 16)
    alf = AugmentedLightField(g, a.T)
    assert alf.radiance.flags.c_contiguous
    assert np.array_equal(alf.radiance, a.T)


def test_writable_caller_arrays_are_copied():
    g = make_grid(16, 1e-3, 8, 0.01, 633e-9)
    values = np.arange(128.0).reshape(16, 8)
    alf = AugmentedLightField(g, values)
    values[3, 4] = -1.0
    assert alf.radiance is not values
    assert alf.radiance[3, 4] == 3 * 8 + 4
    assert values.flags.writeable  # the caller's array is left alone
    samples = np.ones(16, complex)
    f = ComplexField(g, samples)
    samples[:] = 0.0
    assert np.all(f.samples == 1.0)


def test_frozen_arrays_are_taken_as_is_and_others_copied():
    g = make_grid(16, 1e-3, 8, 0.01, 633e-9)
    owned = np.arange(128.0).reshape(16, 8).copy()
    owned.setflags(write=False)
    assert AugmentedLightField(g, owned).radiance is owned
    # read-only but not owning its data, not C-ordered, or of another
    # dtype: the container makes its own frozen copy
    base = np.arange(256.0)
    base.setflags(write=False)
    view = base[:128].reshape(16, 8)
    transposed = np.ascontiguousarray(owned.T).T
    transposed.setflags(write=False)
    as_int = np.arange(128).reshape(16, 8)
    as_int.setflags(write=False)
    for values in (view, transposed, as_int):
        radiance = AugmentedLightField(g, values).radiance
        assert radiance is not values and not np.shares_memory(radiance, values)
        assert radiance.flags.c_contiguous and radiance.flags.owndata
        assert not radiance.flags.writeable
        assert np.array_equal(radiance, values)


def test_total_power_and_energy():
    g = make_grid(16, 1.6, 8, 0.08, 633e-9)
    f = ComplexField(g, np.full(16, 2.0))
    assert f.total_energy() == pytest.approx(4.0 * 1.6)
    alf = AugmentedLightField(g, np.ones((16, 8)))
    assert alf.total_power() == pytest.approx(16 * 8 * g.dx * g.dtheta)


def test_project_intensity_sums_theta():
    g = make_grid(4, 1.0, 5, 0.1, 633e-9)
    r = np.arange(20, dtype=float).reshape(4, 5)
    prof = project_intensity(AugmentedLightField(g, r))
    np.testing.assert_allclose(prof.values, r.sum(axis=1) * g.dtheta)
    assert isinstance(prof, IntensityProfile)
    assert prof.total_power() == pytest.approx(r.sum() * g.dx * g.dtheta)


def test_project_intensity_flags_negative_residue():
    g = make_grid(4, 1.0, 4, 0.1, 633e-9)
    r = np.ones((4, 4))
    r[2, :] = -2.0  # projects to a clearly negative bin
    with pytest.warns(NegativeIntensityWarning):
        project_intensity(AugmentedLightField(g, r))
    # a residue inside the floor, 1e-2 of the peak, draws no warning
    r[2, :] = -0.009
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = project_intensity(AugmentedLightField(g, r)).values
    assert -values.min() / values.max() == pytest.approx(0.009)


def test_next_fast_len_matches_scipy():
    for target in range(1, 2**15 + 1):
        assert _next_fast_len(target) == next_fast_len(target), target
    for target in (10**6 + 1, 3**13 + 1, 2**31 - 1, 10**9 + 7, 11**9 - 1, 2**40 + 1):
        assert _next_fast_len(target) == next_fast_len(target), target
