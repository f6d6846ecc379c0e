import numpy as np
import pytest

from auglf import (
    ComplexField,
    InvalidConfigurationError,
    RectAperture,
    SamplingWarning,
    apply_mask,
    fresnel_propagate,
    make_grid,
)

from oracles import gaussian_beam_intensity

LAM = 633e-9


def grid(n=1024, extent=4.096e-3):
    return make_grid(n, extent, 16, 1e-2, LAM)


def gaussian_field(g, sigma):
    # amplitude exp(-x^2 / (2 sigma^2)), the convention the beam oracle uses
    return ComplexField(g, np.exp(-g.x_axis() ** 2 / (2 * sigma ** 2)).astype(complex))


def test_zero_distance_copies():
    g = grid(256, 1.28e-3)
    f = gaussian_field(g, 10 * g.dx)
    out = fresnel_propagate(f, 0.0)
    np.testing.assert_array_equal(out.samples, f.samples)
    assert out.samples is not f.samples


def test_negative_distance_rejected():
    g = grid(256, 1.28e-3)
    with pytest.raises(InvalidConfigurationError):
        fresnel_propagate(gaussian_field(g, 10 * g.dx), -0.01)


@pytest.mark.parametrize("distance", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_distance_rejected(distance):
    g = grid(256, 1.28e-3)
    with pytest.raises(InvalidConfigurationError, match="finite"):
        fresnel_propagate(gaussian_field(g, 10 * g.dx), distance)


def test_unitarity():
    g = grid()
    rng = np.random.default_rng(0)
    f = ComplexField(g, rng.normal(size=g.x_samples) + 1j * rng.normal(size=g.x_samples))
    out = fresnel_propagate(f, 0.02)
    assert out.total_energy() == pytest.approx(f.total_energy(), rel=1e-12)


def test_semigroup():
    g = grid()
    f = gaussian_field(g, 30 * g.dx)
    stepped = fresnel_propagate(fresnel_propagate(f, 0.04), 0.06)
    direct = fresnel_propagate(f, 0.10)
    num = np.linalg.norm(stepped.samples - direct.samples)
    assert num / np.linalg.norm(direct.samples) < 1e-12


def test_gaussian_beam_spreading_law():
    g = grid()
    sigma = 20 * g.dx
    f = gaussian_field(g, sigma)
    x = g.x_axis()
    for z in (0.02, 0.05, 0.1):
        got = np.abs(fresnel_propagate(f, z).samples) ** 2
        want = gaussian_beam_intensity(x, z, sigma, LAM)
        want *= got.max() / want.max()
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6


def test_far_throw_draws_sampling_warning():
    g = grid(256, 1.28e-3)
    rng = np.random.default_rng(1)
    f = ComplexField(g, rng.normal(size=256) + 0j)  # full-band field
    z_limit = 256 * g.dx ** 2 / LAM
    with pytest.warns(SamplingWarning):
        fresnel_propagate(f, 3 * z_limit)


def test_narrowband_field_escapes_the_warning():
    # the guard keys on occupied bandwidth, not the grid's full band; a
    # narrow field must decay below the occupancy floor at its window edge
    g = grid(256, 1.28e-3)
    f = gaussian_field(g, 11 * g.dx)
    z_limit = 256 * g.dx ** 2 / LAM
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error", SamplingWarning)
        fresnel_propagate(f, 2 * z_limit)


def test_apply_mask_multiplies_transmittance():
    g = grid(256, 1.28e-3)
    f = gaussian_field(g, 30 * g.dx)
    width = 64 * g.dx
    out = apply_mask(f, RectAperture(width))
    x = g.x_axis()
    inside = np.abs(x) < width / 2 - g.dx
    outside = np.abs(x) > width / 2 + g.dx
    np.testing.assert_array_equal(out.samples[inside], f.samples[inside])
    assert np.all(out.samples[outside] == 0)
