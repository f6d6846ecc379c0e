import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import resample, zoom_fft

from auglf import (
    BandwidthWarning,
    ClippedOrderWarning,
    ComplexField,
    DegenerateInputError,
    Hologram,
    InvalidConfigurationError,
    PhaseGrating,
    TwoPinholes,
    WdfOptions,
    make_grid,
    project_intensity,
    wdf_from_field,
)
import auglf.core as core
from auglf.wdf import WignerRows, _lag_axis, _lag_chirps, _lags_to_angles, _pi_phase, _upsample, wigner_table

from oracles import (
    gaussian_wigner,
    rect_wigner,
    wigner_from_samples_direct,
    wigner_quadrature,
)

LAM = 633e-9


def full_circle_grid(n=64, extent=1.28e-3):
    # theta window spanning exactly one lag-Nyquist period; the angular
    # Riemann sum then equals the discrete Parseval sum, no leakage terms
    return make_grid(n, extent, n, n * LAM / extent, LAM)


def band_limited(rng, n, k):
    spec = np.zeros(n, complex)
    spec[: k + 1] = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
    spec[-k:] = rng.normal(size=k) + 1j * rng.normal(size=k)
    return np.fft.ifft(spec)


def test_matches_direct_sum_oracle():
    g = full_circle_grid()
    rng = np.random.default_rng(7)
    fld = band_limited(rng, g.x_samples, 6)
    W = wdf_from_field(ComplexField(g, fld))
    Wd = wigner_from_samples_direct(fld, g.dx, g.u_axis()) / LAM
    assert np.linalg.norm(W.radiance - Wd) / np.linalg.norm(Wd) < 1e-12


def test_matches_continuous_quadrature_on_gaussian():
    g = make_grid(128, 2.56e-3, 128, 128 * LAM / (2 * 2.56e-3), LAM)
    sigma = 6 * g.dx
    gauss = lambda x: np.exp(-(x ** 2) / (2 * sigma ** 2))
    W = wdf_from_field(ComplexField(g, gauss(g.x_axis())))
    xs = g.x_axis()[56:72]
    us = g.u_axis()[60:68]
    Wq = wigner_quadrature(gauss, xs, us, s_max=2e-3, ds=2e-6)
    pkg = W.radiance[56:72][:, 60:68] * LAM
    assert np.linalg.norm(pkg - Wq) / np.linalg.norm(Wq) < 1e-6


def test_gaussian_closed_form_and_peak_value():
    g = make_grid(128, 2.56e-3, 128, 128 * LAM / (2 * 2.56e-3), LAM)
    sigma = 6 * g.dx
    gf = np.exp(-g.x_axis() ** 2 / (2 * sigma ** 2))
    W = wdf_from_field(ComplexField(g, gf))
    ana = gaussian_wigner(g.x_axis()[:, None], g.u_axis()[None, :], sigma) / LAM
    assert np.linalg.norm(W.radiance - ana) / np.linalg.norm(ana) < 1e-12
    peak = W.radiance[64, 64] * LAM
    assert peak == pytest.approx(2.0 * sigma * np.sqrt(np.pi), rel=1e-12)


def test_projection_recovers_intensity_exactly():
    g = full_circle_grid()
    rng = np.random.default_rng(3)
    fld = rng.normal(size=g.x_samples) + 1j * rng.normal(size=g.x_samples)
    I = project_intensity(wdf_from_field(ComplexField(g, fld))).values
    target = np.abs(fld) ** 2
    assert np.linalg.norm(I - target) / np.linalg.norm(target) < 1e-13


def test_realness_residue_reported():
    # the one-sided lag sum is real by construction: no residue to report
    g = full_circle_grid()
    rng = np.random.default_rng(11)
    W = wdf_from_field(ComplexField(g, band_limited(rng, g.x_samples, 8)))
    assert W.radiance.dtype == np.float64
    assert "imag_residue" not in W.meta
    u = g.u_axis()
    table = wigner_table(WignerRows(g, rng.normal(size=64) + 0j, float(u[0]), float(u[1] - u[0]), 64, WdfOptions()))
    assert type(table) is np.ndarray and table.dtype == np.float64
    assert W.meta["wdf_options"] == (1, "zero")


def test_shift_covariance():
    g = full_circle_grid(128, 2.56e-3)
    sigma = 4 * g.dx
    x = g.x_axis()
    shift = 8
    Wa = wdf_from_field(ComplexField(g, np.exp(-x ** 2 / (2 * sigma ** 2))))
    Wb = wdf_from_field(
        ComplexField(g, np.exp(-((x - shift * g.dx) ** 2) / (2 * sigma ** 2)))
    )
    moved = np.roll(Wa.radiance, shift, axis=0)
    assert np.linalg.norm(Wb.radiance - moved) / np.linalg.norm(moved) < 1e-9


def test_modulation_covariance():
    # an on-node carrier exp(2 pi i k x / E) moves every angle bin by k
    g = full_circle_grid()
    rng = np.random.default_rng(5)
    fld = band_limited(rng, g.x_samples, 6)
    k = 5
    car = np.exp(2j * np.pi * k * g.x_axis() / g.x_extent)
    Wa = wdf_from_field(ComplexField(g, fld))
    Wb = wdf_from_field(ComplexField(g, fld * car))
    np.testing.assert_allclose(
        Wb.radiance[:, 16 + k : 48 + k], Wa.radiance[:, 16:48], atol=1e-9 * np.abs(Wa.radiance).max()
    )


def test_even_field_gives_even_angle_profile():
    g = full_circle_grid()
    ev = np.cos(2 * np.pi * 3 * g.x_axis() / g.x_extent).astype(complex)
    R = wdf_from_field(ComplexField(g, ev)).radiance
    # column j pairs with column n-j; the lowest-index column has no partner
    flipped = R[:, 1:][:, ::-1]
    assert np.linalg.norm(R[:, 1:] - flipped) / np.linalg.norm(R) < 1e-12


def test_rect_field_against_closed_form():
    n = 512
    g = make_grid(n, 2.048e-3, n, n * LAM / (2 * 2.048e-3), LAM)
    x = g.x_axis()
    A = 256 * g.dx
    fld = (np.abs(x) < A / 2).astype(complex)
    fld[np.abs(np.abs(x) - A / 2) < g.dx / 2] = 0.5
    W = wdf_from_field(ComplexField(g, fld), WdfOptions(oversample_factor=2))
    ana = rect_wigner(x[:, None], g.u_axis()[None, :], A) / LAM
    err = np.linalg.norm(W.radiance - ana) / np.linalg.norm(ana)
    assert err < 0.03


def test_analytic_two_pinholes_structure():
    # the two-pinhole kernel is the closed-form Wigner function of two
    # spikes: a flat row at each pinhole and a fringe row at their midpoint
    g = make_grid(256, 2.56e-3, 256, 1.899e-2, LAM)
    a, b = 16 * g.dx, -16 * g.dx
    K = TwoPinholes(a, b).kernel(g).kernel
    occupied = np.nonzero(np.abs(K).sum(axis=1))[0]
    assert set(occupied) == {g.x_index(b), g.x_index(0.0), g.x_index(a)}
    flat = 1.0 / (LAM * g.dx)
    assert np.all(K[g.x_index(a)] == flat) and np.all(K[g.x_index(b)] == flat)
    rel = (np.arange(2 * g.theta_samples - 1) - (g.theta_samples - 1)) * g.dtheta
    target = 2.0 * np.cos(2 * np.pi * (a - b) * rel / LAM) * flat
    np.testing.assert_allclose(K[g.x_index(0.0)], target, rtol=0, atol=1e-9 * flat)
    with pytest.raises(InvalidConfigurationError):
        TwoPinholes(a, a)


def test_zero_field_is_degenerate():
    g = full_circle_grid()
    with pytest.raises(DegenerateInputError):
        wdf_from_field(ComplexField(g, np.zeros(g.x_samples)))


def test_fast_chirp_draws_bandwidth_warning():
    # local frequency beta*x leaves the angular window well before the edge,
    # while staying below the x-sampling Nyquist so the guard can see it
    g = make_grid(256, 2.56e-3, 64, 2e-3, LAM)
    beta = 2e7
    fld = np.exp(1j * np.pi * beta * g.x_axis() ** 2)
    with pytest.warns(BandwidthWarning):
        wdf_from_field(ComplexField(g, fld))


def test_options_validation():
    with pytest.raises(InvalidConfigurationError):
        WdfOptions(oversample_factor=3)
    with pytest.raises(TypeError, match="window"):
        WdfOptions(window="hann")
    with pytest.raises(InvalidConfigurationError):
        WdfOptions(boundary="reflect")


def test_angle_window_beyond_lag_band_rejected():
    # u span achievable from the lag sampling is factor/(4 dx)
    g = make_grid(64, 1.28e-3, 64, 64 * LAM / 1.28e-3, LAM)
    too_far = 1.1 * 2 / (4 * g.dx)
    with pytest.raises(InvalidConfigurationError):
        WignerRows(g, np.ones(64, complex), -too_far, too_far / 4, 9, WdfOptions())


@pytest.mark.parametrize("n_u", [1, 0, -3])
def test_fewer_than_two_frequencies_rejected(n_u):
    # one frequency has no step for the chirp scale to divide by
    g = make_grid(16, 3.2e-4, 16, 16 * LAM / 3.2e-4, LAM)
    with pytest.raises(InvalidConfigurationError, match="at least 2 frequencies"):
        WignerRows(g, np.ones(16, complex), 0.0, 100.0, n_u, WdfOptions())


def test_fine_samples_shape_checked():
    g = full_circle_grid()
    with pytest.raises(InvalidConfigurationError):
        WignerRows(g, np.ones(64, complex), 0.0, 100.0, 4, WdfOptions(), fine_samples=np.ones(64))


# The in-house signal helpers must reproduce scipy.signal bit for bit, so
# outputs stay byte-identical with the ones computed through scipy.signal.


@pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 1024])
@pytest.mark.parametrize("factor", [2, 4, 8])
def test_upsample_matches_scipy_resample(n, factor):
    rng = np.random.default_rng(n * factor)
    x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    assert np.array_equal(_upsample(x, factor * n), resample(x, factor * n, axis=-1))
    assert np.array_equal(_upsample(x[1], factor * n), resample(x[1], factor * n))


# The lag grid's positions, which the plane-wave launch and every numeric
# kernel sample on, are where the resampler puts the field's lag-grid
# samples: a field periodic on the window, resampled, is the field there.
@pytest.mark.parametrize("n", [2, 3, 8, 63, 64, 255, 1024])
@pytest.mark.parametrize("oversample", [1, 2, 4])
def test_lag_axis_holds_the_resampled_field(n, oversample):
    g = make_grid(n, n * 1e-5, 16, 1e-2, LAM)
    options = WdfOptions(oversample_factor=oversample)
    factor = 2 * oversample
    lags = _lag_axis(g, options)
    assert lags.shape == (factor * n,)
    assert np.abs(lags[::factor] - g.x_axis()).max() <= 1e-9 * g.dx
    assert np.allclose(np.diff(lags), g.dx / factor, rtol=1e-9, atol=0.0)
    # two harmonics of the window below the grid's Nyquist frequency;
    # measured 1.3e-12 apart at worst, and 0.13 half a lag step off
    m = (n - 1) // 2

    def field(x):
        return np.exp(2j * np.pi * m * x / g.x_extent) + 0.5 * np.exp(-2j * np.pi * (m // 2) * x / g.x_extent)

    assert np.abs(_upsample(field(g.x_axis()), factor * n) - field(lags)).max() <= 1e-11


# The one chirp-z between lags and angles, against direct sums: the Wigner
# rows start on a frequency u_start, a per-lag phase e^{-2 pi i u_start l ds}
# taken with the chirp, with fewer, as many and more angle nodes than lags.
@pytest.mark.parametrize("n_u, n_lags", [(17, 33), (33, 33), (65, 33)])
def test_lags_to_angles_matches_direct_sums(n_u, n_lags):
    rng = np.random.default_rng(n_u)
    lags = rng.normal(size=(3, n_lags)) + 1j * rng.normal(size=(3, n_lags))
    beta, start, scale = 0.0137, -7.5, 0.25  # start in angle steps, not whole
    chirp, spectrum, _ = _lag_chirps(beta, n_u, n_lags)
    buf = np.full((3, len(spectrum)), np.nan + 0j)
    buf[:, :n_lags] = lags * _pi_phase(-2.0 * start * beta, np.arange(n_lags)) * np.conj(chirp[:n_lags])
    out = np.empty((3, n_u))
    _lags_to_angles(buf, n_lags, np.conj(spectrum), scale * np.conj(chirp[:n_u]), out)
    nodes = start + np.arange(n_u)
    direct = scale * (lags @ np.exp(-2j * np.pi * beta * np.outer(np.arange(n_lags), nodes))).real
    assert np.abs(out - direct).max() <= 1e-13 * scale * np.abs(lags).sum(axis=1).max()


def test_pi_phase_reduces_the_product_exactly():
    # a k reaches about 8e3 half turns, where rounding a * k itself errs by
    # 1e-12; the head-and-tail product stays within a few units of 1e-16
    a, k = 1.9607843137254902e-3, np.arange(0, 2053) ** 2
    turns = np.longdouble(a) * k.astype(np.longdouble)
    turns -= 2 * np.rint(turns / 2)
    half_turn = 4 * np.arctan(np.longdouble(1))
    want = np.cos(half_turn * turns) + 1j * np.sin(half_turn * turns)
    assert np.abs(_pi_phase(a, k) - want.astype(complex)).max() < 1e-14


def _lag_grid_signal(samples, factor, fine_samples=None):
    """The signal on the lag grid, built with scipy.signal."""
    if fine_samples is not None:
        return np.asarray(fine_samples, dtype=complex)
    return resample(np.asarray(samples, dtype=complex), factor * len(samples))


def _wigner_table_via_scipy(grid, samples, u_start, du, n_u, options, fine_samples=None):
    """Two-sided reference: the lag products over all 2K+1 lags, gathered
    by index arrays, through scipy.signal's chirp-z; the real part kept."""
    factor = 2 * options.oversample_factor
    m_total = factor * grid.x_samples
    gf = _lag_grid_signal(samples, factor, fine_samples)
    ds = 2.0 * grid.dx / factor
    k_half = m_total // 2
    lags = np.arange(-k_half, k_half + 1)
    qi = factor * np.arange(grid.x_samples)[:, None]
    ia, ib = qi + lags, qi - lags
    if options.boundary == "periodic":
        corr = gf[np.mod(ia, m_total)] * np.conj(gf[np.mod(ib, m_total)])
        corr[:, 0] *= 0.5
        corr[:, -1] *= 0.5
    else:
        valid = (ia >= 0) & (ia < m_total) & (ib >= 0) & (ib < m_total)
        corr = np.where(valid, gf[np.clip(ia, 0, m_total - 1)] * np.conj(gf[np.clip(ib, 0, m_total - 1)]), 0.0)
    u_nodes = u_start + du * np.arange(n_u)
    spec = zoom_fft(corr, [u_nodes[0], u_nodes[-1]], m=n_u, fs=1.0 / ds, endpoint=True, axis=-1)
    spec *= np.exp(2j * np.pi * u_nodes * (k_half * ds)) * ds
    return spec.real


def _assert_close_to_peak(table, reference, peak=None):
    peak = np.abs(reference).max() if peak is None else peak
    assert np.abs(table - reference).max() <= 1e-12 * peak


@pytest.mark.parametrize("n", [33, 64])
@pytest.mark.parametrize(
    "options",
    [
        WdfOptions(),
        WdfOptions(boundary="periodic"),
        WdfOptions(oversample_factor=2),
        WdfOptions(boundary="periodic", oversample_factor=4),
    ],
)
def test_wigner_table_bitwise_equals_scipy_signal_path(n, options, monkeypatch):
    # The one-sided sum rounds differently from the two-sided reference, so
    # the two agree to 1e-12 of the peak rather than bit for bit.
    g = make_grid(n, n * 2e-5, n, 0.9 * LAM / 2e-5, LAM)
    rng = np.random.default_rng(n)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    u = g.u_axis()
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 12)  # blocks of one to a few rows
    table = wigner_table(WignerRows(g, samples, float(u[0]), float(u[1] - u[0]), n, options))
    _assert_close_to_peak(table, _wigner_table_via_scipy(g, samples, float(u[0]), float(u[1] - u[0]), n, options))


@pytest.mark.parametrize("oversample", [1, 2])
def test_wigner_table_error_to_direct_oracle_within_two_sided(oversample):
    # the one-sided sum may not move further from the naive direct sums
    # than the two-sided chirp-z it replaces
    n = 128
    g = make_grid(n, n * 2e-5, n, 0.9 * LAM / 2e-5, LAM)
    rng = np.random.default_rng(1)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    options = WdfOptions(oversample_factor=oversample)
    u_start, du = float(g.u_axis()[0]), g.dtheta / LAM
    args = (u_start, du, n, options)
    direct = wigner_from_samples_direct(samples, g.dx, u_start + du * np.arange(n), oversample)
    err = np.linalg.norm(wigner_table(WignerRows(g, samples, *args)) - direct)
    two_sided = np.linalg.norm(_wigner_table_via_scipy(g, samples, *args) - direct)
    assert err <= two_sided
    assert err < 1e-13 * np.linalg.norm(direct)


VALID_OPTIONS = [
    WdfOptions(*combo)
    for combo in itertools.product((1, 2, 4), ("zero", "periodic"))
]


@st.composite
def table_cases(draw):
    """A signal, options, optional lag-grid samples and an in-band u grid."""
    n = draw(st.integers(2, 40))
    options = draw(st.sampled_from(VALID_OPTIONS))
    factor = 2 * options.oversample_factor
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    fine = None
    if draw(st.booleans()):
        fine = rng.normal(size=factor * n) + 1j * rng.normal(size=factor * n)
    grid = make_grid(n, n * 2e-5, n, 0.9 * LAM / 2e-5, LAM)
    limit = factor / (4.0 * grid.dx)
    a, b = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2, unique=True)))
    n_u = draw(st.integers(2, 48))
    u_start = a * limit
    du = (b - a) * limit / (n_u - 1)
    return grid, samples, options, fine, (u_start, du, n_u)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(table_cases())
def test_wigner_table_property_matches_two_sided_reference(case):
    grid, samples, options, fine, (u_start, du, n_u) = case
    table = wigner_table(WignerRows(grid, samples, u_start, du, n_u, options, fine))
    reference = _wigner_table_via_scipy(grid, samples, u_start, du, n_u, options, fine)
    assert table.shape == (grid.x_samples, n_u) and table.dtype == np.float64
    # a few arbitrary frequencies may all miss a row's peak, so the scale is
    # the largest value any entry can take: ds * sum |g|^2 (Cauchy-Schwarz)
    factor = 2 * options.oversample_factor
    gf = _lag_grid_signal(samples, factor, fine)
    _assert_close_to_peak(table, reference, 2.0 * grid.dx / factor * np.sum(np.abs(gf) ** 2))


@PROPERTY_SETTINGS
@given(table_cases())
def test_wigner_table_property_angular_marginal_is_intensity(case):
    # over one full lag-Nyquist period of 2K+1 frequencies every lag but 0
    # sums to zero, leaving |g|^2 at each row's node
    grid, samples, options, fine, _ = case
    factor = 2 * options.oversample_factor
    m = factor * grid.x_samples + 1
    du = factor / (2.0 * grid.dx * m)
    table = wigner_table(WignerRows(grid, samples, -(m - 1) / 2 * du, du, m, options, fine))
    target = np.abs(_lag_grid_signal(samples, factor, fine)[::factor]) ** 2
    np.testing.assert_allclose(table.sum(axis=1) * du, target, rtol=0, atol=1e-12 * target.max())


# Byte budgets of the row blocks: one row a block (the floor), a few rows
# and, at the default 1 MiB, every row of these small tables in one block.
BLOCK_BUDGETS = st.sampled_from([1, 1 << 12, 1 << 14, 1 << 16])


@PROPERTY_SETTINGS
@given(table_cases(), BLOCK_BUDGETS)
def test_wigner_table_property_chunking_is_bitwise_invariant(case, budget):
    grid, samples, options, fine, (u_start, du, n_u) = case
    whole = wigner_table(WignerRows(grid, samples, u_start, du, n_u, options, fine))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_BYTES", budget)
        chunked = wigner_table(WignerRows(grid, samples, u_start, du, n_u, options, fine))
    assert np.array_equal(chunked, whole)


@PROPERTY_SETTINGS
@given(table_cases(), BLOCK_BUDGETS, st.data())
def test_wigner_rows_property_any_row_range_gives_the_table_bits(case, budget, data):
    grid, samples, options, fine, (u_start, du, n_u) = case
    whole = wigner_table(WignerRows(grid, samples, u_start, du, n_u, options, fine))
    rows = WignerRows(grid, samples, u_start, du, n_u, options, fine)
    lo = data.draw(st.integers(0, grid.x_samples - 1))
    hi = data.draw(st.integers(lo + 1, grid.x_samples))
    out = np.full((hi - lo, n_u), np.nan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_BYTES", budget)
        rows.write(lo, hi, out)
    assert np.array_equal(out, whole[lo:hi])


_SCIPY_FREE_RUN = """
import sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import auglf, auglf.cli
print("scipy after import", scipy_modules())
assert auglf.cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print("scipy after hologram.cfg", scipy_modules())
g = auglf.make_grid(64, 1.28e-3, 64, 1e-2, 633e-9)
x = g.x_axis()
mask = auglf.ComplexField(g, (np.abs(x) < 4e-4) * np.exp(1j * np.sin(x / 1e-4)))
beam = auglf.ComplexField(g, np.exp(-((x / 3e-4) ** 2)))
train = auglf.OpticalTrain(
    g,
    auglf.FieldSource(beam),
    (auglf.Element(auglf.CodedAperture(mask)), auglf.Propagate(0.01)),
)
auglf.trace_train(train)
print("scipy after coded aperture", scipy_modules())
np.save(sys.argv[4], auglf.Hologram(0.1, width=1.5e-3).kernel(g).kernel)
print("scipy after bounded hologram", scipy_modules())
np.save(sys.argv[3], auglf.PhaseGrating(2.0, 1e-4).kernel(g).kernel)
"""


def test_import_leaves_scipy_signal_and_stats_unloaded(tmp_path):
    # importing scipy.fft or scipy.special costs about 0.3 s and 22 MiB on
    # every run, and scipy.signal (which loads scipy.stats) about a second;
    # the import and a run load no SciPy module, and only the grating
    # kernels, which evaluate special functions, import scipy.special when
    # they run; the bounded hologram's kernel is numeric and loads none
    config = Path(__file__).resolve().parents[1] / "configs" / "hologram.cfg"
    grating, hologram = tmp_path / "grating.npy", tmp_path / "hologram.npy"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(config), str(tmp_path / "out"),
         str(grating), str(hologram)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("scipy")] == [
        "scipy after import []",
        "scipy after hologram.cfg []",
        "scipy after coded aperture []",
        "scipy after bounded hologram []",
    ]
    g = make_grid(64, 1.28e-3, 64, 1e-2, 633e-9)
    with pytest.warns(ClippedOrderWarning):  # its highest orders leave the angle window
        kernel = PhaseGrating(2.0, 1e-4).kernel(g).kernel
    assert np.array_equal(np.load(grating), kernel)
    assert np.array_equal(np.load(hologram), Hologram(0.1, width=1.5e-3).kernel(g).kernel)
