"""Independent oracles used to pin expected values.

Everything here is deliberately naive: direct quadrature, explicit DFT
loops, closed-form beam formulas.  Nothing imports the package's fast
paths, so a test that compares the two is a real cross-check rather
than the same code run twice.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import airy, fresnel, jv
from scipy.signal import resample

SQRT_PI = 1.7724538509055159


def wigner_quadrature(gfun, xs, us, s_max, ds):
    """Direct quadrature of W(x,u) = int g(x+s/2) conj(g(x-s/2)) e^{-2pi i u s} ds.

    `gfun` is a callable evaluated at arbitrary positions (an analytic
    field), so no interpolation enters.  Rectangle rule on a symmetric
    lag grid; no FFT anywhere.
    """
    s = np.arange(-s_max, s_max + 0.5 * ds, ds)
    out = np.empty((len(xs), len(us)))
    for i, x in enumerate(xs):
        corr = gfun(x + s / 2) * np.conj(gfun(x - s / 2))
        for j, u in enumerate(us):
            val = np.sum(corr * np.exp(-2j * np.pi * u * s)) * ds
            out[i, j] = val.real
    return out


def wigner_from_samples_direct(g, dx, us, oversample=1):
    """Discrete Wigner of a sampled field via explicit per-frequency sums.

    Same mathematical definition the package uses (band-limited x2
    interpolation for the half-sample shifts, lag step dx/oversample,
    output at the original sample positions) but the lag-to-frequency
    transform is a naive O(N^2) loop instead of a chirp transform.
    """
    g = np.asarray(g, dtype=complex)
    n = len(g)
    factor = 2 * oversample
    gf = resample(g, factor * n)
    dxf = dx / factor
    m_half = (factor * n) // 2
    lags = np.arange(-m_half, m_half + 1)
    ds = 2.0 * dxf
    out = np.empty((n, len(us)))
    for i in range(n):
        qi = factor * i
        ia = qi + lags
        ib = qi - lags
        ok = (ia >= 0) & (ia < factor * n) & (ib >= 0) & (ib < factor * n)
        corr = np.zeros(len(lags), dtype=complex)
        corr[ok] = gf[ia[ok]] * np.conj(gf[ib[ok]])
        s = lags * ds
        for j, u in enumerate(us):
            out[i, j] = (np.sum(corr * np.exp(-2j * np.pi * u * s)) * ds).real
    return out


def gaussian_wigner(x, u, sigma):
    """Closed-form Wigner of g(x) = exp(-x^2 / (2 sigma^2))."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return 2.0 * sigma * SQRT_PI * np.exp(-(x ** 2) / sigma ** 2) * np.exp(-4.0 * np.pi ** 2 * sigma ** 2 * u ** 2)


def gaussian_beam_intensity(x, z, sigma, wavelength):
    """|g_z(x)|^2 for g_0 = exp(-x^2/(2 sigma^2)) after paraxial distance z."""
    spread = 1.0 + (wavelength * z / (2.0 * np.pi * sigma ** 2)) ** 2
    sz = sigma * np.sqrt(spread)
    return (sigma / sz) * np.exp(-(np.asarray(x, dtype=float) ** 2) / sz ** 2)


def far_field_intensity(g, dx, us):
    """|FT g|^2 by direct summation at the requested frequencies."""
    g = np.asarray(g, dtype=complex)
    n = len(g)
    xs = (np.arange(n) - n / 2) * dx
    out = np.empty(len(us))
    for j, u in enumerate(us):
        amp = np.sum(g * np.exp(-2j * np.pi * u * xs)) * dx
        out[j] = np.abs(amp) ** 2
    return out


def apply_dense_kernel(kernel, radiance, dtheta):
    """Apply a relative-angle kernel as a dense per-position matrix product.

    kernel[i, m] couples angle index j_in to j_out = j_in + m - (n - 1); it is
    expanded to the (x, out, in) form and contracted directly, with no FFT.
    """
    n = radiance.shape[1]
    j = np.arange(n)
    dense = kernel[:, j[:, np.newaxis] - j[np.newaxis, :] + n - 1]
    return np.einsum("xab,xb->xa", dense, radiance) * dtheta


def linear_apply(kernel, radiance, dtheta, dx):
    """Relative-angle kernel applied as an uncropped linear convolution.

    Each row is convolved over its full 3n - 2 samples through transforms
    of length next_fast_len(3n - 2), long enough that nothing wraps.
    Returns the n kept samples, the signed leak (content of the 2n - 2
    dropped samples, in power units) and the leak fraction, as
    apply_transformer reports them.
    """
    n = radiance.shape[1]
    full_len = 3 * n - 2
    m = next_fast_len(full_len)
    spec = rfft(kernel, m, axis=1) * rfft(radiance, m, axis=1)
    full = irfft(spec, m, axis=1)[:, :full_len] * dtheta
    leak_rows = full[:, : n - 1].sum(axis=1) + full[:, 2 * n - 1 :].sum(axis=1)
    denom = float(np.abs(full.sum(axis=1)).sum())
    frac = float(np.abs(leak_rows).sum()) / denom if denom > 0 else 0.0
    return full[:, n - 1 : 2 * n - 1], float(leak_rows.sum()) * dtheta * dx, frac


def angle_convolution(kernel, radiance, dtheta):
    """Every linear term of a kernel apply, (x, 3n - 2), by direct sums (np.convolve)."""
    return np.stack([np.convolve(k, r) for k, r in zip(kernel, radiance)]) * dtheta


def lanczos_taps(bins):
    """The moves ``[(t, weight)]`` that make up a move by ``bins`` samples.

    One per whole t with |t - bins| < 4, of weight sinc(t - bins)
    sinc((t - bins) / 4) (exactly 0 at a nonzero whole argument), the
    weights scaled to sum to 1.
    """
    ts = [t for t in range(int(np.floor(bins)) - 4, int(np.floor(bins)) + 6) if abs(t - bins) < 4]
    weights = []
    for t in ts:
        x = t - bins
        if x == 0:
            weights.append(1.0)
        elif x == round(x):
            weights.append(0.0)
        else:
            weights.append(np.sin(np.pi * x) / (np.pi * x) * (np.sin(np.pi * x / 4) / (np.pi * x / 4)))
    norm = sum(weights)
    return [(t, w / norm) for t, w in zip(ts, weights)]


def lanczos_shift(row, bins):
    """``row`` moved by ``bins`` samples, tap by tap, and the content moved off it.

    Sample i lands on i + t with the weight of every tap ``(t, weight)``
    of ``lanczos_taps``.  Returns the kept n samples and the sum of what
    landed off them.
    """
    n = len(row)
    kept = np.zeros(n)
    dropped = 0.0
    for t, w in lanczos_taps(bins):
        moved = row * w
        lo, hi = max(0, t), min(n, n + t)
        if lo < hi:
            kept[lo:hi] += moved[lo - t : hi - t]
            dropped += moved[: lo - t].sum() + moved[hi - t :].sum()
        else:
            dropped += moved.sum()
    return kept, dropped


def fourier_shear(radiance, bins):
    """Angle column j of ``radiance`` moved by ``bins[j]`` position samples by the exact Fourier shift.

    All columns at once, zero-padded by a guard beyond the largest move so
    that what leaves the window is dropped, not wrapped.  Returns the
    result and the truncation loss as ``shear_propagate`` reports it.
    """
    rows = np.ascontiguousarray(radiance.T)
    n = rows.shape[1]
    guard = int(np.ceil(np.abs(bins).max())) + 4
    padded_len = next_fast_len(n + 2 * guard)
    padded = np.zeros((rows.shape[0], padded_len))
    padded[:, guard : guard + n] = rows
    phase = np.exp(-2j * np.pi * np.fft.rfftfreq(padded_len)[np.newaxis, :] * bins[:, np.newaxis])
    shifted = irfft(rfft(padded, axis=1) * phase, padded_len, axis=1)[:, guard : guard + n]
    in_sums = rows.sum(axis=1)
    loss = float(np.abs(in_sums - shifted.sum(axis=1)).sum()) / float(np.abs(in_sums).sum())
    return shifted.T, loss


def hologram_kernel(grid, source_distance, width):
    """Closed-form kernel table of a hologram plate of finite width, evaluated over the whole table at once.

    Each recorded chirp gives a sinc ridge of the remaining span around
    deflection +-x/d, and the chirp cross term a pair of Fresnel integrals
    between the plate edges.
    """
    n = grid.theta_samples
    dax = (np.arange(2 * n - 1) - (n - 1)) * grid.dtheta
    x = grid.x_axis()
    lam = grid.wavelength
    d = source_distance
    kernel = np.zeros((grid.x_samples, 2 * n - 1))
    ell = np.maximum(width / 2 - np.abs(x), 0.0)[:, np.newaxis]
    on_plate = ell > 0
    for sign in (+1.0, -1.0):
        off = dax[np.newaxis, :] - sign * x[:, np.newaxis] / d
        kernel += np.where(on_plate, (4.0 * ell / lam) * np.sinc(4.0 * ell * off / lam), 0.0)
    root = np.sqrt(lam * d)
    s_star = d * dax[np.newaxis, :]
    s2, c2 = fresnel(2.0 * (ell - s_star) / root)
    s1, c1 = fresnel(-2.0 * (ell + s_star) / root)
    segment = (c2 - c1) + 1j * (s2 - s1)
    carrier = np.exp(
        1j * (2.0 * np.pi / lam)
        * (2.0 * d + x[:, np.newaxis] ** 2 / d - d * dax[np.newaxis, :] ** 2)
    )
    film = (2.0 * root / lam) * (carrier * segment).real
    kernel += np.where(on_plate, film, 0.0)
    return kernel


def cubic_phase_kernel(grid, coefficient):
    """Closed-form kernel table of the unbounded cubic plate exp(i c x^3).

    Its lag products are exp(i ((3 c x^2 - 2 pi u) s + c s^3 / 4)), and the
    integral over every lag s is an Airy function:
    W(x, u) = 2 pi |a| Ai(a (3 c x^2 - 2 pi u)) with a = (4 / (3 c))^(1/3).
    The kernel is W at u = deflection / lambda, divided by lambda.
    """
    n = grid.theta_samples
    u = (np.arange(2 * n - 1) - (n - 1)) * grid.dtheta / grid.wavelength
    x = grid.x_axis()[:, np.newaxis]
    a = np.cbrt(4.0 / (3.0 * coefficient))
    ai = airy(a * (3.0 * coefficient * x ** 2 - 2.0 * np.pi * u[np.newaxis, :]))[0]
    return 2.0 * np.pi * abs(a) * ai / grid.wavelength


def phase_grating_orders(grid, depth, period, floor=1e-14):
    """Phase grating kernel order by order, and the weight of the orders off the window.

    Order s deflects by lam s / (2 period) with profile
    sum_n J_{s-n}(depth) J_n(depth) cos(2 pi (s - 2n) x / period), summed
    term by term over the pairs whose Bessel product exceeds ``floor``, and
    spread over the columns of its ``lanczos_taps`` that fall on the table.
    An order that deflects by more than n - 1 angle steps adds
    sum |profile| dx to the clipped weight instead.
    """
    n = grid.theta_samples
    x = grid.x_axis()
    m_max = int(np.ceil(depth)) + 25
    kernel = np.zeros((grid.x_samples, 2 * n - 1))
    clipped = 0.0
    for s in range(-2 * m_max, 2 * m_max + 1):
        profile = np.zeros_like(x)
        for m in range(max(-m_max, s - m_max), min(m_max, s + m_max) + 1):
            c = jv(s - m, depth) * jv(m, depth)
            if abs(c) > floor:
                profile += c * np.cos(2.0 * np.pi * (s - 2 * m) * x / period)
        if not profile.any():
            continue
        bins = 0.5 * grid.wavelength * s / period / grid.dtheta
        if abs(bins) > n - 1:
            clipped += float(np.abs(profile).sum()) * grid.dx
            continue
        for t, w in lanczos_taps(bins):
            if 0 <= t + n - 1 <= 2 * n - 2:
                kernel[:, t + n - 1] += profile * w / grid.dtheta
    return kernel, clipped


def young_fringe_period(wavelength, z, separation):
    """Fringe spacing of two mutually coherent points after distance z."""
    return wavelength * z / abs(separation)


def slit_psf_first_zero(wavelength, image_distance, aperture):
    """Distance from the image point to the first diffraction null."""
    return wavelength * image_distance / aperture


def rect_wigner(x, u, aperture):
    """Closed-form Wigner of rect(x / A): 2(A - 2|x|) sinc(2 u (A - 2|x|)) inside |x| < A/2."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    width = aperture - 2.0 * np.abs(x)
    inside = width > 0
    out = np.zeros(np.broadcast_shapes(x.shape, u.shape))
    w = np.where(inside, width, 0.0)
    out = 2.0 * w * np.sinc(2.0 * u * w)
    return np.where(inside, out, 0.0)


def estimate_period_from_peaks(values, dx, min_height_frac=0.5, min_separation=1):
    """Average spacing of local maxima above a height fraction; NaN if < 2 peaks.

    min_separation (samples) rejects ripple maxima riding on a fringe top:
    of two candidates closer than that, only the taller one survives.
    """
    v = np.asarray(values, dtype=float)
    thresh = v.min() + min_height_frac * (v.max() - v.min())
    idx = [
        i
        for i in range(1, len(v) - 1)
        if v[i] >= v[i - 1] and v[i] > v[i + 1] and v[i] > thresh
    ]
    kept = []
    for i in idx:
        if kept and i - kept[-1] < min_separation:
            if v[i] > v[kept[-1]]:
                kept[-1] = i
        else:
            kept.append(i)
    if len(kept) < 2:
        return float("nan")
    # parabolic sub-bin refinement around each peak
    refined = []
    for i in kept:
        denom = v[i - 1] - 2 * v[i] + v[i + 1]
        shift = 0.0 if denom == 0 else 0.5 * (v[i - 1] - v[i + 1]) / denom
        refined.append(i + shift)
    return float(np.mean(np.diff(refined)) * dx)


def first_zero_distance(values, center_index, dx, direction=1, floor_frac=0.02):
    """Distance from a peak to the first deep null on one side.

    Works on intensity profiles whose nulls may be filled in by a bin or
    two of blur, and whose main lobe may carry percent-level ripple: only
    local minima below floor_frac of the peak value count as the null.
    Parabolic refinement around the winning sample.
    """
    v = np.asarray(values, dtype=float)
    floor = floor_frac * v[center_index]
    i = center_index
    while 0 < i + direction < len(v) - 1:
        i += direction
        if v[i] < floor and v[i] <= v[i - 1] and v[i] <= v[i + 1]:
            denom = v[i - 1] - 2 * v[i] + v[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (v[i - 1] - v[i + 1]) / denom
            return abs(i + shift - center_index) * dx
    return float("nan")


def cells_17g(values, width, first):
    """Text of cells ``first, first + 1, ...`` of a table ``width`` wide, value by value.

    Each value is printed with Python's ``"%.17g"`` and followed by a newline
    when it ends a table row, by a comma otherwise.
    """
    return "".join(
        "%.17g%s" % (v, "\n" if (first + i) % width == width - 1 else ",")
        for i, v in enumerate(np.asarray(values, dtype=np.float64).tolist())
    ).encode("utf-8")


def matrix_csv_text(row_axis, col_axis, matrix, row_label="x_m", col_label="theta_rad"):
    """Matrix CSV bytes as a per-value writer prints them: one "%.17g" per cell."""
    header = f"{row_label}\\{col_label}," + ",".join("%.17g" % c for c in np.asarray(col_axis).tolist())
    row_format = "%.17g," + ",".join(["%.17g"] * np.shape(matrix)[1]) + "\n"
    rows = zip(np.asarray(row_axis).tolist(), np.asarray(matrix).tolist())
    return (header + "\n" + "".join(row_format % (r, *row) for r, row in rows)).encode("utf-8")


def profile_csv_text(axis, values, axis_label="x_m", value_label="intensity"):
    """Two-column CSV bytes as a per-value writer prints them."""
    lines = [f"{axis_label},{value_label}"]
    lines.extend("%.17g,%.17g" % pair for pair in zip(np.asarray(axis).tolist(), np.asarray(values).tolist()))
    return ("\n".join(lines) + "\n").encode("utf-8")
