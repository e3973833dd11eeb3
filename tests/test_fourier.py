import cmath
import warnings

import numpy as np
import pytest

from circlemaps.disk import poisson_kernel
from circlemaps.fourier import (
    SampledCircleMap,
    TrigSeries,
    enclosed_area,
    fourier_coefficients,
    grid_theta,
    harmonic_extension,
    onb_check,
    onb_check_map,
    parseval_defect,
    spectrum_csv_rows,
    support,
)
from circlemaps.gallery import mobius_map, rational_family
from conftest import random_disk_points


def identity_map(m=4096):
    return SampledCircleMap(np.exp(1j * grid_theta(m)), "unimodular")


def mobius_coefficient(a, n):
    """Closed-form coefficients of (zeta+a)/(1+conj(a) zeta): geometric series."""
    if n < 0:
        return 0j
    if n == 0:
        return complex(a)
    return (-np.conjugate(a)) ** (n - 1) * (1 - abs(a) ** 2)


def test_grid_size_validation():
    with pytest.raises(ValueError):
        SampledCircleMap(np.ones(100))  # not a power of two
    with pytest.raises(ValueError):
        SampledCircleMap(np.ones(32))  # too small
    with pytest.raises(ValueError):
        SampledCircleMap(2.0 * np.exp(1j * grid_theta(64)), "unimodular")


def test_identity_spectrum():
    spec = fourier_coefficients(identity_map())
    assert abs(spec[1] - 1.0) < 1e-14
    mask = spec.ns != 1
    assert np.max(np.abs(spec.coefficients[mask])) < 1e-12
    assert support(spec) == {1}


def test_constant_and_rotation_support():
    m = 4096
    const = SampledCircleMap(np.full(m, cmath.exp(0.4j)), "unimodular")
    assert support(fourier_coefficients(const)) == {0}
    rot = SampledCircleMap(cmath.exp(1.1j) * np.exp(1j * grid_theta(m)), "unimodular")
    assert support(fourier_coefficients(rot)) == {1}


def test_mobius_coefficients_against_series_oracle():
    a = 0.5
    spec = fourier_coefficients(mobius_map(a, 4096))
    assert spec[0] == pytest.approx(0.5, abs=1e-12)
    assert spec[1] == pytest.approx(0.75, abs=1e-12)
    assert spec[2] == pytest.approx(-0.375, abs=1e-12)
    for n in (-3, -1, 0, 1, 2, 5, 9):
        assert spec[n] == pytest.approx(mobius_coefficient(a, n), abs=1e-12)
    b = 0.3 - 0.45j
    specb = fourier_coefficients(mobius_map(b, 4096))
    for n in (-2, 0, 1, 4):
        assert specb[n] == pytest.approx(mobius_coefficient(b, n), abs=1e-12)


def test_dft_exact_for_trig_polynomials(rng):
    m = 256
    theta = grid_theta(m)
    coeffs = {n: rng.normal() + 1j * rng.normal() for n in range(-40, 41)}
    vals = sum(c * np.exp(1j * n * theta) for n, c in coeffs.items())
    spec = fourier_coefficients(SampledCircleMap(vals))
    for n, c in coeffs.items():
        assert spec[n] == pytest.approx(c, abs=1e-12)


def test_parseval_defect():
    assert parseval_defect(identity_map()) < 1e-12
    mp = mobius_map(0.5, 4096)
    assert abs(fourier_coefficients(mp).energy() - 1.0) < 1e-6
    assert parseval_defect(mp) < 1e-6
    # geometric series oracle: 0.25 + 0.5625 * sum 0.25^k = 1
    total = 0.25 + 0.5625 * sum(0.25**k for k in range(60))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_unimodular_energy_bound(homeo_gallery):
    for name, Q, _ in homeo_gallery:
        spec = fourier_coefficients(rational_family(Q, 4096))
        assert spec.energy() <= 1.0 + 1e-6, name


def test_enclosed_area_identity_and_rotation():
    assert enclosed_area(fourier_coefficients(identity_map())) == pytest.approx(
        np.pi, abs=1e-9
    )
    rot = SampledCircleMap(cmath.exp(0.3j) * np.exp(1j * grid_theta(4096)), "unimodular")
    assert enclosed_area(fourier_coefficients(rot)) == pytest.approx(np.pi, abs=1e-9)


def test_enclosed_area_warns_on_tail_mass(rng):
    m = 64
    theta = grid_theta(m)
    vals = np.exp(1j * theta) + 0.4 * np.exp(1j * 30 * theta)
    with pytest.warns(RuntimeWarning):
        enclosed_area(fourier_coefficients(SampledCircleMap(vals)))


def test_onb_identity_and_mobius():
    assert onb_check_map(identity_map(), range(-3, 4)) < 1e-12
    assert onb_check_map(mobius_map(0.5, 4096), range(-3, 4)) < 1e-6


def test_onb_direct_inner_product_oracle():
    spec = fourier_coefficients(mobius_map(0.4 + 0.2j, 4096))
    c = spec.coefficients
    # lag-2 inner product computed longhand
    direct = sum(c[i] * np.conjugate(c[i + 2]) for i in range(len(c) - 2))
    assert abs(direct) < 1e-6


def test_onb_refuses_non_unimodular():
    mp = SampledCircleMap(2.0 * np.exp(1j * grid_theta(64)))
    with pytest.raises(ValueError):
        onb_check_map(mp, range(-2, 3))


def test_harmonic_extension_values(rng):
    mp = identity_map()
    z = 0.3 - 0.2j
    assert harmonic_extension(mp, z) == pytest.approx(z, abs=1e-12)
    mobius = mobius_map(0.3, 4096)
    assert harmonic_extension(mobius, 0.0) == pytest.approx(
        fourier_coefficients(mobius)[0], abs=1e-12
    )


def test_harmonic_extension_against_poisson_quadrature(rng):
    # independent oracle: Poisson-integral quadrature on a fine grid
    m = 4096
    theta = grid_theta(m)
    vals = np.exp(1j * (theta + 0.3 * np.sin(theta)))
    mp = SampledCircleMap(vals, "unimodular")
    z = 0.3 + 0.2j
    kernel = np.array([poisson_kernel(z, zt) for zt in np.exp(1j * theta)])
    oracle = np.mean(kernel * vals)
    assert harmonic_extension(mp, z) == pytest.approx(oracle, abs=1e-8)


def test_harmonic_extension_warns_near_circle():
    with pytest.warns(RuntimeWarning):
        harmonic_extension(identity_map(), 0.9995)


def test_csv_rows_format():
    rows = list(spectrum_csv_rows(fourier_coefficients(identity_map(64))))
    assert rows[0] == "n,re,im,abs"
    assert len(rows) == 64  # header + 63 window entries
    row_one = [r for r in rows[1:] if r.split(",")[0] == "1"][0]
    assert float(row_one.split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_trig_series_roundtrip(rng):
    theta = grid_theta(256)
    vals = 0.7 * np.cos(theta) - 0.2 * np.sin(3 * theta) + 0.05
    s = TrigSeries.from_samples(vals)
    fine = s.resample(1024)
    expected = 0.7 * np.cos(grid_theta(1024)) - 0.2 * np.sin(3 * grid_theta(1024)) + 0.05
    assert np.max(np.abs(fine - expected)) < 1e-12
    d = s.derivative().eval(np.array([0.3, 1.9]))
    expected_d = -0.7 * np.sin([0.3, 1.9]) - 0.6 * np.cos(3 * np.array([0.3, 1.9]))
    assert np.max(np.abs(d - expected_d)) < 1e-11


def test_trig_series_resample_coarser_grid_matches_eval(rng):
    m = 512
    coef = np.zeros(m, dtype=complex)
    k = np.arange(1, 40)
    c = rng.normal(size=len(k)) + 1j * rng.normal(size=len(k))
    coef[k], coef[-k] = c, np.conj(c)
    coef[0] = 0.3
    s = TrigSeries(coef)
    for g in (64, 128, 256, 512):
        assert np.max(np.abs(s.resample(g) - s.eval(grid_theta(g)))) < 1e-12
    with pytest.raises(ValueError):
        s.resample(384)  # neither divides nor exceeds the native grid


def test_spectrum_index_by_arithmetic(rng):
    m = 256
    mp = SampledCircleMap(rng.normal(size=m) + 1j * rng.normal(size=m))
    spec = fourier_coefficients(mp)
    for n in range(-m // 2 + 1, m // 2):
        assert spec[n] == complex(spec.coefficients[spec.ns == n][0])
    for n in (-m // 2, m // 2, -10 * m, 10 * m):
        assert spec[n] == 0j


def test_sampled_map_rejects_non_finite():
    vals = np.exp(1j * grid_theta(64))
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        v = vals.copy()
        v[5] = bad
        with pytest.raises(ValueError):
            SampledCircleMap(v)


@pytest.mark.parametrize("m", [64, 4096])
def test_coefficient_window_matches_the_modular_gather_bitwise(m):
    rng = np.random.default_rng(m)
    maps = [mobius_map(0.4 - 0.3j, m), identity_map(m),
            SampledCircleMap(rng.standard_normal(m) + 1j * rng.standard_normal(m))]
    for mp in maps:
        spec = fourier_coefficients(mp)
        F = np.fft.fft(mp.values) / m
        ns = np.arange(-(m // 2 - 1), m // 2)
        assert np.array_equal(spec.ns, ns)
        assert spec.coefficients.tobytes() == F[ns % m].tobytes()


def test_onb_check_reads_the_same_lags_for_descending_shifts():
    # f_hat(1) = f_hat(2) = 1/sqrt(2): the shifts by 0 and 1 overlap in one coefficient
    zeta = np.exp(1j * grid_theta(64))
    spec = fourier_coefficients(SampledCircleMap((zeta + zeta**2) / np.sqrt(2)))
    assert onb_check(spec, range(0, 2)) == pytest.approx(0.5, abs=1e-15)
    assert onb_check(spec, range(1, -1, -1)) == onb_check(spec, range(0, 2))
    assert onb_check(spec, range(3, -4, -1)) == onb_check(spec, range(-3, 4))
    assert onb_check(spec, range(0)) == 0.0
