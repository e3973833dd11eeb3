import cmath

import numpy as np
import pytest

from circlemaps.disk import (
    CirclePoint,
    DiskPoint,
    MoebiusDisk,
    harnack_gap_bound,
    moebius_apply,
    poisson_kernel,
    poisson_kernel_herglotz,
    pseudo_hyperbolic,
)
from conftest import random_disk_points


def test_disk_point_rejects_boundary():
    DiskPoint(0.999999)
    with pytest.raises(ValueError):
        DiskPoint(1.0)
    with pytest.raises(ValueError):
        DiskPoint(1.0 - 1e-13)


def test_circle_point_canonical():
    p = CirclePoint(-np.pi / 2)
    assert 0 <= p.theta < 2 * np.pi
    assert abs(abs(p.value) - 1) < 1e-15
    q = CirclePoint.from_value(3 + 4j)
    assert abs(abs(q.value) - 1) < 1e-15


def test_poisson_kernel_values():
    assert poisson_kernel(0.0, 1.0) == 1.0
    assert poisson_kernel(0.0, cmath.exp(2.1j)) == 1.0
    assert abs(poisson_kernel(0.5, 1.0) - 3.0) < 1e-15


def test_poisson_kernel_mean_value():
    theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    zeta = np.exp(1j * theta)
    vals = [poisson_kernel(0.3 - 0.4j, z) for z in zeta]
    assert abs(np.mean(vals) - 1.0) < 1e-12


def test_poisson_kernel_two_formulas_agree(rng):
    for z in random_disk_points(rng, 50, 0.95):
        zeta = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        a = poisson_kernel(z, zeta)
        b = poisson_kernel_herglotz(z, zeta)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_pseudo_hyperbolic_basics(rng):
    assert pseudo_hyperbolic(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)
    for z in random_disk_points(rng, 20):
        assert pseudo_hyperbolic(z, 0.0) == pytest.approx(abs(z), abs=1e-15)
        assert pseudo_hyperbolic(z, z) == 0.0
    z, w = random_disk_points(rng, 2)
    assert pseudo_hyperbolic(z, w) == pytest.approx(pseudo_hyperbolic(w, z), abs=1e-15)


def test_euclidean_vs_pseudo_hyperbolic(rng):
    for _ in range(200):
        z, w = random_disk_points(rng, 2, 0.95)
        assert abs(z - w) <= 2 * pseudo_hyperbolic(z, w) + 1e-15


def test_harnack_gap_values():
    assert harnack_gap_bound(0.3, 0.3) == 0.0
    assert harnack_gap_bound(0.5, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_harnack_gap_attained_on_radius():
    # for the kernel at zeta = 1, comparing t with 0 meets the bound exactly
    for t in (0.1, 0.37, 0.8):
        gap = abs(poisson_kernel(t, 1.0) - 1.0)
        assert gap == pytest.approx(2 * t / (1 - t), rel=1e-13)
        assert gap <= harnack_gap_bound(t, 0.0) * (1 + 1e-13)


def test_harnack_gap_dominates_kernel_differences(rng):
    for _ in range(300):
        z, w = random_disk_points(rng, 2, 0.9)
        zeta = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        diff = abs(poisson_kernel(z, zeta) - poisson_kernel(w, zeta))
        assert diff <= harnack_gap_bound(z, w) + 1e-12


def test_moebius_identity_and_zero():
    ident = MoebiusDisk.make(0.0, 1.0)
    assert moebius_apply(ident, 0.3 + 0.4j) == 0.3 + 0.4j
    m = MoebiusDisk.make(0.2 - 0.5j, cmath.exp(1.3j))
    assert abs(m(0.2 - 0.5j)) == 0.0


def test_moebius_maps_circle_to_circle(rng):
    m = MoebiusDisk.make(0.6j, cmath.exp(-0.4j))
    for t in rng.uniform(0, 2 * np.pi, 30):
        assert abs(abs(m(cmath.exp(1j * t))) - 1.0) < 1e-14


def test_moebius_invariance_of_pseudo_hyperbolic(rng):
    for _ in range(100):
        a, z, w = random_disk_points(rng, 3, 0.8)
        m = MoebiusDisk.make(a, cmath.exp(1j * rng.uniform(0, 2 * np.pi)))
        d0 = pseudo_hyperbolic(z, w)
        d1 = pseudo_hyperbolic(m(z), m(w))
        assert abs(d0 - d1) < 1e-10


def test_moebius_inverse_and_compose(rng):
    a, b = random_disk_points(rng, 2, 0.7)
    m1 = MoebiusDisk.make(a, cmath.exp(0.9j))
    m2 = MoebiusDisk.make(b, cmath.exp(-1.7j))
    z = 0.1 + 0.2j
    assert abs(m1.inverse()(m1(z)) - z) < 1e-14
    assert abs(m2.compose(m1)(z) - m2(m1(z))) < 1e-14


def test_disk_point_rejects_nan():
    from circlemaps.disk import disk_array

    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(ValueError):
            DiskPoint(bad)
        with pytest.raises(ValueError):
            disk_array([0.1, bad])
    assert disk_array([]).shape == (0,)
    assert disk_array(0.5j).tolist() == [0.5j]
