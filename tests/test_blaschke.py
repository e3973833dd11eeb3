import cmath

import numpy as np
import pytest

from circlemaps.blaschke import (
    BlaschkeProduct,
    BlaschkeQuotient,
    arg_derivative,
    continuous_arg,
    continuous_arg_auto,
    evaluate,
    identity_quotient,
    log_derivative_on_circle,
    power_sums,
    quotient_arg_derivative,
    quotient_arg_grid,
    quotient_derivative_grid,
    quotient_values_grid,
    winding,
)
from circlemaps.disk import MoebiusDisk, poisson_kernel, pseudo_hyperbolic
from conftest import random_disk_points


def random_product(rng, degree, rmax=0.75):
    return BlaschkeProduct.make(
        random_disk_points(rng, degree, rmax), cmath.exp(1j * rng.uniform(0, 2 * np.pi))
    )


def test_evaluate_trivia():
    const = BlaschkeProduct.make([], 1.0)
    assert evaluate(const, 0.3 + 0.1j) == 1.0
    B = BlaschkeProduct.make([0.4 - 0.2j], cmath.exp(0.5j))
    assert evaluate(B, 0.4 - 0.2j) == 0.0
    a = 0.3 + 0.3j
    B1 = BlaschkeProduct.make([a], cmath.exp(1.1j))
    assert abs(evaluate(B1, 0.0) - (-cmath.exp(1.1j) * a)) < 1e-15


def test_unimodular_on_circle(rng):
    for _ in range(20):
        B = random_product(rng, int(rng.integers(0, 6)))
        zeta = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(abs(evaluate(B, zeta)) - 1.0) < 1e-12


def test_arg_derivative_trivia():
    one_zero = BlaschkeProduct.make([0.0], 1.0)
    assert arg_derivative(one_zero, 1.0) == 1.0
    five = BlaschkeProduct.make([0.0] * 5, 1.0)
    assert arg_derivative(five, cmath.exp(0.3j)) == 5.0


def test_arg_derivative_is_poisson_sum(rng):
    B = random_product(rng, 3)
    zeta = cmath.exp(0.77j)
    expected = sum(poisson_kernel(z, zeta) for z in B.zeros)
    assert arg_derivative(B, zeta) == pytest.approx(expected, rel=1e-14)


def test_arg_derivative_matches_analytic_log_derivative(rng):
    for _ in range(50):
        B = random_product(rng, int(rng.integers(1, 6)))
        zeta = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        analytic = log_derivative_on_circle(B, zeta)
        assert abs(analytic.imag) < 1e-9 * abs(analytic)
        assert arg_derivative(B, zeta) == pytest.approx(analytic.real, rel=1e-10)


def _finite_difference_arg_derivative(B, theta, h=1e-5):
    args = []
    prev = None
    for t in (theta - h, theta, theta + h):
        a = cmath.phase(evaluate(B, cmath.exp(1j * t)))
        if prev is not None:
            while a - prev > np.pi:
                a -= 2 * np.pi
            while a - prev < -np.pi:
                a += 2 * np.pi
        args.append(a)
        prev = a
    return (args[2] - args[0]) / (2 * h)


def test_arg_derivative_against_finite_differences(rng):
    for _ in range(25):
        B = random_product(rng, 2)
        theta = rng.uniform(0, 2 * np.pi)
        fd = _finite_difference_arg_derivative(B, theta)
        assert abs(arg_derivative(B, cmath.exp(1j * theta)) - fd) < 1e-6


def test_quotient_arg_derivative_cases(rng):
    assert quotient_arg_derivative(identity_quotient(), 1.0) == 1.0
    zs = list(random_disk_points(rng, 2, 0.6))
    same = BlaschkeQuotient.make(zs, [], 1.0)
    # numerator == denominator realized by equal zero sets in separate objects
    num = BlaschkeQuotient.make(zs, [], 1.0)
    zeta = cmath.exp(0.4j)
    assert quotient_arg_derivative(num, zeta) == pytest.approx(
        quotient_arg_derivative(same, zeta), rel=1e-14
    )


def test_quadratic_family_minimum():
    # the degree-2-over-1 map with |pole| = 0.3 has derivative min 1/7
    from circlemaps.certify import quadratic_quotient

    Q = quadratic_quotient(0.3)
    theta = np.linspace(0, 2 * np.pi, 100000, endpoint=False)
    vals = quotient_derivative_grid(Q, 2**17)
    assert vals.min() == pytest.approx(1.0 / 7.0, abs=1e-6)
    assert quotient_arg_derivative(Q, 1.0) == pytest.approx(2 - poisson_kernel(0.3, 1.0), rel=1e-14)


def test_common_zero_rejected():
    with pytest.raises(ValueError):
        BlaschkeQuotient.make([0.3 + 0.1j, 0.2], [0.3 + 0.1j], 1.0)


def test_winding_degrees(rng):
    for deg in (1, 2, 4):
        B = BlaschkeQuotient.make(list(random_disk_points(rng, deg, 0.6)), [], 1.0)
        assert winding(B) == pytest.approx(2 * np.pi * deg, abs=1e-9)
    from circlemaps.certify import quadratic_quotient

    assert winding(quadratic_quotient(0.25)) == pytest.approx(2 * np.pi, abs=1e-9)


def test_continuous_arg_identity_and_constant():
    theta, vals = continuous_arg(identity_quotient(), 256)
    assert np.allclose(vals - vals[0], theta, atol=1e-12)
    const = BlaschkeQuotient.make([], [], cmath.exp(0.9j))
    _, cvals = continuous_arg(const, 64)
    assert np.allclose(cvals, 0.9, atol=1e-12)


def test_continuous_arg_endpoint_is_winding(rng):
    zs = list(random_disk_points(rng, 3, 0.6))
    ws = list(random_disk_points(rng, 2, 0.5))
    Q = BlaschkeQuotient.make(zs, ws, cmath.exp(0.2j))
    theta, vals = continuous_arg_auto(Q, 1024)
    assert vals[-1] - vals[0] == pytest.approx(winding(Q), abs=1e-8)


def test_continuous_arg_rejects_coarse_grid():
    from circlemaps.blaschke import GridTooCoarseError

    # a boundary-hugging zero at a grid midpoint hides a full turn inside one
    # interval; the unwrap must notice and demand refinement
    Q = BlaschkeQuotient.make([0.9999 * cmath.exp(1j * np.pi / 64)], [], 1.0)
    with pytest.raises(GridTooCoarseError):
        continuous_arg(Q, 64)
    theta, vals = continuous_arg_auto(Q, 64)
    assert vals[-1] - vals[0] == pytest.approx(2 * np.pi, abs=1e-8)


def test_moebius_conjugation_preserves_zero_distances(rng):
    zs = random_disk_points(rng, 4, 0.7)
    m = MoebiusDisk.make(0.3 - 0.2j, cmath.exp(0.8j))
    mapped = [m(z) for z in zs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert pseudo_hyperbolic(zs[i], zs[j]) == pytest.approx(
                pseudo_hyperbolic(mapped[i], mapped[j]), abs=1e-10
            )


def test_power_sums_definition(rng):
    pts = random_disk_points(rng, 7, 0.8)
    T = power_sums(pts, 40)
    assert T[0] == 7
    for m in (1, 5, 40):
        assert T[m] == pytest.approx(np.sum(pts**m), rel=1e-12, abs=1e-14)


def test_grid_paths_match_direct_evaluation(rng):
    zs = list(random_disk_points(rng, 3, 0.7))
    ws = list(random_disk_points(rng, 2, 0.6))
    Q = BlaschkeQuotient.make(zs, ws, cmath.exp(-0.6j))
    g = 512
    vals = quotient_values_grid(Q, g)
    args = quotient_arg_grid(Q, g)
    D = quotient_derivative_grid(Q, g)
    for j in (0, 17, 100, 399):
        zeta = cmath.exp(2j * np.pi * j / g)
        assert abs(vals[j] - Q(zeta)) < 1e-11
        assert abs(np.exp(1j * args[j]) - Q(zeta)) < 1e-10
        assert D[j] == pytest.approx(quotient_arg_derivative(Q, zeta), abs=1e-10)


def test_zeros_are_validated_read_only_array():
    B = BlaschkeProduct.make([0.5, -0.3j], 1.0)
    assert isinstance(B.zeros, np.ndarray) and B.zeros.dtype == complex
    assert not B.zeros.flags.writeable
    with pytest.raises(ValueError):
        B.zeros[0] = 0.1
    for bad in ([0.2, 1.0], [0.2, 1.0 - 1e-13], [complex(np.nan, 0.0)], [np.inf]):
        with pytest.raises(ValueError):
            BlaschkeProduct.make(bad, 1.0)
    with pytest.raises(ValueError):
        BlaschkeQuotient.make([0.1], [np.nan])


def test_arg_grid_closed_form_keeps_turns_on_coarse_grid():
    # the series is unaffordable this close to the circle; the direct argument
    # must stay a continuous branch although the zero's turn falls between samples
    Q = BlaschkeQuotient.make([0.999999 * cmath.exp(1j * np.pi / 64)], [])
    g = 64
    args = quotient_arg_grid(Q, g)
    for j in range(g):
        assert abs(np.exp(1j * args[j]) - Q(cmath.exp(2j * np.pi * j / g))) < 1e-12
    steps = np.diff(args)
    assert np.all(steps > 0)
    assert steps.sum() > np.pi


def _ring_quotient(n=256):
    """The certification ring: n zeros near the circle over a pole of order n-1 at 0."""
    from circlemaps.certify import terminating_family_quotient

    r = 1.0 - (np.log(40.0 * n) + 3.0) / n
    phi = 2 * np.pi * np.arange(n) / n
    return terminating_family_quotient("below", r * np.exp(1j * (phi - 0.15 * np.sin(2 * phi) / n)))


@pytest.mark.parametrize("g", [4096, 2**18])
def test_ring_grids_match_pointwise_evaluation(g):
    # g = 4096 sums the derivative and values directly, 2^18 takes the series
    Q = _ring_quotient()
    D = quotient_derivative_grid(Q, g)
    args = quotient_arg_grid(Q, g)
    vals = quotient_values_grid(Q, g)
    for j in (0, 1, g // 7, g // 2 + 3, g - 1):
        zeta = cmath.exp(2j * np.pi * j / g)
        q = Q(zeta)
        assert D[j] == pytest.approx(quotient_arg_derivative(Q, zeta), abs=1e-9)
        assert abs(np.exp(1j * args[j]) - q) < 1e-9
        assert abs(vals[j] - q) < 1e-9


def test_grid_sums_skip_zeros_at_origin(monkeypatch):
    from circlemaps import blaschke
    from circlemaps.certify import certify_quotient

    seen = []

    def spy(fn):
        def wrapped(points, *args):
            seen.append(np.asarray(points, dtype=complex))
            return fn(points, *args)
        return wrapped

    monkeypatch.setattr(blaschke, "poisson_sum_grid", spy(blaschke.poisson_sum_grid))
    monkeypatch.setattr(blaschke, "power_sums", spy(blaschke.power_sums))
    Q = _ring_quotient()
    assert certify_quotient(Q).verdict == "Diffeomorphism"
    quotient_values_grid(Q, 2**18)
    assert sum(len(p) for p in seen) > 0
    assert not any(np.any(p == 0) for p in seen)


U = 2.0**-53


def _power_sums_loop(pts, M):
    """Reference: T[m] = sum_k z_k^m from one running product per point."""
    out = np.zeros(M + 1, dtype=complex)
    out[0] = len(pts)
    V = np.ones(len(pts), dtype=complex)
    for m in range(1, M + 1):
        V = V * pts
        out[m] = V.sum()
    return out


def test_power_sums_uniform_ring_oracle():
    # z_k = r e^{2 pi i k/n} has T_m = n r^m when n divides m and 0 otherwise
    n, r, M = 1024, 0.9875, 3025
    T = power_sums(r * np.exp(2j * np.pi * np.arange(n) / n), M)
    m = np.arange(M + 1)
    exact = np.where(m % n == 0, n * r**m, 0.0)
    assert np.max(np.abs(T - exact)) <= n * M * U


def test_power_sums_match_mpmath_and_loop(rng):
    mpmath = pytest.importorskip("mpmath")
    n, ms = 64, (1, 7, 128, 129, 1000)
    pts = random_disk_points(rng, n, 0.99)
    T = power_sums(pts, max(ms))
    loop = _power_sums_loop(pts, max(ms))
    r = np.abs(pts)
    with mpmath.workdps(50):
        zs = [mpmath.mpc(complex(z)) for z in pts]
        for m in ms:
            exact = complex(mpmath.fsum(z**m for z in zs))
            # the rounding bound of the product form: u (3m + 4 sqrt(n) + 4) sum r^m
            bound = U * (3 * m + 4 * np.sqrt(n) + 4) * np.sum(r**m)
            assert abs(T[m] - exact) <= bound, m
            assert abs(T[m] - loop[m]) <= bound + U * (3 * m + n) * np.sum(r**m), m


def _smooth_ring(n=1024, r=0.9875):
    phi = 2 * np.pi * np.arange(n) / n
    return r * np.exp(1j * (phi + 0.15 * np.sin(2 * phi) / n))


@pytest.mark.parametrize("path, g", [("series", 8192), ("series", 16384), ("direct", 8192)])
def test_grid_paths_match_pointwise_on_smooth_ring(path, g):
    # the smooth_cli-sized ring under a monomial takes the series; one more
    # zero at radius 1 - 1e-6 makes the series unaffordable for the whole set
    from circlemaps import blaschke

    ring = _smooth_ring()
    if path == "series":
        Q = BlaschkeQuotient.make([0.0] * (len(ring) + 1), ring)
    else:
        Q = BlaschkeQuotient.make([*ring, (1 - 1e-6) * cmath.exp(0.3j)], [0.0] * len(ring))
    for job in ("derivative", "arg"):
        M = blaschke._plan(Q.numerator.zeros, Q.denominator.zeros, job)[3]
        assert (M > 0) == (path == "series")
    D = quotient_derivative_grid(Q, g)
    vals = quotient_values_grid(Q, g)
    for j in (0, 1, g // 7, g // 2 + 3, g - 1):
        zeta = cmath.exp(2j * np.pi * j / g)
        assert abs(D[j] - quotient_arg_derivative(Q, zeta)) < 1e-10
        assert abs(vals[j] - Q(zeta)) < 1e-10


def test_series_error_bound_covers_high_precision_derivative():
    mpmath = pytest.importorskip("mpmath")
    from circlemaps.blaschke import derivative_grid_error

    ring = _smooth_ring()
    Q = BlaschkeQuotient.make([0.0] * (len(ring) + 1), ring)
    g = 8192
    D = quotient_derivative_grid(Q, g)
    E = derivative_grid_error(Q, g)
    assert 0.0 < E < 1e-7
    with mpmath.workdps(30):
        ws = [mpmath.mpc(complex(w)) for w in ring]
        for j in (0, g // 5, g // 2 + 3):
            zeta = mpmath.expjpi(mpmath.mpf(2 * j) / g)
            exact = (len(ring) + 1) - mpmath.fsum((1 - abs(w) ** 2) / abs(zeta - w) ** 2 for w in ws)
            assert abs(D[j] - float(exact)) <= E


def test_smooth_cli_approximation_takes_no_direct_grid(monkeypatch):
    # the Moebius map of the CLI smoke spec, approximated from above: every
    # grid it evaluates has an affordable series
    from circlemaps import blaschke
    from circlemaps.approx import approximate_homeomorphism, as_circle_lift

    calls = {"poisson_sum_grid": 0, "power_sums": 0}

    def count(name):
        fn = getattr(blaschke, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(blaschke, name, count(name))
    res = approximate_homeomorphism(as_circle_lift(BlaschkeQuotient.make([-0.3], [], 1.0)), 0.05, "above")
    assert res.certification.verdict == "Diffeomorphism"
    assert calls["poisson_sum_grid"] == 0
    assert calls["power_sums"] > 0
