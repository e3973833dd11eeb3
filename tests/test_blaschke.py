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
from circlemaps.blaschke import _plan, poisson_sum_signed_grid
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


def test_common_zero_check_separates_prefilter_from_pseudo_hyperbolic_test(rng):
    # a pole 4e-12 from a zero passes the 5e-12 prefilter, but their
    # pseudo-hyperbolic distance is at least 4e-12 > COMMON_ZERO_TOL
    zeros = random_disk_points(rng, 1000, 0.5)
    z = zeros[617]
    with pytest.raises(ValueError, match="share a zero"):
        BlaschkeQuotient.make(zeros, [z + 1e-13], 1.0)
    BlaschkeQuotient.make(zeros, [z + 4e-12j], 1.0)


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
    # both grids take the series; test_grid_paths_match_pointwise_on_smooth_ring covers the direct path
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


def _count_power_sums(monkeypatch):
    """Calls of blaschke.power_sums per nonempty point set, keyed by its bytes."""
    from collections import Counter

    from circlemaps import blaschke

    seen = Counter()
    fn = blaschke.power_sums

    def spy(points, M):
        pts = np.ascontiguousarray(points, dtype=complex)
        if len(pts):
            seen[pts.tobytes()] += 1
        return fn(points, M)

    monkeypatch.setattr(blaschke, "power_sums", spy)
    return seen


def test_certification_sums_each_zero_set_once(monkeypatch, rng):
    from circlemaps.certify import certify_quotient
    from circlemaps.gallery import rational_family
    from conftest import random_pseudo_instance

    seen = _count_power_sums(monkeypatch)
    z, w = random_pseudo_instance(rng, 3)
    assert certify_quotient(BlaschkeQuotient.make(z, w, 1.0)).verdict == "Diffeomorphism"
    assert len(seen) == 2 and max(seen.values()) == 1
    seen.clear()
    Q = _ring_quotient()
    assert certify_quotient(Q).verdict == "Diffeomorphism"
    rational_family(Q, 4096)
    assert len(seen) == 1 and max(seen.values()) == 1


def test_smooth_cli_approximation_sums_each_zero_set_once(monkeypatch):
    from circlemaps.approx import approximate_homeomorphism, as_circle_lift

    seen = _count_power_sums(monkeypatch)
    res = approximate_homeomorphism(as_circle_lift(BlaschkeQuotient.make([-0.3], [], 1.0)), 0.05, "above")
    assert res.certification.verdict == "Diffeomorphism"
    assert seen and max(seen.values()) == 1


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


def _unwrapped_arg_reference(Q, g):
    """The former continuous_arg: principal phases of the sampled values, unwrapped.

    A step of more than pi between samples wraps into (-pi, pi) unnoticed, so
    this can return a branch that is off by 2 pi on part of the grid; its
    endpoint-vs-winding check catches only an odd number of such steps.
    """
    from circlemaps.blaschke import GridTooCoarseError

    phases = np.angle(quotient_values_grid(Q, g))
    d = np.diff(np.concatenate([phases, phases[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(d) >= np.pi * (1 - 1e-9)):
        raise GridTooCoarseError("adjacent samples differ by pi or more")
    out = np.concatenate([[phases[0]], phases[0] + np.cumsum(d)])
    if abs((out[-1] - out[0]) - 2 * np.pi * Q.degree_difference) > 1e-6:
        raise GridTooCoarseError("endpoint does not match the winding")
    return out


def _near_boundary_points(rng, n):
    r = 1 - 10 ** rng.uniform(-3, -0.3, n)
    return r * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def test_continuous_arg_raises_wherever_the_unwrap_reference_raises():
    from circlemaps.blaschke import GridTooCoarseError

    rng = np.random.default_rng(11)
    outcomes = {"both raise": 0, "both return": 0, "only the new raises": 0}
    for _ in range(1000):
        nz = int(rng.integers(1, 5))
        zs, ws = _near_boundary_points(rng, nz), _near_boundary_points(rng, int(rng.integers(0, nz)))
        Q = BlaschkeQuotient.make(zs, ws, cmath.exp(1j * rng.uniform(0, 2 * np.pi)))
        g = int(2 ** rng.integers(4, 10))
        try:
            ref = _unwrapped_arg_reference(Q, g)
        except GridTooCoarseError:
            ref = None
        try:
            theta, vals = continuous_arg(Q, g)
        except GridTooCoarseError:
            outcomes["both raise" if ref is None else "only the new raises"] += 1
            continue
        assert ref is not None, "the reference raised where continuous_arg returned"
        assert np.array_equal(theta, np.linspace(0.0, 2 * np.pi, g + 1))
        assert np.max(np.abs(vals - ref)) < 1e-12
        outcomes["both return"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_continuous_arg_never_returns_a_branch_off_by_a_turn():
    from circlemaps.blaschke import GridTooCoarseError

    # steps of 1.82 pi and -1.48 pi, eight samples apart: the unwrap of sampled
    # phases passes its endpoint check and is off by exactly 2 pi on 8 points
    Q = BlaschkeQuotient.make(
        [0.8896465540173789 + 0.3646053895193781j, 0.06355956328045607 - 0.9963155950730295j],
        [0.24671984825959506 - 0.9654558821720426j],
        -0.9746065885704278 + 0.22392408873346523j)
    g = 256
    fine = quotient_arg_grid(Q, 64 * g)[::64]
    assert np.max(np.abs(quotient_arg_grid(Q, g) - fine)) < 1e-12
    try:
        _, vals = continuous_arg(Q, g)
    except GridTooCoarseError:
        return
    assert np.max(np.abs(vals[:-1] - fine)) < 1e-12


def test_continuous_arg_reads_quotient_arg_grid(monkeypatch, rng):
    from circlemaps import blaschke

    calls = {"arg": 0, "values": 0}
    arg_grid, values_grid = blaschke.quotient_arg_grid, blaschke.quotient_values_grid

    def arg_spy(Q, g):
        calls["arg"] += 1
        return arg_grid(Q, g)

    def values_spy(Q, g):
        calls["values"] += 1
        return values_grid(Q, g)

    monkeypatch.setattr(blaschke, "quotient_arg_grid", arg_spy)
    monkeypatch.setattr(blaschke, "quotient_values_grid", values_spy)
    Q = BlaschkeQuotient.make(list(random_disk_points(rng, 3, 0.6)), list(random_disk_points(rng, 2, 0.5)))
    for q in (identity_quotient(), Q):
        continuous_arg(q, 1024)
    assert calls == {"arg": 2, "values": 0}


def _padded_series_reference(coeffs, g):
    """The former _series_on_grid: zero-pad to g * 2^k > M + 1 points, one FFT, keep every 2^k-th value."""
    M = len(coeffs)
    ge = g
    while ge < M + 2:
        ge *= 2
    c = np.zeros(ge, dtype=complex)
    c[1 : M + 1] = coeffs
    return np.fft.fft(c)[:: ge // g]


@pytest.mark.parametrize("g", [64, 4096])
def test_folded_series_matches_the_padded_reference(g):
    from circlemaps.blaschke import _series_on_grid

    rng = np.random.default_rng(g)
    for M in (1, g // 2, g - 2, g - 1, g, 3 * g + 5, 40 * g):
        c = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        got, ref = _series_on_grid(c, g), _padded_series_reference(c, g)
        assert len(got) == g
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(c)), M
        if M <= g - 2:
            assert np.array_equal(got, ref), M


def _near_circle_pair():
    """Two nonzero points, one at radius 0.99999: a series far longer than any grid."""
    return BlaschkeQuotient.make([0.0, 0.99999], [0.3])


@pytest.mark.parametrize("case, g", [("smooth ring", 1024), ("near-circle pair", 64), ("near-circle pair", 4096)])
def test_error_bound_covers_high_precision_derivative_where_the_series_folds(case, g):
    mpmath = pytest.importorskip("mpmath")
    from circlemaps import blaschke
    from circlemaps.blaschke import derivative_grid_error

    if case == "smooth ring":
        ring = _smooth_ring()
        Q = BlaschkeQuotient.make([0.0] * (len(ring) + 1), ring)
    else:
        Q = _near_circle_pair()
    assert blaschke._plan(Q.numerator.zeros, Q.denominator.zeros, "derivative")[3] > g
    D = quotient_derivative_grid(Q, g)
    E = derivative_grid_error(Q, g)
    assert 0.0 < E < 1e-4
    with mpmath.workdps(30):
        zs = [mpmath.mpc(complex(z)) for z in Q.numerator.zeros]
        ws = [mpmath.mpc(complex(w)) for w in Q.denominator.zeros]
        for j in (0, 1, g // 5, g // 2 + 3, g - 1):
            zeta = mpmath.expjpi(mpmath.mpf(2 * j) / g)
            exact = (mpmath.fsum((1 - abs(z) ** 2) / abs(zeta - z) ** 2 for z in zs)
                     - mpmath.fsum((1 - abs(w) ** 2) / abs(zeta - w) ** 2 for w in ws))
            assert abs(D[j] - float(exact)) <= E, j


def test_every_grid_is_one_fft_of_the_grid_size(monkeypatch):
    sizes = []
    fft = np.fft.fft

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", spy)
    ring = _smooth_ring()
    for Q in (_near_circle_pair(), BlaschkeQuotient.make([0.0] * (len(ring) + 1), ring)):
        for g in (64, 4096):
            sizes.clear()
            quotient_derivative_grid(Q, g)
            quotient_arg_grid(Q, g)
            quotient_values_grid(Q, g)
            assert sizes == [g, g, g]


def _direct_ring_quotient():
    """The smooth ring's mirror with one more zero at radius 1 - 1e-6: no series is affordable."""
    ring = _smooth_ring()
    return BlaschkeQuotient.make([*ring, (1 - 1e-6) * cmath.exp(0.3j)], [0.0] * len(ring))


def test_values_grid_reads_quotient_arg_grid_on_the_direct_path(monkeypatch):
    from circlemaps import blaschke

    calls = []
    arg_grid = blaschke.quotient_arg_grid

    def spy(Q, g):
        calls.append(g)
        return arg_grid(Q, g)

    monkeypatch.setattr(blaschke, "quotient_arg_grid", spy)
    Q = _direct_ring_quotient()
    assert blaschke._plan(Q.numerator.zeros, Q.denominator.zeros, "arg")[3] == 0
    assert np.array_equal(quotient_values_grid(Q, 1024), np.exp(1j * arg_grid(Q, 1024)))
    assert calls == [1024]
    # a monomial alone: sigma zeta^7 from the argument d * theta
    sigma = cmath.exp(0.4j)
    vals = quotient_values_grid(BlaschkeQuotient.make([0.0] * 7, [], sigma), 1024)
    exact = sigma * np.exp(2j * np.pi * (7 * np.arange(1024) % 1024) / 1024)
    assert np.max(np.abs(vals - exact)) < 1e-13


def test_certify_reads_the_per_point_slope_bound_only_as_the_moment_fallback(monkeypatch):
    from circlemaps import blaschke, certify

    calls = []
    pointwise = blaschke.derivative_lipschitz_pointwise

    def spy(Q):
        calls.append(Q)
        return pointwise(Q)

    # wherever the name is bound, so that a direct call from certify counts too
    for mod in (blaschke, certify):
        monkeypatch.setattr(mod, "derivative_lipschitz_pointwise", spy, raising=False)
    ring = _smooth_ring()
    assert certify.certify_quotient(BlaschkeQuotient.make([0.0] * (len(ring) + 1), ring)).verdict == "Diffeomorphism"
    assert calls == []
    Q = _direct_ring_quotient()
    # the ring's mirror dips below zero between its kernels
    assert certify.certify_quotient(Q).verdict == "NotHomeomorphism"
    assert calls == [Q]


def _same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _power_sums_reference(points, M):
    """The generator-sum form of power_sums: P from a broadcast, every row of W to order M."""
    import math

    from circlemaps.blaschke import _BLOCK

    pts = np.ascontiguousarray(points, dtype=complex)
    out = np.zeros(M + 1, dtype=complex)
    n = len(pts)
    out[0] = n
    if n == 0 or M == 0:
        return out
    b = min(M, 128, max(1, _BLOCK // n))
    P = np.cumprod(np.broadcast_to(pts[:, None], (n, b)), axis=1)
    zb = P[:, -1]
    G = math.isqrt(n - 1) + 1
    rows = -(-M // b)
    step = max(1, _BLOCK // n)
    first = np.ones(n, dtype=complex)
    for q0 in range(0, rows, step):
        W = np.empty((min(step, rows - q0), n), dtype=complex)
        W[0] = first
        W[1:] = zb
        np.cumprod(W, axis=0, out=W)
        first = W[-1] * zb
        T = sum(W[:, s : s + G] @ P[s : s + G] for s in range(0, n, G)).ravel()
        lo = 1 + q0 * b
        out[lo : lo + len(T)] = T[: M + 1 - lo]
    return out


@pytest.mark.parametrize("n", [1, 3, 11, 257, 1024])
def test_power_sums_match_the_generator_sum_reference_bitwise(n):
    # orders past the one where the largest power underflows to 0 (1075 ln 2 / -ln r, plus
    # the rounding of subnormals), where power_sums stops; points on the axes give -0.0 terms
    rng = np.random.default_rng(n)
    for r in (1e-6, 0.1, 0.3, 0.6, 0.9, 0.99):
        zero_order = int(1.3 * 1075 * np.log(2) / -np.log(r)) + 300
        for pts in (random_disk_points(rng, n, r), -r * rng.uniform(0.5, 1.0, n) + 0j,
                    1j * r * rng.uniform(-1.0, 1.0, n)):
            pts[0] = r * pts[0] / abs(pts[0])
            for M in (1, 60, 128, 129, min(zero_order, 2 * 10**7 // n)):
                assert _same_bits(power_sums(pts, M), _power_sums_reference(pts, M)), (r, M)


def test_each_set_of_the_near_circle_pair_sums_to_full_order_bitwise():
    from circlemaps import blaschke

    Q = _near_circle_pair()
    p, q = Q.numerator._zero_set, Q.denominator._zero_set
    order = max(blaschke._plan(p, q, job)[3] for job in ("derivative", "arg", "slope"))
    assert order > 3 * 10**6
    blaschke.derivative_lipschitz_moment(Q)
    for zs in (p, q):
        assert len(zs.sums) == order + 1
        assert _same_bits(zs.sums, _power_sums_reference(zs.points, order))
    # the pole at 0.3 underflows to 0 from m = 619 on
    assert np.all(q.sums[619:] == 0) and q.sums[618] != 0


def _arg_grid_reference(Q, g):
    """quotient_arg_grid as one expression, with a temporary per operation."""
    import math

    from circlemaps import blaschke
    from circlemaps.disk import TWO_PI

    p, q, _, M = blaschke._plan(Q.numerator._zero_set, Q.denominator._zero_set, "arg")
    if M:
        S = blaschke._signed_power_sums(p, q, M)
        core = -2.0 * blaschke._series_on_grid(S / np.arange(1, M + 1), g).imag
    else:
        core = blaschke._arg_sum_grid(p.points, g) - blaschke._arg_sum_grid(q.points, g)
    theta = np.arange(g) * (TWO_PI / g)
    sigma_arg = cmath.phase(Q.numerator.sigma / Q.denominator.sigma)
    vals = sigma_arg + Q.degree_difference * theta + core
    shift = vals[0] - math.remainder(vals[0], TWO_PI)
    vals = vals - shift
    if vals[0] > math.pi:
        vals -= TWO_PI
    return vals


def test_arg_grid_matches_the_expression_reference_bitwise_on_both_paths(rng):
    from circlemaps import blaschke
    from conftest import random_pseudo_instance

    ring = _smooth_ring()
    cases = [(identity_quotient(cmath.exp(2.5j)), 64),
             (BlaschkeQuotient.make([0.0] * (len(ring) + 1), ring), 1024),
             (_near_circle_pair(), 64), (_near_circle_pair(), 4096),
             (_direct_ring_quotient(), 1024),
             (BlaschkeQuotient.make((1 - 3e-6) * np.exp([1j, 2.5j, 4j]), [0.5j], cmath.exp(-2j)), 4096)]
    for _ in range(6):
        z, w = random_pseudo_instance(rng)
        cases.append((BlaschkeQuotient.make(z, w, cmath.exp(1j * rng.uniform(0, 2 * np.pi))), 4096))
    paths = set()
    for Q, g in cases:
        paths.add(blaschke._plan(Q.numerator.zeros, Q.denominator.zeros, "arg")[3] > 0)
        assert _same_bits(quotient_arg_grid(Q, g), _arg_grid_reference(Q, g))
    assert paths == {True, False}


@pytest.mark.parametrize("zeros, poles", [
    pytest.param([1 - 1e-6], [], id="moebius-1e-6"),
    pytest.param([1 - 1e-10], [], id="moebius-1e-10"),
    pytest.param([0.5, 1 - 1e-9], [0.3], id="near-circle-quotient"),
])
def test_winding_is_the_degree_count_near_the_circle(zeros, poles):
    assert winding(BlaschkeQuotient.make(zeros, poles)) == 2 * np.pi


def test_winding_matches_the_integrated_argument_derivative(rng):
    mpmath = pytest.importorskip("mpmath")
    for n_zeros, n_poles in ((3, 1), (2, 2), (1, 3)):
        r = 0.999 * np.sqrt(rng.uniform(0, 1, n_zeros + n_poles))
        r[0] = 0.999
        pts = r * np.exp(1j * rng.uniform(0, 2 * np.pi, n_zeros + n_poles))
        Q = BlaschkeQuotient.make(pts[:n_zeros], pts[n_zeros:])
        with mpmath.workdps(30):
            zs = [mpmath.mpc(complex(z)) for z in pts]
            signs = [1] * n_zeros + [-1] * n_poles

            def dargs(t):
                zeta = mpmath.expj(t)
                return mpmath.fsum(s * (1 - abs(z) ** 2) / abs(zeta - z) ** 2 for s, z in zip(signs, zs))

            cuts = sorted(float(np.angle(z)) % (2 * np.pi) for z in pts)
            integral = mpmath.quad(dargs, [0, *cuts, 2 * mpmath.pi])
        assert abs(float(integral) - winding(Q)) < 1e-12


def test_signed_grid_sums_a_pole_directly_when_no_series_is_affordable():
    # the pole's series order would pass the 2^22 cap, so the grid takes the
    # direct path, which subtracts the pole's kernel sum from the zero's
    Q = BlaschkeQuotient.make([0.5], [1 - 1e-7])
    p, q = Q.numerator._zero_set, Q.denominator._zero_set
    assert _plan(p, q, "derivative")[3] == 0
    g = 256
    out = poisson_sum_signed_grid(p, q, g)
    ref = np.array([quotient_arg_derivative(Q, z) for z in np.exp(2j * np.pi * np.arange(g) / g)])
    assert out[0] < -1e7  # the pole's kernel peak
    assert np.max(np.abs(out - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12
