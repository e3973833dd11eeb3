import math

import numpy as np
import pytest

import circlemaps.approx as approx_module
from circlemaps.approx import (
    N_CAP,
    R_FLOOR,
    ApproximationBudgetError,
    CircleLift,
    PeriodicC1Function,
    PoissonCombination,
    approximate_c1,
    approximate_homeomorphism,
    as_circle_lift,
    kernel_pair_approximation,
    kernel_ring_split,
    kernel_sum_approximation,
    measure_c1_error,
    mollify_lift,
    periodic_antiderivative,
    quotient_from_combination,
    ring_defect,
    _next_pow2,
    _verify_grid_size,
)
from circlemaps.blaschke import BlaschkeQuotient, identity_quotient, poisson_sum_signed_grid
from circlemaps.certify import DIFFEOMORPHISM, certify_quotient, quadratic_quotient
from circlemaps.fourier import TrigSeries, fourier_coefficients, grid_theta, sup_norm, support
from circlemaps.gallery import rational_family


def test_periodic_function_finite_difference_consistency(rng):
    f = PeriodicC1Function.from_callable(lambda th: np.sin(2 * th) + 0.3 * np.cos(th))
    for t in rng.uniform(0, 2 * np.pi, 10):
        exact = 2 * np.cos(2 * t) - 0.3 * np.sin(t)
        assert np.atleast_1d(f.derivative(t))[0] == pytest.approx(exact, abs=1e-4)
        v0 = np.atleast_1d(f.value(t))[0]
        v1 = np.atleast_1d(f.value(t + 2 * np.pi))[0]
        assert abs(v1 - v0) < 1e-10  # periodicity of the carried function


def test_antiderivative_basics():
    g = periodic_antiderivative(lambda th: np.zeros_like(th))
    assert np.max(np.abs(g.value(grid_theta(64)))) < 1e-14
    g = periodic_antiderivative(lambda th: np.cos(th))
    theta = grid_theta(256)
    assert np.max(np.abs(g.value(theta) - np.sin(theta))) < 1e-12
    assert np.atleast_1d(g.value(0.0))[0] == pytest.approx(0.0, abs=1e-14)


def test_antiderivative_spectral_oracle(rng):
    # random zero-mean trig polynomial; derivative of the output matches input
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    def h(th):
        th = np.asarray(th)
        out = np.zeros_like(th, dtype=float)
        for n, c in enumerate(coeffs, start=1):
            out += (c * np.exp(1j * n * th)).real
        return out
    g = periodic_antiderivative(h)
    theta = grid_theta(512)
    dg = TrigSeries.from_samples(g.value(theta)).derivative().resample(512)
    assert np.max(np.abs(dg - h(theta))) < 1e-10


def test_antiderivative_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        periodic_antiderivative(lambda th: np.ones_like(th))


def test_combination_mean_identity(rng):
    pts = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    neg = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    comb = PoissonCombination.make(pts, neg, 3)
    assert comb.grid_mean(4096) == pytest.approx(6 - 2 - 3, abs=1e-8)


def test_kernel_ring_split_zero_and_half():
    n, rot = kernel_ring_split(0.0, 1e-9)
    assert n == 1 and rot == ()
    n, rot = kernel_ring_split(0.5, 1e-6)
    assert len(rot) == n - 1
    assert ring_defect(0.5, rot) < 1e-6
    # rotation invariance: the ring maps to itself under rotation by 2 pi/n
    ring = np.concatenate([[0.5], rot])
    rotated = ring * np.exp(2j * np.pi / n)
    for p in rotated:
        assert np.min(np.abs(ring - p)) < 1e-12


def test_kernel_ring_split_exponential_decay():
    errors = []
    sizes = [4, 8, 16, 32, 64]
    for n in sizes:
        rot = tuple(0.5 * np.exp(2j * np.pi * np.arange(1, n) / n))
        errors.append(max(ring_defect(0.5, rot), 1e-16))
    logs = np.log10(errors)
    for a, b in zip(logs, logs[1:]):
        if a > -12:  # above the rounding floor the decay is at least linear
            assert b <= a - 0.9
    # doubling roughly squares the error: defect(2n) <= 2 * defect(n)^2
    # (below ~1e-13 the measurement is grid rounding, not the true defect)
    for e1, e2 in zip(errors, errors[1:]):
        if e2 > 1e-13:
            assert e2 <= 2.0 * e1 * e1


def test_kernel_pair_cos(rng):
    comb, log = kernel_pair_approximation(lambda th: np.cos(th), 0.1)
    assert len(comb.positives) == len(comb.negatives) == log["n"]
    assert log["error"] < 0.1
    assert comb.grid_mean() == pytest.approx(0.0, abs=1e-8)


def test_kernel_pair_zero_function():
    comb, log = kernel_pair_approximation(lambda th: np.zeros_like(th), 0.5)
    assert comb.positives == () and comb.negatives == ()


def test_kernel_sum_cos():
    comb, log = kernel_sum_approximation(lambda th: np.cos(th), 0.2)
    assert comb.negatives == ()
    assert comb.constant == len(comb.positives)
    assert log["error"] < 0.2


def test_quotient_from_combination_constant_and_identity():
    u_const = PeriodicC1Function.from_callable(lambda th: 0.7 * np.ones_like(np.asarray(th)))
    Q = quotient_from_combination(u_const, PoissonCombination.make())
    assert abs(Q(1.0) - np.exp(0.7j)) < 1e-12
    u_theta = PeriodicC1Function.from_callable(lambda th: np.zeros_like(np.asarray(th)))
    Q2 = quotient_from_combination(u_theta, PoissonCombination.make([0.0], [], 0))
    # arg Q2 = theta + 0: the identity rotation
    assert abs(Q2(np.exp(0.5j)) - np.exp(0.5j)) < 1e-12


def test_quotient_from_combination_rejects_constant():
    with pytest.raises(ValueError):
        quotient_from_combination(lambda th: np.zeros_like(th),
                                  PoissonCombination.make([0.3], [], 1))


def test_c1_error_bound_factor(rng):
    # measured C1 error is within (pi+1) times the measured derivative error
    u = PeriodicC1Function.from_callable(
        lambda th: 0.2 * np.sin(th), lambda th: 0.2 * np.cos(th))
    res = approximate_c1(u, 0.2)
    comb_err = res.log["error"]
    assert res.c1_error <= (math.pi + 1) * comb_err + 1e-9


def test_approximate_c1_constant():
    u = PeriodicC1Function.from_callable(lambda th: 1.1 * np.ones_like(np.asarray(th)),
                                          lambda th: np.zeros_like(np.asarray(th)))
    res = approximate_c1(u, 0.1)
    assert res.n == 0 and res.blaschke.degree == 0
    assert res.c1_error < 1e-9


def test_approximate_c1_smooth_target():
    u = PeriodicC1Function.from_callable(
        lambda th: 0.3 * np.sin(th), lambda th: 0.3 * np.cos(th))
    res = approximate_c1(u, 0.1)
    assert res.c1_error < 0.1
    assert res.n == res.blaschke.degree
    assert len(res.quotient.denominator.zeros) == res.n
    assert all(z == 0 for z in res.quotient.denominator.zeros)


def test_mollify_preserves_linear_and_positive_slope():
    ident = CircleLift.from_breakpoints([(0, 0), (2 * np.pi, 2 * np.pi)])
    sm = mollify_lift(ident, 0.2)
    theta = grid_theta(1024)
    assert np.max(np.abs(sm.value(theta) - theta)) < 1e-10
    pl = CircleLift.from_breakpoints([(0, 0), (np.pi / 2, np.pi), (2 * np.pi, 2 * np.pi)])
    sm2 = mollify_lift(pl, 0.1)
    assert sm2.min_slope() > 0.5  # at least the smaller PL slope 2/3, roughly
    # sup deviation shrinks with eta like the modulus of continuity
    for eta, cap in ((0.1, 0.2), (0.01, 0.02)):
        smx = mollify_lift(pl, eta)
        dev = np.max(np.abs(smx.value(theta) - pl.value(theta)))
        assert dev <= cap


def test_approximate_homeomorphism_rotation():
    lift = CircleLift.from_breakpoints([(0, 0.4), (2 * np.pi, 0.4 + 2 * np.pi)])
    res = approximate_homeomorphism(lift, 0.05, "below")
    Q = res.quotient
    assert Q.numerator.degree == 1 and Q.denominator.degree == 0
    assert abs(Q(1.0) - np.exp(0.4j)) < 1e-9
    assert res.certification.verdict == DIFFEOMORPHISM


def test_approximate_homeomorphism_quadratic_input():
    target = quadratic_quotient(0.2)
    res = approximate_homeomorphism(target, 0.05, "below")
    assert res.sup_error < 0.05
    assert res.certification.verdict == DIFFEOMORPHISM
    # one-sided spectrum: nothing below -(deg - 1)
    n = res.quotient.numerator.degree
    spec = fourier_coefficients(rational_family(res.quotient, 2**13), tolerance=1e-6)
    supp = support(spec)
    assert min(supp) >= -(n - 1)


def test_approximate_homeomorphism_above_direction():
    target = quadratic_quotient(0.15)
    res = approximate_homeomorphism(target, 0.08, "above")
    assert res.sup_error < 0.08
    assert res.certification.verdict == DIFFEOMORPHISM
    den = res.quotient.denominator.degree
    spec = fourier_coefficients(rational_family(res.quotient, 2**13), tolerance=1e-6)
    assert max(support(spec)) <= den + 1


def test_as_circle_lift_dispatch(rng):
    assert isinstance(as_circle_lift(identity_quotient()), CircleLift)
    mp = rational_family(identity_quotient(np.exp(0.3j)), 256)
    lift = as_circle_lift(mp)
    theta = grid_theta(128)
    assert np.max(np.abs(lift.value(theta) - (theta + 0.3))) < 1e-6
    with pytest.raises(ValueError):
        as_circle_lift(rational_family(quadratic_quotient(0.45), 4096))  # not injective


def test_min_slope_matches_secant_reference():
    def reference(lift, g):
        # the secant formula on g + 1 points of [0, 2 pi], evaluated off the FFT path
        F = lift.value(np.linspace(0.0, 2 * np.pi, g + 1))
        return float(np.min(np.diff(F))) * g / (2 * np.pi)

    pl = CircleLift.from_breakpoints([(0, 0), (np.pi / 2, np.pi), (2 * np.pi, 2 * np.pi)])
    series = mollify_lift(pl, 0.1)
    assert series.psi.series is not None and series.psi.series.m > 1024
    for lift in (pl, series):
        for g in (1024, 4096):
            assert lift.min_slope(g) == pytest.approx(reference(lift, g), abs=1e-9)
    assert pl.min_slope() == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_approximate_homeomorphism_evaluates_each_lift_once_on_the_check_grid(monkeypatch):
    from circlemaps.blaschke import BlaschkeQuotient

    lifts, evaluated = [], []
    init, values_on_grid = CircleLift.__init__, PeriodicC1Function.values_on_grid

    def init_spy(self, psi):
        lifts.append(self)
        init(self, psi)

    def values_spy(self, g):
        if g == 2**14:
            evaluated.append(self)  # kept alive, so identity comparisons stay valid
        return values_on_grid(self, g)

    monkeypatch.setattr(CircleLift, "__init__", init_spy)
    monkeypatch.setattr(PeriodicC1Function, "values_on_grid", values_spy)
    rotation = CircleLift.from_breakpoints([(0, 0.4), (2 * np.pi, 0.4 + 2 * np.pi)])
    mobius = as_circle_lift(BlaschkeQuotient.make([-0.3], [], 1.0))
    for lift, direction in ((rotation, "below"), (mobius, "above")):
        lifts.clear()
        evaluated.clear()
        lifts.append(lift)
        res = approximate_homeomorphism(lift, 0.05, direction)
        assert res.log["verify_grid"] == 2**14  # the final check reads the same grid
        assert len(lifts) >= 2
        for f in lifts:
            assert sum(p is f.psi for p in evaluated) <= 1


_PL_LIFT = CircleLift.from_breakpoints([(0, 0), (math.pi / 2, math.pi), (2 * np.pi, 2 * np.pi)])
_SMOOTH_U = PeriodicC1Function.from_callable(lambda th: 0.3 * np.sin(th), lambda th: 0.3 * np.cos(th))


@pytest.mark.parametrize("call, bad", [
    pytest.param(lambda b: approximate_homeomorphism(_PL_LIFT, b, "above"), b, id=f"homeomorphism-{b}")
    for b in (math.nan, math.inf, 0.0, -1.0)
] + [
    pytest.param(lambda b: kernel_ring_split(0.5, b), b, id=f"ring_split-{b}") for b in (math.nan, math.inf, 0.0)
] + [
    pytest.param(lambda b: kernel_pair_approximation(np.cos, b), b, id=f"pair-{b}") for b in (math.nan, math.inf)
] + [
    pytest.param(lambda b: kernel_sum_approximation(np.cos, b), b, id=f"kernel_sum-{b}") for b in (math.nan, math.inf)
] + [
    pytest.param(lambda b: approximate_c1(_SMOOTH_U, b), b, id=f"c1-{b}") for b in (math.nan, math.inf)
] + [
    pytest.param(lambda b: fourier_coefficients(rational_family(identity_quotient(), 4096), b), b,
                 id=f"fourier-{b}")
    for b in (math.nan, math.inf, -1.0)
])
def test_library_budgets_must_be_finite_and_in_range(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def test_non_finite_lifts_and_functions_are_rejected():
    with pytest.raises(ValueError, match="finite"):
        CircleLift.from_breakpoints([(0, 0), (math.nan, 1), (2 * np.pi, 2 * np.pi)])
    samples = np.exp(1j * grid_theta(64))
    samples[5] = math.nan
    with pytest.raises(ValueError, match="finite"):
        CircleLift.from_samples(samples)
    with pytest.raises(ValueError, match="finite"):
        approximate_homeomorphism(lambda th: np.where(th > 1.0, math.nan, th), 0.05)
    with pytest.raises(ValueError, match="finite"):
        approximate_c1(lambda th: np.full_like(th, math.nan), 0.1)


def _min_n_pair_reference(hs, eps, grid, min_n):
    """kernel_pair_approximation as it was with a min_n knob: the ring size doubles from max(64, min_n)."""
    m_work = max(hs.m, grid)
    k = np.abs(hs.freqs())
    h_2m = hs.resample(2 * m_work)
    for j in range(64):
        r = 1.0 - 0.1 * 0.5**j
        assert r <= 1.0 - R_FLOOR
        ext_err = sup_norm(TrigSeries(hs.coef * r**k).resample(2 * m_work) - h_2m)
        if ext_err < eps / 3.0:
            break
    g_anti = periodic_antiderivative(hs, m_work).series
    n = max(64, min_n)
    while n <= N_CAP:
        if n * (1.0 - r) < 4.0 and n < N_CAP:
            n *= 2
            continue
        phi = grid_theta(n)
        comb = PoissonCombination.make(r * np.exp(1j * (phi - g_anti.resample(n) / n)), r * np.exp(1j * phi), 0)
        g_pre = max(8192, _next_pow2(8.0 / (1.0 - r)))
        if sup_norm(comb.evaluate_grid(g_pre) - hs.resample(g_pre)) < eps:
            g_v = _verify_grid_size(m_work, n)
            err = sup_norm(comb.evaluate_grid(g_v) - hs.resample(g_v))
            if err < eps:
                return comb, {"r": r, "n": n, "error": err, "extension_error": ext_err,
                              "eps": eps, "verify_grid": g_v}
        n *= 2
    raise AssertionError("ring cap reached")


def _restarting_kernel_sum_reference(h, eps, grid=4096):
    """kernel_sum_approximation as it was: a too sparse negative ring restarts the pair search at twice its size."""
    hs = TrigSeries.from_samples(h(grid_theta(grid)))
    min_n = 64
    while True:
        comb, log = _min_n_pair_reference(hs, eps / 2.0, grid, min_n)
        n_neg = len(comb.negatives)
        defect = sup_norm(poisson_sum_signed_grid(comb._negative_set, (), max(8192, _next_pow2(4 * n_neg))) - n_neg)
        if defect < eps / 2.0:
            break
        min_n = 2 * n_neg
    out = PoissonCombination.make(comb._positive_set, (), n_neg)
    g_v = log["verify_grid"]
    err = sup_norm(out.evaluate_grid(g_v) - hs.resample(g_v))
    return out, dict(log, ring_defect=defect, constant=n_neg, error=err, eps=eps), min_n > 64


def _hex(x):
    return None if x is None else [float(np.real(x)).hex(), float(np.imag(x)).hex()]


@pytest.mark.parametrize("h, eps, restarts", [
    pytest.param(lambda th: 0.3 * np.cos(th), 0.3, True, id="0.3cos-0.3"),
    pytest.param(lambda th: 0.5 * np.sin(2 * th), 0.5, True, id="0.5sin2-0.5"),
    pytest.param(lambda th: 0.1 * np.cos(th), 0.15, True, id="0.1cos-0.15"),
    pytest.param(np.cos, 0.2, False, id="cos-0.2"),
])
def test_kernel_sum_resuming_the_ring_search_matches_the_restarting_reference(h, eps, restarts):
    ref, ref_log, restarted = _restarting_kernel_sum_reference(h, eps)
    assert restarted == restarts
    comb, log = kernel_sum_approximation(h, eps)
    assert [_hex(z) for z in comb.positives] == [_hex(z) for z in ref.positives]
    assert comb.negatives == () and comb.constant == ref.constant
    assert list(log) == list(ref_log)
    assert {k: _hex(v) for k, v in log.items()} == {k: _hex(v) for k, v in ref_log.items()}


def test_kernel_sum_takes_one_antiderivative_per_call(monkeypatch):
    calls = []
    antiderivative = approx_module.periodic_antiderivative

    def spy(h, grid=4096):
        calls.append(grid)
        return antiderivative(h, grid)

    monkeypatch.setattr(approx_module, "periodic_antiderivative", spy)
    comb, log = kernel_sum_approximation(lambda th: 0.3 * np.cos(th), 0.3)
    assert log["n"] == 128  # the 64-point ring was too sparse to stand alone
    assert len(calls) == 1


_NAN_FUNCTIONS = [
    pytest.param(lambda th: np.where(th > 1, np.nan, np.sin(th)), id="nan-past-1"),
    pytest.param(lambda th: np.full_like(th, np.nan), id="constant-nan"),
]


@pytest.mark.parametrize("h", _NAN_FUNCTIONS)
@pytest.mark.parametrize("call", [
    pytest.param(lambda h: kernel_pair_approximation(h, 0.3), id="pair"),
    pytest.param(lambda h: kernel_sum_approximation(h, 0.3), id="kernel_sum"),
    pytest.param(periodic_antiderivative, id="antiderivative"),
])
def test_kernel_functions_reject_non_finite_functions(call, h):
    with pytest.raises(ValueError, match="finite"):
        call(h)


def test_kernel_ring_split_stops_at_the_ring_cap():
    with pytest.raises(ApproximationBudgetError, match="ring split"):
        kernel_ring_split(0.9999999, 0.1)


def test_series_functions_build_their_derivative_series_on_demand(monkeypatch):
    derivative = TrigSeries.derivative
    calls = []

    def spy(self):
        calls.append(self.m)
        return derivative(self)

    monkeypatch.setattr(TrigSeries, "derivative", spy)
    f = PeriodicC1Function.from_series(TrigSeries.from_samples(np.sin(grid_theta(64))))
    assert calls == []
    assert f.derivative(0.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert len(calls) == 1
    calls.clear()
    approximate_homeomorphism(quadratic_quotient(0.15), 0.08, "above")
    assert len(calls) == 2  # the fitted derivative and its grid in measure_c1_error


def _pre_checking_pairs_reference(hs, eps, grid):
    """The ring search as it was: each ring is pre-checked on a grid of max(8192, 8/(1 - r)) points first."""
    m_work = max(hs.m, grid)
    if sup_norm(hs.resample(m_work)) < min(eps * 1e-3, 1e-12):
        yield PoissonCombination.make(), {"r": None, "n": 0, "error": 0.0, "eps": eps,
                                          "verify_grid": _verify_grid_size(m_work)}
        return
    g_anti = periodic_antiderivative(hs, m_work).series
    k = np.abs(hs.freqs())
    h_2m = hs.resample(2 * m_work)
    for j in range(64):
        r = 1.0 - 0.1 * 0.5**j
        assert r <= 1.0 - R_FLOOR
        ext_err = sup_norm(TrigSeries(hs.coef * r**k).resample(2 * m_work) - h_2m)
        if ext_err < eps / 3.0:
            break
    g_pre = max(8192, _next_pow2(8.0 / (1.0 - r)))
    h_pre = hs.resample(g_pre)
    for n in (1 << j for j in range(6, N_CAP.bit_length())):
        if n * (1.0 - r) < 4.0 and n < N_CAP:
            continue
        phi = grid_theta(n)
        comb = PoissonCombination.make(r * np.exp(1j * (phi - g_anti.resample(n) / n)), r * np.exp(1j * phi), 0)
        if sup_norm(comb.evaluate_grid(g_pre) - h_pre) < eps:
            g_v = _verify_grid_size(m_work, n)
            err = sup_norm(comb.evaluate_grid(g_v) - hs.resample(g_v))
            if err < eps:
                yield comb, {"r": r, "n": n, "error": err, "extension_error": ext_err,
                             "eps": eps, "verify_grid": g_v}
    raise ApproximationBudgetError("ring cap reached")


def _same_combination(comb, log, ref, ref_log):
    assert [_hex(z) for z in comb.positives] == [_hex(z) for z in ref.positives]
    assert [_hex(w) for w in comb.negatives] == [_hex(w) for w in ref.negatives]
    assert comb.constant == ref.constant
    assert list(log) == list(ref_log)
    assert {k: _hex(v) for k, v in log.items()} == {k: _hex(v) for k, v in ref_log.items()}


@pytest.mark.parametrize("h", [
    pytest.param(np.cos, id="cos"),
    pytest.param(lambda th: np.sin(3 * th) + 0.5 * np.cos(7 * th), id="sin3+cos7/2"),
    pytest.param(lambda th: 0.3 * np.cos(th), id="0.3cos"),
])
@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_one_check_per_ring_matches_the_pre_checking_reference(monkeypatch, h, eps):
    pair, pair_log = kernel_pair_approximation(h, eps)
    total, total_log = kernel_sum_approximation(h, eps)
    monkeypatch.setattr(approx_module, "_kernel_pairs", _pre_checking_pairs_reference)
    _same_combination(pair, pair_log, *kernel_pair_approximation(h, eps))
    _same_combination(total, total_log, *kernel_sum_approximation(h, eps))


def test_one_check_per_ring_matches_the_pre_checking_reference_on_the_smooth_cli_target(monkeypatch):
    # the Moebius map of the CLI smoke spec, approximated from above: its
    # kernel sums approximate the mollified lift's derivative u'
    sums = []
    kernel_sum = approx_module.kernel_sum_approximation

    def spy(h, eps, grid=4096):
        sums.append((h, eps, grid, kernel_sum(h, eps, grid)))
        return sums[-1][3]

    lift = as_circle_lift(BlaschkeQuotient.make([-0.3], [], 1.0))
    monkeypatch.setattr(approx_module, "kernel_sum_approximation", spy)
    res = approximate_homeomorphism(lift, 0.05, "above")
    assert res.certification.verdict == DIFFEOMORPHISM and sums
    monkeypatch.setattr(approx_module, "_kernel_pairs", _pre_checking_pairs_reference)
    for h, eps, grid, (comb, log) in sums:
        _same_combination(comb, log, *kernel_sum(h, eps, grid))
    ref = approximate_homeomorphism(lift, 0.05, "above")
    assert [_hex(z) for z in res.quotient.denominator.zeros] == [_hex(z) for z in ref.quotient.denominator.zeros]
    assert {k: _hex(v) for k, v in res.log.items()} == {k: _hex(v) for k, v in ref.log.items()}


def test_kernel_sum_of_a_negligible_function_logs_like_every_sum():
    comb, log = kernel_sum_approximation(np.zeros_like, 0.3)
    assert comb.positives == () and comb.negatives == () and comb.constant == 0
    assert log["eps"] == 0.3 and log["constant"] == 0 and log["ring_defect"] == 0.0
    assert log["error"] == 0.0


def _ring_split_size_mp(r, eps):
    """The smallest doubling n with 2 pi M n / ((R/r)^n - 1) < eps, in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        R = (1 + r) / 2
        M = (1 + R) / (1 - R)
        n = 4
        while 2 * mpmath.pi * M * n / ((R / r) ** n - 1) >= eps:
            n *= 2
        return n


@pytest.mark.parametrize("w0, n", [(0.5, 2048), (1e-10, 32)])
def test_kernel_ring_split_does_not_overflow_at_a_tiny_eps(w0, n):
    # the bound meets 1e-300 where (R/r)^n overflows a float; the true
    # defect, about 2 n r^n, is far below it, and the grid measures 0.0
    assert _ring_split_size_mp(w0, 1e-300) == n
    m, rotations = kernel_ring_split(w0, 1e-300)
    assert m == n and len(rotations) == n - 1


def test_kernel_ring_split_at_a_tiny_eps_ends_in_a_budget_error():
    # the bound holds at n = 16384, but the grid measures rounding above eps
    assert _ring_split_size_mp(0.9, 1e-300) == 16384
    with pytest.raises(ApproximationBudgetError, match="ring split"):
        kernel_ring_split(0.9, 1e-300)


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
def test_mollify_lift_rejects_a_non_finite_or_non_positive_width(eta):
    with pytest.raises(ValueError, match="finite"):
        mollify_lift(as_circle_lift(identity_quotient()), eta)


# ---------------------------------------------------------------------------
# mollification through the spectra


def _sample_domain_mollify_reference(F, eta):
    """The circular convolution taken back to samples and analysed again."""
    m = min(2**17, _next_pow2(max(4096, 64.0 * 2 * np.pi / eta)))
    psi = F.psi.values_on_grid(m)
    w = approx_module._bump_weights(eta, m)
    smooth = np.real(np.fft.ifft(np.fft.fft(psi) * np.fft.fft(w)))
    return CircleLift.from_series(TrigSeries.from_samples(smooth)), m


@pytest.mark.parametrize("name, eta", [("criterion-3", 0.3), ("criterion-3", 0.15),
                                       ("criterion-3", 0.075), ("smooth_cli", 0.3)])
def test_mollify_lift_matches_the_sample_domain_reference(name, eta):
    if name == "criterion-3":
        F = CircleLift.from_breakpoints([(0, 0), (np.pi / 2, np.pi), (2 * np.pi, 2 * np.pi)])
    else:
        F = as_circle_lift(BlaschkeQuotient.make([-0.3], [], np.exp(0.7j)))
    ref, m = _sample_domain_mollify_reference(F, eta)
    smooth = mollify_lift(F, eta)
    for g in (m, 2**14, 2 * m):
        assert sup_norm(smooth.psi.values_on_grid(g) - ref.psi.values_on_grid(g)) <= 1e-12, g
    theta = np.linspace(0.1, 6.2, 7)
    assert sup_norm(smooth.value(theta) - ref.value(theta)) <= 1e-12


# ---------------------------------------------------------------------------
# the retries of the C1 fit


def _criterion_2_function():
    return PeriodicC1Function.from_callable(
        lambda th: 0.3 * np.sin(th) + 0.1 * np.cos(2 * th),
        lambda th: 0.3 * np.cos(th) - 0.2 * np.sin(2 * th),
    )


def _fit_key(fit):
    return (fit.n, fit.sup_error, fit.derivative_error, fit.log["eps_kernel"], fit.log["verify_grid"])


def test_fit_c1_retries_at_the_shrunk_budget_after_a_refusal():
    u = _criterion_2_function()
    seen = []

    def refuse_first(sup_e, der_e):
        seen.append((sup_e, der_e))
        return len(seen) > 1

    fit, ok = approx_module._fit_c1(u, 0.05, 4096, 3, 0.5, refuse_first)
    assert ok and len(seen) == 2 and fit.log["eps_kernel"] == 0.025
    fresh, fresh_ok = approx_module._fit_c1(u, 0.025, 4096, 1, 0.5, lambda s, d: True)
    assert fresh_ok and _fit_key(fit) == _fit_key(fresh)
    assert seen[1] == (fit.sup_error, fit.derivative_error)


def test_fit_c1_gives_up_with_its_last_fit_when_every_fit_is_refused():
    u = _criterion_2_function()
    fit, ok = approx_module._fit_c1(u, 0.05, 4096, 2, 0.5, lambda s, d: False)
    assert not ok and fit.log["eps_kernel"] == 0.025
    fresh, _ = approx_module._fit_c1(u, 0.025, 4096, 1, 0.5, lambda s, d: True)
    assert _fit_key(fit) == _fit_key(fresh)
