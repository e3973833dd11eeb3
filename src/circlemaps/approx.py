"""Constructive approximation by rational circle diffeomorphisms.

The pipeline runs in four stages. A continuous zero-mean function is first
matched by a difference of Poisson-kernel sums with atoms on a common ring:
the shifted-ring pair construction places w_k = r e^{i phi_k} uniformly and
z_k = r e^{i(phi_k + a_k)} with shifts a_k = -g(phi_k)/n read off an
antiderivative g. Second, the negative ring collapses to its point count:
a uniform ring of kernels deviates from the constant n by about 2 n r^n,
exponentially small once n (1-r) is moderate, so the pair combination becomes
(sum of positive kernels) - n. Third, that combination is the argument
derivative of a Blaschke product over a monomial, so choosing the unimodular
factor pins down a quotient whose argument approximates the target in C1
norm. Finally, a circle homeomorphism is smoothed by bump convolution of its
lift and the argument pipeline is applied to the deviation from a rotation,
producing a certified rational diffeomorphism uniformly close to the input.

Every stage is verified a posteriori on a grid four times finer than any
construction grid (minimum 2^14 points); reported sup norms are grid sups.
The radius search follows the halving schedule 1 - 0.1 * 2^-j, and the ring
size doubles until the measured error passes the requested budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .disk import TWO_PI, as_disk
from .blaschke import (
    BlaschkeProduct,
    BlaschkeQuotient,
    _ZeroSet,
    _as_zero_set,
    poisson_sum_signed_grid,
    quotient_arg_grid,
    quotient_derivative_grid,
)
from .fourier import TrigSeries, grid_theta, phase_steps, sup_norm
from .certify import DIFFEOMORPHISM, certify_quotient, terminating_family_quotient

MEAN_TOL = 1e-8
R_FLOOR = 1e-6
N_CAP = 2**16
MIN_VERIFY_GRID = 2**14


class ApproximationBudgetError(RuntimeError):
    """The construction caps (radius or ring size) were hit before the budget."""


def _next_pow2(x: float) -> int:
    return 1 << max(6, int(math.ceil(math.log2(max(x, 2.0)))))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")


# ---------------------------------------------------------------------------
# periodic functions

@dataclass
class PeriodicC1Function:
    """A 2*pi-periodic function with its derivative.

    Both callables are vectorized over angle arrays. When built from samples
    the function is carried as a trigonometric series, which gives exact
    power-of-two resampling and spectral differentiation; the callables then
    evaluate the series at off-grid angles.
    """

    value: Callable
    derivative: Callable
    series: Optional[TrigSeries] = None

    @classmethod
    def from_callable(cls, value: Callable, derivative: Optional[Callable] = None) -> "PeriodicC1Function":
        """Without a derivative, central differences of step 1e-6 stand in for it."""
        if derivative is None:
            def derivative(theta, _v=value, _h=1e-6):
                return (_v(np.asarray(theta) + _h) - _v(np.asarray(theta) - _h)) / (2 * _h)
        return cls(value, derivative)

    @classmethod
    def from_series(cls, series: TrigSeries) -> "PeriodicC1Function":
        return cls(series.eval, lambda theta: series.derivative().eval(theta), series)

    def as_series(self, grid: int = 4096) -> TrigSeries:
        """The carried series, else the series of the samples on the grid; it must be finite."""
        series = self.series
        if series is None:
            series = TrigSeries.from_samples(self.value(grid_theta(grid)))
        if not np.isfinite(series.coef).all():
            raise ValueError("the function must be finite")
        return series

    def values_on_grid(self, g: int) -> np.ndarray:
        if self.series is not None:
            return self.series.resample(g)
        return np.asarray(self.value(grid_theta(g)), dtype=float)

    def derivative_on_grid(self, g: int) -> np.ndarray:
        if self.series is not None:
            return self.series.derivative().resample(g)
        return np.asarray(self.derivative(grid_theta(g)), dtype=float)


def _periodic(u) -> PeriodicC1Function:
    """u as a PeriodicC1Function: a TrigSeries, a PeriodicC1Function or a vectorized callable."""
    if isinstance(u, PeriodicC1Function):
        return u
    if isinstance(u, TrigSeries):
        return PeriodicC1Function.from_series(u)
    if callable(u):
        return PeriodicC1Function.from_callable(u)
    raise TypeError("expected a TrigSeries, PeriodicC1Function, or callable")


def periodic_antiderivative(h, grid: int = 4096) -> PeriodicC1Function:
    """The periodic antiderivative g with g' = h and g(0) = 0.

    Spectral integration: nonzero Fourier modes are divided by i*n. The input
    must have (numerically) zero mean, else no periodic antiderivative exists.
    """
    hs = _periodic(h).as_series(grid)
    if abs(hs.mean()) >= MEAN_TOL:
        raise ValueError(f"mean {hs.mean():.3e} is not zero; no periodic antiderivative")
    coef = hs.antiderivative().coef.copy()
    coef[0] -= np.sum(coef)  # anchor g(0) = 0
    g = TrigSeries(coef)
    return PeriodicC1Function(g.eval, hs.eval, g)


# ---------------------------------------------------------------------------
# Poisson combinations

@dataclass(frozen=True)
class PoissonCombination:
    """The function sum P(z_k, .) - sum P(w_k, .) - c on the circle."""

    positives: tuple
    negatives: tuple
    constant: int = 0
    _positive_set: _ZeroSet = field(kw_only=True, compare=False, repr=False)
    _negative_set: _ZeroSet = field(kw_only=True, compare=False, repr=False)

    @classmethod
    def make(cls, positives=(), negatives=(), constant: int = 0) -> "PoissonCombination":
        """positives and negatives are disk points, or zero sets to share."""
        p, q = _as_zero_set(positives), _as_zero_set(negatives)
        return cls(tuple(p.zeros.tolist()), tuple(q.zeros.tolist()), int(constant),
                   _positive_set=p, _negative_set=q)

    def evaluate_grid(self, g: int) -> np.ndarray:
        return poisson_sum_signed_grid(self._positive_set, self._negative_set, g) - self.constant

    def grid_mean(self, g: int = 4096) -> float:
        return float(np.mean(self.evaluate_grid(g)))


def _verify_grid_size(*construction_grids: int) -> int:
    return max(MIN_VERIFY_GRID, 4 * max(construction_grids))


def _kernel_pairs(hs: TrigSeries, eps: float, grid: int):
    """Each verified pair approximation of hs within eps, by increasing ring size.

    A negligible hs yields the empty combination alone. The antiderivative
    and the radius search serve every ring size, and each ring is checked on
    its verification grid.
    """
    m_work = max(hs.m, grid)
    if sup_norm(hs.resample(m_work)) < min(eps * 1e-3, 1e-12):
        yield PoissonCombination.make(), {"r": None, "n": 0, "error": 0.0, "eps": eps,
                                          "verify_grid": _verify_grid_size(m_work)}
        return
    g_anti = periodic_antiderivative(hs, m_work).series

    # radius search: harmonic extension H(r zeta) must track h within eps/3
    k = np.abs(hs.freqs())
    h_2m = hs.resample(2 * m_work)
    for j in range(64):
        r = 1.0 - 0.1 * 0.5**j
        if r > 1.0 - R_FLOOR:
            raise ApproximationBudgetError(
                f"harmonic extension cannot match within eps/3 = {eps / 3:.3e} "
                f"before the radius floor; function too rough for this budget"
            )
        damped = TrigSeries(hs.coef * r**k)
        ext_err = sup_norm(damped.resample(2 * m_work) - h_2m)
        if ext_err < eps / 3.0:
            break

    for n in (1 << j for j in range(6, N_CAP.bit_length())):  # 64, 128, ..., N_CAP
        # rings too sparse to overlap (n(1-r) small) cannot approximate at all
        if n * (1.0 - r) < 4.0 and n < N_CAP:
            continue
        phi = grid_theta(n)
        shifts = -g_anti.resample(n) / n
        zs = r * np.exp(1j * (phi + shifts))
        ws = r * np.exp(1j * phi)
        comb = PoissonCombination.make(zs, ws, 0)
        g_v = _verify_grid_size(m_work, n)
        err = sup_norm(comb.evaluate_grid(g_v) - hs.resample(g_v))
        if err < eps:
            yield comb, {"r": r, "n": n, "error": err, "extension_error": ext_err,
                         "eps": eps, "verify_grid": g_v}
    raise ApproximationBudgetError(
        f"ring size cap {N_CAP} reached with error still above eps = {eps:.3e}"
    )


def kernel_pair_approximation(h, eps: float, grid: int = 4096):
    """Approximate a zero-mean continuous function by paired kernel rings.

    Returns (PoissonCombination with equal counts and c = 0, log dict). The
    radius r is the first of the halving schedule whose harmonic extension
    matches h within eps/3 on the grid; the ring size n doubles from 64 until
    the combination's measured sup error on the verification grid drops below
    eps. Raises ApproximationBudgetError if r would exceed 1 - 1e-6 or n
    would exceed 2^16.
    """
    _check_eps(eps)
    return next(_kernel_pairs(_periodic(h).as_series(grid), eps, grid))


def kernel_ring_split(w0, eps: float):
    """Replace one kernel by a constant minus its ring of rotations.

    Returns (n, rotations) with rotations = w0 e^{2 pi i k/n}, k = 1..n-1,
    such that |P(w0,.) - n + sum_k P(rot_k,.)| < eps everywhere. n is the
    smallest tried (doubling from 4, at most 2^16) for which the trapezoid
    bound 2 pi M n / ((R/r)^n - 1), R = (1+r)/2, M = (1+R)/(1-R), is below
    eps; the result is additionally verified on a grid.
    """
    _check_eps(eps)
    w0 = as_disk(w0)
    r = abs(w0)
    if r == 0.0:
        return 1, ()
    R = (1.0 + r) / 2.0
    Mb = (1.0 + R) / (1.0 - R)
    n = 4
    while True:
        # bound < eps, with (R/r)^n in logs so that it cannot overflow
        if n * math.log(R / r) > math.log1p(TWO_PI * Mb * n / eps):
            break
        n *= 2
        if n > N_CAP:
            raise ApproximationBudgetError(f"ring split needs over {N_CAP} kernels for eps = {eps:.3e}")
    rotations = tuple(w0 * np.exp(2j * np.pi * np.arange(1, n) / n))
    defect = ring_defect(w0, rotations)
    if defect >= eps:
        raise ApproximationBudgetError(
            f"ring split verification failed: measured {defect:.3e} >= eps"
        )
    return n, rotations


def ring_defect(w0, rotations) -> float:
    """Measured sup of |P(w0,.) + sum P(rot,.) - n| on a grid.

    The defect oscillates at the ring frequency, so the grid scales with the
    ring size to resolve the peaks.
    """
    pts = np.asarray([w0, *rotations], dtype=complex)
    g = max(8192, _next_pow2(4 * len(pts)))
    vals = poisson_sum_signed_grid(pts, (), g) - len(pts)
    return sup_norm(vals)


def kernel_sum_approximation(h, eps: float, grid: int = 4096):
    """Approximate a zero-mean function by positive kernels minus a constant.

    Returns (PoissonCombination with empty negatives and constant equal to
    the number of positive kernels, log dict). Built from the first pair
    approximation at budget eps/2 whose negative ring, uniform, is replaced
    collectively by its count (the ring's own split identity) within eps/2;
    the result is verified on the grid.
    """
    _check_eps(eps)
    hs = _periodic(h).as_series(grid)
    for comb, log in _kernel_pairs(hs, eps / 2.0, grid):
        n_neg = len(comb.negatives)
        g_d = max(8192, _next_pow2(4 * n_neg))
        defect = sup_norm(poisson_sum_signed_grid(comb._negative_set, (), g_d) - n_neg)
        if defect < eps / 2.0:
            break
        # a ring too sparse to stand alone as the constant n: take the next
        # one (the defect decays like n r^n, so a doubling or two suffices)
        if n_neg >= N_CAP:
            raise ApproximationBudgetError(
                f"negative ring defect {defect:.3e} exceeds eps/2 at the ring cap"
            )
    out = PoissonCombination.make(comb._positive_set, (), n_neg)
    g_v = log["verify_grid"]
    err = sup_norm(out.evaluate_grid(g_v) - hs.resample(g_v))
    if err >= eps:
        raise ApproximationBudgetError(f"verified error {err:.3e} >= eps = {eps:.3e}")
    log = dict(log, ring_defect=defect, constant=n_neg, error=err, eps=eps)
    return out, log


# ---------------------------------------------------------------------------
# from combinations to quotients

def quotient_from_combination(u, comb: PoissonCombination) -> BlaschkeQuotient:
    """Assemble the Blaschke quotient whose argument derivative is the combination.

    Numerator zeros are the positives, denominator zeros the negatives; the
    combination must have constant 0 (represent constants as kernels at the
    origin). The unimodular factor is chosen so the continuous argument at
    angle 0 equals u there.
    """
    if comb.constant != 0:
        raise ValueError("represent the constant as kernels at the origin first")
    u = _periodic(u)
    u0 = float(np.atleast_1d(u.value(0.0))[0])
    # Q(1) at sigma = 1 from the two products, so that the quotient is built once
    v0 = BlaschkeProduct.make(comb._positive_set)(1.0) / BlaschkeProduct.make(comb._negative_set)(1.0)
    sigma = np.exp(1j * (u0 - np.angle(v0)))
    return BlaschkeQuotient.make(comb._positive_set, comb._negative_set, sigma)


def measure_c1_error(u, Q: BlaschkeQuotient, g: int = MIN_VERIFY_GRID):
    """Grid-measured (sup |u - arg Q|, sup |u' - (arg Q)'|).

    The continuous branch of arg Q is aligned to u at angle 0 modulo 2*pi;
    for a winding-zero quotient the difference is periodic so grid sups are
    meaningful.
    """
    u = _periodic(u)
    theta = grid_theta(g)
    uvals = u.values_on_grid(g)
    duvals = u.derivative_on_grid(g)
    argvals = quotient_arg_grid(Q, g) - Q.degree_difference * theta
    off = uvals[0] - argvals[0]
    argvals = argvals + TWO_PI * round(off / TWO_PI)
    dvals = quotient_derivative_grid(Q, g) - Q.degree_difference
    return sup_norm(uvals - argvals), sup_norm(duvals - dvals)


@dataclass
class C1ApproxResult:
    blaschke: BlaschkeProduct
    n: int
    quotient: BlaschkeQuotient  # the map arg of which is the approximation
    sup_error: float
    derivative_error: float
    log: dict = field(default_factory=dict)

    @property
    def c1_error(self) -> float:
        return self.sup_error + self.derivative_error


def _fit_c1(u: PeriodicC1Function, eps_k: float, grid: int, tries: int, shrink: float,
            accept: Callable[[float, float], bool]):
    """Fit arg(B(zeta)/zeta^n) to u in C1, shrinking the kernel budget between tries.

    Each try approximates u' by a kernel sum at budget eps_k, builds the
    quotient of its zeros over zeta^n anchored to u and measures its C1 error
    on the verification grid; accept(sup_error, derivative_error) ends the
    search, else eps_k is multiplied by shrink. Returns the last try, its log
    holding eps_kernel and verify_grid, and whether it was accepted.
    """
    hs = u.as_series(grid).derivative()
    for _ in range(tries):
        comb, log = kernel_sum_approximation(hs, eps_k, grid)
        n = len(comb.positives)
        Q = quotient_from_combination(u, PoissonCombination.make(comb._positive_set, (0.0,) * n, 0))
        sup_e, der_e = measure_c1_error(u, Q, log["verify_grid"])
        fit = C1ApproxResult(Q.numerator, n, Q, sup_e, der_e, dict(log, eps_kernel=eps_k))
        if accept(sup_e, der_e):
            return fit, True
        eps_k *= shrink
    return fit, False


def approximate_c1(u, eps: float, grid: int = 4096) -> C1ApproxResult:
    """C1-approximate a smooth periodic function by arg(B(zeta)/zeta^n).

    n equals the degree of B. The kernel budget starts at eps/(pi+1), the
    factor the mean value theorem loses when integrating the derivative
    error, and halves if the measured C1 error still exceeds eps.
    """
    fit, ok = _fit_c1(_periodic(u), 0.98 * eps / (math.pi + 1.0), grid, 4, 0.5, lambda s, d: s + d < eps)
    if not ok:
        raise ApproximationBudgetError(
            f"C1 error {fit.c1_error:.3e} still above eps = {eps:.3e} after retries"
        )
    return fit


# ---------------------------------------------------------------------------
# circle homeomorphisms: lifts, mollification, uniform approximation

class CircleLift:
    """An increasing lift F with F(theta + 2 pi) = F(theta) + 2 pi.

    Stored through its periodic part psi = F - theta, a PeriodicC1Function:
    a trigonometric series in the smooth case (mollified lifts, quotients),
    else a vectorized callable (piecewise-linear, sampled or callable input).
    On uniform grids psi is read through psi.values_on_grid, which resamples
    a series exactly by FFT; value evaluates F at arbitrary angles.
    """

    def __init__(self, psi: PeriodicC1Function):
        self.psi = psi

    @classmethod
    def from_series(cls, series: TrigSeries) -> "CircleLift":
        return cls(PeriodicC1Function.from_series(series))

    @classmethod
    def from_breakpoints(cls, breakpoints: Sequence) -> "CircleLift":
        """Piecewise-linear lift through (theta, F) pairs spanning one period.

        Breakpoints must start at (t0, F0) and end at (t0 + 2 pi, F0 + 2 pi)
        and be strictly increasing in both coordinates.
        """
        pts = sorted((float(t), float(v)) for t, v in breakpoints)
        if not np.isfinite(pts).all():
            raise ValueError("breakpoints must be finite")
        ts = np.array([p[0] for p in pts])
        vs = np.array([p[1] for p in pts])
        if abs((ts[-1] - ts[0]) - TWO_PI) > 1e-12 or abs((vs[-1] - vs[0]) - TWO_PI) > 1e-12:
            raise ValueError("breakpoints must span exactly one period in both coordinates")
        if np.any(np.diff(ts) <= 0) or np.any(np.diff(vs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        return cls._interpolant(ts, vs)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "CircleLift":
        """Lift of a sampled sense-preserving circle map, linearly interpolated."""
        vals = np.asarray(values, dtype=complex)
        if not np.isfinite(vals).all():
            raise ValueError("samples must be finite")
        F = np.angle(vals[0]) + np.concatenate([[0.0], np.cumsum(phase_steps(vals)[:-1])])
        F = np.append(F, F[0] + TWO_PI)  # the exact turn, not the closing step
        theta = np.append(grid_theta(len(vals)), TWO_PI)
        if np.any(np.diff(F) < -1e-9):
            raise ValueError("samples are not a sense-preserving homeomorphism")
        return cls._interpolant(theta, F)

    @classmethod
    def _interpolant(cls, ts: np.ndarray, vs: np.ndarray) -> "CircleLift":
        """The piecewise-linear lift through (ts, vs), with ts spanning one period from ts[0]."""
        def psi(theta):
            theta = np.asarray(theta, dtype=float)
            tm = (theta - ts[0]) % TWO_PI + ts[0]
            return np.interp(tm, ts, vs) - tm

        return cls(PeriodicC1Function.from_callable(psi))

    @classmethod
    def from_quotient(cls, Q: BlaschkeQuotient) -> "CircleLift":
        """The lift of Q through the series of its argument on 8192 points."""
        if Q.degree_difference != 1:
            raise ValueError("a circle homeomorphism quotient needs degree difference 1")
        vals = quotient_arg_grid(Q, 8192) - grid_theta(8192)
        return cls.from_series(TrigSeries.from_samples(vals))

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta + self.psi.value(theta)

    def min_slope(self, g: int = 2**14) -> float:
        """Smallest slope of the secants of F over the closed grid of size g."""
        return _secant_slope(self.psi.values_on_grid(g))


def _secant_slope(psi: np.ndarray) -> float:
    """Smallest secant slope of theta + psi over the closed uniform grid of psi."""
    return 1.0 + float(np.min(np.roll(psi, -1) - psi)) * len(psi) / TWO_PI


def _bump_weights(eta: float, m: int) -> np.ndarray:
    """Normalized standard bump exp(-1/(1-x^2)) sampled on the circle grid."""
    idx = np.arange(m)
    s = ((idx + m // 2) % m - m // 2) * (TWO_PI / m)
    x = s / eta
    w = np.zeros(m)
    inside = np.abs(x) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    total = w.sum()
    if total == 0.0:
        raise ValueError("mollifier width below grid resolution")
    return w / total


def mollify_lift(F: CircleLift, eta: float) -> CircleLift:
    """Convolve the lift with a compactly supported even bump of width eta.

    The output is smooth with strictly positive derivative, and deviates from
    F by at most the modulus of continuity of F at eta.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    m = min(2**17, _next_pow2(max(4096, 64.0 * TWO_PI / eta)))
    psi = F.psi.values_on_grid(m)
    w = _bump_weights(eta, m)
    smooth = np.real(np.fft.ifft(np.fft.fft(psi) * np.fft.fft(w)))
    return CircleLift.from_series(TrigSeries.from_samples(smooth))


@dataclass
class HomeoApproxResult:
    quotient: BlaschkeQuotient
    direction: str
    sup_error: float
    certification: object
    log: dict = field(default_factory=dict)


def as_circle_lift(f) -> CircleLift:
    if isinstance(f, CircleLift):
        return f
    if isinstance(f, BlaschkeQuotient):
        return CircleLift.from_quotient(f)
    if hasattr(f, "values"):
        return CircleLift.from_samples(f.values)
    if callable(f):
        def psi(theta, _f=f):
            theta = np.asarray(theta, dtype=float)
            return np.asarray(_f(theta), dtype=float) - theta
        return CircleLift(PeriodicC1Function.from_callable(psi))
    raise TypeError("cannot interpret input as a circle homeomorphism")


def approximate_homeomorphism(f, eps: float, direction: str = "below",
                              grid: int = 4096) -> HomeoApproxResult:
    """Uniformly approximate a sense-preserving circle homeomorphism.

    direction="below" produces a certified diffeomorphism B(zeta)/zeta^{n-1}
    (Fourier support bounded below); direction="above" produces
    zeta^{n+1}/B(zeta) (support bounded above). The mollification width
    halves from 0.3 until the smoothed lift is within eps/2 of the input and
    keeps at least half its minimum slope; the kernel budget is then capped
    by both the remaining uniform budget and the derivative margin needed to
    keep the output a diffeomorphism.
    """
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    _check_eps(eps)
    lift = as_circle_lift(f)
    g_chk = MIN_VERIFY_GRID
    psi_raw = lift.psi.values_on_grid(g_chk)
    if not np.isfinite(psi_raw).all():
        raise ValueError("input lift is not finite on the grid")
    m0 = _secant_slope(psi_raw)
    if m0 <= 0:
        raise ValueError("input lift is not strictly increasing (not sense-preserving)")

    eta = 0.3
    while True:
        smooth = mollify_lift(lift, eta)
        psi_smooth = smooth.psi.values_on_grid(g_chk)
        moll_err = sup_norm(psi_smooth - psi_raw)
        margin = _secant_slope(psi_smooth)
        if moll_err <= eps / 2.0 and margin >= 0.5 * m0:
            break
        eta *= 0.5
        if eta < 1e-6:
            raise ApproximationBudgetError(
                f"mollification width fell below 1e-6 with deviation {moll_err:.3e} "
                f"and slope margin {margin:.3e}; input too wild for eps = {eps:.3e}"
            )

    psi_s = smooth.psi.series
    u = PeriodicC1Function.from_series(psi_s if direction == "below" else TrigSeries(-psi_s.coef))
    sup_budget = 0.8 * (eps - moll_err)
    eps_k = min(0.85 * margin, (math.pi + 1.0) * sup_budget)  # first try; shrunk on demand
    fit, ok = _fit_c1(u, eps_k, grid, 5, 0.4, lambda s, d: d < margin and s <= sup_budget)
    if not ok:
        raise ApproximationBudgetError("could not meet the uniform and derivative budgets")
    B = fit.blaschke
    Q = terminating_family_quotient(direction, B._zero_set,
                                    B.sigma if direction == "below" else np.conjugate(B.sigma))

    cert = certify_quotient(Q)
    if cert.verdict != DIFFEOMORPHISM:
        raise ApproximationBudgetError(
            f"assembled quotient failed certification: {cert.verdict} (margin {cert.margin:.3e})"
        )
    g_v = fit.log["verify_grid"]
    Fv = grid_theta(g_v) + (psi_raw if g_v == g_chk else lift.psi.values_on_grid(g_v))
    argQ = quotient_arg_grid(Q, g_v)
    sup_uniform = sup_norm(2.0 * np.sin((Fv - argQ) / 2.0))
    if sup_uniform >= eps:
        raise ApproximationBudgetError(
            f"measured uniform error {sup_uniform:.3e} >= eps = {eps:.3e}"
        )
    log = dict(fit.log, eta=eta, mollify_error=moll_err, slope_margin=margin, eps=eps,
               c1_sup=fit.sup_error, c1_derivative=fit.derivative_error,
               uniform_error=sup_uniform, degree=Q.numerator.degree)
    return HomeoApproxResult(Q, direction, sup_uniform, cert, log)
