"""Finite Blaschke products and their quotients.

A Blaschke product sigma * prod (z - z_k)/(1 - conj(z_k) z) with zeros in the
open disk maps the circle to itself with winding 2*pi*degree. On the circle,
the derivative of its argument is the sum of Poisson kernels at the zeros,
which makes quotients of two products the natural carrier for circle
homeomorphism checks.

Zeros are held as a read-only complex array, validated once when a product
is made. The approximation quotients B(zeta)/zeta^(n-1) and zeta^(n+1)/B(zeta)
carry their monomial as zeros at the origin; every grid evaluation splits
those off as an integer degree d, which adds d to the argument derivative,
d*theta to the argument, zeta^d to the values and nothing to any power sum
of order m >= 1, so the sums run over nonzero points only. On the uniform
circle grid of size g, the nonzero points have two evaluation paths. The
power-sum path expands the log-factors into the series
theta - 2 sum_m Im(T_m e^{-im theta})/m with T_m = sum_k z_k^m, evaluated by
one FFT; the power sums themselves are one blocked matrix product. The series
is a trigonometric polynomial up to a tail bounded in closed form, so it
scales to quotients with tens of thousands of zeros near the boundary. The
direct path sums Poisson kernels, factors or factor arguments, O(n*g). One
function, _plan, makes the split, sizes the series for each job and takes it
whenever it is affordable, on every grid; derivative_grid_error bounds the
derivative series' tail and rounding a priori for the certifier. Where the
series is unaffordable, the derivative and the values sum directly and the
argument uses the closed form 2 sum arg(1 - z_k e^{-i theta}), whose terms
are principal values in (-pi/2, pi/2) and so continuous on any grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math
from typing import Sequence

import numpy as np

from .disk import TWO_PI, _as_complex, disk_array, poisson_sum_grid

COMMON_ZERO_TOL = 1e-12
GRID_CAP = 2**20
_SERIES_TAIL_TOL = 1e-11
_U = 2.0**-53  # unit roundoff of float64
_BLOCK = 2**21  # complex numbers per power-sum temporary (32 MB)


class GridTooCoarseError(RuntimeError):
    """Adjacent samples moved by more than pi; the caller must refine."""


class WindingInconsistencyError(RuntimeError):
    """Integrated argument derivative is not near a multiple of 2*pi."""


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    zeros: np.ndarray  # read-only complex array, |z_k| < 1 - 1e-12
    sigma: complex

    @classmethod
    def make(cls, zeros=(), sigma=1.0) -> "BlaschkeProduct":
        s = _as_complex(sigma)
        if not 0.0 < abs(s) < math.inf:
            raise ValueError(f"sigma must be a finite nonzero number, got {s}")
        return cls(disk_array(zeros), s / abs(s))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z) -> complex:
        return evaluate(self, z)


@dataclass(frozen=True, eq=False)
class BlaschkeQuotient:
    numerator: BlaschkeProduct
    denominator: BlaschkeProduct

    @classmethod
    def make(cls, num_zeros=(), den_zeros=(), sigma=1.0) -> "BlaschkeQuotient":
        num = BlaschkeProduct.make(num_zeros, sigma)
        den = BlaschkeProduct.make(den_zeros, 1.0)
        q = cls(num, den)
        q._check_no_common_zero()
        return q

    def _check_no_common_zero(self):
        zn = np.unique(self.numerator.zeros)
        zd = np.unique(self.denominator.zeros)
        if len(zn) == 0 or len(zd) == 0:
            return
        # pseudo-hyperbolic distance below 1e-12 forces |z - w| < 2e-12, so a
        # sorted sweep over the merged deduplicated lists finds every candidate.
        merged = np.concatenate([zn, zd])
        labels = np.concatenate([np.zeros(len(zn), int), np.ones(len(zd), int)])
        order = np.lexsort((merged.imag, merged.real))
        merged, labels = merged[order], labels[order]
        for i in range(len(merged) - 1):
            j = i + 1
            while j < len(merged) and merged[j].real - merged[i].real < 5e-12:
                if labels[i] != labels[j] and abs(merged[i] - merged[j]) < 5e-12:
                    d = abs(merged[i] - merged[j]) / abs(1 - merged[i] * merged[j].conjugate())
                    if d < COMMON_ZERO_TOL:
                        raise ValueError(
                            f"numerator and denominator share a zero near {merged[i]}"
                        )
                j += 1

    @property
    def degree_difference(self) -> int:
        return self.numerator.degree - self.denominator.degree

    def __call__(self, z) -> complex:
        return evaluate(self.numerator, z) / evaluate(self.denominator, z)


def identity_quotient(sigma=1.0) -> BlaschkeQuotient:
    """The rotation sigma * zeta as a degree-1-over-0 quotient."""
    return BlaschkeQuotient.make([0.0], [], sigma)


def evaluate(B: BlaschkeProduct, z) -> complex:
    """Evaluate factor by factor (no polynomial expansion)."""
    z = _as_complex(z)
    zs = B.zeros
    return complex(B.sigma * np.prod((z - zs) / (1.0 - np.conj(zs) * z)))


def log_derivative_on_circle(B: BlaschkeProduct, zeta) -> complex:
    """zeta * B'(zeta)/B(zeta) by direct differentiation of the product."""
    z = _as_complex(zeta)
    zc = np.conj(B.zeros)
    return complex(z * np.sum(1.0 / (z - B.zeros) + zc / (1.0 - zc * z)))


def arg_derivative(B: BlaschkeProduct, zeta) -> float:
    """Derivative of arg B(e^{i theta}) at zeta: the Poisson-kernel sum over zeros."""
    zs = B.zeros
    d = _as_complex(zeta) - zs
    return float(np.sum((1.0 - (zs.real * zs.real + zs.imag * zs.imag))
                        / (d.real * d.real + d.imag * d.imag)))


def quotient_arg_derivative(Q: BlaschkeQuotient, zeta) -> float:
    """Argument derivative of the quotient; may be negative."""
    return arg_derivative(Q.numerator, zeta) - arg_derivative(Q.denominator, zeta)


# ---------------------------------------------------------------------------
# power-sum (moment) machinery

_POWER_CACHE: "OrderedDict[tuple, np.ndarray]" = None  # initialized below


def _power_sums_raw(pts: np.ndarray, M: int) -> np.ndarray:
    """T[m] = sum_k z_k^m for m = 0..M as T[qb + j] = sum_k (z_k^b)^q z_k^j.

    P holds z^1..z^b (one cumprod along each row), W holds z^0, z^b, z^2b, ...
    (one cumprod down the columns, chunked over its rows and continued from
    the last row), and each chunk of T is the product W @ P. The points are
    summed in groups of G = ceil(sqrt(n)), one product per group added in
    turn, so a sum carries at most G + n/G additions, not n (the rounding
    this leaves is bounded in derivative_grid_error). P and each chunk of W
    hold at most _BLOCK complex numbers (32 MB).
    """
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


def power_sums(points: Sequence[complex], M: int) -> np.ndarray:
    """T[m] = sum_k z_k^m for m = 0..M (T[0] = number of points).

    Results are cached by content hash: the certification and approximation
    paths ask for the same large point sets repeatedly.
    """
    global _POWER_CACHE
    pts = np.ascontiguousarray(points, dtype=complex)
    if len(pts) * M < 1_000_000:
        return _power_sums_raw(pts, M)
    if _POWER_CACHE is None:
        from collections import OrderedDict

        _POWER_CACHE = OrderedDict()
    import hashlib

    key = (len(pts), hashlib.sha1(pts.tobytes()).digest())
    hit = _POWER_CACHE.get(key)
    if hit is not None and len(hit) >= M + 1:
        _POWER_CACHE.move_to_end(key)
        return hit[: M + 1]
    out = _power_sums_raw(pts, M)
    _POWER_CACHE[key] = out
    _POWER_CACHE.move_to_end(key)
    while len(_POWER_CACHE) > 12:
        _POWER_CACHE.popitem(last=False)
    return out


def _plan(pos, neg, job: str):
    """How to evaluate a signed sum over pos and neg on a uniform grid.

    Returns (zp, zn, d, M). Exact zeros at the origin are split off as the
    monomial degree d (their count in pos minus their count in neg), so zp
    and zn hold only nonzero points. M is the order of the power-sum series,
    sized for the job from the max radius r over the n nonzero points:
    * "arg" (argument and values): 2 n r^(M+1) <= tol, which bounds the tail
      2 sum_{m>M} |S_m|/m <= 2 n r^(M+1)/((M+1)(1-r)) by tol, as
      (M+1)(1-r) >= 1 for every such M;
    * "derivative": 2 n r^(M+1)/(1-r) <= tol, the tail 2 sum_{m>M} |S_m|;
    * "slope": the "arg" order at tol 1e-9, stretched to int(1.2 M) + 8 for
      the m|S_m| weights of the slope bound, whose tail is summed exactly.
    Every job takes the series when it is affordable, whatever the grid; a
    series with n*M > 2e9 or M > 2^22 is not, and gives M = 0 (direct sums).
    """
    zp = np.asarray(pos, dtype=complex)
    zn = np.asarray(neg, dtype=complex)
    d = len(zp) - len(zn)
    zp, zn = zp[zp != 0], zn[zn != 0]
    d -= len(zp) - len(zn)
    n = len(zp) + len(zn)
    if n == 0:
        return zp, zn, d, 0
    r = max(np.abs(zp).max(initial=0.0), np.abs(zn).max(initial=0.0))
    tol = 1e-9 if job == "slope" else _SERIES_TAIL_TOL
    if job == "derivative":
        tol *= 1.0 - r
    M = int(math.ceil(math.log(max(2.0 * n / tol, 4.0)) / -math.log(r))) + 1
    if job == "slope":
        M = int(M * 1.2) + 8
    return zp, zn, d, (M if n * M <= 2_000_000_000 and M <= 2**22 else 0)


def _fft_size(g: int, M: int) -> int:
    """The FFT size g * 2^k > M + 1 on which _series_on_grid places M coefficients."""
    ge = g
    while ge < M + 2:
        ge *= 2
    return ge


def _series_on_grid(coeffs: np.ndarray, g: int) -> np.ndarray:
    """sum_{m=1..M} coeffs[m-1] e^{-i m theta_j} on the uniform grid of size g.

    One FFT places the coefficients at indices 1..M of a grid g * 2^k > M + 1,
    so no frequency folds, and keeps every 2^k-th value.
    """
    M = len(coeffs)
    ge = _fft_size(g, M)
    c = np.zeros(ge, dtype=complex)
    c[1 : M + 1] = coeffs
    return np.fft.fft(c)[:: ge // g]


def _signed_power_sums(pos: np.ndarray, neg: np.ndarray, M: int) -> np.ndarray:
    """S_m = sum z_k^m - sum w_k^m for m = 1..M."""
    return power_sums(pos, M)[1:] - power_sums(neg, M)[1:]


def _arg_sum_grid(points: np.ndarray, g: int) -> np.ndarray:
    """sum_k 2 arg(1 - z_k e^{-i theta_j}) on the grid, chunked over points.

    Each term is a principal value in (-pi/2, pi/2), so the sum is continuous
    in theta however coarse the grid.
    """
    conj_zeta = np.exp(-1j * np.arange(g) * (TWO_PI / g))
    out = np.zeros(g)
    chunk = max(1, int(4e6 // g))
    for i in range(0, len(points), chunk):
        out += np.angle(1.0 - points[i : i + chunk, None] * conj_zeta).sum(axis=0)
    return 2.0 * out


def poisson_sum_signed_grid(pos, neg, g: int) -> np.ndarray:
    """sum_k P(z_k, .) - sum_k P(w_k, .) on the grid, one moment pass for both.

    A point at the origin has the kernel 1, so it only shifts the sum.
    """
    zp, zn, d, M = _plan(pos, neg, "derivative")
    if M:
        return (len(zp) - len(zn) + d) + 2.0 * _series_on_grid(_signed_power_sums(zp, zn, M), g).real
    out = np.full(g, float(d))
    if len(zp):
        out += poisson_sum_grid(zp, g)
    if len(zn):
        out -= poisson_sum_grid(zn, g)
    return out


def quotient_derivative_grid(Q: BlaschkeQuotient, g: int) -> np.ndarray:
    """Argument derivative of the quotient on the uniform grid of size g."""
    return poisson_sum_signed_grid(Q.numerator.zeros, Q.denominator.zeros, g)


def derivative_grid_error(Q: BlaschkeQuotient, g: int) -> float:
    """A-priori bound on the error of quotient_derivative_grid(Q, g).

    0.0 when the grid is summed directly. The series path computes
    c + 2 Re sum_{m<=M} S_m e^{-i m theta} with c = n_z - n_w + d; with r_k
    the radii of the nonzero points, u = 2^-53, s1 = sum_k r_k/(1-r_k) >=
    sum_m |S_m| and s2 = sum_k r_k/(1-r_k)^2 = sum_k sum_m m r_k^m, its
    error has three parts:
    * the tail 2 sum_{m>M} |S_m| <= 2 sum_k r_k^(M+1)/(1-r_k), below the
      series tolerance by the order _plan chose;
    * rounding in S_m. _power_sums_raw forms z^m as W[q] P[j] from a chain
      of m - 1 complex products, each off by under 3u relatively (sqrt(2)
      gamma_2, Higham section 3.6). The product W @ P sums groups of G <=
      sqrt(n) + 1 points; a complex dot product of length G is two real ones
      of length 2G, off by sqrt(2) gamma_2G < 2.83 G u times sum |terms|
      however the BLAS orders them. Adding up the n/G <= sqrt(n) + 1 group
      sums and forming S = T_pos - T_neg add one u per addition. So
      |dS_m| <= u (3m + 4 sqrt(n) + 4) sum_k r_k^m, with n the larger
      side's count, and the grid is off by at most 2 sum_m |dS_m| =
      2u (3 s2 + (4 sqrt(n) + 4) s1);
    * the FFT. Higham section 24.1 bounds each butterfly stage by
      eta = mu + gamma_4 (sqrt(2) + mu) < 7u relatively, mu = u for the
      weights; taken componentwise, an output of t = log2 N stages whose
      weights have modulus one is off by at most ((1 + eta)^t - 1)
      sum_m |S_m|, doubled by 2 Re. Adding c rounds once more, by at most
      u (|c| + 2 s1).
    The factor 1.05 covers the second-order terms and the rounding of r_k.
    t = ceil(log2 N) counts the stages of power-of-two sizes N, the ones
    the CLI asks for and the pipeline uses; other sizes are not covered.
    """
    zp, zn, d, M = _plan(Q.numerator.zeros, Q.denominator.zeros, "derivative")
    if not M:
        return 0.0
    r = np.abs(np.concatenate([zp, zn]))
    s1 = float(np.sum(r / (1.0 - r)))
    s2 = float(np.sum(r / (1.0 - r) ** 2))
    tail = 2.0 * float(np.sum(r ** (M + 1) / (1.0 - r)))
    power = 2.0 * _U * (3.0 * s2 + (4.0 * math.sqrt(max(len(zp), len(zn))) + 4.0) * s1)
    t = (_fft_size(g, M) - 1).bit_length()
    fft = 2.0 * 7.0 * t * _U * s1 + _U * (abs(len(zp) - len(zn) + d) + 2.0 * s1)
    return 1.05 * (tail + power + fft)


def quotient_arg_grid(Q: BlaschkeQuotient, g: int) -> np.ndarray:
    """Continuous argument of Q(e^{i theta_j}) on the uniform grid.

    arg sigma + (degree difference) theta plus the nonzero points' part: the
    log-series when it is affordable, else the closed form 2 sum arg(1 - z_k
    e^{-i theta}) - 2 sum arg(1 - w_k e^{-i theta}). Both are continuous
    branches on any grid. Anchored so that the value at theta = 0 is the
    principal argument of Q(1).
    """
    zp, zn, _, M = _plan(Q.numerator.zeros, Q.denominator.zeros, "arg")
    if M:
        core = -2.0 * _series_on_grid(_signed_power_sums(zp, zn, M) / np.arange(1, M + 1), g).imag
    else:
        core = _arg_sum_grid(zp, g) - _arg_sum_grid(zn, g)
    theta = np.arange(g) * (TWO_PI / g)
    sigma_arg = cmath.phase(Q.numerator.sigma / Q.denominator.sigma)
    vals = sigma_arg + Q.degree_difference * theta + core
    # reduce the anchor to the principal branch at theta = 0
    shift = vals[0] - math.remainder(vals[0], TWO_PI)
    vals = vals - shift
    if vals[0] > math.pi:
        vals -= TWO_PI
    return vals


def quotient_values_grid(Q: BlaschkeQuotient, g: int) -> np.ndarray:
    """Samples Q(e^{2 pi i j / g}); unimodular up to rounding."""
    zp, zn, d, M = _plan(Q.numerator.zeros, Q.denominator.zeros, "arg")
    if M:
        return np.exp(1j * quotient_arg_grid(Q, g))
    zeta = np.exp(1j * np.arange(g) * (TWO_PI / g))
    out = np.full(g, complex(Q.numerator.sigma / Q.denominator.sigma), dtype=complex)
    if d:
        # zeta_j^d from the exact index d*j mod g
        out *= np.exp(1j * (TWO_PI / g) * (d * np.arange(g) % g))
    for zk in zp:
        out *= (zeta - zk) / (1.0 - np.conjugate(zk) * zeta)
    for wk in zn:
        out *= (1.0 - np.conjugate(wk) * zeta) / (zeta - wk)
    return out


def derivative_lipschitz_pointwise(Q: BlaschkeQuotient) -> float:
    """Certified bound on |d/dtheta of the argument derivative|, per-point form.

    Each zero or pole at radius r contributes 2r(1+r)/(1-r)^3, from bounding
    |d/dtheta |zeta-z|^2| <= 2r and |zeta-z| >= 1-r. Coarse but rigorous.
    """
    out = 0.0
    for zs in (Q.numerator.zeros, Q.denominator.zeros):
        if len(zs):
            r = np.abs(zs)
            out += float(np.sum(2.0 * r * (1.0 + r) / (1.0 - r) ** 3))
    return out


def derivative_lipschitz_moment(Q: BlaschkeQuotient):
    """Certified bound 2*sum_m m|S_m| + tail on the derivative's theta-slope.

    S_m = sum z_k^m - sum w_k^m, to which zeros at the origin add nothing.
    The tail over m > M is bounded by the exact geometric formula per point;
    M is the series order for tails below 1e-9, stretched for the m weights. Returns
    (bound, M). Falls back to the per-point bound (returning M = 0) when the
    series would be too long to be worth it.
    """
    zp, zn, _, M = _plan(Q.numerator.zeros, Q.denominator.zeros, "slope")
    if not M:
        return derivative_lipschitz_pointwise(Q), 0
    S = _signed_power_sums(zp, zn, M)
    m = np.arange(1, M + 1)
    bound = 2.0 * float(np.sum(m * np.abs(S)))
    # tail: 2 * sum_k sum_{m>M} m r^m = 2 * sum_k r^{M+1}((M+1) - M r)/(1-r)^2
    r = np.abs(np.concatenate([zp, zn]))
    tail = 2.0 * float(np.sum(r ** (M + 1) * ((M + 1) - M * r) / (1.0 - r) ** 2))
    return bound + tail, M


# ---------------------------------------------------------------------------
# winding and continuous argument

def winding(Q: BlaschkeQuotient, grid_size: int = 4096) -> float:
    """Total change of arg Q around the circle, a multiple of 2*pi.

    Integrates the argument derivative on a grid and rounds to the nearest
    multiple of 2*pi, checking agreement with the degree count to 1e-6 and
    refusing if the integral sits farther than 0.1 from any multiple.
    """
    expected = Q.degree_difference
    g = grid_size
    while True:
        integral = float(np.mean(quotient_derivative_grid(Q, g))) * TWO_PI
        k = round(integral / TWO_PI)
        if abs(integral - TWO_PI * expected) <= 1e-6 and k == expected:
            return TWO_PI * k
        if g >= GRID_CAP:
            if abs(integral - TWO_PI * k) > 0.1:
                raise WindingInconsistencyError(
                    f"integrated winding {integral:.6f} not near a multiple of 2*pi"
                )
            raise WindingInconsistencyError(
                f"integrated winding {integral / TWO_PI:.9f} turns, degree count {expected}"
            )
        g *= 2


def continuous_arg(Q: BlaschkeQuotient, grid_size: int):
    """Unwrapped argument of Q on [0, 2*pi] inclusive.

    Returns (theta, values) with grid_size + 1 samples; values[-1] - values[0]
    equals the winding. Raises GridTooCoarseError when adjacent samples jump
    by pi or more, in which case the caller should refine the grid.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    vals = quotient_values_grid(Q, grid_size)
    phases = np.angle(vals)
    d = np.diff(np.concatenate([phases, phases[:1]]))
    d = (d + np.pi) % TWO_PI - np.pi
    if np.any(np.abs(d) >= np.pi * (1 - 1e-9)):
        raise GridTooCoarseError("adjacent samples differ by pi or more; refine the grid")
    theta = np.linspace(0.0, TWO_PI, grid_size + 1)
    out = np.empty(grid_size + 1)
    out[0] = phases[0]
    out[1:] = phases[0] + np.cumsum(d)
    # a whole turn between samples wraps to nearly zero and evades the jump
    # check; the endpoint-vs-winding mismatch exposes it
    if abs((out[-1] - out[0]) - TWO_PI * Q.degree_difference) > 1e-6:
        raise GridTooCoarseError(
            "unwrapped argument misses turns (endpoint does not match the winding)"
        )
    return theta, out


def continuous_arg_auto(Q: BlaschkeQuotient, grid_size: int = 4096):
    """continuous_arg with automatic doubling up to the 2^20 grid cap."""
    g = grid_size
    while True:
        try:
            return continuous_arg(Q, g)
        except GridTooCoarseError:
            if g >= GRID_CAP:
                raise
            g *= 2
