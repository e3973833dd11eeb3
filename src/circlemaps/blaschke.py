"""Finite Blaschke products and their quotients.

A Blaschke product sigma * prod (z - z_k)/(1 - conj(z_k) z) with zeros in the
open disk maps the circle to itself with winding 2*pi*degree. On the circle,
the derivative of its argument is the sum of Poisson kernels at the zeros,
which makes quotients of two products the natural carrier for circle
homeomorphism checks.

Each product validates its zeros once into a _ZeroSet, shared by the
products and combinations built from the same zeros. It splits off the zeros
at the origin, where the approximation quotients B(zeta)/zeta^(n-1) and
zeta^(n+1)/B(zeta) carry their monomial, as an integer degree d: it adds d
to the argument derivative, d*theta to the argument and nothing to any power
sum of order m >= 1. On the uniform circle grid of size g, the nonzero
points have two evaluation paths. The power-sum path expands the log-factors
into the series theta - 2 sum_m Im(T_m e^{-im theta})/m with T_m = sum_k
z_k^m; on g points the series folds into g bins, so each grid is one FFT of
size g, whatever the series order. The power sums are one blocked matrix
product per zero set, at the largest order any job asks of it, with no
cache. The series is a trigonometric polynomial up to a tail bounded in
closed form, so it scales to quotients with tens of thousands of zeros near
the boundary. _plan sizes the series for each job and takes it whenever it
is affordable, on every grid; derivative_grid_error bounds the derivative
series' tail and rounding a priori for the certifier. Where the series is
unaffordable, the direct path takes O(n*g) work: the derivative sums Poisson
kernels and the argument uses the closed form 2 sum arg(1 - z_k e^{-i
theta}), whose terms are principal values in (-pi/2, pi/2) and so
continuous on any grid. The values are e^{i arg} on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math
from typing import Sequence

import numpy as np

from .disk import TWO_PI, _as_complex, disk_array, poisson_sum_grid, pseudo_distances

COMMON_ZERO_TOL = 1e-12
GRID_CAP = 2**20
_SERIES_TAIL_TOL = 1e-11
_U = 2.0**-53  # unit roundoff of float64
_BLOCK = 2**21  # complex numbers per power-sum temporary (32 MB)
_BLOCK_FOLD = 2**16  # coefficients per block of a series folded onto a smaller grid (1 MB)


class GridTooCoarseError(RuntimeError):
    """Adjacent samples moved by more than pi; the caller must refine."""


class _ZeroSet:
    """A validated zero array and what the series read from it, each taken once."""

    def __init__(self, zeros: np.ndarray):
        self.zeros = zeros
        self.points = zeros[zeros != 0]
        self.at_origin = len(zeros) - len(self.points)
        self.radius = float(np.abs(self.points).max(initial=0.0))
        self.sums = np.zeros(1, dtype=complex)


def _as_zero_set(zeros) -> _ZeroSet:
    """zeros itself if it is a _ZeroSet, else a holder of the validated points."""
    return zeros if isinstance(zeros, _ZeroSet) else _ZeroSet(disk_array(zeros))


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    zeros: np.ndarray  # read-only complex array, |z_k| < 1 - 1e-12
    sigma: complex
    _zero_set: _ZeroSet = field(repr=False)

    @classmethod
    def make(cls, zeros=(), sigma=1.0) -> "BlaschkeProduct":
        """zeros are disk points, or another product's _ZeroSet to share."""
        s = _as_complex(sigma)
        if not 0.0 < abs(s) < math.inf:
            raise ValueError(f"sigma must be a finite nonzero number, got {s}")
        zs = _as_zero_set(zeros)
        return cls(zs.zeros, s / abs(s), zs)

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
        # one stable sort by real, then imaginary part puts a numerator zero
        # before an equal denominator zero; keep the first of each on its side
        z = np.concatenate([self.numerator.zeros, self.denominator.zeros])
        order = np.argsort(z, kind="stable")
        z, side = z[order], order >= self.numerator.degree
        keep = np.ones(len(z), dtype=bool)
        keep[1:] = (z[1:] != z[:-1]) | (side[1:] != side[:-1])
        z, side = z[keep], side[keep]
        # a pseudo-hyperbolic distance below 1e-12 forces |z - w| < 2e-12; pair
        # sorted entries d apart until no real parts d apart differ by < 5e-12
        hits = []
        p = np.arange(len(z))
        for d in range(1, len(z)):
            p = p[p < len(z) - d]
            p = p[z[p + d].real - z[p].real < 5e-12]
            if len(p) == 0:
                break
            k = p[(side[p] != side[p + d]) & (np.abs(z[p] - z[p + d]) < 5e-12)]
            hits.extend(k[pseudo_distances(z[k], z[k + d]) < COMMON_ZERO_TOL])
        if hits:
            raise ValueError(f"numerator and denominator share a zero near {z[min(hits)]}")

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

def power_sums(points: Sequence[complex], M: int) -> np.ndarray:
    """T[m] = sum_k z_k^m for m = 0..M (T[0] = n) as T[qb + j] = sum_k (z_k^b)^q z_k^j.

    No cache: _signed_power_sums calls this once per zero set. P holds
    z^1..z^b (one cumprod along each row), W holds z^0, z^b, z^2b, ... (one
    cumprod down the columns, chunked over its rows and continued from the
    last row), and each chunk of T is the product W @ P. The points are
    summed in groups of G = ceil(sqrt(n)), one product per group added in
    turn, so a sum carries at most G + n/G additions, not n (the rounding
    this leaves is bounded in derivative_grid_error). P and each chunk of W
    hold at most _BLOCK complex numbers (32 MB). Once a row of W underflows
    to 0, every later row is 0 too: the products stop at the last nonzero
    row, and the rest of T keeps the +0 that they would give (each T starts
    from +0, so that a sum of -0.0 products is +0.0 wherever it falls). A
    set whose powers never underflow is summed to order M.
    """
    pts = np.ascontiguousarray(points, dtype=complex)
    out = np.zeros(M + 1, dtype=complex)
    n = len(pts)
    out[0] = n
    if n == 0 or M == 0:
        return out
    b = min(M, 128, max(1, _BLOCK // n))
    P = np.empty((n, b), dtype=complex)
    P[:] = pts[:, None]
    np.cumprod(P, axis=1, out=P)
    zb = P[:, -1]
    G = math.isqrt(n - 1) + 1
    rows = -(-M // b)
    step = max(1, _BLOCK // n)
    first = np.ones(n, dtype=complex)
    for q0 in range(0, rows, step):
        W = np.empty((min(step, rows - q0), n), dtype=complex)
        W[0] = first
        if len(W) > 1:
            W[1:] = zb
            np.cumprod(W, axis=0, out=W)
        first = W[-1] * zb
        underflow = not first.any()
        if underflow:
            # keep two rows, as the whole W had: numpy sends a one-row product to
            # a vector product, which rounds differently
            W = W[: max(2, np.count_nonzero(W.any(axis=1)))]
        T = np.zeros((len(W), b), dtype=complex)
        for s in range(0, n, G):
            T += W[:, s : s + G] @ P[s : s + G]
        lo = 1 + q0 * b
        out[lo : lo + T.size] = T.ravel()[: M + 1 - lo]
        if underflow:
            break
    return out


def _plan(pos, neg, job: str):
    """How to evaluate a signed sum over pos and neg on a uniform grid.

    pos and neg are zero sets or disk points. Returns (p, q, d, M): their
    zero sets, the monomial degree d (zeros at the origin in pos minus those
    in neg) and the order M of the power-sum series, sized for the job from
    the max radius r over the n nonzero points:
    * "arg" (argument and values): 2 n r^(M+1) <= tol, which bounds the tail
      2 sum_{m>M} |S_m|/m <= 2 n r^(M+1)/((M+1)(1-r)) by tol, as
      (M+1)(1-r) >= 1 for every such M;
    * "derivative": 2 n r^(M+1)/(1-r) <= tol, the tail 2 sum_{m>M} |S_m|;
    * "slope": the "arg" order at tol 1e-9, stretched to int(1.2 M) + 8 for
      the m|S_m| weights of the slope bound, whose tail is summed exactly.
    Every job takes the series when it is affordable, whatever the grid; a
    series with n*M > 2e9 or M > 2^22 is not, and gives M = 0 (direct sums).
    """
    p, q = _as_zero_set(pos), _as_zero_set(neg)
    d = p.at_origin - q.at_origin
    n = len(p.points) + len(q.points)
    if n == 0:
        return p, q, d, 0
    r = max(p.radius, q.radius)
    tol = 1e-9 if job == "slope" else _SERIES_TAIL_TOL
    if job == "derivative":
        tol *= 1.0 - r
    M = int(math.ceil(math.log(max(2.0 * n / tol, 4.0)) / -math.log(r))) + 1
    if job == "slope":
        M = int(M * 1.2) + 8
    return p, q, d, (M if n * M <= 2_000_000_000 and M <= 2**22 else 0)


def _series_on_grid(coeffs: np.ndarray, g: int) -> np.ndarray:
    """sum_{m=1..M} coeffs[m-1] e^{-i m theta_j} on the uniform grid of size g.

    On g points e^{-i m theta_j} depends on m mod g only, so coefficient m
    goes to bin m mod g: the bins are the column sums of the ceil((M+1)/g)
    rows of length g that the coefficients fill in order, exactly the series
    on the grid (trapezoid-rule aliasing). One FFT of size g reads them; when
    M + 1 <= g the single row goes to it unchanged. Longer series are folded
    from slices, about _BLOCK_FOLD coefficients at a time, each block stacked
    under the bins so far and summed down its columns, so the rows add in
    order and the series is never copied whole.
    """
    M = len(coeffs)
    c = np.zeros(g, dtype=complex)
    c[1 : M + 1] = coeffs[: g - 1]
    k = max(1, _BLOCK_FOLD // g)  # rows per block
    for i in range(g - 1, M, k * g):
        block = coeffs[i : i + k * g]
        rows = np.zeros((1 + -(-len(block) // g), g), dtype=complex)
        rows[0] = c
        rows[1:].reshape(-1)[: len(block)] = block
        c = rows.sum(axis=0)
    return np.fft.fft(c)


def _signed_power_sums(p: _ZeroSet, q: _ZeroSet, M: int) -> np.ndarray:
    """S_m = sum z_k^m - sum w_k^m for m = 1..M."""
    if len(p.sums) <= M or len(q.sums) <= M:
        # a set short of order M computes its sums to the largest order any job asks of the pair
        order = max(_plan(p, q, job)[3] for job in ("derivative", "arg", "slope"))
        for zs in (p, q):
            if len(zs.sums) <= M:
                zs.sums = power_sums(zs.points, order)
    return p.sums[1 : M + 1] - q.sums[1 : M + 1]


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
    p, q, d, M = _plan(pos, neg, "derivative")
    if M:
        out = 2.0 * _series_on_grid(_signed_power_sums(p, q, M), g).real
        out += len(p.zeros) - len(q.zeros)
        return out
    out = np.full(g, float(d))
    if len(p.points):
        out += poisson_sum_grid(p.points, g)
    if len(q.points):
        out -= poisson_sum_grid(q.points, g)
    return out


def quotient_derivative_grid(Q: BlaschkeQuotient, g: int) -> np.ndarray:
    """Argument derivative of the quotient on the uniform grid of size g."""
    return poisson_sum_signed_grid(Q.numerator._zero_set, Q.denominator._zero_set, g)


def derivative_grid_error(Q: BlaschkeQuotient, g: int) -> float:
    """A-priori bound on the error of quotient_derivative_grid(Q, g).

    0.0 when the grid is summed directly. The series path computes
    c + 2 Re sum_{m<=M} S_m e^{-i m theta} with c = n_z - n_w + d; with r_k
    the radii of the nonzero points, u = 2^-53, s1 = sum_k r_k/(1-r_k) >=
    sum_m |S_m| and s2 = sum_k r_k/(1-r_k)^2 = sum_k sum_m m r_k^m, its
    error has three parts:
    * the tail 2 sum_{m>M} |S_m| <= 2 sum_k r_k^(M+1)/(1-r_k), below the
      series tolerance by the order _plan chose;
    * rounding in S_m. power_sums forms z^m as W[q] P[j] from a chain
      of m - 1 complex products, each off by under 3u relatively (sqrt(2)
      gamma_2, Higham section 3.6). The product W @ P sums groups of G <=
      sqrt(n) + 1 points; a complex dot product of length G is two real ones
      of length 2G, off by sqrt(2) gamma_2G < 2.83 G u times sum |terms|
      however the BLAS orders them. Adding up the n/G <= sqrt(n) + 1 group
      sums and forming S = T_pos - T_neg add one u per addition. So
      |dS_m| <= u (3m + 4 sqrt(n) + 4) sum_k r_k^m, with n the larger
      side's count, and the grid is off by at most 2 sum_m |dS_m| =
      2u (3 s2 + (4 sqrt(n) + 4) s1);
    * the fold and the FFT. _series_on_grid adds the coefficients into g
      bins, rows - 1 additions per bin with rows = ceil((M+1)/g), each off
      by at most u of its result, so the bins' errors sum to at most
      (rows - 1) u sum_m |S_m|, and an output, a sum of the bins with
      weights of modulus one, carries no more of it. Higham section 24.1
      bounds each butterfly stage by eta = mu + gamma_4 (sqrt(2) + mu) < 7u
      relatively, mu = u for the weights; taken componentwise, an output of
      the t = log2 g stages is off by at most ((1 + eta)^t - 1) times the
      bins' sum of moduli, itself at most sum_m |S_m|. Both are doubled by
      2 Re. Adding c rounds once more, by at most u (|c| + 2 s1).
    The factor 1.05 covers the second-order terms and the rounding of r_k.
    t = ceil(log2 g) counts the stages of power-of-two grids, the ones the
    CLI asks for and the pipeline uses; other sizes are not covered.
    """
    p, q, _, M = _plan(Q.numerator._zero_set, Q.denominator._zero_set, "derivative")
    if not M:
        return 0.0
    r = np.abs(np.concatenate([p.points, q.points]))
    w = 1.0 - r
    s1 = float((r / w).sum())
    s2 = float((r / w**2).sum())
    tail = 2.0 * float((r ** (M + 1) / w).sum())
    power = 2.0 * _U * (3.0 * s2 + (4.0 * math.sqrt(max(len(p.points), len(q.points))) + 4.0) * s1)
    t = (g - 1).bit_length()
    rows = -(-(M + 1) // g)
    fft = 2.0 * (7.0 * t + rows - 1) * _U * s1 + _U * (abs(len(p.zeros) - len(q.zeros)) + 2.0 * s1)
    return 1.05 * (tail + power + fft)


def quotient_arg_grid(Q: BlaschkeQuotient, g: int) -> np.ndarray:
    """Continuous argument of Q(e^{i theta_j}) on the uniform grid.

    arg sigma + (degree difference) theta plus the nonzero points' part: the
    log-series when it is affordable, else the closed form 2 sum arg(1 - z_k
    e^{-i theta}) - 2 sum arg(1 - w_k e^{-i theta}). Both are continuous
    branches on any grid. Anchored so that the value at theta = 0 is the
    principal argument of Q(1).
    """
    p, q, _, M = _plan(Q.numerator._zero_set, Q.denominator._zero_set, "arg")
    if M:
        S = _signed_power_sums(p, q, M)
        S /= np.arange(1, M + 1)
        core = _series_on_grid(S, g).imag
        core *= -2.0
    else:
        core = _arg_sum_grid(p.points, g)
        core -= _arg_sum_grid(q.points, g)
    # sigma_arg + d * theta + core, built in place
    vals = np.arange(g) * (TWO_PI / g)
    vals *= Q.degree_difference
    vals += cmath.phase(Q.numerator.sigma / Q.denominator.sigma)
    vals += core
    # reduce the anchor to the principal branch at theta = 0
    vals -= vals[0] - math.remainder(vals[0], TWO_PI)
    if vals[0] > math.pi:
        vals -= TWO_PI
    return vals


def quotient_values_grid(Q: BlaschkeQuotient, g: int) -> np.ndarray:
    """Samples Q(e^{2 pi i j / g}) as e^{i quotient_arg_grid}; unimodular up to rounding."""
    return np.exp(1j * quotient_arg_grid(Q, g))


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
    (bound, M). Falls back to the per-point bound (returning M = 0) when _plan
    finds the series unaffordable.
    """
    p, q, _, M = _plan(Q.numerator._zero_set, Q.denominator._zero_set, "slope")
    if not M:
        return derivative_lipschitz_pointwise(Q), 0
    mS = np.abs(_signed_power_sums(p, q, M))
    mS *= np.arange(1, M + 1)
    bound = 2.0 * float(mS.sum())
    # tail: 2 * sum_k sum_{m>M} m r^m = 2 * sum_k r^{M+1}((M+1) - M r)/(1-r)^2
    r = np.abs(np.concatenate([p.points, q.points]))
    tail = 2.0 * float((r ** (M + 1) * ((M + 1) - M * r) / (1.0 - r) ** 2).sum())
    return bound + tail, M


# ---------------------------------------------------------------------------
# winding and continuous argument

def winding(Q: BlaschkeQuotient) -> float:
    """Total change of arg Q around the circle: 2*pi times the degree difference.

    Every zero and pole lies in the open disk, so by the argument principle
    the count is exact.
    """
    return TWO_PI * Q.degree_difference


def continuous_arg(Q: BlaschkeQuotient, grid_size: int):
    """Continuous argument of Q on [0, 2*pi] inclusive.

    Returns (theta, values) with grid_size + 1 samples: quotient_arg_grid,
    closed by values[0] + 2*pi * (degree difference). Raises
    GridTooCoarseError when two adjacent values differ by pi or more, in which
    case the caller should refine the grid.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    vals = quotient_arg_grid(Q, grid_size)
    out = np.append(vals, vals[0] + TWO_PI * Q.degree_difference)
    _refuse_coarse_steps(np.diff(out))
    return np.linspace(0.0, TWO_PI, grid_size + 1), out


def _refuse_coarse_steps(steps) -> None:
    """Raise GridTooCoarseError if an argument step between adjacent samples reaches pi."""
    if np.any(np.abs(steps) >= np.pi * (1 - 1e-9)):
        raise GridTooCoarseError("adjacent samples differ by pi or more; refine the grid")


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
