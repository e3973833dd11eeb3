"""Certified homeomorphism/diffeomorphism decisions for Blaschke quotients.

A quotient of Blaschke products is a circle homeomorphism exactly when its
degree difference is one and the argument derivative (a signed sum of Poisson
kernels) is nonnegative; strict positivity gives a diffeomorphism. The grid
certifier combines a sampled minimum with a certified Lipschitz bound on the
derivative's slope, so a positive verdict carries a margin that is a true
lower bound of the minimum, not a heuristic grid value.

The certified slope bound is derivative_lipschitz_moment: the power-sum
bound 2 sum_m m|S_m| plus a closed-form geometric tail, which captures the
cancellation in large near-boundary configurations (ring constructions),
and the per-point bound sum 2r(1+r)/(1-r)^3 over zeros and poles where the
series is unaffordable. Where the series exists the per-point bound is never
the smaller: |S_m| <= sum_k r_k^m caps the moment bound at
sum_k 2r_k/(1-r_k)^2, below each point's 2r_k(1+r_k)/(1-r_k)^3.

Boundary cases with true minimum exactly zero are undecidable by grids; only
the closed-form certifier for the quadratic-over-one-factor family reports
HomeomorphismBoundary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math
from typing import Optional, Sequence

import numpy as np

from .disk import TWO_PI, as_disk, disk_array, pseudo_distances
from .blaschke import (
    GRID_CAP,
    BlaschkeQuotient,
    _as_zero_set,
    _refuse_coarse_steps,
    derivative_grid_error,
    derivative_lipschitz_moment,
    identity_quotient,
    quotient_arg_derivative,
    quotient_derivative_grid,
)
from .fourier import UNIMODULAR_TOL, phase_steps

DIFFEOMORPHISM = "Diffeomorphism"
HOMEOMORPHISM_BOUNDARY = "HomeomorphismBoundary"
NOT_HOMEOMORPHISM = "NotHomeomorphism"
INCONCLUSIVE = "Inconclusive"

_EVAL_TOL = 1e-10  # least evaluation slack, and the only one on the direct path
_NEG_WITNESS_TOL = -1e-10


@dataclass(frozen=True)
class CertificationResult:
    verdict: str
    margin: float
    grid_size: int
    witness_theta: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def certify_quotient(Q: BlaschkeQuotient, target_grid: int = 4096) -> CertificationResult:
    """Three-valued certified verdict for a Blaschke quotient.

    NotHomeomorphism when the degree difference is not one, or when a grid
    point with (directly re-verified) negative derivative is found. Otherwise
    the certified minimum is grid minimum - pi * L / grid - evaluation error,
    with L the certified slope bound and the error bounded a priori on the
    series path (derivative_grid_error). The grid doubles until a positive
    minimum has a slack of at most 0.5% of the grid minimum, or the grid is
    2^18: Diffeomorphism. The 2^20 grid cap without a decision gives
    Inconclusive with the best margin found. target_grid must be a power of
    two (the evaluation error bound counts log2 of the grid's FFT stages);
    grids below 64 are raised to 64.
    """
    if target_grid < 1 or target_grid & (target_grid - 1):
        raise ValueError(f"target_grid must be a power of two, got {target_grid}")
    g = max(64, target_grid)
    if Q.degree_difference != 1:
        D = quotient_derivative_grid(Q, g)
        j = int(np.argmin(D))
        theta = TWO_PI * j / g
        witness = theta if _verified_negative(Q, theta) else None
        return CertificationResult(NOT_HOMEOMORPHISM, float(D[j]), g, witness)

    L, _ = derivative_lipschitz_moment(Q)

    best_margin = -math.inf
    while True:
        D = quotient_derivative_grid(Q, g)
        j = int(np.argmin(D))
        grid_min = float(D[j])
        if grid_min < _NEG_WITNESS_TOL:
            theta = TWO_PI * j / g
            if _verified_negative(Q, theta):
                return CertificationResult(NOT_HOMEOMORPHISM, grid_min, g, theta)
        slack = _slack(Q, L, g)
        certified = grid_min - slack
        best_margin = max(best_margin, certified)
        if certified > 0 and (slack <= 0.005 * grid_min or g >= 2**18):
            return CertificationResult(DIFFEOMORPHISM, certified, g)
        if g >= GRID_CAP:
            return CertificationResult(INCONCLUSIVE, best_margin, g)
        g *= 2


def _slack(Q: BlaschkeQuotient, L: float, g: int) -> float:
    """How far the true minimum may sit below the grid minimum of the derivative.

    pi L / g between grid points, plus the evaluation error: the series
    path's a-priori bound, or _EVAL_TOL when that is larger or the grid was
    summed directly.
    """
    return math.pi * L / g + max(_EVAL_TOL, derivative_grid_error(Q, g))


def _verified_negative(Q: BlaschkeQuotient, theta: float) -> bool:
    """Soundness gate: a witness must re-verify negative by direct evaluation."""
    import cmath

    return quotient_arg_derivative(Q, cmath.exp(1j * theta)) < _NEG_WITNESS_TOL


# ---------------------------------------------------------------------------
# the quadratic-over-one-factor family (closed form)

def quadratic_quotient(a, sigma=1.0) -> BlaschkeQuotient:
    """The map sigma * zeta^2 (1 - conj(a) zeta)/(zeta - a) as a quotient.

    For a = 0 the common monomial factor is cancelled and the map reduces to
    the rotation sigma * zeta.
    """
    a = as_disk(a)
    if a == 0:
        return identity_quotient(sigma)
    return BlaschkeQuotient.make([0.0, 0.0], [a], sigma)


def certify_quadratic(a) -> CertificationResult:
    """Exact verdict for the quadratic family via the closed-form minimum.

    The argument derivative is 2 - P(a, zeta), minimized where |zeta - a| =
    1 - |a|, giving (1 - 3|a|)/(1 - |a|). Zero margin reports the boundary
    homeomorphism verdict that grid methods cannot decide.
    """
    a = as_disk(a)
    r = abs(a)
    margin = (1.0 - 3.0 * r) / (1.0 - r)
    if margin > 0:
        return CertificationResult(DIFFEOMORPHISM, margin, 0)
    if margin == 0:
        return CertificationResult(HOMEOMORPHISM_BOUNDARY, 0.0, 0)
    theta = math.atan2(a.imag, a.real) % TWO_PI
    return CertificationResult(NOT_HOMEOMORPHISM, margin, 0, theta)


# ---------------------------------------------------------------------------
# sufficient conditions

@dataclass(frozen=True)
class PairingConditionResult:
    statuses: tuple
    holds: bool
    strict: bool


def pseudo_condition(z: Sequence, w: Sequence) -> PairingConditionResult:
    """Pairing condition d(z_k, w_k) <= (1-d(z_k,z_0))(1-d(w_k,z_0))/(4n).

    z has n+1 points with z[0] the base point; w has n points. When it holds,
    the quotient of the z-product by the w-product is a circle homeomorphism,
    a diffeomorphism if some inequality is strict.
    """
    zs, ws = disk_array(z), disk_array(w)
    n = len(ws)
    if len(zs) != n + 1:
        raise ValueError("need n+1 numerator points and n denominator points")
    z0, zk = zs[0], zs[1:]
    lhs = pseudo_distances(zk, ws)
    rhs = (1.0 - pseudo_distances(zk, z0)) * (1.0 - pseudo_distances(ws, z0)) / (4.0 * n)
    statuses = np.where(lhs < rhs, "holds_strict", np.where(lhs <= rhs, "holds", "fails"))
    holds = bool(np.all(lhs <= rhs))
    return PairingConditionResult(tuple(statuses.tolist()), holds, holds and bool(np.any(lhs < rhs)))


def pseudo_quotient(z: Sequence, w: Sequence, sigma=1.0) -> BlaschkeQuotient:
    """The quotient whose numerator zeros are z (n+1 points) and poles are w."""
    return BlaschkeQuotient.make(z, w, sigma)


def radial_sufficient(zeros: Sequence, poles: Sequence) -> bool:
    """Kernel-extremes sufficient condition.

    Compares the worst-case minimum of each numerator kernel against the
    worst-case maximum of each denominator kernel:
    sum (1-|z|)/(1+|z|) >= sum (1+|w|)/(1-|w|).
    """
    r, s = np.abs(disk_array(zeros)), np.abs(disk_array(poles))
    return bool(np.sum((1.0 - r) / (1.0 + r)) >= np.sum((1.0 + s) / (1.0 - s)))


def terminating_family_check(side: str, zeros: Sequence) -> bool:
    """Radius conditions under which the one-sided-spectrum families are homeomorphisms.

    side="below": the map B(zeta)/zeta^{n-1} (spectrum bounded below), with
    the last listed zero as base point: |z_k| <= (1-|z_n|)(1-d(z_k,z_n))/(4(n-1)).
    side="above": the map zeta^{n+1}/B(zeta) (spectrum bounded above):
    |z_k| <= 1/(4n+1) for every k.
    """
    zs = disk_array(zeros)
    n = len(zs)
    if n == 0:
        raise ValueError("need at least one zero")
    if side == "below":
        if n == 1:
            return True  # a single factor is a Moebius map, always a homeomorphism
        zn, zk = zs[-1], zs[:-1]
        bound = (1.0 - abs(zn)) / (4.0 * (n - 1))
        return bool(np.all(np.abs(zk) <= bound * (1.0 - pseudo_distances(zk, zn))))
    if side == "above":
        return bool(np.all(np.abs(zs) <= 1.0 / (4.0 * n + 1.0)))
    raise ValueError("side must be 'below' or 'above'")


def terminating_family_quotient(side: str, zeros, sigma=1.0) -> BlaschkeQuotient:
    """Build B/zeta^{n-1} (below) or zeta^{n+1}/B (above), cancelling zeros at 0.

    zeros are disk points, or a zero set that B keeps when none at 0 is cancelled.
    """
    zs = _as_zero_set(zeros)
    n, at_zero = len(zs.zeros), zs.at_origin
    if side == "below":
        cancel = min(at_zero, n - 1)  # -1 for n = 0: B/zeta^{-1} gains a zero
        num = zs if cancel == 0 else np.concatenate([zs.points, np.zeros(at_zero - cancel)])
        return BlaschkeQuotient.make(num, np.zeros(n - 1 - cancel), sigma)
    if side == "above":
        # n+1 monomial zeros always cover the cancellation
        return BlaschkeQuotient.make(np.zeros(n + 1 - at_zero), zs if at_zero == 0 else zs.points, sigma)
    raise ValueError("side must be 'below' or 'above'")


# ---------------------------------------------------------------------------
# discrete screens for sampled maps

@dataclass(frozen=True)
class HomeoScreen:
    verdict: str  # plausible-homeomorphism | not-injective | not-unimodular
    witness: Optional[tuple] = None


def homeo_check_sampled(mp) -> HomeoScreen:
    """Discrete screen: unimodular values and monotone argument of winding one.

    A decrease beyond -1e-9 between adjacent samples yields a not-injective
    verdict with the sample pair as witness. Sampled maps can only ever earn
    "plausible": the exact criterion needs the true derivative.
    """
    vals = np.asarray(mp.values, dtype=complex)
    if float(np.max(np.abs(np.abs(vals) - 1.0))) >= UNIMODULAR_TOL:
        return HomeoScreen("not-unimodular")
    d = phase_steps(vals)
    _refuse_coarse_steps(d)
    j = int(np.argmin(d))
    if d[j] < -1e-9:
        return HomeoScreen("not-injective", (j, (j + 1) % len(vals)))
    total = float(np.sum(d))
    if abs(total - TWO_PI) > 1e-6:
        return HomeoScreen("not-injective")  # monotone but wrong winding
    return HomeoScreen("plausible-homeomorphism")


@dataclass(frozen=True)
class EmbeddingCheck:
    simple: bool
    witness: Optional[tuple] = None  # offending segment index pair


def embedding_check_sampled(mp) -> EmbeddingCheck:
    """Exact segment-segment test on the closed polygon through the samples.

    Adjacent segments may share only their common endpoint. Candidate pairs
    come from a uniform grid of square cells: each segment is entered in
    every cell its closed bounding box covers. The cell side is the mean
    segment length, doubled until the covered cells number at most 64 per
    segment, so memory stays O(m) when a few segments are very long. The
    verdict does not depend on the cell side: floor(x / h) is monotone in
    floating point, so two segments whose closed bounding boxes overlap
    always share a cell, and the segment test reports only such pairs (it
    requires overlapping boxes, which rounded orientations of nearly
    collinear segments alone do not ensure). So the verdict and the witness,
    the lexicographically first offending pair (i, j), i < j, are those of
    the same test run on all pairs.
    """
    return _embedding_check(mp.values)


_CELLS_PER_SEGMENT = 64


def _embedding_check(values) -> EmbeddingCheck:
    """embedding_check_sampled on the closed polygon through complex vertices."""
    values = np.asarray(values)
    P = np.column_stack([values.real, values.imag])
    A = P
    B = np.roll(P, -1, axis=0)
    seg = B - A
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(lengths == 0.0):
        raise ValueError("degenerate zero-length segment in sampled polygon")

    idx = _candidate_pairs(A, B, float(np.mean(lengths)))
    if len(idx) == 0:
        return EmbeddingCheck(True)
    a1, a2 = A[idx[:, 0]], B[idx[:, 0]]
    b1, b2 = A[idx[:, 1]], B[idx[:, 1]]

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross(a2 - a1, b1 - a1)
    d2 = cross(a2 - a1, b2 - a1)
    d3 = cross(b2 - b1, a1 - b1)
    d4 = cross(b2 - b1, a2 - b1)
    # rounded orientations of nearly collinear sides can have opposite signs
    # although the sides lie apart; sides that cross have overlapping boxes
    boxes = np.all(
        (np.minimum(a1, a2) <= np.maximum(b1, b2)) & (np.minimum(b1, b2) <= np.maximum(a1, a2)), axis=1
    )
    proper = (d1 * d2 < 0) & (d3 * d4 < 0) & boxes

    def on_seg(p, q, r):
        return (
            (np.minimum(p[:, 0], q[:, 0]) <= r[:, 0])
            & (r[:, 0] <= np.maximum(p[:, 0], q[:, 0]))
            & (np.minimum(p[:, 1], q[:, 1]) <= r[:, 1])
            & (r[:, 1] <= np.maximum(p[:, 1], q[:, 1]))
        )

    touch = (
        ((d1 == 0) & on_seg(a1, a2, b1))
        | ((d2 == 0) & on_seg(a1, a2, b2))
        | ((d3 == 0) & on_seg(b1, b2, a1))
        | ((d4 == 0) & on_seg(b1, b2, a2))
    )
    bad = proper | touch
    if np.any(bad):
        k = int(np.argmax(bad))
        return EmbeddingCheck(False, (int(idx[k, 0]), int(idx[k, 1])))
    return EmbeddingCheck(True)


def _candidate_pairs(A, B, h: float) -> np.ndarray:
    """Non-adjacent segment pairs (i, j), i < j, whose bounding boxes share a cell.

    Rows come in lexicographic order. Cells have side h, doubled until the
    covered cells number at most _CELLS_PER_SEGMENT per segment and every
    (cell, segment) code fits in int64. Cells are counted from the lower-left
    corner of the polygon; a closed polygon's perimeter, m times the mean
    segment length, is at least twice its width and its height, so at the
    mean length no cell index exceeds m / 2.
    """
    m = len(A)
    lo = np.minimum(A, B)
    origin = lo.min(axis=0)
    lo = lo - origin
    hi = np.maximum(A, B) - origin
    while True:
        c0 = np.floor(lo / h).astype(np.int64)
        c1 = np.floor(hi / h).astype(np.int64)
        span = c1 - c0 + 1
        counts = span[:, 0] * span[:, 1]
        total = int(counts.sum())
        rows = int(c1[:, 1].max()) + 1
        if total <= _CELLS_PER_SEGMENT * m and (int(c1[:, 0].max()) + 1) * rows * m < 2**63:
            break
        h *= 2.0

    # one code cell * m + segment per (segment, covered cell); sorting the
    # codes orders the entries by cell, then by segment
    seg_id = np.repeat(np.arange(m), counts)
    k = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    ny = np.repeat(span[:, 1], counts)
    cell = (np.repeat(c0[:, 0], counts) + k // ny) * rows + np.repeat(c0[:, 1], counts) + k % ny
    code = np.sort(cell * m + seg_id)
    cell, seg_id = np.divmod(code, m)

    # entries d apart in one cell pair up; an entry whose cell differs from
    # the one d places on differs from every one farther on
    pairs = []
    p = np.arange(total)
    for d in range(1, total):
        p = p[p < total - d]
        p = p[cell[p] == cell[p + d]]
        if len(p) == 0:
            break
        i = seg_id[p]
        j = seg_id[p + d]
        keep = (j - i != 1) & ~((i == 0) & (j == m - 1))  # adjacent segments share an endpoint by design
        pairs.append(i[keep] * m + j[keep])
    # codes i * m + j sort lexicographically; np.unique hashes and is
    # several times slower at these sizes
    codes = np.sort(np.concatenate(pairs or [np.zeros(0, dtype=np.int64)]))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return np.column_stack(np.divmod(codes, m))
