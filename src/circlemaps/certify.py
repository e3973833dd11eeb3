"""Certified homeomorphism/diffeomorphism decisions for Blaschke quotients.

A quotient of Blaschke products is a circle homeomorphism exactly when its
degree difference is one and the argument derivative (a signed sum of Poisson
kernels) is nonnegative; strict positivity gives a diffeomorphism. The grid
certifier combines a sampled minimum with a certified Lipschitz bound on the
derivative's slope, so a positive verdict carries a margin that is a true
lower bound of the minimum, not a heuristic grid value.

The certified slope bound is the minimum of two rigorous estimates: a
per-point bound 2r(1+r)/(1-r)^3 summed over zeros and poles, and a power-sum
bound 2 sum_m m|S_m| plus a closed-form geometric tail. The second captures
the cancellation in large near-boundary configurations (ring constructions)
where the per-point bound is astronomically pessimistic.

Boundary cases with true minimum exactly zero are undecidable by grids; only
the closed-form certifier for the quadratic-over-one-factor family reports
HomeomorphismBoundary.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional, Sequence

import numpy as np

from .disk import TWO_PI, as_disk, pseudo_hyperbolic
from .blaschke import (
    GRID_CAP,
    BlaschkeQuotient,
    GridTooCoarseError,
    derivative_lipschitz_moment,
    derivative_lipschitz_pointwise,
    quotient_arg_derivative,
    quotient_derivative_grid,
)

DIFFEOMORPHISM = "Diffeomorphism"
HOMEOMORPHISM_BOUNDARY = "HomeomorphismBoundary"
NOT_HOMEOMORPHISM = "NotHomeomorphism"
INCONCLUSIVE = "Inconclusive"

_EVAL_TOL = 1e-10  # grid evaluation accuracy (series tail + rounding)
_NEG_WITNESS_TOL = -1e-10


@dataclass(frozen=True)
class CertificationResult:
    verdict: str
    margin: float
    grid_size: int
    witness_theta: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "margin": self.margin, "grid_size": self.grid_size}
        if self.witness_theta is not None:
            out["witness_theta"] = self.witness_theta
        return out


def certify_quotient(Q: BlaschkeQuotient, target_grid: int = 4096) -> CertificationResult:
    """Three-valued certified verdict for a Blaschke quotient.

    NotHomeomorphism when the degree difference is not one, or when a grid
    point with (directly re-verified) negative derivative is found. Otherwise
    the certified minimum is grid minimum - pi * L / grid, with L the certified
    slope bound; positivity gives Diffeomorphism, and hitting the 2^20 grid
    cap without a decision gives Inconclusive with the best margin found.
    """
    g = max(64, target_grid)
    if Q.degree_difference != 1:
        D = quotient_derivative_grid(Q, g)
        j = int(np.argmin(D))
        theta = TWO_PI * j / g
        witness = theta if _verified_negative(Q, theta) else None
        return CertificationResult(NOT_HOMEOMORPHISM, float(D[j]), g, witness)

    L_point = derivative_lipschitz_pointwise(Q)
    L_moment, _ = derivative_lipschitz_moment(Q)
    L = min(L_point, L_moment)

    best_margin = -math.inf
    while True:
        D = quotient_derivative_grid(Q, g)
        j = int(np.argmin(D))
        grid_min = float(D[j])
        if grid_min < _NEG_WITNESS_TOL:
            theta = TWO_PI * j / g
            if _verified_negative(Q, theta):
                return CertificationResult(NOT_HOMEOMORPHISM, grid_min, g, theta)
        slack = math.pi * L / g + _EVAL_TOL
        certified = grid_min - slack
        best_margin = max(best_margin, certified)
        if certified > 0:
            # polish the reported margin a little before returning
            while slack > 0.005 * grid_min and g < 2**18:
                g *= 2
                D = quotient_derivative_grid(Q, g)
                grid_min = float(np.min(D))
                slack = math.pi * L / g + _EVAL_TOL
            return CertificationResult(DIFFEOMORPHISM, grid_min - slack, g)
        if g >= GRID_CAP:
            return CertificationResult(INCONCLUSIVE, best_margin, g)
        g *= 2


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
        return BlaschkeQuotient.make([0.0], [], sigma)
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
    zs = [as_disk(p) for p in z]
    ws = [as_disk(p) for p in w]
    n = len(ws)
    if len(zs) != n + 1:
        raise ValueError("need n+1 numerator points and n denominator points")
    z0 = zs[0]
    statuses = []
    for zk, wk in zip(zs[1:], ws):
        lhs = pseudo_hyperbolic(zk, wk)
        rhs = (1.0 - pseudo_hyperbolic(zk, z0)) * (1.0 - pseudo_hyperbolic(wk, z0)) / (4.0 * n)
        if lhs < rhs:
            statuses.append("holds_strict")
        elif lhs <= rhs:
            statuses.append("holds")
        else:
            statuses.append("fails")
    holds = all(s != "fails" for s in statuses)
    strict = holds and any(s == "holds_strict" for s in statuses)
    return PairingConditionResult(tuple(statuses), holds, strict)


def pseudo_quotient(z: Sequence, w: Sequence, sigma=1.0) -> BlaschkeQuotient:
    """The quotient whose numerator zeros are z (n+1 points) and poles are w."""
    return BlaschkeQuotient.make(list(z), list(w), sigma)


def radial_sufficient(zeros: Sequence, poles: Sequence) -> bool:
    """Kernel-extremes sufficient condition.

    Compares the worst-case minimum of each numerator kernel against the
    worst-case maximum of each denominator kernel:
    sum (1-|z|)/(1+|z|) >= sum (1+|w|)/(1-|w|).
    """
    zs = [abs(as_disk(p)) for p in zeros]
    ws = [abs(as_disk(p)) for p in poles]
    lhs = sum((1.0 - r) / (1.0 + r) for r in zs)
    rhs = sum((1.0 + r) / (1.0 - r) for r in ws)
    return lhs >= rhs


def terminating_family_check(side: str, zeros: Sequence) -> bool:
    """Radius conditions under which the one-sided-spectrum families are homeomorphisms.

    side="below": the map B(zeta)/zeta^{n-1} (spectrum bounded below), with
    the last listed zero as base point: |z_k| <= (1-|z_n|)(1-d(z_k,z_n))/(4(n-1)).
    side="above": the map zeta^{n+1}/B(zeta) (spectrum bounded above):
    |z_k| <= 1/(4n+1) for every k.
    """
    zs = [as_disk(p) for p in zeros]
    n = len(zs)
    if n == 0:
        raise ValueError("need at least one zero")
    if side == "below":
        if n == 1:
            return True  # a single factor is a Moebius map, always a homeomorphism
        zn = zs[-1]
        bound = (1.0 - abs(zn)) / (4.0 * (n - 1))
        return all(
            abs(zk) <= bound * (1.0 - pseudo_hyperbolic(zk, zn)) for zk in zs[:-1]
        )
    if side == "above":
        return all(abs(zk) <= 1.0 / (4.0 * n + 1.0) for zk in zs)
    raise ValueError("side must be 'below' or 'above'")


def terminating_family_quotient(side: str, zeros: Sequence, sigma=1.0) -> BlaschkeQuotient:
    """Build B/zeta^{n-1} (below) or zeta^{n+1}/B (above), cancelling zeros at 0."""
    zs = [as_disk(p) for p in zeros]
    n = len(zs)
    at_zero = sum(1 for z in zs if z == 0)
    rest = [z for z in zs if z != 0]
    if side == "below":
        cancel = min(at_zero, n - 1)
        num = rest + [0.0] * (at_zero - cancel)
        return BlaschkeQuotient.make(num, [0.0] * (n - 1 - cancel), sigma)
    if side == "above":
        cancel = at_zero  # n+1 monomial zeros always cover the cancellation
        return BlaschkeQuotient.make([0.0] * (n + 1 - cancel), rest, sigma)
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
    if float(np.max(np.abs(np.abs(vals) - 1.0))) >= 1e-9:
        return HomeoScreen("not-unimodular")
    phases = np.angle(vals)
    d = np.diff(np.concatenate([phases, phases[:1]]))
    d = (d + np.pi) % TWO_PI - np.pi
    if np.any(np.abs(d) >= np.pi * (1 - 1e-9)):
        raise GridTooCoarseError("adjacent samples differ by pi or more; refine the grid")
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
    come from a uniform spatial hash (cell size = longest segment), so the
    test stays near-linear for the 2^16-point gallery curves.
    """
    return _embedding_check(mp.values)


def _embedding_check(values) -> EmbeddingCheck:
    """embedding_check_sampled on the closed polygon through complex vertices."""
    values = np.asarray(values)
    P = np.column_stack([values.real, values.imag])
    m = len(P)
    A = P
    B = np.roll(P, -1, axis=0)
    seg = B - A
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(lengths == 0.0):
        raise ValueError("degenerate zero-length segment in sampled polygon")

    h = float(np.max(lengths))
    lo = np.minimum(A, B)
    hi = np.maximum(A, B)
    c0 = np.floor(lo / h).astype(np.int64)
    c1 = np.floor(hi / h).astype(np.int64)

    buckets: dict = {}
    for i in range(m):
        for cx in range(c0[i, 0], c1[i, 0] + 1):
            for cy in range(c0[i, 1], c1[i, 1] + 1):
                buckets.setdefault((cx, cy), []).append(i)

    cand = set()
    for ids in buckets.values():
        t = len(ids)
        if t < 2:
            continue
        for a in range(t):
            ia = ids[a]
            for b in range(a + 1, t):
                ib = ids[b]
                i, j = (ia, ib) if ia < ib else (ib, ia)
                if j - i == 1 or (i == 0 and j == m - 1):
                    continue  # adjacent segments share an endpoint by design
                cand.add((i, j))
    if not cand:
        return EmbeddingCheck(True)

    idx = np.array(sorted(cand), dtype=np.int64)
    a1, a2 = A[idx[:, 0]], B[idx[:, 0]]
    b1, b2 = A[idx[:, 1]], B[idx[:, 1]]

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross(a2 - a1, b1 - a1)
    d2 = cross(a2 - a1, b2 - a1)
    d3 = cross(b2 - b1, a1 - b1)
    d4 = cross(b2 - b1, a2 - b1)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)

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
