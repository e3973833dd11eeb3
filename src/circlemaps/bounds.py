"""Coefficient lower bounds and minimal-surface curvature bounds.

For circle homeomorphisms the classical bounds of Hall and Weitsman control
the coefficients at -1, 0, 1: |f^(-1)|^2 + |f^(1)|^2 >= 27/(4 pi^2) (Hall,
sharp, for maps normalized by a centered extension) and |f^(0)| + |f^(1)| >
2/pi (Weitsman). For embeddings with a horizontally convex image, a
Heinz-type bound ties |f^(-1)| + |f^(1)| to the vertical extent delta and
the Lipschitz constant L of Im f. Either kind of lower bound converts into
an upper bound on the Gaussian curvature of a minimal graph at the center.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math

import numpy as np

from .disk import TWO_PI
from .fourier import SampledCircleMap, fourier_coefficients

HALL_CONSTANT = 27.0 / (4.0 * math.pi**2)
WEITSMAN_CONSTANT = 2.0 / math.pi


@dataclass(frozen=True)
class HeinzReport:
    c_minus1: complex
    c_0: complex
    c_plus1: complex
    hall_lhs: float
    hall_rhs: float
    weitsman_lhs: float
    weitsman_rhs: float
    hall_ok: bool
    weitsman_ok: bool

    def to_json_dict(self) -> dict:
        return {k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in asdict(self).items()}


def heinz_report(mp: SampledCircleMap) -> HeinzReport:
    """Coefficient bound report for a unimodular circle map."""
    if mp.kind != "unimodular":
        raise ValueError("Heinz-type report requires a unimodular map")
    spec = fourier_coefficients(mp)
    cm, c0, cp = spec[-1], spec[0], spec[1]
    hall_lhs = abs(cm) ** 2 + abs(cp) ** 2
    weitsman_lhs = abs(c0) + abs(cp)
    return HeinzReport(
        cm, c0, cp,
        hall_lhs, HALL_CONSTANT,
        weitsman_lhs, WEITSMAN_CONSTANT,
        hall_lhs >= HALL_CONSTANT,
        weitsman_lhs > WEITSMAN_CONSTANT,
    )


@dataclass(frozen=True)
class HorconvexReport:
    is_horconvex: bool
    delta: float
    L: float
    L_estimator: str
    bound: float
    lhs: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def horconvex_report(mp: SampledCircleMap, lipschitz: float = None) -> HorconvexReport:
    """Horizontal-convexity detection and the Heinz-type coefficient bound.

    The image is horizontally convex exactly when Im f is monotone on the
    two arcs joining its global extrema; monotonicity is checked with a 1e-9
    tolerance and plateaus are accepted. L defaults to the maximum
    adjacent-sample slope, a lower estimate of the true Lipschitz constant,
    which makes the computed bound an over-estimate; pass an exact value as
    lipschitz to tighten it. The report records the estimator ("provided" or
    "grid-slope").
    """
    y = np.asarray(mp.values).imag
    m = len(y)
    imax = int(np.argmax(y))
    imin = int(np.argmin(y))
    delta = float(y[imax] - y[imin])

    def monotone(start, stop, sign):
        idx = np.arange(start, start + (stop - start) % m + 1) % m
        d = np.diff(y[idx])
        return bool(np.all(sign * d >= -1e-9))

    is_horconvex = delta > 0 and monotone(imin, imax, +1) and monotone(imax, imin, -1)

    if lipschitz is not None:
        L, estimator = float(lipschitz), "provided"
    else:
        dtheta = TWO_PI / m
        L = float(np.max(np.abs(np.diff(np.append(y, y[0])))) / dtheta)
        estimator = "grid-slope"

    spec = fourier_coefficients(mp)
    lhs = abs(spec[-1]) + abs(spec[1])
    if is_horconvex and delta > 0 and L > 0:
        bound = (delta / TWO_PI) * (1.0 - math.cos(delta / (4.0 * L)))
    else:
        bound = 0.0
    return HorconvexReport(is_horconvex, delta, L, estimator, bound, lhs)


def curvature_bound(heinz: HeinzReport = None, horconvex: HorconvexReport = None) -> float:
    """Upper bound for the Gaussian curvature of a minimal graph at the center.

    Takes the tighter of the coefficient bound 4/(|f^(-1)|^2 + |f^(1)|^2) and
    the horizontally-convex bound 8/bound^2 read from the report, which is
    32 pi^2 / (delta^2 (1 - cos(delta/4L))^2); the coefficient bound is never
    worse when both apply. Raises when neither applies.
    """
    candidates = []
    if heinz is not None and heinz.hall_lhs > 0:
        candidates.append(4.0 / heinz.hall_lhs)
    if horconvex is not None and horconvex.bound > 0:
        candidates.append(8.0 / horconvex.bound**2)
    if not candidates:
        raise ValueError("no curvature bound available: zero coefficients and not horizontally convex")
    return min(candidates)
