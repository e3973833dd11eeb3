"""Constructors for the explicit example maps.

Two counterexample embeddings and two parametric families:

* a star-shaped (about 0) piecewise-linear quadrilateral whose first Fourier
  coefficient vanishes for the right vertex choice;
* k-fold symmetric embeddings whose Fourier support lives on indices
  congruent to 1 mod k, giving arbitrarily long vanishing windows around 0;
* the Moebius family (zeta + a)/(1 + conj(a) zeta);
* sampled Blaschke quotients, bridging the rational maps to Fourier analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .disk import TWO_PI, as_disk
from .blaschke import BlaschkeQuotient, quotient_values_grid
from .fourier import SampledCircleMap, grid_theta
from .certify import _embedding_check


# ---------------------------------------------------------------------------
# star-shaped quadrilateral with vanishing first coefficient

@dataclass(frozen=True)
class StarParams:
    """Vertices (1,0), (x,y), (-1,0), (x,-y) with x, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0):
            raise ValueError("star parameters must be positive")

    def vertices(self) -> np.ndarray:
        return np.array([1.0, self.x + 1j * self.y, -1.0, self.x - 1j * self.y])


_STAR_KNOTS = np.array([0.0, TWO_PI / 3.0, math.pi, 4.0 * math.pi / 3.0, TWO_PI])


def star_first_coefficient(p: StarParams) -> float:
    """Closed-form first Fourier coefficient 3(-x + 3 sqrt(3) y + 5)/(4 pi^2)."""
    return 3.0 * (-p.x + 3.0 * math.sqrt(3.0) * p.y + 5.0) / (4.0 * math.pi**2)


def star_embedding(p: StarParams, m: int = 4096) -> SampledCircleMap:
    """Piecewise-linear conjugate-symmetric embedding through the star vertices.

    Vertices sit at angles 0, 2 pi/3, pi, 4 pi/3; conjugate symmetry
    f(conj zeta) = conj f(zeta) makes every Fourier coefficient real. Raises
    when the four vertices do not bound a simple polygon.
    """
    verts = p.vertices()
    try:
        simple = _embedding_check(verts).simple
    except ValueError:  # a zero-length side
        simple = False
    if not simple:
        raise ValueError("star parameters produce a self-intersecting quadrilateral")
    vals = np.append(verts, verts[0])
    t = grid_theta(m)
    samples = np.interp(t, _STAR_KNOTS, vals.real) + 1j * np.interp(t, _STAR_KNOTS, vals.imag)
    return SampledCircleMap(samples, "embedding-claimed")


# ---------------------------------------------------------------------------
# k-fold symmetric embedding with a vanishing coefficient window

@dataclass(frozen=True)
class GapParams:
    """Vanishing window half-width N >= 1; the symmetry order is k = N + 2."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")

    @property
    def k(self) -> int:
        return self.N + 2


def fold_angle(t) -> np.ndarray:
    """Triangle fold of an angle into [0, pi] (the even 2*pi-periodic sawtooth).

    Computed by direct folding, not inverse trigonometry, to keep precision
    near multiples of pi.
    """
    t = np.abs(np.asarray(t, dtype=float)) % TWO_PI
    return np.where(t > math.pi, TWO_PI - t, t)


def gap_radius(t) -> np.ndarray:
    """Radial profile 1 + (2/pi) * fold(t), ranging over [1, 3]."""
    return 1.0 + (2.0 / math.pi) * fold_angle(t)


def gap_phase(t) -> np.ndarray:
    """Angular offset fold(t) + fold(t)^2 / pi."""
    g = fold_angle(t)
    return g + g * g / math.pi


def gap_embedding(p: GapParams, m: int = 4096) -> SampledCircleMap:
    """The k-fold symmetric embedding sampled on the power-of-two grid."""
    theta = grid_theta(m)
    t = p.k * theta
    return SampledCircleMap(gap_radius(t) * np.exp(1j * (theta + gap_phase(t))), "embedding-claimed")


def gap_symmetric_samples(p: GapParams, m_sym: int) -> np.ndarray:
    """Samples on a k-divisible grid built to be k-fold symmetric to the ulp.

    The radial and phase parts are computed from the folded integer index
    k*j mod m_sym, which is exactly invariant under j -> j + m_sym/k; the
    rotation factor is propagated block to block by one complex multiply, so
    every non-wraparound pair matches bitwise and the wraparound block is off
    by |omega^k - 1| ~ a few ulp (an exact cycle is not representable).
    """
    k = p.k
    if m_sym % k:
        raise ValueError("symmetric sampling needs a grid size divisible by k")
    block = m_sym // k
    j = np.arange(block)
    idx = (k * j) % m_sym
    folded = np.where(idx > m_sym // 2, m_sym - idx, idx) * (TWO_PI / m_sym)
    rho = 1.0 + (2.0 / math.pi) * folded
    h = folded + folded * folded / math.pi
    base = rho * np.exp(1j * (grid_theta(m_sym)[:block] + h))
    values = np.empty(m_sym, dtype=complex)
    values[:block] = base
    omega = np.exp(2j * np.pi / k)
    for t in range(1, k):
        values[t * block : (t + 1) * block] = omega * values[(t - 1) * block : t * block]
    return values


def gap_symmetry_residual(p: GapParams) -> float:
    """max_j |f(omega zeta_j) - omega f(zeta_j)| over the grid of k * 2^14 points."""
    k = p.k
    m_sym = k * 2**14
    vals = gap_symmetric_samples(p, m_sym)
    omega = np.exp(2j * np.pi / k)
    rotated = np.roll(vals, -(m_sym // k))
    return float(np.max(np.abs(rotated - omega * vals)))


# ---------------------------------------------------------------------------
# parametric rational families

def mobius_map(a, m: int = 4096) -> SampledCircleMap:
    """The Moebius circle map (zeta + a)/(1 + conj(a) zeta)."""
    a = as_disk(a)
    zeta = np.exp(1j * grid_theta(m))
    return SampledCircleMap((zeta + a) / (1.0 + np.conjugate(a) * zeta), "unimodular")


def rational_family(Q: BlaschkeQuotient, m: int = 4096) -> SampledCircleMap:
    """Sample a Blaschke quotient on the grid as a unimodular circle map.

    The values are e^{i arg}, unimodular to within the rounding of exp.
    """
    return SampledCircleMap(quotient_values_grid(Q, m), "unimodular")
