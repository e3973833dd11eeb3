"""Elementary geometry of the unit disk.

Poisson kernel, pseudo-hyperbolic distance, disk Moebius transformations,
and the additive Harnack gap bound. These are the primitives everything
else (Blaschke products, certification, kernel approximation) builds on.

All values are immutable and all operations are pure functions. A set of
disk points is a read-only complex array, checked once by disk_array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Points closer than this to the unit circle are rejected: Poisson kernels
# blow up like 1/(1-|z|)^2 and silently lose precision there.
BOUNDARY_MARGIN = 1e-12


def _as_complex(z) -> complex:
    """Accept DiskPoint/CirclePoint/complex/float and return a complex."""
    if isinstance(z, (DiskPoint, CirclePoint)):
        return z.value
    return complex(z)


@dataclass(frozen=True)
class CirclePoint:
    """A point of the unit circle, stored by its angle in [0, 2*pi)."""

    theta: float
    value: complex = field(init=False)

    def __post_init__(self):
        t = float(self.theta) % TWO_PI
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "value", cmath.exp(1j * t))

    @classmethod
    def from_value(cls, z) -> "CirclePoint":
        z = _as_complex(z)
        if z == 0:
            raise ValueError("cannot normalize 0 to the unit circle")
        return cls(cmath.phase(z) % TWO_PI)


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk; rejects |z| >= 1 - 1e-12."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", as_disk(self.value))

    def __complex__(self) -> complex:
        return self.value


def as_disk(z) -> complex:
    """Validate that z is strictly inside the disk and return it as complex."""
    return complex(disk_array(_as_complex(z))[0])


def disk_array(points) -> np.ndarray:
    """Validate points of the open disk at once; return them as a read-only array.

    Accepts a sequence of complex numbers or DiskPoints, or an array. Every
    value must be finite with |z| < 1 - 1e-12.
    """
    zs = np.array(points, dtype=complex).reshape(-1)
    ok = np.abs(zs) < 1.0 - BOUNDARY_MARGIN  # NaN compares false
    if not ok.all():
        z = zs[np.argmin(ok)]
        raise ValueError(f"point {z} is not finite or too close to the unit circle "
                         f"(|z|={abs(z):.17g})")
    zs.flags.writeable = False
    return zs


def poisson_kernel(z, zeta) -> float:
    """Poisson kernel (1-|z|^2)/|zeta-z|^2 for z in the disk, zeta on the circle."""
    z = as_disk(z)
    w = _as_complex(zeta)
    d = w - z
    return (1.0 - (z.real * z.real + z.imag * z.imag)) / (d.real * d.real + d.imag * d.imag)


def poisson_kernel_herglotz(z, zeta) -> float:
    """Same kernel via Re((zeta+z)/(zeta-z)); used as a cross-check identity."""
    z = as_disk(z)
    w = _as_complex(zeta)
    return ((w + z) / (w - z)).real


def poisson_sum_grid(points, grid_size: int) -> np.ndarray:
    """Sum of Poisson kernels of `points` sampled on the uniform angular grid.

    Vectorized over the grid; evaluates sum_k (1-|z_k|^2)/|zeta_j - z_k|^2
    for zeta_j = exp(2*pi*i*j/grid_size). Points may be an empty sequence.
    """
    theta = np.arange(grid_size) * (TWO_PI / grid_size)
    zeta = np.exp(1j * theta)
    out = np.zeros(grid_size)
    pts = np.asarray(points, dtype=complex)
    # chunk over points to bound the broadcast temporary
    chunk = max(1, int(4e6 // max(grid_size, 1)))
    for i in range(0, len(pts), chunk):
        blk = pts[i : i + chunk]
        num = 1.0 - np.abs(blk) ** 2
        den = np.abs(zeta[None, :] - blk[:, None]) ** 2
        out += (num[:, None] / den).sum(axis=0)
    return out


def pseudo_distances(z, w) -> np.ndarray:
    """|z-w| / |1 - z*conj(w)| elementwise, for points already validated."""
    return np.abs(z - w) / np.abs(1.0 - z * np.conj(w))


def pseudo_hyperbolic(z, w) -> float:
    """Pseudo-hyperbolic distance |z-w| / |1 - z*conj(w)| in [0, 1)."""
    return float(pseudo_distances(as_disk(z), as_disk(w)))


def harnack_gap_bound(z, w) -> float:
    """Bound 2|z-w| / ((1-|z|)(1-|w|)) on |h(z)-h(w)| / h(0), h positive harmonic.

    Specialized to h = P(., zeta), h(0) = 1, it dominates |P(z,zeta) - P(w,zeta)|
    for every circle point zeta.
    """
    z = as_disk(z)
    w = as_disk(w)
    return 2.0 * abs(z - w) / ((1.0 - abs(z)) * (1.0 - abs(w)))


@dataclass(frozen=True)
class MoebiusDisk:
    """Disk automorphism z -> sigma * (z - a) / (1 - conj(a) z)."""

    a: DiskPoint
    sigma: CirclePoint

    @classmethod
    def make(cls, a, sigma=1.0) -> "MoebiusDisk":
        a = a if isinstance(a, DiskPoint) else DiskPoint(_as_complex(a))
        s = sigma if isinstance(sigma, CirclePoint) else CirclePoint.from_value(sigma)
        return cls(a, s)

    def __call__(self, z):
        return moebius_apply(self, z)

    def inverse(self) -> "MoebiusDisk":
        # w = sigma (z-a)/(1-conj(a) z) inverts to conj(sigma) (w + sigma a)/(1 + conj(sigma a) w)
        a = self.a.value
        s = self.sigma.value
        return MoebiusDisk.make(-a * s, s.conjugate())

    def compose(self, other: "MoebiusDisk") -> "MoebiusDisk":
        """self after other, i.e. z -> self(other(z))."""
        # matrix form [[s, -s a], [-conj(a), 1]]; product renormalized to (a, sigma)
        a1, s1 = other.a.value, other.sigma.value
        a2, s2 = self.a.value, self.sigma.value
        m1 = np.array([[s1, -s1 * a1], [-a1.conjugate(), 1.0]], dtype=complex)
        m2 = np.array([[s2, -s2 * a2], [-a2.conjugate(), 1.0]], dtype=complex)
        m = m2 @ m1
        alpha, beta, gamma, delta = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        a = -beta / alpha
        v = (alpha + beta) / (gamma + delta)  # image of z = 1, unimodular
        s = v * (1.0 - a.conjugate()) / (1.0 - a)
        return MoebiusDisk.make(a, s / abs(s))


def moebius_apply(m: MoebiusDisk, z) -> complex:
    """Apply a disk Moebius map; |z| <= 1 maps to |result| <= 1."""
    z = _as_complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValueError(f"moebius_apply expects |z| <= 1, got |z|={abs(z):.17g}")
    a = m.a.value
    return m.sigma.value * (z - a) / (1.0 - a.conjugate() * z)
