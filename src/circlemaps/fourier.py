"""Fourier analysis of sampled circle maps.

Coefficients are computed with the uniform-grid discrete transform, which is
the trapezoid rule for periodic integrands and therefore exact for
trigonometric polynomials of degree below half the grid size. The symmetric
coefficient window |n| <= m/2 - 1 drops only the Nyquist bin.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .disk import TWO_PI, as_disk

VALID_KINDS = ("general", "unimodular", "embedding-claimed")
UNIMODULAR_TOL = 1e-9
DEFAULT_SUPPORT_TOL = 1e-8


def grid_theta(m: int) -> np.ndarray:
    return np.arange(m) * (TWO_PI / m)


def _check_grid_size(m: int):
    if m < 64 or (m & (m - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 64, got {m}")


@dataclass
class SampledCircleMap:
    """A circle map f: T -> C sampled on the uniform angular grid.

    values[j] = f(exp(2 pi i j / m)); kind is one of VALID_KINDS.
    """

    values: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        _check_grid_size(len(self.values))
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}")
        if not np.isfinite(self.values).all():
            raise ValueError("sampled values must be finite")
        if self.kind == "unimodular":
            dev = np.abs(self.values)
            dev -= 1.0
            dev = float(np.abs(dev, out=dev).max())
            if dev >= UNIMODULAR_TOL:
                raise ValueError(f"unimodular map deviates from |f|=1 by {dev:.3e}")

    @property
    def m(self) -> int:
        return len(self.values)


def phase_steps(values) -> np.ndarray:
    """Phase steps values[j] to values[j + 1] around the closed grid, wrapped into [-pi, pi)."""
    phases = np.angle(values)
    d = np.diff(np.concatenate([phases, phases[:1]]))
    return (d + np.pi) % TWO_PI - np.pi


@dataclass
class FourierSpectrum:
    """Coefficients f_hat(n) over the contiguous window ns = -(m/2 - 1), ..., m/2 - 1."""

    ns: np.ndarray
    coefficients: np.ndarray
    grid_size: int
    tolerance: float = DEFAULT_SUPPORT_TOL

    def __getitem__(self, n: int) -> complex:
        """f_hat(n) inside the window, 0 outside it."""
        i = int(n) - int(self.ns[0])
        return complex(self.coefficients[i]) if 0 <= i < len(self.ns) else 0j

    def abs(self) -> np.ndarray:
        return np.abs(self.coefficients)

    def energy(self) -> float:
        return float(np.sum(self.abs() ** 2))


def fourier_coefficients(mp: SampledCircleMap, tolerance: float = DEFAULT_SUPPORT_TOL) -> FourierSpectrum:
    """DFT coefficients over the window |n| <= m/2 - 1 (trapezoid quadrature).

    tolerance, the support threshold, must be finite and >= 0.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    m = mp.m
    F = np.fft.fft(mp.values)
    half = m // 2
    coeffs = np.concatenate((F[m - half + 1 :], F[:half]))
    coeffs /= m
    return FourierSpectrum(np.arange(-(half - 1), half), coeffs, m, tolerance)


def support(spec: FourierSpectrum) -> set:
    """Indices with |f_hat(n)| above the spectrum's tolerance."""
    mask = spec.abs() > spec.tolerance
    return set(spec.ns[mask].tolist())


def enclosed_area(spec: FourierSpectrum) -> float:
    """Signed area pi * sum n |f_hat(n)|^2 enclosed by the image curve.

    Meaningful when the map is an embedding (the caller's claim). Warns when
    the outer quarter of the window still carries more than 1e-6 of mass,
    which signals a too-small window.
    """
    a = spec.abs() ** 2
    tail = float(np.sum(a[np.abs(spec.ns) > spec.grid_size // 4]))
    if tail > 1e-6:
        warnings.warn(
            f"spectral tail mass {tail:.3e} near the window edge; enlarge the grid",
            RuntimeWarning,
        )
    return math.pi * float(np.sum(spec.ns * a))


def parseval_defect(mp: SampledCircleMap) -> float:
    """|sum |f_hat|^2 - mean |f|^2| with both sides on the same grid."""
    spec = fourier_coefficients(mp)
    rhs = float(np.mean(np.abs(mp.values) ** 2))
    return abs(spec.energy() - rhs)


def onb_check(spec: FourierSpectrum, shifts: range) -> float:
    """Max deviation of shifted-coefficient inner products from delta_jk.

    The shifted sequences f_hat(. - k) form an orthonormal system exactly when
    the map is unimodular; the caller must pass a spectrum of such a map.
    """
    c = spec.coefficients
    shifts = list(shifts)
    # <c(.-j), c(.-k)> telescopes to lag k - j, and |<a, b>| = |<b, a>|
    lags = {abs(k - j) for j in shifts for k in shifts}
    return max((abs(np.vdot(c[d:], c[:-d or None]) - (d == 0)) for d in lags), default=0.0)


def onb_check_map(mp: SampledCircleMap, shifts: range) -> float:
    if mp.kind != "unimodular":
        raise ValueError("orthonormality check requires a unimodular map")
    return onb_check(fourier_coefficients(mp), shifts)


def harmonic_extension(mp: SampledCircleMap, z) -> complex:
    """Series value sum_{n>=0} f_hat(n) z^n + sum_{n>=1} f_hat(-n) conj(z)^n.

    Truncation accuracy degrades near the circle; |z| > 0.999 warns.
    """
    z = as_disk(z)
    if abs(z) > 0.999:
        warnings.warn("harmonic extension evaluated very near the circle", RuntimeWarning)
    spec = fourier_coefficients(mp)
    pos = spec.ns >= 0
    neg = spec.ns < 0
    out = np.sum(spec.coefficients[pos] * z ** spec.ns[pos])
    out += np.sum(spec.coefficients[neg] * np.conjugate(z) ** (-spec.ns[neg]))
    return complex(out)


def spectrum_csv_rows(spec: FourierSpectrum):
    """Rows for the CSV interface: header n,re,im,abs, 17 significant digits."""
    yield "n,re,im,abs"
    for n, c in zip(spec.ns, spec.coefficients):
        yield f"{int(n)},{c.real:.17g},{c.imag:.17g},{abs(c):.17g}"


# ---------------------------------------------------------------------------
# trigonometric series helper (spectral resampling / differentiation)

class TrigSeries:
    """A trigonometric polynomial held by its FFT coefficient array.

    Backs the smooth periodic functions used by the approximation pipeline:
    exact resampling onto power-of-two grids (the one evaluator on uniform
    grids), spectral differentiation and integration, and pointwise
    evaluation for off-grid arguments.
    """

    def __init__(self, coef: np.ndarray):
        self.coef = np.asarray(coef, dtype=complex)
        self.m = len(self.coef)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "TrigSeries":
        values = np.asarray(values, dtype=complex)
        return cls(np.fft.fft(values) / len(values))

    def freqs(self) -> np.ndarray:
        return np.fft.fftfreq(self.m, 1.0 / self.m).astype(int)

    def mean(self) -> complex:
        return complex(self.coef[0])

    def resample(self, g: int) -> np.ndarray:
        """Real part of the values on the uniform grid of size g, exact at the grid points.

        A g above m zero-pads the coefficients; a g that divides m takes every
        (m/g)-th value of the native grid.
        """
        if g <= self.m:
            if self.m % g:
                raise ValueError("resample target must divide the native grid or exceed it")
            return (np.fft.ifft(self.coef) * self.m)[:: self.m // g].real
        c = np.zeros(g, dtype=complex)
        half = self.m // 2
        c[:half] = self.coef[:half]
        c[g - (half - 1):] = self.coef[half + 1:]
        # split the Nyquist bin symmetrically between +-m/2
        c[half] = self.coef[half] / 2.0
        c[g - half] += self.coef[half] / 2.0
        return (np.fft.ifft(c) * g).real

    def derivative(self) -> "TrigSeries":
        return TrigSeries(self.coef * (1j * self.freqs()))

    def antiderivative(self) -> "TrigSeries":
        """Zero-mean antiderivative; requires (numerically) zero mean input."""
        k = self.freqs()
        out = np.zeros_like(self.coef)
        nz = k != 0
        out[nz] = self.coef[nz] / (1j * k[nz])
        return TrigSeries(out)

    def eval(self, theta) -> np.ndarray:
        """Direct evaluation at off-grid angles (O(m) per point, chunked).

        On uniform power-of-two grids use resample, which is exact there.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        k = self.freqs()
        out = np.empty(len(theta))
        chunk = max(1, int(4e6 // max(self.m, 1)))
        for i in range(0, len(theta), chunk):
            blk = theta[i : i + chunk]
            out[i : i + chunk] = (
                (self.coef[None, :] * np.exp(1j * np.outer(blk, k))).sum(axis=1).real
            )
        return out


def sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))
