"""JSON map specifications: the file format shared by the CLI and library.

A map spec is a JSON object with a "type" field:

    {"type": "blaschke_quotient", "zeros": [[re,im],...],
     "poles": [[re,im],...], "sigma": <angle in radians>}
    {"type": "mobius", "a": [re, im]}
    {"type": "star", "x": <float>, "y": <float>}
    {"type": "avoidable", "N": <int>}
    {"type": "samples", "values": [[re,im],...], "kind": "general"}

Numbers must be finite and N a whole number; disk points must satisfy
|z| < 1 - 1e-12; sample arrays must have power-of-two length >= 64.
Violations raise MapSpecError (CLI exit code 2). Each list of [re, im]
pairs becomes one complex array in one conversion, and its disk points are
validated once, by the disk_array of the object built from them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .blaschke import BlaschkeQuotient
from .disk import disk_array
from .fourier import SampledCircleMap
from .gallery import GapParams, StarParams, gap_embedding, mobius_map, rational_family, star_embedding

TYPES = ("blaschke_quotient", "mobius", "star", "avoidable", "samples")


class MapSpecError(ValueError):
    pass


def _number(v, what: str) -> float:
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise MapSpecError(f"{what} must be a number, got {v!r}")
    if not math.isfinite(x):
        raise MapSpecError(f"{what} must be finite, got {x}")
    return x


def _pairs(vs, what: str) -> np.ndarray:
    """A list of [re, im] pairs of finite numbers as one complex array."""
    try:
        xy = np.array(vs, dtype=float) if isinstance(vs, list) else None
    except (TypeError, ValueError, OverflowError):
        xy = None
    if xy is None or (vs and xy.shape[1:] != (2,)):
        raise MapSpecError(f"{what} must be given as [re, im] pairs of numbers")
    bad = xy[~np.isfinite(xy)]
    if len(bad):
        raise MapSpecError(f"{what} must be finite, got {bad[0]}")
    return xy.reshape(-1, 2).view(complex).ravel()


def validate(spec: dict) -> dict:
    if not isinstance(spec, dict):
        raise MapSpecError("map spec must be a JSON object")
    t = spec.get("type")
    if t not in TYPES:
        raise MapSpecError(f"unknown map type {t!r}; expected one of {TYPES}")
    return spec


def quotient_from_spec(spec: dict) -> BlaschkeQuotient:
    """Build a Blaschke quotient from a spec of type blaschke_quotient or mobius."""
    validate(spec)
    t = spec["type"]
    if t == "mobius":
        # (zeta + a)/(1 + conj(a) zeta) is the Blaschke factor with zero -a
        zeros, poles, sigma = [-_moebius_a(spec)], (), 1.0
    elif t == "blaschke_quotient":
        zeros = _pairs(spec.get("zeros", []), "zeros")
        poles = _pairs(spec.get("poles", []), "poles")
        sigma = cmath.exp(1j * _number(spec.get("sigma", 0.0), "sigma"))
    else:
        raise MapSpecError(f"map type {t!r} is not a rational quotient")
    try:
        return BlaschkeQuotient.make(zeros, poles, sigma)
    except ValueError as e:
        raise MapSpecError(str(e))


def _moebius_a(spec: dict) -> complex:
    """The Moebius parameter a, a point of the open disk."""
    a = _pairs([spec.get("a", [0.0, 0.0])], "a")
    try:
        disk_array(a)  # here, so that the message names a, not the factor's zero -a
    except ValueError as e:
        raise MapSpecError(f"a must lie strictly inside the unit disk: {e}")
    return complex(a[0])


def spec_from_quotient(Q: BlaschkeQuotient) -> dict:
    sigma = Q.numerator.sigma / Q.denominator.sigma
    return {
        "type": "blaschke_quotient",
        "zeros": np.column_stack([Q.numerator.zeros.real, Q.numerator.zeros.imag]).tolist(),
        "poles": np.column_stack([Q.denominator.zeros.real, Q.denominator.zeros.imag]).tolist(),
        "sigma": math.atan2(sigma.imag, sigma.real) % (2 * math.pi),
    }


def sampled_from_spec(spec: dict, m: int = 4096) -> SampledCircleMap:
    """Build a sampled circle map from any spec type."""
    validate(spec)
    t = spec["type"]
    try:
        if t in ("blaschke_quotient", "mobius"):
            if t == "mobius":
                return mobius_map(_moebius_a(spec), m)
            return rational_family(quotient_from_spec(spec), m)
        if t == "star":
            try:
                p = StarParams(_number(spec["x"], "x"), _number(spec["y"], "y"))
            except KeyError as e:
                raise MapSpecError(f"star spec missing field {e}")
            return star_embedding(p, m)
        if t == "avoidable":
            if "N" not in spec:
                raise MapSpecError("avoidable spec missing field 'N'")
            N = _number(spec["N"], "N")
            if not N.is_integer():
                raise MapSpecError(f"N must be a whole number, got {spec['N']!r}")
            p = GapParams(int(N))
            return gap_embedding(p, m)
        vals = spec.get("values")
        if not isinstance(vals, list) or not vals:
            raise MapSpecError("samples spec needs a nonempty values array")
        return SampledCircleMap(_pairs(vals, "values"), spec.get("kind", "general"))
    except MapSpecError:
        raise
    except (ValueError, TypeError) as e:
        raise MapSpecError(str(e))
