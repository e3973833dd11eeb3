"""Workload inputs, operations and output checks, built on the public API.

``build(workload, seed, workdir)`` makes the inputs of one pass from the
seed alone and returns a list of operations; every pass of a run gets the
same inputs, so the runner can compare each operation across passes. An
operation is (kind, run, check): ``run()`` is the timed call into
circlemaps and returns its output; ``check(output)`` runs after the timed
phase and returns (ok, quality), where quality holds the quotient degree,
uniform error and certificate margin when the operation has them.

Why these workloads:

* dense_homeo: the criterion-3 piecewise-linear homeomorphism at eps 0.05,
  the user's long pole. Ring power sums and TrigSeries.eval do most of the
  work, then certify_quotient on a degree-16384 quotient.
* smooth_cli: ``circlemaps approximate`` on a Moebius map, in-process
  through cli.main. TrigSeries.eval does most of the work and power sums
  almost none; the only workload running mapspec, cli and "above".
* certify_mix: a stream of small certify_quotient calls (71% pairing-
  condition diffeomorphisms, 28% pole-dominated violations) with 0.8%
  near-boundary shifted rings of degree 256 and 512, where fixed per-call
  cost dominates the small calls and the rings take about 30% of the time.
* gallery_scan: 4096-point gallery curves through fourier, gallery, bounds
  and the sampled embedding check; no Blaschke machinery.

For dense_homeo and smooth_cli the seed picks a rotation by 2*pi*k/64 of the
image circle, which changes the lift only by a constant, so the quotient
degree and the work are the same for every seed. A rotation of the domain
would not do: the antiderivative behind the kernel rings is anchored at
angle 0, so it moves the rings and, for some k, the degree (the criterion-3
lift rotated by 2*pi*57/64 gives degree 8192 instead of 16384).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os

import numpy as np

import circlemaps as cm
from circlemaps import cli
from circlemaps.certify import DIFFEOMORPHISM, INCONCLUSIVE, NOT_HOMEOMORPHISM
from circlemaps.mapspec import quotient_from_spec

TWO_PI = 2.0 * math.pi
EPS = 0.05
SUPPORT_GRID = 2**17
# gallery_scan: the gallery constructors' default sample count (at 1024
# points the spectra leak past the FFT window and the checks fail). A curve
# takes some 20 ms and a pass of GALLERY_ROUNDS rounds of the five curves
# some 0.2 s, so a run makes about a hundred passes to sample each curve in.
GALLERY_GRID = 4096
GALLERY_ROUNDS = 2
HEINZ_GRID = 4096
# Degrees the constructions reach at the commit that added this benchmark. A
# bigger quotient fails the check, so a change cannot buy speed with degree.
MAX_DEGREE = {"dense_homeo": 16384, "smooth_cli": 1025}

# certify_mix: a pass runs one block per ring degree; a block holds one ring,
# PAIRING pairing instances and VIOLATING violations, each with numerator
# degree 2..6 in equal shares. Violations (0.6 to 1.0 ms) and pairing calls
# (1.7 to 2.3 ms, they go on to heinz_report) form two latency modes; these
# shares put the median inside the pairing mode, away from the gap between
# them. A pass takes about 0.65 s, so a 36 s run fits some 50 passes for the
# runner to sample each operation in; rings of degree 1024 and 2048 would
# take 0.3 and 0.6 s each.
PAIRING, VIOLATING = 89, 36
RING_DEGREES = (256, 512)


def _rotation(rng) -> float:
    return TWO_PI * int(rng.integers(64)) / 64.0


# ---------------------------------------------------------------------------
# dense_homeo and smooth_cli


def dense_homeo(rng, workdir):
    s = _rotation(rng)
    lift = cm.CircleLift.from_breakpoints(
        [(0.0, s), (math.pi / 2, math.pi + s), (TWO_PI, TWO_PI + s)])

    def run():
        return cm.approximate_homeomorphism(lift, EPS, "below")

    def check(res):
        Q = res.quotient
        spec = cm.fourier_coefficients(cm.rational_family(Q, SUPPORT_GRID), tolerance=1e-6)
        deg = Q.numerator.degree
        ok = (res.certification.verdict == DIFFEOMORPHISM and res.sup_error < EPS
              and min(cm.support(spec)) >= -(deg - 1)
              and deg <= MAX_DEGREE["dense_homeo"])
        return ok, {"quotient_degree": deg, "uniform_error": res.sup_error,
                    "cert_margin": res.certification.margin}

    return [("approximate_below", run, check)]


def smooth_cli(rng, workdir):
    # the Moebius map (zeta + 0.3)/(1 + 0.3 zeta), followed by the seeded rotation
    spec = {"type": "blaschke_quotient", "zeros": [[-0.3, 0.0]], "poles": [],
            "sigma": _rotation(rng)}
    spec_path = os.path.join(workdir, f"mobius-{os.getpid()}.json")
    out_path = os.path.join(workdir, f"approx-{os.getpid()}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    argv = ["approximate", "--spec", spec_path, "--eps", str(EPS), "--direction", "above",
            "--out", out_path]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(rc):
        if rc != 0:
            return False, {}
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        Q = quotient_from_spec(payload["quotient"])
        cert = cm.certify_quotient(Q)
        spec = cm.fourier_coefficients(cm.rational_family(Q, SUPPORT_GRID), tolerance=1e-6)
        deg = Q.numerator.degree
        ok = (cert.verdict == DIFFEOMORPHISM and payload["sup_error"] < EPS
              and max(cm.support(spec)) <= Q.denominator.degree + 1
              and deg <= MAX_DEGREE["smooth_cli"])
        return ok, {"quotient_degree": deg, "uniform_error": payload["sup_error"],
                    "cert_margin": payload["certification"]["margin"]}

    return [("cli_approximate_above", run, check)]


# ---------------------------------------------------------------------------
# certify_mix


def _disk_points(rng, n, rmax):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def _pairing_instance(rng, n):
    """n+1 zeros and n poles meeting the strict pairing condition."""
    z0 = complex(_disk_points(rng, 1, 0.25)[0])
    while True:
        ws = [complex(w) for w in _disk_points(rng, n, 0.5)]
        zs = [z0]
        for wk in ws:
            d0 = abs(wk - z0) / abs(1.0 - wk * z0.conjugate())
            t = rng.uniform(0.05, 0.9) * (1.0 - d0) ** 2 / (4.0 * n)
            xi = t * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            zs.append((xi + wk) / (1.0 + wk.conjugate() * xi))  # at distance t from wk
        if cm.pseudo_condition(zs, ws).strict:
            return zs, ws


def _violating_instance(rng, n):
    """Degree-difference-one quotient whose pole near the circle outweighs the zeros.

    Zeros and the other poles sit in |z| <= 0.3, so the zeros' kernels sum to
    at most 6 * 1.3/0.7 < 11.2, while the pole at radius >= 0.9 contributes
    at least 19 at its own angle: the derivative is negative there.
    """
    zs = list(_disk_points(rng, n + 1, 0.3))
    ws = list(_disk_points(rng, n - 1, 0.3))
    ws.append(rng.uniform(0.9, 0.95) * cmath.exp(1j * rng.uniform(0.0, TWO_PI)))
    return zs, ws


def _ring_instance(rng, n):
    """Shifted ring of n zeros at radius 1 - c/n over a pole of order n-1 at 0.

    Shifts a_k = -g(phi_k)/n with g = (0.3/2) sin(2 phi + psi) make the
    argument derivative about 1 + 0.3 cos(2 theta + psi), off by the ring
    ripple 2 n r^n ~ 2 n e^-c; c = log(40 n) + 3 keeps that below 0.01. Only
    the phase psi is seeded, so every ring of a degree costs the same.
    """
    r = 1.0 - (math.log(40.0 * n) + 3.0) / n
    psi = rng.uniform(0.0, TWO_PI)
    phi = TWO_PI * np.arange(n) / n
    shifts = -0.15 * np.sin(2.0 * phi + psi) / n
    return r * np.exp(1j * (phi + shifts))


def _certify_op(kind, build_quotient):
    def run():
        Q = build_quotient()
        cert = cm.certify_quotient(Q)
        heinz = cm.heinz_report(cm.rational_family(Q, HEINZ_GRID)) \
            if cert.verdict == DIFFEOMORPHISM else None
        return Q, cert, heinz

    def check(out):
        Q, cert, heinz = out
        if kind == "violating":
            if cert.verdict == INCONCLUSIVE:
                return True, {}
            ok = (cert.verdict == NOT_HOMEOMORPHISM and cert.witness_theta is not None
                  and cm.quotient_arg_derivative(Q, cmath.exp(1j * cert.witness_theta)) < 0)
            return ok, {}
        ok = cert.verdict == DIFFEOMORPHISM and heinz is not None
        return ok, {"cert_margin": cert.margin} if ok else {}

    return kind, run, check


def certify_mix(rng, workdir):
    ops = []
    for n in RING_DEGREES:  # a fixed order: the peak RSS depends on it
        block = [_certify_op("ring", lambda z=_ring_instance(rng, int(n)):
                             cm.terminating_family_quotient("below", z))]
        for i in range(PAIRING + VIOLATING):
            deg = 1 + i % 5  # n poles, n+1 zeros: numerator degree 2..6 in equal shares
            if i < VIOLATING:
                zs, ws = _violating_instance(rng, deg)
                kind = "violating"
            else:
                zs, ws = _pairing_instance(rng, deg)
                kind = "pairing"
            sigma = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            block.append(_certify_op(kind, lambda z=zs, w=ws, s=sigma: cm.pseudo_quotient(z, w, s)))
        ops.extend(block[j] for j in rng.permutation(len(block)))
    return ops


# ---------------------------------------------------------------------------
# gallery_scan


def _star_params(rng):
    """Seeded star vertices that bound a simple quadrilateral."""
    while True:
        p = cm.StarParams(rng.uniform(0.3, 0.7), rng.uniform(0.6, 1.2))
        try:
            cm.star_embedding(p, 64)
            return p
        except ValueError:
            continue


def _scan(make_curve, extra_check):
    def run():
        mp = make_curve()
        spec = cm.fourier_coefficients(mp)
        out = {
            "mp": mp, "spec": spec, "support": cm.support(spec),
            "area": cm.enclosed_area(spec), "parseval": cm.parseval_defect(mp),
            "embedding": cm.embedding_check_sampled(mp), "horconvex": cm.horconvex_report(mp),
        }
        if mp.kind == "unimodular":
            out["heinz"] = cm.heinz_report(mp)
        return out

    def check(out):
        ok = out["embedding"].simple and out["parseval"] < 1e-6 and extra_check(out)
        return ok, {}

    return "curve", run, check


def gallery_scan(rng, workdir):
    ops = []
    for _ in range(GALLERY_ROUNDS):
        for N in (1, 2, 3):
            p = cm.GapParams(N)
            ops.append(_scan(lambda p=p: cm.gap_embedding(p, GALLERY_GRID),
                             lambda out, N=N: all(abs(out["spec"][n]) < 1e-3
                                                  for n in range(-N, N + 1))))
        star = _star_params(rng)
        ops.append(_scan(lambda star=star: cm.star_embedding(star, GALLERY_GRID),
                         lambda out, star=star: np.sign(out["spec"][1].real)
                         == np.sign(cm.star_first_coefficient(star))))
        # |a| sets how unevenly the samples crowd, and with it the embedding
        # check's work: only the direction is seeded
        a = 0.3 * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        ops.append(_scan(lambda a=a: cm.mobius_map(a, GALLERY_GRID),
                         lambda out: out["heinz"].weitsman_ok))
    # in gallery order: the first curve of a pass pays the process's first-call
    # costs, and a shuffled order would move them between curve kinds
    return ops


WORKLOADS = {
    "dense_homeo": dense_homeo,
    "smooth_cli": smooth_cli,
    "certify_mix": certify_mix,
    "gallery_scan": gallery_scan,
}


def build(workload: str, seed: int, workdir: str):
    """Operations of one pass; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[workload](rng, workdir)
