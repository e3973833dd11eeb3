"""Behaviour record: the outputs of circlemaps' pipelines in one JSON file.

    python tools/record.py OUT.json [--seed S]
    python tools/record.py --compare A.json B.json

The record holds, for the seed S (default 7):

* certify_mix: the benchmark's certify_mix inputs (bench/workloads.py, read
  and not changed): each certificate's to_json_dict, the degrees and the
  Heinz report's hall_lhs;
* criterion_3: the piecewise-linear lift through (0, 0), (pi/2, pi),
  (2 pi, 2 pi) approximated at eps 0.05 in both directions, with each
  certificate's to_json_dict;
* criterion_2: the C1 approximation of 0.3 sin + 0.1 cos 2 at eps 0.1;
* smooth_cli: the benchmark's smooth_cli output file;
* gallery_scan: the benchmark's gallery_scan curves: spectrum window and
  coefficients, support, enclosed area, Parseval defect, embedding verdict
  and witness, and the horconvex and Heinz reports;
* sufficient_conditions: pseudo_condition, radial_sufficient and both
  terminating_family_check sides on 2000 seeded instances;
* sampled: homeo_check_sampled on seeded sampled maps, and the lifts
  CircleLift.from_samples builds from them;
* continuous_arg: seeded quotients with points near the circle;
* grid_paths: values, argument and derivative grids (a fixed stride of each),
  derivative_grid_error and certify_quotient on quotients that take the
  direct path and on series whose order exceeds the grid;
* embedding: embedding_check_sampled's verdict and witness on curves whose
  sides take several cell levels: the Moebius curves at 0.95 and 0.999
  (2^12 points) and 0.99 (2^14), each also with two crowded samples
  swapped; 20 seeded polygons of 64 to 256 vertices, star polygons with
  radii 10^U(-10, 0) and random walks with steps 10^U(-8, 0), each also
  with two vertices swapped; the figure eight; and the star at x = 1e15,
  y = 0.5;
* common_zero: what BlaschkeQuotient.make returns ("ok") or the message
  it raises on 304 seeded zero and pole sets, 38 from each of eight
  families: random points; a pole 1e-14 to 3e-11 from a zero; values
  repeated on each side and across the sides; one real part for all
  points, some imaginary parts shared or 1e-13 apart; zeros at the origin
  with signed zero parts; points at radius 0.999999 with poles at or
  1e-13 to 1e-9 off the zeros' angles; one cluster of radius 1e-12 on both
  sides; and one or both sides empty;
* approx: kernel_pair_approximation and kernel_sum_approximation on cos,
  sin 3t + cos 7t / 2 and 0 at eps 0.3 and 0.1, kernel_sum_approximation
  on three inputs whose first pair ring is too sparse to stand alone,
  periodic_antiderivative, ring_defect and kernel_ring_split on seeded
  rings of 4 to 64 points, approximate_homeomorphism of
  quadratic_quotient(0.15) "above" at eps 0.08, and what the kernel
  functions and periodic_antiderivative return or raise on a function with
  NaN values and on cos t + 0.1, which has mean 0.1.

Floats are written with float.hex, so two records are equal exactly when the
outputs are bitwise equal. --compare prints each key that differs and, for
each top-level section, how many keys differ, the largest absolute
difference among the floats that differ and how many keys changed kind
(raised against returned, type or length); it exits 1 if any key differs.
BLAS summation order can differ between builds and thread counts, so
compare records made on one machine. The package is imported from
the src/ directory next to this file, so a record describes its own tree.
"""

from __future__ import annotations

import argparse
import cmath
import glob
import json
import math
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no cache files in bench/, which belongs to the benchmark
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

import circlemaps as cm  # noqa: E402
from circlemaps.approx import ApproximationBudgetError, measure_c1_error, ring_defect  # noqa: E402
from circlemaps.blaschke import (  # noqa: E402
    GridTooCoarseError,
    continuous_arg,
    derivative_grid_error,
    quotient_arg_grid,
    quotient_derivative_grid,
    quotient_values_grid,
)
from circlemaps.fourier import grid_theta  # noqa: E402
import workloads  # noqa: E402

TWO_PI = 2.0 * math.pi


def encode(x):
    """JSON-ready copy of x with every float (and complex part) as float.hex."""
    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real).hex(), float(x.imag).hex()]
    if isinstance(x, dict):
        return {str(k): encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [encode(v) for v in x]
    raise TypeError(f"cannot record {type(x).__name__}")


def _quotient(Q) -> dict:
    return {"zeros": Q.numerator.zeros, "poles": Q.denominator.zeros,
            "sigma": Q.numerator.sigma / Q.denominator.sigma}


def certify_mix(seed: int, workdir: str) -> list:
    out = []
    for kind, run, _ in workloads.build("certify_mix", seed, workdir):
        Q, cert, heinz = run()
        out.append(dict(cert.to_json_dict(), kind=kind,
                        degrees=[Q.numerator.degree, Q.denominator.degree],
                        hall_lhs=None if heinz is None else heinz.hall_lhs))
    return out


def criterion_3() -> dict:
    lift = cm.CircleLift.from_breakpoints([(0, 0), (math.pi / 2, math.pi), (TWO_PI, TWO_PI)])
    out = {}
    for direction in ("below", "above"):
        res = cm.approximate_homeomorphism(lift, 0.05, direction)
        out[direction] = dict(_quotient(res.quotient), sup_error=res.sup_error,
                              certification=res.certification.to_json_dict(), log=res.log)
    return out


def criterion_2() -> dict:
    u = cm.PeriodicC1Function.from_callable(
        lambda th: 0.3 * np.sin(th) + 0.1 * np.cos(2 * th),
        lambda th: 0.3 * np.cos(th) - 0.2 * np.sin(2 * th),
    )
    res = cm.approximate_c1(u, 0.1)
    return dict(_quotient(res.quotient), n=res.n, sup_error=res.sup_error,
                derivative_error=res.derivative_error, log=res.log,
                measured=measure_c1_error(u, res.quotient, 2**14))


def smooth_cli(seed: int, workdir: str) -> dict:
    (_, run, _), = workloads.build("smooth_cli", seed, workdir)
    rc = run()
    (path,) = glob.glob(os.path.join(workdir, "approx-*.json"))
    return {"exit": rc, "output": _load(path)}


def gallery_scan(seed: int, workdir: str) -> list:
    out = []
    for _, run, _ in workloads.build("gallery_scan", seed, workdir):
        res = run()
        spec, emb = res["spec"], res["embedding"]
        out.append({"kind": res["mp"].kind, "window": [spec.ns[0], spec.ns[-1]],
                    "coefficients": spec.coefficients, "support": sorted(res["support"]),
                    "area": res["area"], "parseval": res["parseval"],
                    "embedding": {"simple": emb.simple, "witness": emb.witness},
                    "horconvex": res["horconvex"].to_json_dict(),
                    "heinz": res["heinz"].to_json_dict() if "heinz" in res else None})
    return out


def _disk_points(rng, n, rmax):
    return rmax * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def sufficient_conditions(seed: int) -> list:
    """n = 1..6, radii up to 0.05..0.9, zeros at the origin in a quarter, poles near zeros in a third."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(2000):
        n = int(rng.integers(1, 7))
        zs = _disk_points(rng, n + 1, rng.uniform(0.05, 0.9))
        if i % 4 == 0:
            zs[rng.integers(0, n + 1)] = 0.0
        if i % 3 == 0:
            ws = zs[1:] + _disk_points(rng, n, 0.02)
        else:
            ws = _disk_points(rng, n, rng.uniform(0.05, 0.9))
        res = cm.pseudo_condition(zs, ws)
        out.append({"statuses": res.statuses, "holds": res.holds, "strict": res.strict,
                    "radial": cm.radial_sufficient(zs, ws),
                    "below": cm.terminating_family_check("below", zs[:n]),
                    "above": cm.terminating_family_check("above", zs[:n])})
    return out


def _outcome(f, *args):
    """f(*args), or the name and message of the error it raised.

    The errors recorded are ValueError, GridTooCoarseError and ApproximationBudgetError.
    """
    try:
        return f(*args)
    except (ValueError, GridTooCoarseError, ApproximationBudgetError) as e:
        return {"raised": type(e).__name__, "message": str(e)}


def sampled(seed: int) -> list:
    """Sampled maps from quotients that are homeomorphisms or not, on 64 to 1024 points."""
    rng = np.random.default_rng(seed)
    theta = grid_theta(512)
    out = []
    for i in range(50):
        sigma = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        if i % 2:
            Q = cm.BlaschkeQuotient.make(_disk_points(rng, 2, 0.4), _disk_points(rng, 1, 0.4), sigma)
        else:  # a homeomorphism exactly when |a| <= 1/3
            Q = cm.quadratic_quotient(complex(_disk_points(rng, 1, 0.5)[0]), sigma)
        mp = cm.rational_family(Q, int(2 ** rng.integers(6, 11)))
        screen = _outcome(cm.homeo_check_sampled, mp)
        lift = _outcome(cm.CircleLift.from_samples, mp.values)
        out.append({
            "screen": screen if isinstance(screen, dict) else {"verdict": screen.verdict,
                                                               "witness": screen.witness},
            "lift": lift if isinstance(lift, dict) else lift.value(theta + 0.3) - theta,
        })
    return out


def continuous_args(seed: int) -> list:
    """Quotients with 1-4 zeros and fewer poles at radius 1 - 10^U(-3, -0.3), grids 16-512."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(300):
        nz = int(rng.integers(1, 5))
        zs, ws = (1 - 10 ** rng.uniform(-3, -0.3, k) for k in (nz, int(rng.integers(0, nz))))
        zs = zs * np.exp(1j * rng.uniform(0, TWO_PI, len(zs)))
        ws = ws * np.exp(1j * rng.uniform(0, TWO_PI, len(ws)))
        Q = cm.BlaschkeQuotient.make(zs, ws, cmath.exp(1j * rng.uniform(0, TWO_PI)))
        res = _outcome(continuous_arg, Q, int(2 ** rng.integers(4, 10)))
        out.append(res if isinstance(res, dict) else res[1])
    return out


def _smooth_ring(n=1024, r=0.9875):
    phi = TWO_PI * np.arange(n) / n
    return r * np.exp(1j * (phi + 0.15 * np.sin(2 * phi) / n))


def grid_paths(seed: int) -> dict:
    """Direct-path quotients, and series longer than the grid, each read on every 1/256th of its grid."""
    rng = np.random.default_rng(seed)
    ring = _smooth_ring()
    angles = rng.uniform(0.0, TWO_PI, 4)
    cases = {
        "ring_with_zero_at_1-1e-6": (cm.BlaschkeQuotient.make(
            [*ring, (1 - 1e-6) * cmath.exp(1j * angles[0])], np.zeros(len(ring))), 8192),
        "three_zeros_at_1-3e-6_over_0.5i": (cm.BlaschkeQuotient.make(
            (1 - 3e-6) * np.exp(1j * angles[1:]), [0.5j]), 4096),
        "sigma_zeta^7": (cm.BlaschkeQuotient.make(
            np.zeros(7), [], cmath.exp(1j * rng.uniform(0.0, TWO_PI))), 1024),
        "near_circle_pair_g64": (cm.BlaschkeQuotient.make([0.0, 0.99999], [0.3]), 64),
        "near_circle_pair_g4096": (cm.BlaschkeQuotient.make([0.0, 0.99999], [0.3]), 4096),
        "smooth_ring_g1024": (cm.BlaschkeQuotient.make(np.zeros(len(ring) + 1), ring), 1024),
    }
    out = {}
    for name, (Q, g) in cases.items():
        stride = max(1, g // 256)
        out[name] = {"grid": g, "values": quotient_values_grid(Q, g)[::stride],
                     "arg": quotient_arg_grid(Q, g)[::stride],
                     "derivative": quotient_derivative_grid(Q, g)[::stride],
                     "derivative_grid_error": derivative_grid_error(Q, g),
                     "certification": cm.certify_quotient(Q).to_json_dict()}
    return out


def _swapped(v, i, j):
    w = v.copy()
    w[[i, j]] = w[[j, i]]
    return w


def embedding(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    curves = {"figure_eight": np.cos(grid_theta(256)) + 0.5j * np.sin(2 * grid_theta(256)),
              "star_1e15": cm.star_embedding(cm.StarParams(1e15, 0.5)).values}
    for a, m in ((0.95, 2**12), (0.999, 2**12), (0.99, 2**14)):
        v = cm.mobius_map(a, m).values
        curves[f"mobius/{a}/{m}"] = v
        curves[f"mobius/{a}/{m}/swapped"] = _swapped(v, 2, 7)  # the samples crowd near index 0
    for k in range(20):
        m = int(2 ** rng.integers(6, 9))
        if k % 2:
            v = np.cumsum(10 ** rng.uniform(-8, 0, m) * np.exp(1j * rng.uniform(0, TWO_PI, m)))
        else:
            v = 10 ** rng.uniform(-10, 0, m) * np.exp(1j * TWO_PI * (np.arange(m) + rng.uniform(0, 0.9, m)) / m)
        curves[f"polygon/{k}"] = v
        curves[f"polygon/{k}/swapped"] = _swapped(v, *rng.choice(m, 2, replace=False))
    out = {}
    for name, v in curves.items():
        res = cm.embedding_check_sampled(cm.SampledCircleMap(v))
        out[name] = {"simple": res.simple, "witness": res.witness}
    return out


def _zeros_and_poles(rng, family):
    n, m = (int(k) for k in rng.integers(0, 9, 2))
    num, den = _disk_points(rng, n, 0.9), _disk_points(rng, m, 0.9)
    if family == 1 and n:
        den = np.append(den, num[rng.integers(n)] + 10 ** rng.uniform(-14, math.log10(3e-11))
                        * cmath.exp(1j * rng.uniform(0.0, TWO_PI)))
    elif family == 2:
        pool = _disk_points(rng, int(rng.integers(1, 5)), 0.9)
        num, den = rng.choice(pool, n), rng.choice(pool, m)
    elif family == 3:
        x, ys = rng.uniform(-0.6, 0.6), rng.uniform(-0.7, 0.7, n)
        near = rng.choice(ys, min(n, 2)) + rng.choice([0.0, 1e-13], min(n, 2))
        num, den = x + 1j * ys, x + 1j * np.append(rng.uniform(-0.7, 0.7, m), near)
    elif family == 4:
        signed = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        num = np.append(num, rng.choice(signed, int(rng.integers(0, 3))))
        den = np.append(den, rng.choice(signed, int(rng.integers(0, 3))))
    elif family == 5:
        phi = rng.uniform(0.0, TWO_PI, n)
        shift = rng.choice([0.0, 1.0], min(n, 3)) * 10 ** rng.uniform(-13, -9, min(n, 3))
        num = 0.999999 * np.exp(1j * phi)
        den = 0.999999 * np.exp(1j * np.append(rng.uniform(0.0, TWO_PI, m), phi[:3] + shift))
    elif family == 6:
        c = _disk_points(rng, 1, 0.9)[0]
        num, den = c + _disk_points(rng, n, 1e-12), c + _disk_points(rng, m, 1e-12)
    elif family == 7:
        num, den = [(num, []), ([], den), ([], [])][int(rng.integers(3))]
    return num, den


def common_zero(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(304):
        res = _outcome(cm.BlaschkeQuotient.make, *_zeros_and_poles(rng, i % 8))
        out.append(res["message"] if isinstance(res, dict) else "ok")
    return out


def _kernels(comb, log) -> dict:
    return {"positives": comb.positives, "negatives": comb.negatives, "constant": comb.constant, "log": log}


def approx(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, 32)
    functions = {"cos": np.cos, "sin3+cos7/2": lambda th: np.sin(3 * th) + 0.5 * np.cos(7 * th),
                 "zero": np.zeros_like}
    out = {}
    for name, h in functions.items():
        for eps in (0.3, 0.1):
            out[f"pair/{name}/{eps}"] = _kernels(*cm.kernel_pair_approximation(h, eps))
            out[f"sum/{name}/{eps}"] = _kernels(*cm.kernel_sum_approximation(h, eps))
        g = cm.periodic_antiderivative(h)
        out[f"antiderivative/{name}"] = {"value": g.value(theta), "derivative": g.derivative(theta)}
    restarts = {"0.3cos/0.3": (lambda th: 0.3 * np.cos(th), 0.3),  # the first pair ring is too sparse
                "0.5sin2/0.5": (lambda th: 0.5 * np.sin(2 * th), 0.5),
                "0.1cos/0.15": (lambda th: 0.1 * np.cos(th), 0.15)}
    for name, (h, eps) in restarts.items():
        out[f"sum/{name}"] = _kernels(*cm.kernel_sum_approximation(h, eps))
    for n in (4, 8, 16, 32, 64):
        w0 = complex(_disk_points(rng, 1, 0.9)[0])
        rotations = w0 * np.exp(2j * np.pi * np.arange(1, n) / n)
        out[f"ring/{n}"] = {"w0": w0, "defect": ring_defect(w0, rotations),
                            "split": cm.kernel_ring_split(w0, 1e-6)[0]}
    res = cm.approximate_homeomorphism(cm.quadratic_quotient(0.15), 0.08, "above")
    out["homeomorphism"] = dict(_quotient(res.quotient), sup_error=res.sup_error,
                                certification=res.certification.to_json_dict(), log=res.log)
    for name, h in (("nan", lambda th: np.where(th > 1, np.nan, np.sin(th))),
                    ("mean_0.1", lambda th: np.cos(th) + 0.1)):
        out[f"outcome/pair/{name}"] = _outcome(lambda: _kernels(*cm.kernel_pair_approximation(h, 0.3)))
        out[f"outcome/sum/{name}"] = _outcome(lambda: _kernels(*cm.kernel_sum_approximation(h, 0.3)))
        out[f"outcome/antiderivative/{name}"] = _outcome(lambda: cm.periodic_antiderivative(h).value(theta))
    return out


def record(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return encode({
            "certify_mix": certify_mix(seed, workdir),
            "criterion_3": criterion_3(),
            "criterion_2": criterion_2(),
            "smooth_cli": smooth_cli(seed, workdir),
            "gallery_scan": gallery_scan(seed, workdir),
            "sufficient_conditions": sufficient_conditions(seed),
            "sampled": sampled(seed),
            "continuous_arg": continuous_args(seed),
            "grid_paths": grid_paths(seed),
            "embedding": embedding(seed),
            "common_zero": common_zero(seed),
            "approx": approx(seed),
        })


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_MISSING = object()  # a key one record lacks; unequal to every value


def differences(a, b, key: str = ""):
    """(key, a's value, b's value) for each slash-separated key whose values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            yield from differences(a.get(k, _MISSING), b.get(k, _MISSING), f"{key}/{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{key}/{i}")
    elif a != b:
        yield key or "/", a, b


def _hex_float(x):
    try:
        return float.fromhex(x) if isinstance(x, str) else None
    except ValueError:
        return None


def summary(diff) -> dict:
    """Per top-level section: keys that differ, the largest float difference, keys that changed kind."""
    out = {}
    for key, a, b in diff:
        s = out.setdefault(key.split("/")[1], {"keys": 0, "max_abs": 0.0, "kind": 0})
        s["keys"] += 1
        x, y = _hex_float(a), _hex_float(b)
        if x is not None and y is not None:
            s["max_abs"] = max(s["max_abs"], abs(x - y))
        elif type(a) is not type(b) or isinstance(a, list):  # lists reach here only with unequal lengths
            s["kind"] += 1
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="record file to write")
    p.add_argument("--seed", type=int, default=7, help="seed of every seeded input")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="records to compare")
    args = p.parse_args(argv)
    if args.compare:
        diff = list(differences(*map(_load, args.compare)))
        for key, _, _ in diff:
            print(key)
        for section, s in summary(diff).items():
            print(f"{section}: {s['keys']} keys differ, largest float difference {s['max_abs']:.3g}, "
                  f"{s['kind']} changed kind", file=sys.stderr)
        print(f"{len(diff)} keys differ", file=sys.stderr)
        return 1 if diff else 0
    if not args.out:
        p.error("give a record file to write, or --compare A B")
    rec = record(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
