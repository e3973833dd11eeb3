"""Command-line interface.

Subcommands take a JSON map spec (see mapspec) and emit CSV spectra, JSON
reports, and SVG curves. Exit codes: 0 success, 2 input/schema error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .approx import ApproximationBudgetError, approximate_homeomorphism, as_circle_lift
from .blaschke import GridTooCoarseError
from .bounds import curvature_bound, heinz_report, horconvex_report
from .certify import certify_quotient
from .fourier import (_check_grid_size, enclosed_area, fourier_coefficients, parseval_defect,
                      spectrum_csv_rows, support)
from .mapspec import MapSpecError, quotient_from_spec, sampled_from_spec, spec_from_quotient, validate
from .svg import curve_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise MapSpecError(f"cannot read spec file: {e}")
    except json.JSONDecodeError as e:
        raise MapSpecError(f"spec file is not valid JSON: {e}")


def _write_json(payload: dict, out: str | None):
    # compact: with indent, json falls back to its pure-Python encoder
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def cmd_fourier(args) -> int:
    spec = _load_spec(args.spec)
    mp = sampled_from_spec(spec, args.grid)
    spectrum = fourier_coefficients(mp, args.tolerance)
    rows = list(spectrum_csv_rows(spectrum))
    if args.window is not None:
        header, body = rows[0], rows[1:]
        body = [r for r in body if abs(int(r.split(",")[0])) <= args.window]
        rows = [header] + body
    out = args.out or "spectrum.csv"
    Path(out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    supp = sorted(support(spectrum))
    summary = {
        "grid": mp.m,
        "tolerance": args.tolerance,
        "support": supp,
        "support_min": supp[0] if supp else None,
        "support_max": supp[-1] if supp else None,
        "enclosed_area": enclosed_area(spectrum),
        "parseval_defect": parseval_defect(mp),
        "csv": str(out),
    }
    _write_json(summary, str(Path(out).with_suffix(".summary.json")))
    return EXIT_OK


def cmd_certify(args) -> int:
    spec = _load_spec(args.spec)
    result = certify_quotient(quotient_from_spec(spec), args.grid)
    _write_json(result.to_json_dict(), args.out)
    return EXIT_OK


def cmd_approximate(args) -> int:
    spec = validate(_load_spec(args.spec))
    if spec["type"] in ("blaschke_quotient", "mobius"):
        target = quotient_from_spec(spec)
    else:
        target = sampled_from_spec(spec, args.grid)
    lift = as_circle_lift(target)
    result = approximate_homeomorphism(lift, args.eps, args.direction, args.grid)
    payload = {
        "quotient": spec_from_quotient(result.quotient),
        "direction": result.direction,
        "sup_error": result.sup_error,
        "certification": result.certification.to_json_dict(),
        "log": {k: v for k, v in result.log.items()
                if isinstance(v, (int, float, str)) or v is None},
    }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_figure(args) -> int:
    spec = _load_spec(args.spec)
    mp = sampled_from_spec(spec, args.grid)
    out = args.out or "curve.svg"
    Path(out).write_text(curve_svg(mp.values), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    spec = _load_spec(args.spec)
    mp = sampled_from_spec(spec, args.grid)
    payload = {}
    heinz = None
    if mp.kind == "unimodular":
        heinz = heinz_report(mp)
        payload["heinz"] = heinz.to_json_dict()
    hor = horconvex_report(mp)
    payload["horconvex"] = hor.to_json_dict()
    payload["curvature_bound"] = curvature_bound(heinz, hor)  # raises if none applies
    _write_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circlemaps",
                                description="circle homeomorphisms and embeddings toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--spec", required=True, help="path to a JSON map spec")
        sp.add_argument("--grid", type=int, default=4096, help="sampling grid size (power of two)")
        sp.add_argument("--out", default=None, help="output file path")

    sp = sub.add_parser("fourier", help="spectrum CSV + JSON summary")
    common(sp)
    sp.add_argument("--tolerance", type=float, default=1e-8, help="support detection threshold")
    sp.add_argument("--window", type=int, default=None, help="restrict CSV to |n| <= window")
    sp.set_defaults(func=cmd_fourier)

    sp = sub.add_parser("certify", help="homeomorphism/diffeomorphism verdict")
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("approximate", help="rational diffeomorphism approximation")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.1, help="uniform error budget")
    sp.add_argument("--direction", choices=("below", "above"), default="below")
    sp.set_defaults(func=cmd_approximate)

    sp = sub.add_parser("figure", help="SVG of the image curve")
    common(sp)
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("bounds", help="coefficient and curvature bound reports")
    common(sp)
    sp.set_defaults(func=cmd_bounds)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            _check_grid_size(args.grid)  # every subcommand samples or certifies on --grid
        except ValueError as e:
            raise MapSpecError(str(e))
        eps, tolerance = getattr(args, "eps", 1.0), getattr(args, "tolerance", 0.0)
        if not (math.isfinite(eps) and eps > 0):
            raise MapSpecError(f"--eps must be a finite number > 0, got {eps}")
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise MapSpecError(f"--tolerance must be a finite number >= 0, got {tolerance}")
        return args.func(args)
    except MapSpecError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ApproximationBudgetError, GridTooCoarseError, ValueError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
