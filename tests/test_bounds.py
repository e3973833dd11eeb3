import json
import math

import numpy as np
import pytest

from circlemaps.bounds import (
    HALL_CONSTANT,
    WEITSMAN_CONSTANT,
    curvature_bound,
    heinz_report,
    horconvex_report,
)
from circlemaps.fourier import SampledCircleMap, fourier_coefficients, grid_theta
from circlemaps.gallery import (
    GapParams,
    StarParams,
    gap_embedding,
    mobius_map,
    rational_family,
    star_embedding,
)


def identity_map(m=4096):
    return SampledCircleMap(np.exp(1j * grid_theta(m)), "unimodular")


def test_constants():
    assert HALL_CONSTANT == pytest.approx(0.683917, abs=1e-6)
    assert WEITSMAN_CONSTANT == pytest.approx(2 / math.pi, abs=1e-15)


def test_heinz_identity():
    rep = heinz_report(identity_map())
    assert rep.hall_lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.hall_ok and rep.weitsman_ok
    assert rep.weitsman_lhs == pytest.approx(1.0, abs=1e-12)


def test_heinz_mobius_half_arithmetic():
    # checks the report's arithmetic: for this map the centered normalization
    # behind the sharp constant fails, so the flag goes false even though the
    # map is a diffeomorphism
    rep = heinz_report(mobius_map(0.5, 4096))
    assert rep.c_0 == pytest.approx(0.5, abs=1e-12)
    assert rep.c_plus1 == pytest.approx(0.75, abs=1e-12)
    assert abs(rep.c_minus1) < 1e-12
    assert rep.hall_lhs == pytest.approx(0.5625, abs=1e-12)
    assert not rep.hall_ok
    assert rep.weitsman_lhs == pytest.approx(1.25, abs=1e-12)
    assert rep.weitsman_ok


def test_heinz_constant_map():
    const = SampledCircleMap(np.ones(4096), "unimodular")
    rep = heinz_report(const)
    assert rep.hall_lhs == pytest.approx(0.0, abs=1e-20)
    assert not rep.hall_ok
    # |c(0)| = 1 keeps the Weitsman side true even for this non-homeomorphism
    assert rep.weitsman_lhs == pytest.approx(1.0, abs=1e-12)


def test_heinz_requires_unimodular():
    mp = SampledCircleMap(2 * np.exp(1j * grid_theta(64)))
    with pytest.raises(ValueError):
        heinz_report(mp)


def test_horconvex_identity_numbers():
    rep = horconvex_report(identity_map())
    assert rep.is_horconvex
    assert rep.delta == pytest.approx(2.0, abs=1e-12)
    assert rep.L == pytest.approx(1.0, abs=1e-6)
    assert rep.bound == pytest.approx((1 / math.pi) * (1 - math.cos(0.5)), abs=1e-6)
    assert rep.bound == pytest.approx(0.038965, abs=1e-5)
    assert rep.lhs == pytest.approx(1.0, abs=1e-10)
    assert rep.lhs >= rep.bound


def test_horconvex_star_dart():
    mp = star_embedding(StarParams(8.0, 1 / np.sqrt(3)), 2**14)
    rep = horconvex_report(mp)
    assert rep.is_horconvex
    spec = fourier_coefficients(mp)
    assert abs(spec[1]) < 1e-5  # first coefficient gone
    assert rep.lhs > 1e-3  # but the reflected one carries the bound
    assert rep.lhs >= rep.bound - 1e-9


def test_horconvex_gap_map_is_not():
    rep = horconvex_report(gap_embedding(GapParams(1), 2**13))
    assert not rep.is_horconvex
    assert rep.bound == 0.0


def test_horconvex_estimator_choice():
    mp = identity_map()
    rep = horconvex_report(mp, lipschitz=1.0)
    assert rep.L_estimator == "provided" and rep.L == 1.0
    rep2 = horconvex_report(mp)
    assert rep2.L_estimator == "grid-slope"


def test_curvature_bound_identity():
    heinz = heinz_report(identity_map())
    hor = horconvex_report(identity_map())
    assert curvature_bound(heinz=heinz) == pytest.approx(4.0, abs=1e-10)
    delta_bound = 32 * math.pi**2 / (hor.delta**2 * (1 - math.cos(hor.delta / (4 * hor.L))) ** 2)
    assert delta_bound == pytest.approx(5269.4, rel=1e-3)
    assert curvature_bound(heinz=heinz, horconvex=hor) == pytest.approx(4.0, abs=1e-10)


def test_curvature_bound_requires_some_input():
    const = SampledCircleMap(np.ones(4096), "unimodular")
    rep = heinz_report(const)
    hor = horconvex_report(const)
    with pytest.raises(ValueError):
        curvature_bound(heinz=rep, horconvex=hor)


def test_hall_weitsman_lewy_over_gallery(homeo_gallery):
    for name, Q, _ in homeo_gallery:
        mp = rational_family(Q, 4096)
        rep = heinz_report(mp)
        assert rep.hall_lhs >= HALL_CONSTANT - 1e-6, name
        assert rep.weitsman_lhs > WEITSMAN_CONSTANT, name
        spec = fourier_coefficients(mp)
        assert abs(spec[1]) > abs(spec[-1]), name  # the injectivity obstruction


def test_chain_inequality(homeo_gallery):
    # |c(-1)|^2 + |c(1)|^2 >= (|c(-1)| + |c(1)|)^2 / 2 for anything at all
    for name, Q, _ in homeo_gallery:
        rep = heinz_report(rational_family(Q, 4096))
        lhs = rep.hall_lhs
        rhs = 0.5 * (abs(rep.c_minus1) + abs(rep.c_plus1)) ** 2
        assert lhs >= rhs - 1e-12, name


def test_report_json_lists_the_fields_in_order():
    mp = mobius_map(0.3 + 0.2j, 4096)
    heinz, hor = heinz_report(mp), horconvex_report(mp)
    ref = {
        "c_minus1": [heinz.c_minus1.real, heinz.c_minus1.imag],
        "c_0": [heinz.c_0.real, heinz.c_0.imag],
        "c_plus1": [heinz.c_plus1.real, heinz.c_plus1.imag],
        "hall_lhs": heinz.hall_lhs,
        "hall_rhs": heinz.hall_rhs,
        "weitsman_lhs": heinz.weitsman_lhs,
        "weitsman_rhs": heinz.weitsman_rhs,
        "hall_ok": heinz.hall_ok,
        "weitsman_ok": heinz.weitsman_ok,
    }
    assert json.dumps(heinz.to_json_dict(), default=bool) == json.dumps(ref, default=bool)
    ref = {"is_horconvex": hor.is_horconvex, "delta": hor.delta, "L": hor.L,
           "L_estimator": hor.L_estimator, "bound": hor.bound, "lhs": hor.lhs}
    assert json.dumps(hor.to_json_dict()) == json.dumps(ref)


def test_curvature_bound_reads_the_horconvex_report_bound():
    mp = mobius_map(0.3)
    heinz = heinz_report(mp)
    flat = horconvex_report(mp, lipschitz=1e12)
    assert flat.is_horconvex and flat.bound == 0.0
    assert curvature_bound(heinz=heinz, horconvex=flat) == 4.0 / heinz.hall_lhs
    with pytest.raises(ValueError, match="no curvature bound"):
        curvature_bound(horconvex=flat)
    hor = horconvex_report(mp)
    c = 1.0 - math.cos(hor.delta / (4.0 * hor.L))
    assert curvature_bound(horconvex=hor) == pytest.approx(32 * math.pi**2 / (hor.delta**2 * c**2), rel=1e-12)
