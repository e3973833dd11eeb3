import cmath
import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlemaps import certify
from circlemaps.blaschke import (
    GRID_CAP,
    BlaschkeQuotient,
    _as_zero_set,
    derivative_lipschitz_moment,
    quotient_arg_derivative,
    quotient_derivative_grid,
)
from circlemaps.certify import (
    _embedding_check,
    DIFFEOMORPHISM,
    HOMEOMORPHISM_BOUNDARY,
    INCONCLUSIVE,
    NOT_HOMEOMORPHISM,
    certify_quadratic,
    certify_quotient,
    embedding_check_sampled,
    homeo_check_sampled,
    pseudo_condition,
    pseudo_quotient,
    quadratic_quotient,
    radial_sufficient,
    terminating_family_check,
    terminating_family_quotient,
)
from circlemaps.fourier import SampledCircleMap, grid_theta
from circlemaps.gallery import (
    GapParams,
    StarParams,
    gap_embedding,
    mobius_map,
    rational_family,
    star_embedding,
)
from conftest import random_disk_points, random_pseudo_instance


def test_certify_identity():
    from circlemaps.blaschke import identity_quotient

    res = certify_quotient(identity_quotient())
    assert res.verdict == DIFFEOMORPHISM
    assert res.margin == pytest.approx(1.0, abs=1e-6)


def test_quadratic_closed_form_margins():
    for r in (0.0, 0.1, 0.25, 0.3):
        res = certify_quadratic(r * cmath.exp(0.4j))
        assert res.verdict == DIFFEOMORPHISM
        assert res.margin == pytest.approx((1 - 3 * r) / (1 - r), abs=1e-15)
    res = certify_quadratic(1.0 / 3.0)
    assert res.verdict == HOMEOMORPHISM_BOUNDARY and res.margin == 0.0
    res = certify_quadratic(0.4j)
    assert res.verdict == NOT_HOMEOMORPHISM
    assert res.margin == pytest.approx((1 - 1.2) / 0.6, abs=1e-15)
    assert res.witness_theta == pytest.approx(np.pi / 2, abs=1e-12)


def test_quadratic_grid_agreement():
    # grid certifier and closed form agree on verdicts across the family
    for r in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45):
        a = r * cmath.exp(1.1j)
        grid = certify_quotient(quadratic_quotient(a))
        closed = certify_quadratic(a)
        assert grid.verdict == closed.verdict, f"r={r}"
        if grid.verdict == DIFFEOMORPHISM:
            assert grid.margin == pytest.approx(closed.margin, abs=5e-4)


def test_not_homeomorphism_witness_is_sound():
    res = certify_quotient(quadratic_quotient(0.4))
    assert res.verdict == NOT_HOMEOMORPHISM
    assert res.witness_theta is not None
    val = quotient_arg_derivative(quadratic_quotient(0.4), cmath.exp(1j * res.witness_theta))
    assert val < 0
    assert res.witness_theta == pytest.approx(0.0, abs=0.05)  # near the pole direction


def test_degree_mismatch_is_not_homeomorphism(rng):
    Q = BlaschkeQuotient.make(list(random_disk_points(rng, 3, 0.5)), [], 1.0)
    assert certify_quotient(Q).verdict == NOT_HOMEOMORPHISM
    const = BlaschkeQuotient.make([], [], 1.0)
    assert certify_quotient(const).verdict == NOT_HOMEOMORPHISM


def test_target_grid_must_be_power_of_two():
    Q = quadratic_quotient(0.25)
    with pytest.raises(ValueError, match="power of two"):
        certify_quotient(Q, 1000)
    assert certify_quotient(Q, 32).grid_size >= 64  # small grids are raised to 64


def test_diffeomorphism_verdict_stable_under_refinement():
    Q = quadratic_quotient(0.25)
    verdicts = [certify_quotient(Q, g).verdict for g in (1024, 4096, 16384)]
    assert set(verdicts) == {DIFFEOMORPHISM}


def test_boundary_case_is_inconclusive_for_grid_method():
    res = certify_quotient(quadratic_quotient(1.0 / 3.0))
    assert res.verdict == INCONCLUSIVE
    assert res.margin <= 0


def _two_loop_certify_reference(Q, target_grid=4096):
    """The certifier as a search loop whose first positive margin is polished in a second loop."""
    g = max(64, target_grid)
    if Q.degree_difference != 1:
        D = quotient_derivative_grid(Q, g)
        j = int(np.argmin(D))
        theta = 2 * np.pi * j / g
        witness = theta if certify._verified_negative(Q, theta) else None
        return certify.CertificationResult(NOT_HOMEOMORPHISM, float(D[j]), g, witness)
    L, _ = derivative_lipschitz_moment(Q)
    best_margin = -math.inf
    while True:
        D = quotient_derivative_grid(Q, g)
        j = int(np.argmin(D))
        grid_min = float(D[j])
        if grid_min < certify._NEG_WITNESS_TOL:
            theta = 2 * np.pi * j / g
            if certify._verified_negative(Q, theta):
                return certify.CertificationResult(NOT_HOMEOMORPHISM, grid_min, g, theta)
        slack = certify._slack(Q, L, g)
        certified = grid_min - slack
        best_margin = max(best_margin, certified)
        if certified > 0:
            while slack > 0.005 * grid_min and g < 2**18:
                g *= 2
                grid_min = float(np.min(quotient_derivative_grid(Q, g)))
                slack = certify._slack(Q, L, g)
            return certify.CertificationResult(DIFFEOMORPHISM, grid_min - slack, g)
        if g >= GRID_CAP:
            return certify.CertificationResult(INCONCLUSIVE, best_margin, g)
        g *= 2


def _bits(res):
    witness = None if res.witness_theta is None else res.witness_theta.hex()
    return res.verdict, res.margin.hex(), res.grid_size, witness


def test_one_loop_certifier_matches_the_two_loop_reference(rng):
    # quadratic maps near |a| = 1/3 polish on grids up to 2^18, or give a witness past it
    radii = [*rng.uniform(0.25, 0.34, 12), 1.0 / 3.0 - 1e-3, 1.0 / 3.0 - 1e-4]
    quotients = [quadratic_quotient(r * cmath.exp(1j * t)) for r, t in zip(radii, rng.uniform(0, 2 * np.pi, 14))]
    quotients += [quadratic_quotient(1.0 / 3.0),  # Inconclusive at the grid cap
                  BlaschkeQuotient.make(random_disk_points(rng, 3, 0.5), [], 1.0),
                  BlaschkeQuotient.make([0.0, 0.0], [0.4], 1.0),
                  BlaschkeQuotient.make([0.2], [0.9], 1.0)]
    quotients += [pseudo_quotient(*random_pseudo_instance(rng)) for _ in range(6)]
    seen = []
    for Q in quotients:
        for g in (64, 4096):
            res = certify_quotient(Q, g)
            assert _bits(res) == _bits(_two_loop_certify_reference(Q, g))
            seen.append((res.verdict, res.grid_size, Q.degree_difference))
    assert any(v == DIFFEOMORPHISM and g > 4096 for v, g, _ in seen)
    assert any(v == INCONCLUSIVE for v, _, _ in seen)
    assert any(d != 1 for _, _, d in seen)
    assert any(v == NOT_HOMEOMORPHISM and d == 1 for v, _, d in seen)


def test_certificate_json_lists_its_fields_in_order():
    for res in (certify_quotient(quadratic_quotient(0.25)), certify_quotient(quadratic_quotient(0.4))):
        ref = {"verdict": res.verdict, "margin": res.margin, "grid_size": res.grid_size}
        if res.witness_theta is not None:
            ref["witness_theta"] = res.witness_theta
        assert json.dumps(res.to_json_dict()) == json.dumps(ref)
    assert "witness_theta" in res.to_json_dict()


def test_terminating_family_quotient_shares_an_uncancelled_zero_set(rng):
    zs = _as_zero_set(random_disk_points(rng, 4, 0.2))
    assert terminating_family_quotient("below", zs).numerator._zero_set is zs
    assert terminating_family_quotient("above", zs).denominator._zero_set is zs
    sigma = cmath.exp(0.7j)
    for side in ("below", "above"):
        for zeros in ((), _as_zero_set(())):
            Q = terminating_family_quotient(side, zeros, sigma)
            assert Q.numerator.zeros.tolist() == [0j] and Q.denominator.degree == 0
            assert Q(1.0) == pytest.approx(sigma, abs=1e-15)  # the rotation sigma zeta


def test_pseudo_condition_thresholds():
    res = pseudo_condition([0.0, 0.19], [0.0])
    assert res.holds and res.statuses == ("holds_strict",)
    res = pseudo_condition([0.0, 0.21], [0.0])
    assert not res.holds and res.statuses == ("fails",)
    res = pseudo_condition([0.0, 0.0, 0.0], [0.0, 0.0])
    assert res.holds  # all points at the origin: 0 <= 1/(4n)


def test_pseudo_condition_implies_certified_diffeo(rng):
    for _ in range(25):
        zs, ws = random_pseudo_instance(rng)
        res = certify_quotient(pseudo_quotient(zs, ws))
        assert res.verdict == DIFFEOMORPHISM


def test_radial_sufficient():
    assert radial_sufficient([0.0, 0.0], [])
    # quadratic family: 2 >= (1+r)/(1-r) iff r <= 1/3
    assert radial_sufficient([0.0, 0.0], [0.32])
    assert not radial_sufficient([0.0, 0.0], [0.34])
    assert not radial_sufficient([0.9], [0.5])


def test_terminating_family_checks():
    assert terminating_family_check("above", [0.1, 0.1j])  # 0.1 <= 1/9
    assert not terminating_family_check("above", [0.2, 0.1])
    # below, n = 2, base point 0: |z1| <= (1 - |z1|)/4 iff |z1| <= 0.2
    assert terminating_family_check("below", [0.19, 0.0])
    assert not terminating_family_check("below", [0.21, 0.0])
    with pytest.raises(ValueError):
        terminating_family_check("sideways", [0.1])


def test_terminating_family_maps_certify(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        zs = random_disk_points(rng, n, 1.0 / (4 * n + 1))
        assert terminating_family_check("above", zs)
        res = certify_quotient(terminating_family_quotient("above", zs))
        assert res.verdict != NOT_HOMEOMORPHISM
    zs = [0.1, 0.05j, 0.0]
    assert terminating_family_check("below", zs)
    res = certify_quotient(terminating_family_quotient("below", zs))
    assert res.verdict != NOT_HOMEOMORPHISM


# ---------------------------------------------------------------------------
# sufficient conditions against the per-point reference


def _pseudo(z, w):
    return abs(z - w) / abs(1.0 - z * w.conjugate())


def _pseudo_condition_reference(z, w):
    """The pairing condition one point at a time, in Python complex arithmetic."""
    zs, ws = [complex(p) for p in z], [complex(p) for p in w]
    n = len(ws)
    statuses = []
    for zk, wk in zip(zs[1:], ws):
        lhs = _pseudo(zk, wk)
        rhs = (1.0 - _pseudo(zk, zs[0])) * (1.0 - _pseudo(wk, zs[0])) / (4.0 * n)
        statuses.append("holds_strict" if lhs < rhs else "holds" if lhs <= rhs else "fails")
    holds = all(s != "fails" for s in statuses)
    return tuple(statuses), holds, holds and "holds_strict" in statuses


def _radial_sufficient_reference(zeros, poles):
    lhs = sum((1.0 - abs(p)) / (1.0 + abs(p)) for p in zeros)
    return lhs >= sum((1.0 + abs(p)) / (1.0 - abs(p)) for p in poles)


def _terminating_family_check_reference(side, zeros):
    zs = [complex(p) for p in zeros]
    n = len(zs)
    if side == "above":
        return all(abs(zk) <= 1.0 / (4.0 * n + 1.0) for zk in zs)
    if n == 1:
        return True
    bound = (1.0 - abs(zs[-1])) / (4.0 * (n - 1))
    return all(abs(zk) <= bound * (1.0 - _pseudo(zk, zs[-1])) for zk in zs[:-1])


def test_sufficient_conditions_match_per_point_reference():
    rng = np.random.default_rng(8128)
    seen = set()
    for i in range(2400):
        n = 1 + i % 6
        scale = (0.05, 0.2, 0.5, 0.9)[i // 6 % 4]
        z = random_disk_points(rng, n + 1, scale)
        w = random_disk_points(rng, n, scale)
        if i % 3 == 0:  # poles near their zeros, where the pairing condition can hold
            w = z[1:] + 0.01 * scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        z[rng.uniform(0, 1, n + 1) < 0.1] = 0.0
        z, w = list(z), list(w)
        res = pseudo_condition(z, w)
        assert (res.statuses, res.holds, res.strict) == _pseudo_condition_reference(z, w)
        got = (radial_sufficient(z[:n], w[: n // 2]),
               terminating_family_check("below", z[:n]),
               terminating_family_check("above", z[:n]))
        assert got == (_radial_sufficient_reference(z[:n], w[: n // 2]),
                       _terminating_family_check_reference("below", z[:n]),
                       _terminating_family_check_reference("above", z[:n]))
        seen.update([res.strict, *((k, v) for k, v in enumerate(got))])
    # every outcome occurs, so each comparison above was tested both ways
    assert seen == {True, False} | {(k, v) for k in range(3) for v in (True, False)}


def test_sufficient_conditions_tie_and_empty_cases():
    # d(0.2, 0) = 0.2 = (1 - 0.2) / 4 in floating point: the non-strict status
    res = pseudo_condition([0.0, 0.2], [0.0])
    assert (res.statuses, res.holds, res.strict) == (("holds",), True, False)
    assert _pseudo_condition_reference([0.0, 0.2], [0.0]) == (("holds",), True, False)
    res = pseudo_condition([0.3], [])
    assert (res.statuses, res.holds, res.strict) == ((), True, False)
    with pytest.raises(ValueError, match="n\\+1"):
        pseudo_condition([0.1, 0.2], [0.1, 0.2])
    with pytest.raises(ValueError):
        pseudo_condition([0.1, 1.0], [0.1])
    assert radial_sufficient([], [])
    assert terminating_family_check("below", [0.9])
    with pytest.raises(ValueError, match="at least one"):
        terminating_family_check("above", [])


def test_point_lists_are_validated_once_per_array(monkeypatch):
    import sys

    from circlemaps import disk
    from circlemaps.mapspec import quotient_from_spec

    calls = {"disk_array": 0, "DiskPoint": 0}
    real_array, real_post_init = disk.disk_array, disk.DiskPoint.__post_init__

    def counting_array(points):
        calls["disk_array"] += 1
        return real_array(points)

    def counting_post_init(self):
        calls["DiskPoint"] += 1
        real_post_init(self)

    for name, mod in list(sys.modules.items()):
        if name.startswith("circlemaps") and hasattr(mod, "disk_array"):
            monkeypatch.setattr(mod, "disk_array", counting_array)
    monkeypatch.setattr(disk.DiskPoint, "__post_init__", counting_post_init)

    ring = 0.99 * np.exp(2j * np.pi * (np.arange(1024) + 0.5) / 1024)
    spec = {"type": "blaschke_quotient", "zeros": [[0.0, 0.0]] * 1025,
            "poles": np.column_stack([ring.real, ring.imag]).tolist(), "sigma": 0.5}
    Q = quotient_from_spec(spec)
    assert (Q.numerator.degree, Q.denominator.degree) == (1025, 1024)
    assert calls["disk_array"] <= 2 and calls["DiskPoint"] == 0

    calls.update(disk_array=0)
    Q = terminating_family_quotient("below", 0.5 * np.exp(2j * np.pi * np.arange(512) / 512))
    assert (Q.numerator.degree, Q.denominator.degree) == (512, 511)
    assert calls["disk_array"] <= 3 and calls["DiskPoint"] == 0


def test_homeo_check_sampled_verdicts(homeo_gallery):
    m = 4096
    theta = grid_theta(m)
    ident = SampledCircleMap(np.exp(1j * theta), "unimodular")
    assert homeo_check_sampled(ident).verdict == "plausible-homeomorphism"
    conj = SampledCircleMap(np.exp(-1j * theta), "unimodular")
    res = homeo_check_sampled(conj)
    assert res.verdict == "not-injective" and res.witness is not None
    blob = SampledCircleMap(0.5 * np.exp(1j * theta))
    assert homeo_check_sampled(blob).verdict == "not-unimodular"
    for name, Q, _ in homeo_gallery[:6]:
        assert homeo_check_sampled(rational_family(Q, m)).verdict == "plausible-homeomorphism"


def test_embedding_check_identity_and_star():
    ident = SampledCircleMap(np.exp(1j * grid_theta(256)), "unimodular")
    assert embedding_check_sampled(ident).simple
    star = star_embedding(StarParams(8.0, 1 / np.sqrt(3)), 4096)
    assert embedding_check_sampled(star).simple


def test_embedding_check_figure_eight():
    theta = grid_theta(256)
    vals = np.cos(theta) + 0.5j * np.sin(2 * theta)  # lemniscate-style curve
    res = embedding_check_sampled(SampledCircleMap(vals, "embedding-claimed"))
    assert not res.simple
    assert res.witness is not None


def test_embedding_check_rejects_degenerate():
    vals = np.exp(1j * grid_theta(64))
    vals[10] = vals[11]
    with pytest.raises(ValueError):
        embedding_check_sampled(SampledCircleMap(vals))


# ---------------------------------------------------------------------------
# embedding check against an all-pairs reference


def _all_pairs_check(values):
    """O(m^2) reference: the segment test on every non-adjacent pair.

    Row i tests segment i against every segment j > i + 1 (except the
    pair (0, m - 1)), with the same floating-point formulas as the library,
    so the first hit is the lexicographically first offending pair.
    """
    v = np.asarray(values, dtype=complex)
    m = len(v)
    A = np.column_stack([v.real, v.imag])
    B = np.roll(A, -1, axis=0)

    def cross(u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    def on_seg(p, q, r):
        return (
            (np.minimum(p[..., 0], q[..., 0]) <= r[..., 0])
            & (r[..., 0] <= np.maximum(p[..., 0], q[..., 0]))
            & (np.minimum(p[..., 1], q[..., 1]) <= r[..., 1])
            & (r[..., 1] <= np.maximum(p[..., 1], q[..., 1]))
        )

    for i in range(m):
        j = np.arange(i + 2, m - 1 if i == 0 else m)
        if len(j) == 0:
            continue
        a1, a2 = A[i], B[i]
        b1, b2 = A[j], B[j]
        d1 = cross(a2 - a1, b1 - a1)
        d2 = cross(a2 - a1, b2 - a1)
        d3 = cross(b2 - b1, a1 - b1)
        d4 = cross(b2 - b1, a2 - b1)
        boxes = np.all(
            (np.minimum(a1, a2) <= np.maximum(b1, b2)) & (np.minimum(b1, b2) <= np.maximum(a1, a2)),
            axis=-1,
        )
        proper = (d1 * d2 < 0) & (d3 * d4 < 0) & boxes
        touch = (
            ((d1 == 0) & on_seg(a1, a2, b1))
            | ((d2 == 0) & on_seg(a1, a2, b2))
            | ((d3 == 0) & on_seg(b1, b2, a1))
            | ((d4 == 0) & on_seg(b1, b2, a2))
        )
        bad = proper | touch
        if bad.any():
            return False, (i, int(j[np.argmax(bad)]))
    return True, None


def _assert_matches_reference(values):
    res = _embedding_check(values)
    assert (res.simple, res.witness) == _all_pairs_check(values)
    return res


def _polygon(points):
    return np.array([complex(x, y) for x, y in points])


def _has_zero_length_side(v):
    return bool(np.any(v == np.roll(v, -1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=14))
def test_embedding_check_matches_all_pairs_on_lattice_polygons(points):
    # small lattice coordinates make touches, T-junctions and collinear
    # overlaps exact, so the degenerate branches of the test are exercised
    v = _polygon(points)
    if _has_zero_length_side(v):
        with pytest.raises(ValueError):
            _embedding_check(v)
    else:
        _assert_matches_reference(v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=3, max_size=40))
def test_embedding_check_matches_all_pairs_on_random_polygons(points):
    v = _polygon(points)
    if not _has_zero_length_side(v):
        _assert_matches_reference(v)


@pytest.mark.parametrize("seed", range(20))
def test_embedding_check_matches_all_pairs_on_star_polygons(seed):
    # random radii around the circle: simple by construction, and a swap of
    # two vertices usually makes it self-crossing
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 200))
    v = rng.uniform(0.2, 1.0, m) * np.exp(2j * np.pi * (np.arange(m) + rng.uniform(0, 0.9, m)) / m)
    assert _assert_matches_reference(v).simple
    i, j = sorted(rng.choice(m, 2, replace=False))
    v[[i, j]] = v[[j, i]]
    _assert_matches_reference(v)


@pytest.mark.parametrize(
    "points, witness",
    [
        ([(0, 0), (4, 0), (0, 3)], None),  # triangle
        ([(0, 0), (1, 1), (1, 0), (0, 1)], (0, 2)),  # bow-tie
        ([(0, 0), (6, 0), (6, 4), (3, 0), (0, 4)], (0, 2)),  # vertex (3, 0) on side 0
        ([(1, 0), (3, 0), (3, 1), (5, 1), (4, 0), (0, 0), (0, -1)], (0, 4)),  # side 4 covers side 0
    ],
    ids=["triangle", "bow-tie", "t-junction", "collinear-overlap"],
)
def test_embedding_check_small_polygons(points, witness):
    res = _assert_matches_reference(_polygon(points))
    assert res.simple == (witness is None)
    assert res.witness == witness


def test_embedding_check_nearly_collinear_sides_apart():
    # sides 0 and 3 lie on one line up to rounding, 0.2 apart along it; the
    # rounded orientations of their endpoints have opposite signs both ways
    v = np.array([
        0.3026449742590398 - 9.198752046238535j,
        -1.7201215300847705 - 7.576026997236916j,
        -2.114285663928505 - 7.9072710942993885j,
        -1.8764029255925032 - 7.450653290168538j,
        -3.13080751616853 - 6.444331628059209j,
        -0.46601096268514164 - 6.63974898535889j,
    ])
    res = _assert_matches_reference(v)
    assert res.simple and res.witness is None


def test_embedding_check_matches_all_pairs_on_crowded_and_gallery_curves():
    theta = grid_theta(256)
    curves = [
        mobius_map(0.95, 2**12).values,  # samples crowd near -0.95
        star_embedding(StarParams(8.0, 1 / np.sqrt(3)), 2**12).values,
        gap_embedding(GapParams(2), 2**12).values,
        np.cos(theta) + 0.5j * np.sin(2 * theta),  # figure eight
    ]
    crossed = mobius_map(0.95, 2**12).values.copy()
    crossed[[2040, 2050]] = crossed[[2050, 2040]]  # two crowded samples swapped
    curves.append(crossed)
    results = [_assert_matches_reference(v) for v in curves]
    assert [r.simple for r in results] == [True, True, True, False, False]


def test_embedding_check_crowded_mobius_samples():
    assert embedding_check_sampled(mobius_map(0.99, 2**14)).simple


def test_embedding_check_doubles_its_cells_for_two_long_sides():
    # 254 short sides on three quarters of the unit circle, closed through a
    # far corner by two long diagonal sides: at the mean side length the
    # sides cover more than 64 cells per side on average, so the cells double
    arc = np.exp(1j * np.linspace(np.pi / 2, 2 * np.pi, 255))
    v = np.append(arc, 1000 + 1000j)
    assert len(v) >= 256
    assert _assert_matches_reference(v).simple
    v[[3, 200]] = v[[200, 3]]
    assert not _assert_matches_reference(v).simple


def _extents(v):
    w = np.roll(v, -1)
    return np.maximum(np.abs(w.real - v.real), np.abs(w.imag - v.imag))


@pytest.mark.parametrize("seed", range(16))
def test_embedding_check_matches_all_pairs_on_multi_scale_polygons(seed):
    # side extents over many decades put the sides at several cell levels:
    # star polygons with radii 10^U(-10, 0), and random walks with steps
    # 10^U(-8, 0) closed by a last side
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 300))
    star = seed % 2 == 0
    if star:
        v = 10 ** rng.uniform(-10, 0, m) * np.exp(2j * np.pi * (np.arange(m) + rng.uniform(0, 0.9, m)) / m)
    else:
        v = np.cumsum(10 ** rng.uniform(-8, 0, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m)))
    assert _extents(v).max() > 16**2 * _extents(v).min()
    assert _assert_matches_reference(v).simple or not star
    i, j = rng.choice(m, 2, replace=False)
    v[[i, j]] = v[[j, i]]
    _assert_matches_reference(v)


def test_embedding_check_matches_all_pairs_on_a_swapped_crowded_mobius_curve():
    # sides near index 0 are a millionth as long as those near index 2048
    v = mobius_map(0.999, 2**12).values.copy()
    assert _extents(v).max() > 1e6 * _extents(v).min()
    v[[2, 7]] = v[[7, 2]]
    assert _assert_matches_reference(v).witness == (1, 7)


def test_embedding_check_tests_at_most_m_pairs_on_a_crowded_mobius_curve(monkeypatch):
    mp = mobius_map(0.999, 2**14)
    counts, candidate_pairs = [], certify._candidate_pairs

    def counted(*sides):
        i, j = candidate_pairs(*sides)
        counts.append(len(i))
        return i, j

    monkeypatch.setattr(certify, "_candidate_pairs", counted)
    assert embedding_check_sampled(mp).simple
    assert len(counts) == 1 and counts[0] <= mp.m


def test_embedding_check_leaves_numpy_ma_unimported():
    # the first np.unique or np.isin of a process imports numpy.ma (about 12 ms)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; import numpy as np; "
            "from circlemaps import GapParams, SampledCircleMap, embedding_check_sampled, gap_embedding; "
            "v = gap_embedding(GapParams(2)).values; w = v.copy(); w[[5, 40]] = w[[40, 5]]; "
            "assert embedding_check_sampled(SampledCircleMap(v)).simple; "
            "assert not embedding_check_sampled(SampledCircleMap(w)).simple; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_homeo_check_sampled_monotone_with_the_wrong_winding():
    squared = SampledCircleMap(np.exp(2j * grid_theta(64)), "unimodular")
    res = homeo_check_sampled(squared)
    assert res.verdict == "not-injective" and res.witness is None
