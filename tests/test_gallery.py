import numpy as np
import pytest

from circlemaps.certify import embedding_check_sampled
from circlemaps.fourier import fourier_coefficients, enclosed_area, support
from circlemaps.gallery import (
    GapParams,
    StarParams,
    fold_angle,
    gap_embedding,
    gap_phase,
    gap_radius,
    gap_symmetry_residual,
    mobius_map,
    rational_family,
    star_embedding,
    star_first_coefficient,
)


def shoelace_area(vertices):
    v = np.asarray(vertices)
    x, y = v.real, v.imag
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_star_vertices_and_symmetry():
    p = StarParams(8.0, 1 / np.sqrt(3))
    mp = star_embedding(p, 4096)
    assert mp.values[0] == pytest.approx(1.0)
    assert mp.values[2048] == pytest.approx(-1.0)
    # conjugate symmetry makes all coefficients real
    spec = fourier_coefficients(mp)
    assert np.max(np.abs(spec.coefficients.imag)) < 1e-9


def test_star_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StarParams(-1.0, 2.0)
    with pytest.raises(ValueError):
        StarParams(8.0, 0.0)


def test_star_vanishing_first_coefficient():
    p = StarParams(8.0, 1 / np.sqrt(3))
    assert star_first_coefficient(p) == pytest.approx(0.0, abs=1e-15)
    spec = fourier_coefficients(star_embedding(p, 2**16))
    assert abs(spec[1]) < 1e-6


def test_star_first_coefficient_formula(rng):
    for _ in range(8):
        p = StarParams(rng.uniform(0.5, 10), rng.uniform(0.1, 4))
        measured = fourier_coefficients(star_embedding(p, 2**16))[1].real
        assert measured == pytest.approx(star_first_coefficient(p), abs=1e-4)
        assert np.sign(measured) == np.sign(star_first_coefficient(p))


def test_star_area_matches_shoelace():
    p = StarParams(8.0, 1 / np.sqrt(3))
    area = enclosed_area(fourier_coefficients(star_embedding(p, 2**14)))
    assert area == pytest.approx(shoelace_area(p.vertices()), abs=1e-6)
    assert area == pytest.approx(2 / np.sqrt(3), abs=1e-6)


def test_star_shifted_map_kills_mean():
    p = StarParams(8.0, 1 / np.sqrt(3))
    mp = star_embedding(p, 2**14)
    spec = fourier_coefficients(mp)
    shifted = fourier_coefficients(
        type(mp)(mp.values - spec[0], "general")
    )
    assert abs(shifted[0]) < 1e-12
    assert abs(shifted[1]) < 1e-4  # unchanged except quadrature noise


def test_gap_profile_values():
    assert gap_radius(0.0) == pytest.approx(1.0)
    assert gap_radius(np.pi) == pytest.approx(3.0)
    assert fold_angle(np.pi / 3) == pytest.approx(np.pi / 3)
    assert fold_angle(2 * np.pi - 0.4) == pytest.approx(0.4)
    assert gap_phase(0.0) == 0.0
    assert gap_phase(np.pi) == pytest.approx(np.pi + np.pi)


def test_gap_embedding_vanishing_window():
    p = GapParams(1)
    # threshold 1e-6 sits above the quadrature aliasing floor (~3e-8 at this
    # grid), so detected support shows the true pattern
    spec = fourier_coefficients(gap_embedding(p, 2**16), tolerance=1e-6)
    for n in (-1, 0, 1):
        assert abs(spec[n]) < 1e-3
    # support concentrates on indices congruent to 1 mod 3
    supp = support(spec)
    assert supp
    assert all(n % 3 == 1 for n in supp)


def test_gap_embedding_simple_and_positive_area():
    p = GapParams(1)
    mp = gap_embedding(p, 2**14)
    assert embedding_check_sampled(mp).simple
    assert enclosed_area(fourier_coefficients(mp)) > 0


def test_gap_symmetry_residual_machine_level():
    for N in (1, 2, 3):
        assert gap_symmetry_residual(GapParams(N)) < 1e-14


def test_mobius_map_properties():
    ident = mobius_map(0.0, 4096)
    assert np.max(np.abs(ident.values - np.exp(1j * 2 * np.pi * np.arange(4096) / 4096))) < 1e-14
    spec = fourier_coefficients(mobius_map(0.5, 4096))
    assert spec[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(spec[1]) ** 2 <= 1 - 0.5**2 + 1e-12


def test_rational_family_identity_and_spectrum(homeo_gallery):
    from circlemaps.blaschke import identity_quotient

    mp = rational_family(identity_quotient(), 4096)
    assert support(fourier_coefficients(mp)) == {1}
    # quadratic family has spectrum bounded above by 2
    from circlemaps.certify import quadratic_quotient

    spec = fourier_coefficients(rational_family(quadratic_quotient(0.25), 4096))
    supp = support(spec)
    assert max(supp) <= 2
    assert min(supp) < -5  # one-sided support only


def test_one_sided_support_of_terminating_families(rng):
    from circlemaps.certify import terminating_family_quotient
    from conftest import random_disk_points

    for _ in range(8):
        n = int(rng.integers(2, 5))
        zs = list(random_disk_points(rng, n, 1.0 / (4 * n + 1)))
        above = terminating_family_quotient("above", zs)
        s_above = support(fourier_coefficients(rational_family(above, 4096), 1e-6))
        assert max(s_above) <= n + 1
        below = terminating_family_quotient("below", zs)
        s_below = support(fourier_coefficients(rational_family(below, 4096), 1e-6))
        assert min(s_below) >= -(n - 1)


def test_gallery_embeddings_pass_embedding_check():
    maps = [
        star_embedding(StarParams(8.0, 1 / np.sqrt(3)), 4096),
        star_embedding(StarParams(2.0, 0.7), 4096),
        gap_embedding(GapParams(2), 2**13),
        mobius_map(0.4 - 0.1j, 1024),
    ]
    for mp in maps:
        assert embedding_check_sampled(mp).simple


def test_bounded_support_homeomorphisms_are_rotations(homeo_gallery):
    # thresholded rendition of "bounded support forces a rotation": the only
    # gallery homeomorphisms whose detected support stays put as the
    # threshold tightens are the rotations, with support exactly {1};
    # everything else keeps revealing more one-sided terms
    for name, Q, _ in homeo_gallery:
        mp = rational_family(Q, 4096)
        loose = support(fourier_coefficients(mp, 1e-6))
        tight = support(fourier_coefficients(mp, 1e-12))
        if loose == tight:
            assert loose == {1}, name
        else:
            assert loose != {1}, name


def test_rational_family_is_exp_of_the_argument_grid(rng):
    import cmath

    from circlemaps.blaschke import BlaschkeQuotient, identity_quotient, quotient_arg_grid
    from conftest import random_pseudo_instance

    quotients = [identity_quotient(cmath.exp(0.7j)), BlaschkeQuotient.make([0.0, 0.99999], [0.3])]
    for _ in range(4):
        z, w = random_pseudo_instance(rng)
        quotients.append(BlaschkeQuotient.make(z, w, cmath.exp(1j * rng.uniform(0, 2 * np.pi))))
    for Q in quotients:
        for m in (64, 4096):
            vals = rational_family(Q, m).values
            assert vals.tobytes() == np.exp(1j * quotient_arg_grid(Q, m)).tobytes()
            assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-15
