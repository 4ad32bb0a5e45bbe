"""Closed-form reference values used by the release-gate checks, against
the closed forms of the tests and the phase field of demo 03."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import closed_forms as cf
from transasym import oracles
from transasym.expansion import build_expansion
from transasym.systems import builtin

SQ3 = math.sqrt(3.0)


def test_lattice_constants():
    assert oracles.XI0 == pytest.approx(3.0 ** -0.5 * math.exp(-math.pi * SQ3 / 6.0))
    assert cf.LATTICE_RATIO == pytest.approx(math.exp(math.pi * SQ3))


# -- first worked family -----------------------------------------------------


def test_level_profiles_pointwise():
    assert cf.p1_h0(6.0) == pytest.approx(24.0, abs=1e-12)
    for m, fn in enumerate((cf.p1_h0, cf.p1_h1, cf.p1_h2)):
        c = oracles.p1_h_taylor(m, 40)
        xi = 0.3
        assert np.polyval(c[::-1], xi) == pytest.approx(fn(xi), rel=1e-12)


def test_level_profiles_are_tabulated_for_three_levels():
    with pytest.raises(ValueError):
        oracles.p1_h_taylor(3, 10)


def test_second_array_offset_formula():
    x_s = 3.0 + 4.0j
    got = oracles.p1_second_array_offset(x_s, 2)
    want = -cmath.log(x_s) + 5j * math.pi - math.log(60.0)
    assert got == pytest.approx(want, abs=1e-14)


# -- Abel branch geometry ----------------------------------------------------


def test_profile_inversion_round_trip():
    F0 = 0.3 + 0.2j
    xi = cf.abel_xi_of_F0(F0)
    assert abs(cf.abel_F0_of_xi(xi) - F0) < 1e-10


def test_profile_inversion_tangent_to_identity():
    # F_0(xi) = xi + O(xi^2) near the origin
    assert cf.abel_F0_of_xi(1e-4) == pytest.approx(1e-4, abs=1e-6)


def test_singular_level_lattice():
    assert cf.abel_xi_set(0, 0) == pytest.approx(oracles.XI0)
    assert cf.abel_xi_set(1, 0) == pytest.approx(-oracles.XI0)
    assert cf.abel_xi_set(2, 1) == pytest.approx(cf.abel_xi_set(0, 1))
    ratio = cf.abel_xi_set(0, 3) / cf.abel_xi_set(0, 2)
    assert ratio == pytest.approx(cf.LATTICE_RATIO, rel=1e-12)


def test_phase_field_stationary_points():
    # demo 03 carries the direction field of the real-section trajectories
    path = Path(__file__).parents[1] / "demos" / "03_branch_lattice_geometry.py"
    spec = importlib.util.spec_from_file_location("branch_lattice_geometry", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    for X, Y in ((0.0, 0.0), (-0.5, SQ3 / 6.0), (-0.5, -SQ3 / 6.0)):
        dX, dY = demo.abel_phase_field(X, Y)
        assert abs(dX) < 1e-12 and abs(dY) < 1e-12


def test_geometry_endpoints():
    # the left cut endpoint of the principal sheet is the limit of xi(F_0)
    # as F_0 -> -inf along the real axis; Richardson cancels the O(1/F_0^2)
    # error of two finite evaluations
    xi1 = (4.0 * cf.abel_xi_of_F0(-2.0e6) - cf.abel_xi_of_F0(-1.0e6)) / 3.0
    assert xi1 == pytest.approx(-oracles.XI0 * cf.LATTICE_RATIO, rel=1e-9)


# -- second worked family ----------------------------------------------------


def test_sibling_profiles_match_their_taylor():
    xi = 0.3
    ca = oracles.p2_f0_taylor("a", 30)
    assert np.polyval(ca[::-1], xi) == pytest.approx(cf.p2_f0_a(xi), rel=1e-12)
    assert np.max(np.abs(ca[::2])) == 0          # odd function of xi
    for b in (1, -1):
        cb = oracles.p2_f0_taylor("b", 30, b)
        assert np.polyval(cb[::-1], xi) == pytest.approx(
            cf.p2_f0_b(xi, b), rel=1e-12)


# -- singular-scale correction ----------------------------------------------


def test_scale_correction_from_expansion():
    s, _ = builtin("p1")
    e = build_expansion(s, 2, 48)
    assert oracles.pole_scale_correction(e) == pytest.approx(10.9, abs=1e-6)
