"""Singularity location from series, continuation, and array prediction."""

import cmath
import math

import numpy as np
import pytest

from transasym import validate
from transasym.errors import (InsufficientCoefficients, OscillatoryCoefficients,
                              SingularApproach, ZeroC)
from transasym.expansion import build_expansion
from transasym.oracles import XI0
from transasym.series import AnalyticGerm, TaylorSeries
from transasym.singular import (SingularityArray, continue_f0, predict_array,
                                radius_estimate)
from transasym.systems import NormalSystem, builtin

TWO_PI_I = 2j * math.pi


def _binomial_series(p, xi_s, K):
    """Taylor coefficients of (1 - xi/xi_s)^p."""
    c = np.zeros(K + 1, dtype=complex)
    c[0] = 1.0
    for k in range(K):
        c[k + 1] = c[k] * (p - k) / (k + 1) * (-1.0 / xi_s)
    return TaylorSeries(c)


# -- radius_estimate ---------------------------------------------------------


def test_radius_of_double_pole():
    est = radius_estimate(_binomial_series(-2.0, 5.0, 60))
    assert est.radius == pytest.approx(5.0, abs=1e-8)
    assert est.xi_s == pytest.approx(5.0, abs=1e-7)
    assert est.exponent == pytest.approx(-2.0, abs=1e-6)


def test_radius_of_fractional_branch():
    est = radius_estimate(_binomial_series(1.0 / 3.0, 2.0, 80))
    assert est.radius == pytest.approx(2.0, abs=1e-8)
    assert est.exponent == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_radius_off_axis_location():
    xi_s = 2.0 * cmath.exp(0.25j * math.pi)
    est = radius_estimate(_binomial_series(-1.0, xi_s, 60))
    assert abs(est.xi_s - xi_s) < 1e-7


def test_radius_handles_even_support():
    # series in xi^2 only; decimation maps the location back through the
    # principal root
    c = np.zeros(81, dtype=complex)
    c[::2] = 3.0 ** -np.arange(41.0) ** 0 * (1.0 / 9.0) ** np.arange(41)
    est = radius_estimate(TaylorSeries(c))
    assert est.radius == pytest.approx(3.0, abs=1e-9)
    assert est.xi_s == pytest.approx(3.0, abs=1e-7)


def test_radius_abel_branch():
    s, _ = builtin("abel")
    e = build_expansion(s, 0, 200)
    est = radius_estimate(e.observable_series(0))
    assert est.radius == pytest.approx(XI0, abs=1e-6)
    assert est.exponent == pytest.approx(-0.5, abs=1e-3)


def test_radius_needs_coefficients():
    with pytest.raises(InsufficientCoefficients):
        radius_estimate(TaylorSeries(np.ones(10)))


def test_radius_flags_beating_singularities():
    # two equal-modulus poles at incommensurate arguments make the ratio
    # phase wander; the modulus-only estimate rides on the exception
    xi_a, xi_b = 2.0, 2.0 * cmath.exp(1.0j)
    a = _binomial_series(-1.0, xi_a, 90)
    b = _binomial_series(-1.0, xi_b, 90)
    with pytest.raises(OscillatoryCoefficients) as info:
        radius_estimate(a * b)
    assert info.value.modulus == pytest.approx(2.0, rel=0.05)


# -- continuation ------------------------------------------------------------


def test_continuation_matches_taylor(abel):
    e = build_expansion(abel, 0, 64)
    res = continue_f0(abel, [0.02, 0.12])
    direct = e.series(0)[0].evaluate(0.12)
    assert abs(res.final[0] - direct) < 1e-12


def test_continuation_path_independence(abel):
    target = 0.15 + 0.06j
    r1 = continue_f0(abel, [0.02, target])
    r2 = continue_f0(abel, [0.02, 0.02 + 0.1j, target])
    assert abs(r1.final[0] - r2.final[0]) < 1e-12


def test_continuation_rejects_origin_leg(abel):
    with pytest.raises(ValueError):
        continue_f0(abel, [0.05, -0.05])


def test_continuation_rejects_far_start(abel):
    with pytest.raises(ValueError):
        continue_f0(abel, [0.5, 0.6])


def test_continuation_blows_up_past_branch_value(abel):
    with pytest.raises(SingularApproach) as info:
        continue_f0(abel, [0.05, 1.2 * XI0])
    assert abs(info.value.where - XI0) < 1e-2 * (1.2 * XI0 - 0.05)


def test_continuation_stops_at_the_p1_pole(p1):
    # h = 144 xi / (12 - xi)^2 has its double pole on the leg
    with pytest.raises(SingularApproach) as info:
        continue_f0(p1, [1.0, 20.0])
    assert abs(info.value.where - 12.0) < 0.19


def test_continuation_steps_over_a_terminating_jet():
    # g(0, y) vanishes, so F_0 = xi and every jet is a line
    s = NormalSystem([1.0], [0.3], AnalyticGerm(1, {(2, (0,)): 0.1, (1, (2,)): 1.0}))
    assert abs(continue_f0(s, [0.25, 0.5]).final[0] - 0.5) < 1e-15


def test_continuation_budget_is_per_leg(abel):
    # ten circuits take more jets than one walk may spend
    theta = np.linspace(math.pi, 21.0 * math.pi, 81)
    loop = [XI0 + 0.12 * cmath.exp(1j * t) for t in theta]
    res = continue_f0(abel, [0.1] + loop + [0.1])
    assert res.xi.size > validate._JET_BUDGET
    assert np.max(np.abs(res.final - res.values[:, 0])) < 1e-12


def test_branch_monodromy(abel):
    # F_0 has a square-root pair at xi_0: one circuit lands on the other
    # sheet, two circuits close up
    theta = np.linspace(math.pi, 3.0 * math.pi, 9)
    loop = [XI0 + 0.12 * cmath.exp(1j * t) for t in theta]
    one = continue_f0(abel, [0.1] + loop + [0.1])
    base = one.values[:, 0]
    assert np.max(np.abs(one.final - base)) > 0.1
    theta2 = np.linspace(math.pi, 5.0 * math.pi, 17)
    loop2 = [XI0 + 0.12 * cmath.exp(1j * t) for t in theta2]
    two = continue_f0(abel, [0.1] + loop2 + [0.1])
    assert np.max(np.abs(two.final - two.values[:, 0])) < 1e-12


# -- predicted arrays --------------------------------------------------------


def test_predict_array_frozen_entry():
    arr = predict_array(12.0, 12.0, -0.5, [8])
    en = arr.entries[0]
    assert en.x_ref == pytest.approx(-1.95097456952 + 49.4603719104j, abs=1e-6)
    assert en.residual <= 1e-10


def test_predict_array_near_periodicity():
    arr = predict_array(12.0, 12.0, -0.5, range(8, 16))
    gaps = np.abs(arr.spacings() - TWO_PI_I)
    assert np.all(gaps < 0.08)
    assert np.all(np.diff(gaps) < 0)     # drift shrinks with n


def test_predict_array_roots_solve_scale_equation():
    arr = predict_array(12.0, 12.0, -0.5, [9, 21])
    for en in arr.entries:
        xi = 12.0 * cmath.exp(-en.x_ref - 0.5 * cmath.log(en.x_ref))
        assert abs(xi - 12.0) < 1e-9


def test_predict_array_rejects_degenerate_inputs():
    with pytest.raises(ZeroC):
        predict_array(12.0, 0.0, -0.5, [3])
    with pytest.raises(ValueError):
        predict_array(0.0, 12.0, -0.5, [3])


def test_singularity_array_round_trip(tmp_path):
    arr = predict_array(12.0, 12.0, -0.5, [5, 6])
    path = tmp_path / "arr.json"
    arr.save(str(path))
    clone = SingularityArray.load(str(path))
    assert clone.C == arr.C and len(clone.entries) == 2
    for a, b in zip(clone.entries, arr.entries):
        assert a.x_ref == pytest.approx(b.x_ref, abs=1e-12)
