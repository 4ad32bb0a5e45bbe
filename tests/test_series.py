"""Coefficient-level series, germ, and linear-solver arithmetic."""

import numpy as np
import pytest

from transasym.errors import DegreeCapExceeded, ResonantOrder
from transasym.series import (AnalyticGerm, InvXSeries, TaylorSeries,
                              compose_germ_series, series_field_solve_linear)

RNG = np.random.default_rng(7)


def _rand_series(K):
    return TaylorSeries(RNG.normal(size=K + 1) + 1j * RNG.normal(size=K + 1))


# -- TaylorSeries ------------------------------------------------------------


def test_ring_axioms_on_random_series():
    a, b, c = (_rand_series(12) for _ in range(3))
    assert np.allclose((a + b).coeffs, (b + a).coeffs)
    assert np.allclose((a * b).coeffs, (b * a).coeffs)
    assert np.allclose(((a + b) + c).coeffs, (a + (b + c)).coeffs)
    assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs)
    assert np.allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs)


def test_truncation_follows_min_rule():
    a, b = _rand_series(5), _rand_series(9)
    assert (a + b).truncation_order == 5
    assert (a * b).truncation_order == 5
    assert (b * a).truncation_order == 5


def test_derivative_product_rule():
    a, b = _rand_series(10), _rand_series(10)
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert np.allclose(lhs.coeffs[: len(rhs)], rhs.coeffs)


def test_shift_up_is_exact():
    a = _rand_series(6)
    shifted = a.shift_up(2)
    assert shifted.truncation_order == 8
    assert np.all(shifted.coeffs[:2] == 0)
    assert np.allclose(shifted.coeffs[2:], a.coeffs)


def test_evaluate_matches_polyval():
    a = _rand_series(8)
    z = 0.37 - 0.21j
    assert abs(a.evaluate(z) - np.polynomial.polynomial.polyval(z, a.coeffs)) < 1e-13


def test_monomial_and_zeros():
    m = TaylorSeries.monomial(3, 6, coefficient=2.0)
    assert m.coeffs[3] == 2.0 and np.count_nonzero(m.coeffs) == 1
    assert np.all(TaylorSeries.zeros(4).coeffs == 0)


def test_coeffs_are_frozen():
    a = _rand_series(4)
    with pytest.raises(ValueError):
        a.coeffs[0] = 1.0


def test_truncated_cannot_extend():
    a = _rand_series(4)
    assert a.truncated(2).truncation_order == 2
    with pytest.raises(ValueError):
        a.truncated(9)


def test_taylor_serialization_round_trip():
    a = _rand_series(5)
    b = TaylorSeries.from_dict(a.to_dict())
    assert np.array_equal(a.coeffs, b.coeffs)


# -- InvXSeries --------------------------------------------------------------


def test_invx_evaluate_and_r_max():
    s = InvXSeries([1.0, 2.0, 3.0], r_min=2)   # x^-2 + 2 x^-3 + 3 x^-4
    x = 2.0
    assert abs(s.evaluate(x) - (0.25 + 0.25 + 3 / 16)) < 1e-15
    assert abs(s.evaluate(x, r_max=3) - 0.5) < 1e-15
    assert s.coefficient(1) == 0 and s.coefficient(4) == 3.0


def test_invx_serialization_round_trip():
    s = InvXSeries([1.0 + 1j, -2.0], r_min=3)
    t = InvXSeries.from_dict(s.to_dict())
    assert t.r_min == 3 and np.array_equal(s.coeffs, t.coeffs)


# -- AnalyticGerm ------------------------------------------------------------


def test_germ_compose_matches_pointwise():
    # g(z, y) = (y1^2 + z y2, y1 y2) composed with series in one variable
    g = AnalyticGerm(2, {(0, (2, 0)): [1.0, 0.0],
                         (1, (0, 1)): [1.0, 0.0],
                         (0, (1, 1)): [0.0, 1.0]})
    y1, y2 = _rand_series(10), _rand_series(10)
    z = _rand_series(10)
    comp = compose_germ_series(g, z.coeffs, np.array([y1.coeffs, y2.coeffs]), 10)
    t = 0.04 - 0.02j
    vals = np.array([y1.evaluate(t), y2.evaluate(t)])
    direct = g.evaluate(z.evaluate(t), vals)
    # composition truncates at K = 10; the pointwise check needs |t| small
    for j in range(2):
        assert abs(TaylorSeries(comp[j]).evaluate(t) - direct[j]) < 1e-11


def test_germ_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        AnalyticGerm(1, {(10, (3,)): 1.0}, degree_cap=12)


def test_germ_serialization_round_trip():
    g = AnalyticGerm(2, {(1, (2, 0)): [1.0, -0.5], (0, (0, 3)): [0.0, 2.0]})
    h = AnalyticGerm.from_dict(g.to_dict())
    y = np.array([0.3, -0.2 + 0.1j])
    assert np.allclose(g.evaluate(0.7, y), h.evaluate(0.7, y))


# -- series_field_solve_linear ----------------------------------------------


def test_linear_solver_solves_simplest_field():
    # xi F' = 0*F + xi  =>  F = xi.  Order 0 is the singular-but-consistent
    # equation (0 I - 0) c_0 = 0, so it is flagged resonant.
    N = TaylorSeries(np.zeros(9))
    rhs = TaylorSeries.monomial(1, 8)
    sol = series_field_solve_linear(N, rhs)
    expect = np.zeros(9, dtype=complex)
    expect[1] = 1.0
    assert np.allclose(sol.series[0].coeffs, expect)
    assert sol.resonant_orders == (0,)


def test_linear_solver_flags_consistent_resonance():
    # order-1 equation (1 - 1) c_1 = 0 is singular but consistent; the seed
    # pins the free coefficient
    N = TaylorSeries([1.0] + [0.0] * 8)
    rhs = TaylorSeries.zeros(8)
    sol = series_field_solve_linear(N, rhs, seed={1: [2.5]})
    assert 1 in sol.resonant_orders
    assert abs(sol.series[0].coeffs[1] - 2.5) < 1e-15


def test_linear_solver_rejects_inconsistent_resonance():
    N = TaylorSeries([1.0] + [0.0] * 8)
    rhs = TaylorSeries.monomial(1, 8)   # (1-1) c_1 = 1 has no solution
    with pytest.raises(ResonantOrder):
        series_field_solve_linear(N, rhs)


def test_linear_solver_accepts_resonance_cancelling_to_roundoff():
    # at the singular order k = 1, R_1 and N_1 c_0 = -N_1 R_0 are both
    # about 1e8 and cancel to one ulp (1.5e-8): far above tol in absolute
    # terms, but consistent against the terms that enter r_1
    N1, R0 = 1e4 / 3, 3e4
    R1 = np.nextafter(N1 * R0, 0.0)
    assert 1e-9 < abs(R1 - N1 * R0) < 1e-7
    N = TaylorSeries([1.0, N1, 0.0, 0.0])
    rhs = TaylorSeries([R0, R1, 0.0, 0.0])
    sol = series_field_solve_linear(N, rhs)
    assert sol.resonant_orders == (1,)
    assert np.array_equal(sol.series[0].coeffs, [-R0, 0.0, 0.0, 0.0])


def test_linear_solver_rejects_non_diagonal_leading_matrix():
    N = np.zeros((9, 2, 2), dtype=complex)
    N[0] = [[1.0, 0.5], [0.0, -1.0]]
    rhs = [TaylorSeries.zeros(8), TaylorSeries.zeros(8)]
    with pytest.raises(ValueError, match="diagonal"):
        series_field_solve_linear(N, rhs)


def test_series_keep_their_precision():
    # extended input stays extended; anything narrower is promoted to complex128
    ext = TaylorSeries(np.arange(5, dtype=np.longdouble))
    assert ext.coeffs.dtype == np.clongdouble
    assert (ext * _rand_series(4)).coeffs.dtype == np.clongdouble
    assert TaylorSeries([1, 2, 3]).coeffs.dtype == np.complex128
    assert InvXSeries(np.ones(3, dtype=np.float32)).coeffs.dtype == np.complex128
    g = AnalyticGerm(1, {(0, (2,)): 1.0})
    assert compose_germ_series(g, 0.0, ext.coeffs[None, :], 4).dtype == np.clongdouble
    assert g.evaluate(0.1, np.ones(1, dtype=np.clongdouble)).dtype == np.complex128
    sol = series_field_solve_linear(TaylorSeries(np.full(5, 0.5, dtype=np.clongdouble)),
                                    TaylorSeries.monomial(1, 4))
    assert sol.series[0].coeffs.dtype == np.clongdouble
