"""Series carriers, germs, composition and the linear series solver."""

import numpy as np
import pytest

from transasym.errors import ResonantOrder, TransasymError
from transasym.expansion import formal_power_series
from transasym.series import (AnalyticGerm, TaylorSeries, compose_germ_series,
                              series_field_solve_linear)
from transasym.systems import builtin

RNG = np.random.default_rng(7)


def _rand_series(K):
    return TaylorSeries(RNG.normal(size=K + 1) + 1j * RNG.normal(size=K + 1))


# -- TaylorSeries ------------------------------------------------------------


def test_coeffs_are_frozen():
    a = _rand_series(4)
    with pytest.raises(ValueError):
        a.coeffs[0] = 1.0


# -- AnalyticGerm ------------------------------------------------------------


def test_germ_compose_matches_pointwise():
    # g(z, y) = (y1^2 + z y2, y1 y2) composed with series in z and xi
    g = AnalyticGerm(2, {(0, (2, 0)): [1.0, 0.0],
                         (1, (0, 1)): [1.0, 0.0],
                         (0, (1, 1)): [0.0, 1.0]})
    Y = RNG.normal(size=(2, 4, 11)) + 1j * RNG.normal(size=(2, 4, 11))
    comp = compose_germ_series(g, Y)
    assert comp.shape == Y.shape

    def value(c, z, xi):   # sum_{i,k} c[i, k] z^i xi^k
        return np.polynomial.polynomial.polyval2d(z, xi, c)

    # composition truncates at z^3 and xi^10; the pointwise check needs both small
    z, xi = 3e-4 + 1e-4j, 0.04 - 0.02j
    direct = g.evaluate(z, [value(Y[j], z, xi) for j in range(2)])
    for j in range(2):
        assert abs(value(comp[j], z, xi) - direct[j]) < 1e-11


def test_germ_degree_cap():
    # a term above the degree cap is a usage error, not a domain error
    with pytest.raises(ValueError, match="exceeds degree cap 12") as err:
        AnalyticGerm(1, {(10, (3,)): 1.0})
    assert not isinstance(err.value, TransasymError)


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
    rhs = TaylorSeries(np.eye(9)[1])
    sol = series_field_solve_linear(N, rhs)
    expect = np.zeros(9, dtype=complex)
    expect[1] = 1.0
    assert np.allclose(sol.series[0].coeffs, expect)
    assert sol.resonant_orders == (0,)


def test_linear_solver_flags_consistent_resonance():
    # order-1 equation (1 - 1) c_1 = 0 is singular but consistent; the seed
    # pins the free coefficient
    N = TaylorSeries([1.0] + [0.0] * 8)
    rhs = TaylorSeries(np.zeros(9))
    sol = series_field_solve_linear(N, rhs, seed={1: [2.5]})
    assert 1 in sol.resonant_orders
    assert abs(sol.series[0].coeffs[1] - 2.5) < 1e-15


def test_linear_solver_rejects_inconsistent_resonance():
    N = TaylorSeries([1.0] + [0.0] * 8)
    rhs = TaylorSeries(np.eye(9)[1])   # (1-1) c_1 = 1 has no solution
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
    rhs = [TaylorSeries(np.zeros(9)), TaylorSeries(np.zeros(9))]
    with pytest.raises(ValueError, match="diagonal"):
        series_field_solve_linear(N, rhs)


def test_series_keep_their_precision():
    # extended input stays extended; anything narrower is promoted to complex128
    ext = TaylorSeries(np.arange(5, dtype=np.longdouble))
    assert ext.coeffs.dtype == np.clongdouble
    assert TaylorSeries([1, 2, 3]).coeffs.dtype == np.complex128
    assert formal_power_series(builtin("p1")[0], 4).dtype == np.complex128
    g = AnalyticGerm(1, {(0, (2,)): 1.0})
    assert compose_germ_series(g, ext.coeffs.reshape(1, 1, 5)).dtype == np.clongdouble
    assert g.evaluate(0.1, np.ones(1, dtype=np.clongdouble)).dtype == np.complex128
    sol = series_field_solve_linear(TaylorSeries(np.full(5, 0.5, dtype=np.clongdouble)),
                                    TaylorSeries(np.eye(5)[1]))
    assert sol.series[0].coeffs.dtype == np.clongdouble
