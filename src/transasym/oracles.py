"""Closed-form reference data for the worked systems.

Everything here is independent of the recursion machinery: explicit
rational scale profiles, the second-array offset of the first worked
family, the inverse of the leading Abel profile with its lattice of
singular values, and the pole-cancellation reconstruction that reads the
first singularity-location correction off the computed levels.  The test and validation layers compare computed
objects against these curves.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NewtonDiverged, PoleOfOracle, SheetUnreachable
from .series import TaylorSeries

__all__ = [
    "abel_xi_of_F0",
    "abel_F0_of_xi",
    "pole_cancel_polynomial",
    "pole_scale_correction",
]

_SQ3 = math.sqrt(3.0)
_THETA = 0.5 + 0.5j * _SQ3      # exponent pair of the F_0 inverse map
_OMEGA = 0.5 + 1j * _SQ3 / 6.0  # the inverse map's finite branch points sit at -Omega, -conj(Omega)
XI0 = 3.0 ** -0.5 * math.exp(-math.pi * _SQ3 / 6.0)
LATTICE_RATIO = math.exp(math.pi * _SQ3)


def _guard_pole(xi, where: complex) -> None:
    if np.min(np.abs(np.asarray(xi) - where)) < 1e-9 * max(1.0, abs(where)):
        raise PoleOfOracle(f"oracle evaluated within 1e-09 of its pole at {where:g}")


def _rational_taylor(num, den, K: int) -> np.ndarray:
    """Taylor coefficients 0..K of num(xi)/den(xi), both ascending, den[0] != 0."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if den[0] == 0:
        raise ZeroDivisionError("denominator must be a unit at the origin")
    c = np.zeros(K + 1, dtype=complex)
    for k in range(K + 1):
        acc = num[k] if k < num.size else 0.0
        j_top = min(k, den.size - 1)
        if j_top:
            acc = acc - np.dot(den[1:j_top + 1], c[k - 1::-1][:j_top])
        c[k] = acc / den[0]
    return c


# -- first worked family: double-pole profiles ------------------------------


def p1_h0(xi):
    """Leading profile 144 xi/(xi-12)^2."""
    _guard_pole(xi, 12.0)
    return 144.0 * xi / (xi - 12.0) ** 2


def p1_h1(xi):
    _guard_pole(xi, 12.0)
    num = 216.0 * xi + 210.0 * xi ** 2 + 3.0 * xi ** 3 - xi ** 4 / 60.0
    return num / (xi - 12.0) ** 3


def p1_h2(xi):
    _guard_pole(xi, 12.0)
    num = (1458.0 * xi + 5238.0 * xi ** 2 - 99.0 / 8.0 * xi ** 3
           - 211.0 / 30.0 * xi ** 4 + 13.0 / 288.0 * xi ** 5 + xi ** 6 / 21600.0)
    return num / (xi - 12.0) ** 4


def p1_h_taylor(m: int, K: int) -> np.ndarray:
    """Taylor coefficients 0..K of the level-m profile H_m at xi = 0.

    Expanded by long division of the rational closed forms, so the
    values are independent of any recursive construction of the levels.
    """
    if m == 0:
        num, den = [0.0, 144.0], [144.0, -24.0, 1.0]
    elif m == 1:
        num = [0.0, 216.0, 210.0, 3.0, -1.0 / 60.0]
        den = [-1728.0, 432.0, -36.0, 1.0]
    elif m == 2:
        num = [0.0, 1458.0, 5238.0, -99.0 / 8.0, -211.0 / 30.0,
               13.0 / 288.0, 1.0 / 21600.0]
        den = [20736.0, -6912.0, 864.0, -48.0, 1.0]
    else:
        raise ValueError("closed forms are tabulated for m = 0, 1, 2 only")
    return _rational_taylor(num, den, K)


def p1_second_array_offset(x_s, n: int):
    """Logarithmic offset from a first-array point x_s to the second array."""
    x_s = complex(x_s)
    if x_s == 0:
        raise ZeroDivisionError("x_s must be nonzero")
    return -cmath.log(x_s) + (2 * int(n) + 1) * math.pi * 1j - math.log(60.0)


# -- Abel leading profile ---------------------------------------------------


def abel_xi_of_F0(F0, winding=(0, 0)):
    """Inverse of the leading Abel profile:
    xi = xi_0 F (F+Omega)^{-theta} (F+conj Omega)^{-conj theta}.

    Principal logarithms plus 2 pi i times the ``winding`` pair fix the
    branch; winding counts turns around -Omega and -conj(Omega).
    """
    w1, w2 = winding
    F = np.asarray(F0, dtype=complex)
    l1 = np.log(F + _OMEGA) + 2j * math.pi * w1
    l2 = np.log(F + np.conj(_OMEGA)) + 2j * math.pi * w2
    out = XI0 * F * np.exp(-_THETA * l1 - np.conj(_THETA) * l2)
    return out.item() if np.ndim(F0) == 0 else out


def _newton_F0(target: complex, F: complex, winding) -> complex:
    for _ in range(60):
        val = abel_xi_of_F0(F, winding)
        err = val - target
        if abs(err) <= 1e-12 * max(1.0, abs(target)):
            return F
        # d xi/dF = xi/(F (1 + 3F + 3F^2)), the reciprocal of the flow factor
        dxi = 1.0 if F == 0 else val / (F * (1.0 + 3.0 * F + 3.0 * F * F))
        F = F - err / dxi
    raise NewtonDiverged(target, f"profile inversion stalled at xi = {target}")


def abel_F0_of_xi(xi, winding=(0, 0), seed=None) -> complex:
    """Invert xi = xi(F_0) on a chosen branch.

    On the principal sheet (winding (0, 0)) the seed is walked up from the
    Taylor regime F_0 ~ xi, so no starting guess is needed; the two real
    cut rays of that sheet are rejected.  Off the principal sheet an
    explicit ``seed`` on the target sheet must be supplied.  Each Newton
    solve stops once |xi(F) - target| <= 1e-12 max(1, |target|) and
    raises :class:`~transasym.errors.NewtonDiverged` after 60 steps.
    """
    xi = complex(xi)
    w = (int(winding[0]), int(winding[1]))
    if w == (0, 0) and seed is None:
        if abs(xi.imag) <= 1e-12 * max(1.0, abs(xi.real)) and (
                xi.real >= XI0 - 1e-12 or xi.real <= -XI0 * LATTICE_RATIO + 1e-12):
            raise SheetUnreachable(
                f"xi = {xi} lies on a principal-sheet cut ray")
        F = 0.0 + 0.0j
        for t in np.linspace(0.05, 1.0, 24):
            F = _newton_F0(t * xi, F if F != 0 else t * xi, w)
        return F
    if seed is None:
        raise SheetUnreachable(
            "no Taylor seed off the principal sheet; pass an explicit seed")
    return _newton_F0(xi, complex(seed), w)


def abel_xi_set(p1: int, p2: int) -> complex:
    """Lattice of singular xi values (-1)^{p1} xi_0 e^{p2 pi sqrt 3}."""
    return complex((-1) ** int(p1) * XI0 * LATTICE_RATIO ** int(p2))


def abel_phase_field(X, Y):
    """Direction field (dX, dY) of the real-section trajectories; the
    stationary points are the branch-point images (-1/2, +-sqrt(3)/6)."""
    dX = X + 3 * X ** 2 - 3 * Y ** 2 + 3 * X ** 3 - 9 * X * Y ** 2
    dY = Y * (1 + 6 * X + 9 * X ** 2 - 3 * Y ** 2)
    return dX, dY


# -- second worked family ----------------------------------------------------


def p2_f0_a(xi):
    """Leading profile xi/(1 - xi^2/9) of the first normalization."""
    den = 1.0 - np.asarray(xi) ** 2 / 9.0
    if np.min(np.abs(den)) < 1e-9:
        raise PoleOfOracle("oracle evaluated at a pole (xi near +-3)")
    out = np.asarray(xi) / den
    return out.item() if np.ndim(xi) == 0 else out


def p2_f0_b(xi, b_branch: int = 1):
    """Leading profile 2 xi (1 + B xi)/(xi^2 + 2) of the second
    normalization, B = b_branch i/sqrt(2)."""
    B = 1j * b_branch / math.sqrt(2.0)
    den = np.asarray(xi) ** 2 + 2.0
    if np.min(np.abs(den)) < 1e-9:
        raise PoleOfOracle("oracle evaluated at a pole (xi near +-i sqrt 2)")
    out = 2.0 * np.asarray(xi) * (1.0 + B * np.asarray(xi)) / den
    return out.item() if np.ndim(xi) == 0 else out


def p2_f0_taylor(which: str, K: int, b_branch: int = 1) -> np.ndarray:
    """Taylor coefficients 0..K of the leading profile for normalization
    "a" or "b", by long division of the closed forms."""
    if which == "a":
        return _rational_taylor([0.0, 1.0], [1.0, 0.0, -1.0 / 9.0], K)
    if which == "b":
        B = 1j * b_branch / math.sqrt(2.0)
        return _rational_taylor([0.0, 2.0, 2.0 * B], [2.0, 0.0, 1.0], K)
    raise ValueError("which must be 'a' or 'b'")


# -- pole cancellation -------------------------------------------------------


def pole_cancel_polynomial(series, xi_s, order: int) -> np.ndarray:
    """Multiply a truncated series by (xi - xi_s)^order and trim to a polynomial.

    If the series is a polynomial over (xi - xi_s)^order, the product's
    coefficients die off after the numerator degree; the trimmed ascending
    coefficient array is returned, cut after its last coefficient above
    1e-9 of the largest.  Survivors in the top half of the product mean
    the pole order or location is off, which is an error.
    """
    if isinstance(series, TaylorSeries):
        c = np.asarray(series.coeffs)
    else:
        c = np.asarray(series, dtype=complex)
    xi_s = complex(xi_s)
    order = int(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    b = np.array([math.comb(order, i) * (-xi_s) ** (order - i)
                  for i in range(order + 1)])
    full = np.convolve(c, b)
    scale = np.max(np.abs(full))
    if scale == 0:
        return np.zeros(1, dtype=complex)
    keep = np.flatnonzero(np.abs(full) > 1e-9 * scale)
    deg = int(keep[-1])
    if deg > (len(full) - 1) // 2:
        raise ValueError(
            f"product still carries weight at degree {deg} of {len(full) - 1}; "
            "not a polynomial after pole cancellation")
    return full[: deg + 1]


def pole_scale_correction(e):
    """First singularity-location correction A in xi_s(x) = xi_s + A/x.

    xi_s is the system's ``xi_s_hint``.  Near the pole the level-m profile
    carries (xi - xi_s)^{-(2+m)}; writing F_m = P_m(xi)/(xi - xi_s)^{2+m},
    the shifted-pole structure forces P_m(xi_s) = (m+1) A^m P_0(xi_s), a
    derivative of the geometric sum, and the m = 1 member gives A.  Needs
    an expansion with M >= 1 whose observable blows up at xi_s like a
    double pole.
    """
    xi_s = e.system.xi_s_hint
    if xi_s is None:
        raise ValueError("system declares no singular xi level")
    if e.M < 1:
        raise ValueError("need at least levels 0 and 1 to read off A")
    p0 = pole_cancel_polynomial(e.observable_series(0), xi_s, 2)
    p1 = pole_cancel_polynomial(e.observable_series(1), xi_s, 3)
    a0 = complex(np.polyval(p0[::-1], xi_s))
    a1 = complex(np.polyval(p1[::-1], xi_s))
    if a0 == 0:
        raise ValueError("leading polynomial vanishes at xi_s; no pole to track")
    return a1 / (2.0 * a0)
