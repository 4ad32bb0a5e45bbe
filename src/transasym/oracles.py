"""Closed-form reference data that the release checks read.

Everything here is independent of the recursion machinery: the Taylor
coefficients of the first worked family's level profiles and of the
second family's leading profiles, expanded by long division of their
rational closed forms; the branch radius XI0 of the Abel leading profile;
the second-array offset of the first worked family; and the
pole-cancellation reconstruction that reads the first
singularity-location correction off the computed levels.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .series import TaylorSeries

__all__ = [
    "XI0",
    "p1_h_taylor",
    "p2_f0_taylor",
    "p1_second_array_offset",
    "pole_cancel_polynomial",
    "pole_scale_correction",
]

XI0 = 3.0 ** -0.5 * math.exp(-math.pi * math.sqrt(3.0) / 6.0)


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


def p1_h_taylor(m: int, K: int) -> np.ndarray:
    """Taylor coefficients 0..K of the level-m profile H_m at xi = 0.

    H_m is a polynomial over (xi - 12)^(m+2), H_0 = 144 xi/(xi - 12)^2.
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


# -- second worked family ----------------------------------------------------


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
