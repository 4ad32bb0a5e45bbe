"""Closed forms the tests compare the package against.

The first worked family's level profiles H_0..H_2, the second family's
leading profiles, and the inverse of the Abel leading profile with its
lattice of singular values.  The release checks read only the Taylor
coefficients of these curves (``transasym.oracles``); the tests also
evaluate them pointwise.
"""

import math

import numpy as np

from transasym.oracles import XI0

_SQ3 = math.sqrt(3.0)
_THETA = 0.5 + 0.5j * _SQ3      # exponent pair of the F_0 inverse map
_OMEGA = 0.5 + 1j * _SQ3 / 6.0  # the inverse map's finite branch points sit at -Omega, -conj(Omega)
LATTICE_RATIO = math.exp(math.pi * _SQ3)


# -- first worked family: double-pole profiles ------------------------------


def p1_h0(xi):
    """Leading profile 144 xi/(xi-12)^2."""
    return 144.0 * xi / (xi - 12.0) ** 2


def p1_h1(xi):
    num = 216.0 * xi + 210.0 * xi ** 2 + 3.0 * xi ** 3 - xi ** 4 / 60.0
    return num / (xi - 12.0) ** 3


def p1_h2(xi):
    num = (1458.0 * xi + 5238.0 * xi ** 2 - 99.0 / 8.0 * xi ** 3
           - 211.0 / 30.0 * xi ** 4 + 13.0 / 288.0 * xi ** 5 + xi ** 6 / 21600.0)
    return num / (xi - 12.0) ** 4


# -- Abel leading profile ---------------------------------------------------


def abel_xi_of_F0(F0):
    """Inverse of the leading Abel profile on its principal sheet:
    xi = xi_0 F (F+Omega)^{-theta} (F+conj Omega)^{-conj theta}, principal logarithms."""
    F = np.asarray(F0, dtype=complex)
    l1 = np.log(F + _OMEGA)
    l2 = np.log(F + np.conj(_OMEGA))
    out = XI0 * F * np.exp(-_THETA * l1 - np.conj(_THETA) * l2)
    return out.item() if np.ndim(F0) == 0 else out


def _newton_F0(target: complex, F: complex) -> complex:
    for _ in range(60):
        val = abel_xi_of_F0(F)
        err = val - target
        if abs(err) <= 1e-12 * max(1.0, abs(target)):
            return F
        # d xi/dF = xi/(F (1 + 3F + 3F^2)), the reciprocal of the flow factor
        dxi = 1.0 if F == 0 else val / (F * (1.0 + 3.0 * F + 3.0 * F * F))
        F = F - err / dxi
    raise RuntimeError(f"profile inversion stalled at xi = {target}")


def abel_F0_of_xi(xi) -> complex:
    """Invert xi = xi(F_0) on the principal sheet.

    The seed is walked up from the Taylor regime F_0 ~ xi, so no starting
    guess is needed.  Each Newton solve stops once |xi(F) - target| <=
    1e-12 max(1, |target|) and raises ``RuntimeError`` after 60 steps;
    the sheet's two real cut rays, xi >= xi_0 and xi <= -xi_0 e^{pi sqrt 3},
    are not refused.
    """
    xi = complex(xi)
    F = 0.0 + 0.0j
    for t in np.linspace(0.05, 1.0, 24):
        F = _newton_F0(t * xi, F if F != 0 else t * xi)
    return F


def abel_xi_set(p1: int, p2: int) -> complex:
    """Lattice of singular xi values (-1)^{p1} xi_0 e^{p2 pi sqrt 3}."""
    return complex((-1) ** int(p1) * XI0 * LATTICE_RATIO ** int(p2))


# -- second worked family ----------------------------------------------------


def p2_f0_a(xi):
    """Leading profile xi/(1 - xi^2/9) of the first normalization."""
    return xi / (1.0 - xi ** 2 / 9.0)


def p2_f0_b(xi, b_branch: int = 1):
    """Leading profile 2 xi (1 + B xi)/(xi^2 + 2) of the second
    normalization, B = b_branch i/sqrt(2)."""
    B = 1j * b_branch / math.sqrt(2.0)
    return 2.0 * xi * (1.0 + B * xi) / (xi ** 2 + 2.0)
