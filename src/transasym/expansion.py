"""Two-scale transasymptotic expansions.

Substituting y(x) = sum_m x^{-m} F_m(xi), xi = C e^{-x} x^{alpha_1}, into the
normalized system and collecting powers of x^{-1} (with xi treated as an
independent scale) gives

    xi F_0' = L F_0 - g(0, F_0),                          F_0'(0) = e_1,
    xi F_m' = (L - G(xi)) F_m + S_m               (m >= 1),

where G = d_y g(0, F_0) and

    S_m = alpha_1 xi F_{m-1}' - ((m-1) I + A) F_{m-1} - gamma_m,
    gamma_m = [z^m] g(z, sum_{j<m} z^j F_j).

Each linear level is resonant at xi^1 in the first component; the free
constant c_m there is pinned one level later, by solvability of the
F_{m+1} recursion.  The pinning defect is exactly affine in c_m with the
closed-form slope -(m + [g_{1,e_1}]_1), so one trial assembly determines
it, after which S_{m+1} is rebuilt from the finalized F_m.

The hierarchy is built in the dtype passed to :func:`build_expansion`
(complex128 by default, ``numpy.clongdouble`` for extended precision);
every later operation on the levels keeps that dtype.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InsufficientCoefficients,
    OscillatoryCoefficients,
    OutsideReliableDisk,
    ResonantOrder,
    ScalePastBranch,
)
from .series import (InvXSeries, TaylorSeries, complex_array, compose_germ_series,
                     series_field_solve_linear)
from .systems import NormalSystem

__all__ = [
    "TwoScaleExpansion",
    "GevreyFit",
    "build_expansion",
    "eval_two_scale",
    "formal_power_series",
    "gevrey_fit",
    "least_term_index",
]


# -- formal power series -----------------------------------------------------


def formal_power_series(s: NormalSystem, R: int) -> tuple[InvXSeries, ...]:
    """Unique formal solution y ~ sum_{r>=2} c_r x^{-r}, orders 2..R.

    Order-r identification gives L c_r = (A + (r-1) I) c_{r-1} + [z^r] g(z, y),
    and the germ order condition makes the z^r coefficient depend only on
    c_2..c_{r-1}.  Computed in complex128.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    n = s.n
    Y = np.zeros((n, R + 1), dtype=complex)
    lam = s.lam
    for r in range(2, R + 1):
        grow = compose_germ_series(s.germ, _z_identity(R), Y, R)[:, r]
        rhs = (s.alpha + (r - 1)) * Y[:, r - 1] + grow
        if np.any(np.abs(lam) < 1e-13):
            raise ResonantOrder(r)
        Y[:, r] = rhs / lam
    return tuple(InvXSeries(Y[j, 2:], r_min=2) for j in range(n))


def _z_identity(K: int) -> np.ndarray:
    z = np.zeros(K + 1, dtype=complex)
    z[1] = 1.0
    return z


# -- leading profile and the linear levels -----------------------------------


def _f0_array(s: NormalSystem, K: int, dtype) -> np.ndarray:
    """Coefficients of F_0 from (k I - L) f_k = -[xi^k] g(0, F_0), f_1 = e_1."""
    n = s.n
    lam = s.lam
    F = np.zeros((n, K + 1), dtype=dtype)
    if K >= 1:
        F[0, 1] = 1.0
    for k in range(2, K + 1):
        gk = compose_germ_series(s.germ, 0.0 + 0.0j, F, k)[:, k]
        denom = k - lam
        if np.any(np.abs(denom) < 1e-12 * (1.0 + k)):
            raise ResonantOrder(k)
        F[:, k] = -gk / denom
    return F


def _gmatrix_series(s: NormalSystem, F0: np.ndarray, K: int) -> np.ndarray:
    """G(xi) = d_y g(0, F_0(xi)) as a (K+1, n, n) coefficient stack."""
    n = s.n
    G = np.zeros((K + 1, n, n), dtype=F0.dtype)
    for l in range(n):
        cols = compose_germ_series(s.germ.partial_y(l), 0.0 + 0.0j, F0, K)
        for j in range(n):
            G[:, j, l] = cols[j]
    return G


def _bi_mul(a: np.ndarray, b: np.ndarray, mz: int, K: int) -> np.ndarray:
    """Product of bivariate coefficient arrays (z rows, xi columns), truncated."""
    out = np.zeros((mz + 1, K + 1), dtype=a.dtype)
    for r1 in range(min(a.shape[0], mz + 1)):
        row_a = a[r1]
        for r2 in range(min(b.shape[0], mz + 1 - r1)):
            out[r1 + r2, :] += np.convolve(row_a, b[r2])[: K + 1]
    return out


def _compose_germ_bivariate(germ, Y: np.ndarray, mz: int, K: int) -> np.ndarray:
    """g(z, y(z, xi)) for bivariate arguments Y: (dims, mz+1, K+1).

    Returns (dims, mz+1, K+1).  The z-power of a term shifts rows.
    """
    dt = Y.dtype
    dims = germ.dims
    out = np.zeros((dims, mz + 1, K + 1), dtype=dt)
    one = np.zeros((mz + 1, K + 1), dtype=dt)
    one[0, 0] = 1.0
    cache: dict[tuple[int, int], np.ndarray] = {}

    def ypow(j: int, p: int) -> np.ndarray:
        key = (j, p)
        got = cache.get(key)
        if got is not None:
            return got
        val = Y[j] if p == 1 else _bi_mul(ypow(j, p - 1), Y[j], mz, K)
        cache[key] = val
        return val

    for (i, k), vec in germ.terms.items():
        if i > mz:
            continue
        factor = None
        for j, p in enumerate(k):
            if p == 0:
                continue
            yp = ypow(j, p)
            factor = yp if factor is None else _bi_mul(factor, yp, mz, K)
        if factor is None:
            factor = one
        if i > 0:
            shifted = np.zeros_like(factor)
            shifted[i:, :] = factor[: mz + 1 - i, :]
            factor = shifted
        out += vec[:, None, None] * factor[None, :, :]
    return out


def _assemble_rhs(s: NormalSystem, fm: Sequence[np.ndarray], m: int, K: int) -> np.ndarray:
    """S_m (n, K+1) from the finalized F_0..F_{m-1}."""
    n = s.n
    Y = np.zeros((n, m + 1, K + 1), dtype=fm[0].dtype)
    for j in range(min(m, len(fm))):
        Y[:, j, :] = fm[j][:, : K + 1]
    gamma = _compose_germ_bivariate(s.germ, Y, m, K)[:, m, :]
    prev = fm[m - 1][:, : K + 1]
    k_weights = np.arange(K + 1, dtype=float)
    xi_dprev = prev * k_weights[None, :]
    return s.alpha[0] * xi_dprev - ((m - 1) + s.alpha)[:, None] * prev - gamma


def _pin_defect(N: np.ndarray, S: np.ndarray):
    """First-row xi^1 defect of the level whose right side is S.

    Order 0 gives c_0 = -L^{-1} S_0; the order-1 first row is then
    S_1[0] + (N_1 c_0)[0], which must vanish for solvability.  Returned
    as a scalar of the levels' dtype.
    """
    lam = np.diagonal(N[0])
    c0 = -S[:, 0] / lam
    r1 = S[:, 1] + N[1] @ c0
    return r1[0]


# -- expansion container -----------------------------------------------------


class TwoScaleExpansion:
    """The computed F_0..F_M with the pinned free constants.

    ``fm`` holds one (n, K+1) coefficient array per m; ``series(m)`` wraps a
    level as TaylorSeries and ``observable_series(m)`` projects it on the
    system's observable weights.  ``xi_scale`` is (lambda_1, alpha_1).
    """

    def __init__(self, system: NormalSystem, fm: Sequence[np.ndarray],
                 free_constants: Sequence[complex], K: int):
        self.system = system
        self.fm = [complex_array(a) for a in fm]
        for a in self.fm:
            a.setflags(write=False)
        self.free_constants = tuple(complex(c) for c in free_constants)
        self.K = int(K)
        self.M = len(self.fm) - 1
        self.xi_scale = (complex(system.lam[0]), complex(system.alpha[0]))
        self._radius: float | None = None
        self._default_fit: "GevreyFit | None" = None

    def series(self, m: int) -> tuple[TaylorSeries, ...]:
        return tuple(TaylorSeries(self.fm[m][j]) for j in range(self.system.n))

    def observable_series(self, m: int) -> TaylorSeries:
        w = self.system.observable
        return TaylorSeries(np.tensordot(w, self.fm[m], axes=(0, 0)))

    def xi(self, C: complex, x: complex) -> complex:
        alpha1 = self.xi_scale[1]
        x = complex(x)
        return complex(C) * np.exp(-x + alpha1 * np.log(x))

    def reliability_radius(self) -> float:
        """Estimated convergence radius of the leading observable profile."""
        if self._radius is None:
            self._radius = _profile_radius(self.observable_series(0))
        return self._radius

    def default_fit(self) -> "GevreyFit":
        if self._default_fit is None:
            self._default_fit = gevrey_fit(self, 0.5 * self.reliability_radius())
        return self._default_fit

    def residual_coefficients(self, m_max: int | None = None) -> np.ndarray:
        """Residual of the substituted two-scale series, as a bivariate stack.

        Returns (n, m_max+1, K+1); rows 0..M vanish to roundoff by
        construction, which is the substitution-identity check.
        """
        mm = self.M if m_max is None else min(m_max, self.M)
        dt = self.fm[0].dtype
        n, K = self.system.n, self.K
        Y = np.zeros((n, mm + 2, K + 1), dtype=dt)
        for j in range(mm + 1):
            Y[:, j, :] = self.fm[j]
        gfull = _compose_germ_bivariate(self.system.germ, Y, mm + 1, K)
        res = np.zeros((n, mm + 1, K + 1), dtype=dt)
        k_weights = np.arange(K + 1, dtype=float)
        alpha1 = self.system.alpha[0]
        for m in range(mm + 1):
            Fm = self.fm[m]
            xi_dFm = Fm * k_weights[None, :]
            # y' - rhs collected at z^m
            row = -xi_dFm + self.system.lam[:, None] * Fm - gfull[:, m, :]
            if m >= 1:
                prev = self.fm[m - 1]
                row += alpha1 * prev * k_weights[None, :] - ((m - 1) + self.system.alpha)[:, None] * prev
            res[:, m, :] = row
        return res

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dict(),
            "M": self.M,
            "K": self.K,
            "alpha1": [self.xi_scale[1].real, self.xi_scale[1].imag],
            "free_constants": [[c.real, c.imag] for c in self.free_constants],
            "fm": [[TaylorSeries(level[j]).to_dict() for j in range(self.system.n)]
                   for level in self.fm],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TwoScaleExpansion":
        system = NormalSystem.from_dict(d["system"])
        fm = []
        for level in d["fm"]:
            arrays = [TaylorSeries.from_dict(c).coeffs for c in level]
            fm.append(np.array(arrays))
        consts = [complex(re, im) for re, im in d["free_constants"]]
        return cls(system, fm, consts, K=int(d["K"]))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "TwoScaleExpansion":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _profile_radius(f0: TaylorSeries) -> float:
    """Convergence-radius estimate for eval reliability checks.

    Uses the singularity-analysis estimator when it converges, else a crude
    root test on the top half of the coefficients.
    """
    from .singular import radius_estimate

    try:
        return float(radius_estimate(f0).radius)
    except OscillatoryCoefficients as err:
        return float(err.modulus)
    except (InsufficientCoefficients, ValueError):
        c = np.abs(f0.coeffs)
        K = len(c) - 1
        lo = max(1, K // 2)
        nz = [(k, v) for k, v in enumerate(c) if k >= lo and v > 0]
        if not nz:
            return math.inf
        return float(min(v ** (-1.0 / k) for k, v in nz))


def build_expansion(s: NormalSystem, M: int, K: int, *, tol: float = 1e-9,
                    dtype=np.complex128) -> TwoScaleExpansion:
    """Compute F_0..F_M to Taylor order K with delayed-constant pinning.

    ``dtype`` is the precision of the whole hierarchy: ``numpy.complex128``
    or ``numpy.clongdouble``.  A germ that breaks the order condition
    g = O(z^2) + O(|y|^2) is rejected with ``ValueError``.

    The pin of c_m reads the first-row xi^1 defect d of S_{m+1}, which is
    affine in c_m: with H = O(xi), H_1 = e_1, F_0 = O(xi) and F_1(0) = 0,
    only -(m + A) H and the germ's z y_1 term reach that row, so the slope
    is -(m + [g_{1,e_1}]_1) and one trial assembly gives the intercept.
    The trial for F_M is done at reduced order K//2 (its xi^0 and xi^1
    rows are all the pin uses).
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if K < 2:
        raise ValueError("K must be at least 2")
    bad = s.germ.order_violations()
    if bad:
        terms = ", ".join(f"(i={i}, k={list(k)})" for i, k in bad)
        raise ValueError(f"germ breaks the order condition at {terms}")
    dtype = np.result_type(dtype, np.complex128)
    F0 = _f0_array(s, K, dtype)
    fm = [F0]
    consts: list[complex] = []
    if M >= 1:
        G = _gmatrix_series(s, F0, K)
        N = -G
        idx = np.arange(s.n)
        N[0, idx, idx] += s.lam
        e1 = np.zeros(s.n, dtype=dtype)
        e1[0] = 1.0
        zero_rhs = [TaylorSeries.zeros(K) for _ in range(s.n)]
        H = _solution_array(series_field_solve_linear(N, zero_rhs, seed={1: e1}, tol=tol))
        g11 = complex(s.germ.coefficient(1, (1,) + (0,) * (s.n - 1))[0])
        for m in range(1, M + 1):
            S = _assemble_rhs(s, fm, m, K)
            P = _solution_array(series_field_solve_linear(
                N, [TaylorSeries(S[j]) for j in range(s.n)],
                seed={1: np.zeros(s.n)}, tol=tol))
            K_pin = K if m < M else max(2, K // 2)
            d0 = _pin_defect(N, _assemble_rhs(s, fm + [P], m + 1, K_pin))
            slope = -(m + g11)
            if abs(slope) < 1e-13 * max(1, m):
                if abs(d0) > tol:
                    raise ResonantOrder(1)
                c_m = 0.0 + 0.0j
            else:
                c_m = -d0 / slope
            fm.append(P + c_m * H)
            consts.append(complex(c_m))
    return TwoScaleExpansion(s, fm, consts, K=K)


def _solution_array(sol) -> np.ndarray:
    return np.array([t.coeffs for t in sol.series])


# -- evaluation --------------------------------------------------------------


def least_term_index(b_g: float, x_abs: float, m_cap: int | None = None) -> int:
    """Least-term truncation index floor(|x| / B_g), clipped to [0, m_cap]."""
    if x_abs <= 0:
        raise ValueError("x_abs must be positive")
    m = int(math.floor(x_abs / b_g))
    m = max(0, m)
    if m_cap is not None:
        m = min(m, m_cap)
    return m


def eval_two_scale(e: TwoScaleExpansion, C: complex, x: complex,
                   m_used: int | None = None, fit: "GevreyFit | None" = None):
    """Evaluate sum_{m<=m*} x^{-m} F_m(xi(x)) with a Gevrey error bound.

    m* is ``m_used`` when given, else the least-term rule min(M, floor(|x|/B_g)).
    Returns (value: n-vector, error_bound: float).
    """
    x = complex(x)
    if abs(x) <= 1.0:
        raise ValueError("evaluation requires |x| > 1")
    xi = e.xi(C, x)
    r = e.reliability_radius()
    if abs(xi) > r:
        raise ScalePastBranch(
            f"|xi| = {abs(xi):.6g} exceeds the reliability radius {r:.6g}"
        )
    if math.isfinite(r) and abs(xi) > 0 and (abs(xi) / r) ** (e.K + 1) > 1e-8:
        raise OutsideReliableDisk(
            f"Taylor tail at |xi| = {abs(xi):.6g} is not negligible at order {e.K}"
        )
    if fit is None:
        fit = e.default_fit()
    m_star = m_used if m_used is not None else least_term_index(fit.B_g, abs(x), e.M)
    m_star = min(m_star, e.M)
    value = np.zeros(e.system.n, dtype=e.fm[0].dtype)
    xm = 1.0 + 0.0j
    for m in range(m_star + 1):
        level = e.fm[m]
        acc = level[:, -1].copy()
        for k in range(e.K - 1, -1, -1):
            acc = acc * xi + level[:, k]
        value += acc * xm
        xm /= x
    # error of the first omitted term under the Gevrey envelope
    mp = m_star + 1
    log_bound = math.log(max(fit.K_g, 1e-300)) + math.lgamma(mp + 1) \
        + mp * math.log(fit.B_g) - mp * math.log(abs(x))
    return value, math.exp(log_bound)


# -- Gevrey diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class GevreyFit:
    """Envelope s_m <= K_g m! B_g^m for the observable profiles on |xi| = rho."""

    rho: float
    sup_norms: tuple[float, ...]
    K_g: float
    B_g: float
    r_squared: float

    def envelope(self, m: int) -> float:
        return self.K_g * math.factorial(m) * self.B_g ** m


def gevrey_fit(e: TwoScaleExpansion, rho: float, n_points: int = 256) -> GevreyFit:
    """Fit the factorial envelope to circle sup norms of the observables.

    log(s_m / m!) is affine only asymptotically: the first levels carry a
    transient hump from the growing profile numerators.  The scale B_g is
    therefore fit past the hump (everything after the argmax, keeping at
    least four points when available) and r_squared grades that tail fit;
    the prefactor K_g is still inflated over every level, so the envelope
    bounds the whole family.
    """
    sups = [e.observable_series(m).sup_on_circle(rho, n_points) for m in range(e.M + 1)]
    logs = np.array([math.log(max(sm, 1e-300)) - math.lgamma(m + 1.0)
                     for m, sm in zip(range(e.M + 1), sups)])
    if e.M == 0:
        b_g = 1.0
        r2 = 1.0
    else:
        start = min(int(np.argmax(logs)) + 1, max(0, e.M + 1 - 4))
        ms = np.arange(start, e.M + 1, dtype=float)
        A = np.vstack([ms, np.ones_like(ms)]).T
        coef, _, _, _ = np.linalg.lstsq(A, logs[start:], rcond=None)
        b_g = math.exp(coef[0])
        ss_res = float(np.sum((logs[start:] - A @ coef) ** 2))
        tot = float(np.sum((logs[start:] - logs[start:].mean()) ** 2))
        r2 = 1.0 if tot == 0 else 1.0 - ss_res / tot
    # inflate the prefactor so the envelope is a true upper bound
    k_g = max(sm / (math.factorial(m) * b_g ** m) for m, sm in zip(range(e.M + 1), sups))
    k_g = max(k_g, 1e-300)
    return GevreyFit(rho=float(rho), sup_norms=tuple(float(v) for v in sups),
                     K_g=float(k_g), B_g=float(b_g), r_squared=float(r2))
