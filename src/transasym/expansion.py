"""Two-scale transasymptotic expansions.

Substituting y(x) = sum_m x^{-m} F_m(xi), xi = C e^{-x} x^{alpha_1}, into the
normalized system and collecting powers of z = 1/x (with xi treated as an
independent scale) gives, for the coefficients Y_{m,k} = [z^m xi^k] y,

    (L - k) Y_{m,k} = [z^m xi^k] g(z, y) - alpha_1 k Y_{m-1,k} + ((m-1) I + A) Y_{m-1,k},

with F_0(0) = 0 and F_0'(0) = e_1.  The right side involves only lower
orders: Y_{0,0} = 0 and every linear germ term carries a power of z.  So
one recursion, k outer and m inner, fills the whole hierarchy.  Its
column k = 0 is the formal power series: F_m(0) = c_m, the coefficient of
x^{-m} in the unique formal solution.

Each level m >= 1 is resonant at xi^1 in the first component; its free
coefficient c_m = Y_{m,1}[0] is the delayed constant.  It is pinned at
(m+1, xi^1), where the first component of the right side is exactly
affine in c_m with slope m + [g_{1,e_1}]_1, so solvability fixes it
before the rest of that column is solved.  Row M+1 is computed only to
xi^1, to pin c_M.

The same running products, over one index, give the Taylor jet of a
solution in x about any point, and of F_0 in xi; the pole hunts and C
ladders of :mod:`transasym.validate` walk and read the first, and
``continue_f0`` walks the second.

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
from .series import InvXSeries, TaylorSeries, complex_array
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


# -- the coefficient recursion -----------------------------------------------


def _product_chains(germ, Y: np.ndarray):
    """Running products of the germ's monomials over the coefficients Y[j].

    Returns (consts, monomials, steps): ``consts`` maps a z power to the
    coefficient of a y-free term; each monomial is (z power, chain, vec),
    its chain the array of its product's coefficients, shaped like Y[j];
    each step (Q, head, tail) makes chain Q the product of the shorter
    chain ``head`` and the factor ``tail``.  Steps are ordered so that a
    head is filled before the chains built on it.
    """
    consts: dict[int, np.ndarray] = {}
    monomials: list[tuple[int, np.ndarray, np.ndarray]] = []
    chains: dict[tuple[int, ...], np.ndarray] = {(j,): Y[j] for j in range(germ.dims)}
    for (i, k), vec in germ.terms.items():
        factors = tuple(j for j, p in enumerate(k) for _ in range(p))
        if not factors:
            consts[i] = vec
            continue
        for length in range(2, len(factors) + 1):
            chains.setdefault(factors[:length], np.zeros(Y.shape[1:], dtype=Y.dtype))
        monomials.append((i, chains[factors], vec))
    steps = [(chains[key], chains[key[:-1]], Y[key[-1]])
             for key in sorted(chains, key=len) if len(key) >= 2]
    return consts, monomials, steps


def _extend_chains(steps, idx: tuple[int, ...]) -> None:
    """Fill entry ``idx`` of every chain: one Cauchy-product sum per step."""
    lo = tuple(slice(i + 1) for i in idx)
    rev = tuple(slice(i, None, -1) for i in idx)
    for Q, head, tail in steps:
        Q[idx] = (head[lo] * tail[rev]).sum()


def _coefficients(s: NormalSystem, M: int, K: int, tol: float = 1e-9,
                  dtype=np.complex128) -> tuple[np.ndarray, list[complex]]:
    """Y[:, m, k] = [z^m xi^k] y for m <= M, k <= K, and the pinned c_1..c_M.

    Each germ monomial keeps its running coefficients as a chain of
    partial products (y_a y_b, then y_a y_b y_c, ...), extended by one
    sliced sum per (m, k).  A product's (m, k) coefficient never involves
    Y_{m,k}, since Y_{0,0} = 0, so it is formed before Y_{m,k} is solved.
    With M >= 1 and K >= 1 the returned array also carries row M+1
    through xi^1.
    """
    bad = s.germ.order_violations()
    if bad:
        terms = ", ".join(f"(i={i}, k={list(k)})" for i, k in bad)
        raise ValueError(f"germ breaks the order condition at {terms}")
    n, lam, alpha = s.n, s.lam, s.alpha
    alpha1 = alpha[0]
    rows = M + 2 if M >= 1 and K >= 1 else M + 1
    Y = np.zeros((n, rows, K + 1), dtype=dtype)
    consts, monomials, steps = _product_chains(s.germ, Y)

    def rhs_terms(m: int, k: int) -> list[np.ndarray]:
        terms = [vec * Q[m - i, k] for i, Q, vec in monomials if i <= m]
        if k == 0 and m in consts:
            terms.append(consts[m])
        if m >= 1:
            prev = Y[:, m - 1, k]
            terms.append(-(alpha1 * prev * k))
            terms.append(((m - 1) + alpha) * prev)
        return terms

    g11 = complex(s.germ.coefficient(1, (1,) + (0,) * (n - 1))[0])
    lam_max = float(np.max(np.abs(lam)))
    zero = np.zeros(n, dtype=dtype)
    pinned: list[complex] = []
    for k in range(K + 1):
        denom = lam - k
        sing = np.abs(denom) < 1e-12 * max(1.0, lam_max + k)
        for m in range(rows if k <= 1 else M + 1):
            _extend_chains(steps, (m, k))
            if m == 0:
                if k == 1:
                    Y[0, 0, 1] = 1.0
                elif k >= 2:
                    if np.any(np.abs(denom) < 1e-12 * (1.0 + k)):
                        raise ResonantOrder(k)
                    Y[:, 0, k] = sum(rhs_terms(0, k), zero) / denom
                continue
            if k == 1 and m >= 2:
                # solvability of the first component pins c_{m-1}
                d = sum(rhs_terms(m, 1), zero)[0]
                slope = (m - 1) + g11
                if abs(slope) >= 1e-13 * max(1, m - 1):
                    Y[0, m - 1, 1] = -d / slope
                elif abs(d) > tol:
                    raise ResonantOrder(1)
                pinned.append(complex(Y[0, m - 1, 1]))
                if m == M + 1:
                    break
            terms = rhs_terms(m, k)
            r = sum(terms, zero)
            if np.any(sing):
                scale = np.max(np.abs(terms), axis=0)
                if np.any(np.abs(r[sing]) > tol * scale[sing]):
                    raise ResonantOrder(k)
                r = np.where(sing, 0, r)
            Y[:, m, k] = r / np.where(sing, 1, denom)
    return Y, pinned


def _x_jet(s: NormalSystem, x0: complex, y0, rho: float, order: int) -> np.ndarray:
    """Taylor coefficients a[:, k] = [t^k] y(x0 + rho t) for k <= order.

    The same running products as :func:`_coefficients`, over one index:
    with z = 1/(x0 + rho t) = (1/x0) sum_k (-rho/x0)^k t^k expanded in t,
    order k of y' = -L y + z A y + g(z, y) gives
    (k+1) a_{k+1} = rho [t^k] f, whose right side uses a_0..a_k only.
    Computed in complex128.
    """
    a = np.zeros((s.n, order + 1), dtype=complex)
    a[:, 0] = y0
    consts, monomials, steps = _product_chains(s.germ, a)
    # Z[i, k] = [t^k] z^i
    i_max = max([1, *consts, *(i for i, _, _ in monomials)])
    Z = np.zeros((i_max + 1, order + 1), dtype=complex)
    Z[0, 0] = 1.0
    Z[1] = (-rho / x0) ** np.arange(order + 1) / x0
    for i in range(2, i_max + 1):
        Z[i] = np.convolve(Z[i - 1], Z[1])[: order + 1]
    for k in range(order):
        _extend_chains(steps, (k,))
        rev = slice(k, None, -1)
        f = -s.lam * a[:, k] + s.alpha * (a[:, rev] @ Z[1, : k + 1])
        for i, Q, vec in monomials:
            f = f + vec * (Q[rev] @ Z[i, : k + 1])
        for i, vec in consts.items():
            f = f + vec * Z[i, k]
        a[:, k + 1] = rho * f / (k + 1)
    return a


def _xi_jet(s: NormalSystem, xi0: complex, F0, rho: float, order: int) -> np.ndarray:
    """Taylor coefficients a[:, k] = [t^k] F_0(xi0 + rho t) for k <= order.

    :func:`_x_jet` for the leading profile's flow xi F' = Lam F - g(0, F):
    order k of (xi0 + rho t) dF/dt = rho (Lam F - g(0, F)) gives
    xi0 (k+1) a_{k+1} = rho ([t^k](Lam F - g(0, F)) - k a_k), the same
    coefficients as expanding 1/(xi0 + rho t) in t, without its
    alternating sum.  Computed in complex128.
    """
    a = np.zeros((s.n, order + 1), dtype=complex)
    a[:, 0] = F0
    _, monomials, steps = _product_chains(s.germ, a)
    flat = [(Q, vec) for i, Q, vec in monomials if i == 0]
    for k in range(order):
        _extend_chains(steps, (k,))
        f = s.lam * a[:, k] - sum((vec * Q[k] for Q, vec in flat), 0)
        a[:, k + 1] = rho * (f - k * a[:, k]) / (xi0 * (k + 1))
    return a


def formal_power_series(s: NormalSystem, R: int) -> tuple[InvXSeries, ...]:
    """Unique formal solution y ~ sum_{r>=2} c_r x^{-r}, orders 2..R.

    This is column xi^0 of the two-scale recursion, rows 2..R (rows 0 and
    1 vanish), with nothing pinned.  Order r reads
    L c_r = (A + (r-1) I) c_{r-1} + [z^r] g(z, y), whose right side
    depends on c_2..c_{r-1} only.  Computed in complex128.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    Y, _ = _coefficients(s, R, 0)
    return tuple(InvXSeries(Y[j, 2:, 0], r_min=2) for j in range(s.n))


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

    One recursion fills every level (see the module docstring).  The free
    constant c_m of level m is pinned at (m+1, xi^1), where the first
    component of the right side is d + (m + [g_{1,e_1}]_1) c_m; c_M uses
    row M+1, which is computed through xi^1 only and then dropped.  F_0
    raises :class:`ResonantOrder` at any singular order; a level's
    singular component must vanish within ``tol`` of the largest term
    entering it, and a vanishing pin slope with |d| > ``tol`` raises
    ``ResonantOrder(1)``.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if K < 2:
        raise ValueError("K must be at least 2")
    Y, consts = _coefficients(s, M, K, tol, np.result_type(dtype, np.complex128))
    return TwoScaleExpansion(s, [Y[:, m].copy() for m in range(M + 1)], consts, K=K)


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
