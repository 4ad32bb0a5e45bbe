"""Singularity geometry: convergence disks, continuation, x-plane arrays.

Three layers.  Domb-Sykes ratio analysis turns truncated Taylor
coefficients into an estimate of the dominant singularity (radius,
location, local algebraic exponent), and Pade approximants of the
log-derivative refine a pole's location and exponent.  Taylor jets of the leading
profile's flow in xi, walked like the x-plane hunts of
:mod:`transasym.validate`, continue F_0 beyond its disk and stop at the
blow-up point.  Finally, solving xi(x) = C e^{-x} x^{alpha_1} = xi_s
produces the nearly periodic array of x-plane singularity locations,
each entry Newton-refined from its asymptotic seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientCoefficients, OscillatoryCoefficients, TransasymError
from .series import TaylorSeries, complex_array
from .systems import NormalSystem

__all__ = [
    "RadiusEstimate",
    "radius_estimate",
    "ContinuationResult",
    "continue_f0",
    "ArrayEntry",
    "SingularityArray",
    "predict_array",
]

_NEWTON_TOL = 1e-12  # |xi(x_ref) - xi_s| a refined root meets, relative to max(1, |xi_s|)
_NEWTON_ITER = 50  # Newton steps before an entry is kept unrefined
_SEED_ORDER = 64  # Taylor order of the F_0 row that seeds a continuation
_PADE = (11, 13)  # numerator degrees L of a pole read's two [L/L+1] Pade approximants
_NEWTON = 8  # most Newton steps to a Pade denominator's root

@dataclass(frozen=True)
class RadiusEstimate:
    """Dominant-singularity data read off a truncated Taylor series by
    Domb-Sykes ratio analysis."""

    radius: float
    xi_s: complex
    exponent: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")


def _neville_diagonal(u, v):
    """Neville table diagonal for extrapolating v(u) to u = 0.

    Entry k is the depth-k estimate built from the last k+1 nodes (the
    smallest u when u decreases along the input).
    """
    t = [complex(x) for x in v]
    diag = [t[-1]]
    for lev in range(1, len(t)):
        for j in range(len(t) - 1, lev - 1, -1):
            t[j] = t[j] + (t[j] - t[j - 1]) * u[j] / (u[j - lev] - u[j])
        diag.append(t[-1])
    return diag


def _domb_sykes(cs: np.ndarray) -> list:
    """:func:`radius_estimate` of every row of ``cs``: its ``RadiusEstimate``,
    or the exception a lone call raises.

    The windows (stride, holes, trailing run), the ratios and the phase
    test run once for all lanes; both 5-node Neville tables run lane by
    lane, in Python's complex arithmetic, which a numpy table over the
    lanes only matches from about 13 lanes on.  No lane's arithmetic
    depends on another's, so each reads bitwise as it does alone.
    """
    live, out = np.abs(cs) > 1e-300, [None] * len(cs)
    count = live.sum(axis=1)
    for lane in np.flatnonzero(count < 20):
        out[lane] = InsufficientCoefficients(
            f"{count[lane]} nonzero coefficients, need at least 20")
    b, cols = np.flatnonzero(count >= 20), np.arange(cs.shape[1])
    if not b.size:
        return out
    nz = np.sort(np.where(live[b], cols, -1), axis=1)[:, -40:]  # last 40 nonzero orders, -1 first
    gaps = np.diff(nz, axis=1)
    stride = np.where(np.all((gaps == gaps[:, -1:]) | (nz[:, :-1] < 0), axis=1), gaps[:, -1], 1)
    last = nz[:, -1]
    offset = last % stride  # a lane reads d = c[offset::stride][start:orders]
    orders = (last - offset) // stride + 1
    holes = ~live[b] & ((cols - offset[:, None]) % stride[:, None] == 0) & (cols <= last[:, None])
    start = (np.max(np.where(holes, cols, -1), axis=1) - offset) // stride + 1
    for i in np.flatnonzero(orders - start < 20):
        out[b[i]] = InsufficientCoefficients(
            f"trailing nonzero run has {orders[i] - start[i]} terms, need at least 20")
    b, stride, offset, start, orders = (v[orders - start >= 20]
                                        for v in (b, stride, offset, start, orders))

    def ratios(j):  # each lane's d_j / d_{j-1}
        idx = offset[:, None] + stride[:, None] * j
        return cs[b[:, None], idx] / cs[b[:, None], idx - stride[:, None]]

    run, tail_j = orders - start, orders[:, None] - np.arange(12, 0, -1)
    picks = orders[:, None] - 1 - np.maximum(1, (run[:, None] - 1) // 6) * np.arange(4, -1, -1)
    tail, r = ratios(tail_j), ratios(picks)
    wild = np.max(np.abs(np.angle(tail / tail[:, -1:])), axis=1) > 0.6
    u = (1.0 / picks).tolist()
    A = np.array([_neville_diagonal(w, v)[-1] for w, v in zip(u, r.tolist())])
    B = [_neville_diagonal(w, v)[-1] for w, v in zip(u, (picks * (r - A[:, None])).tolist())]
    for i, lane in enumerate(b):
        n, a = int(stride[i]), complex(A[i])
        try:
            if wild[i]:
                k = np.arange(start[i] + run[i] // 2, orders[i])
                slope = np.polyfit(k, np.log(np.abs(cs[lane, offset[i] + n * k])), 1)[0]
                raise OscillatoryCoefficients(math.exp(-slope) ** (1.0 / n))
            if a == 0:
                raise InsufficientCoefficients(
                    "ratio limit vanishes; no finite singularity resolved")
            eta_s = 1.0 / a
            out[lane] = RadiusEstimate(abs(eta_s) ** (1.0 / n), eta_s ** (1.0 / n) if n > 1
                                       else eta_s, float((-B[i] / a - 1.0).real))
        except (TransasymError, ValueError, ArithmeticError) as err:
            out[lane] = err
    return out


def _solve(G: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Every system G[b] q = r[b] by ``np.linalg.solve``; a singular one reads NaN alone."""
    try:
        return np.linalg.solve(G, r[..., None])[..., 0]
    except np.linalg.LinAlgError:  # raised for the whole stack: solve lane by lane
        return (np.concatenate([_solve(G[b:b + 1], r[b:b + 1]) for b in range(len(G))])
                if len(G) > 1 else np.full_like(r, np.nan))


def _pade_poles(h: np.ndarray, t0: np.ndarray) -> list:
    """Per row of h, the pole of h'/h nearest t0 in its [L/L+1] Pade approximants, L in
    ``_PADE``: the top degree's root and residue and the lower degree's root.

    Where h ~ A (t - t*)^p, h'/h has a simple pole at t* of residue p.  Its
    series comes by division, every row's denominator from one batched solve
    of its Toeplitz system (NaN if singular), and its root by Newton from t0,
    then from the lower degree's root, until a row's step falls below 1e-15
    of its root or after ``_NEWTON`` steps.  A row reads bitwise the same in
    any stack.
    """
    n, roots, t = 2 * _PADE[-1] + 2, [], t0
    with np.errstate(all="ignore"):  # a row that is no pole reads NaN
        # every complex operation runs along a row, as a lone row's does, or on a contiguous
        # vector of the rows: numpy's loops of other layouts round differently
        g, h0 = np.empty((len(h), n), complex), h[:, 0].copy()
        dh = h[:, 1:n + 1] * np.arange(1, n + 1)
        for k in range(n):
            g[:, k] = (dh[:, k] - (h[:, k:0:-1] * g[:, :k]).sum(axis=1)) / h0
        for L in _PADE:
            j, q = np.arange(L + 2), np.ones((len(h), L + 2), complex)
            q[:, 1:] = _solve(g[:, L + j[:-1, None] - j[:-1]], -g[:, L + 1 + j[:-1]])
            pw = np.empty_like(q)
            for i in range(_NEWTON + 1):
                pw[:, 0], pw[:, 1:] = 1.0, t[:, None]
                np.cumprod(pw, axis=1, out=pw)  # t^j, row by row
                dq = (q[:, 1:] * j[1:] * pw[:, :-1]).sum(axis=1)
                step = (q * pw).sum(axis=1) / dq
                live = np.abs(step) > 1e-15 * np.abs(t)  # NaN rows stop
                if not live.any() or i == _NEWTON:
                    break
                t = t - np.where(live, step, 0.0)
            roots.append(t)
        # the top numerator at its root: sum_j q_j t^j sum_{i <= L - j} g_i t^i
        tail = np.cumsum(g[:, :L + 1] * pw[:, :-1], axis=1)[:, ::-1]
        residue = (q[:, :-1] * pw[:, :-1] * tail).sum(axis=1) / dq
    return list(zip(roots[-1], residue, roots[0]))


def radius_estimate(f) -> RadiusEstimate:
    """Estimate radius, singularity location and algebraic exponent.

    The coefficient ratios r_k = c_k/c_{k-1} of a series dominated by one
    algebraic singularity satisfy r_k ~ (1/xi_s)(1 - (p+1)/k + ...), so the
    limit gives 1/xi_s and the 1/k slope gives the exponent p.  Both limits
    are Neville-extrapolated in 1/k over spread-out orders; sampling only
    the clustered last few orders would amplify roundoff in the ratios by
    the extrapolation weights.

    Series supported only on an arithmetic progression of orders (parity
    constraints and the like) are decimated to that progression first; the
    exponent is unchanged by this substitution and the location is mapped
    back through the principal root.  Ratio sequences with unstable phase
    signal a conjugate pair of singularities; they abort with a
    modulus-only root-test estimate attached.  This is the one-lane case of
    the read over a stack of series that homing runs for all its jets at once.
    """
    (est,) = _domb_sykes(complex_array(f.coeffs if isinstance(f, TaylorSeries) else f)[None])
    if isinstance(est, Exception):
        raise est
    return est


# -- continuation of F_0 in the xi plane ------------------------------------


@dataclass
class ContinuationResult:
    """F_0 samples along a xi-plane polyline: one column per Taylor-jet
    centre, then the last waypoint."""

    xi: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.values[:, -1]


def _segment_clears_origin(a: complex, b: complex) -> bool:
    d = b - a
    t = min(1.0, max(0.0, (-(a.conjugate() * d).real) / abs(d) ** 2))
    return abs(a + t * d) > 1e-12


def continue_f0(s: NormalSystem, path: Sequence[complex]) -> ContinuationResult:
    """Continue F_0 along a polyline on Taylor jets of xi F_0' = Lam F_0 - g(0, F_0).

    The initial value is summed at ``path[0]`` from the Taylor row of F_0 to
    order ``_SEED_ORDER`` = 64, built once per system and kept on it with
    its disk radius.  ``path[0]`` must lie well inside the convergence
    disk: the disk rule of :func:`~transasym.expansion.eval_two_scale`
    raises :class:`~transasym.errors.OutsideReliableDisk` otherwise.  Each leg is walked
    like a pole hunt's approach (see :func:`transasym.validate.hunt_singularity`):
    jets in xi scaled to their own radius, summed inside half of it and
    landing exactly on each waypoint, at most ``_JET_BUDGET`` per leg
    (``NotConverging``).  A jet whose radius falls below 1e-3 of the
    distance left to its waypoint raises SingularApproach carrying its
    centre.  The flow is singular at xi = 0, so a path with a leg through
    the origin raises ``ValueError`` before its first jet.
    """
    from .expansion import _xi_jet, build_expansion
    from .validate import _lockstep, _walk

    pts = [complex(p) for p in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two waypoints")
    if s._seed is None:
        s._seed = build_expansion(s, 0, _SEED_ORDER)
    e = s._seed
    e._require_disk(pts[0])
    legs = [(a, b) for a, b in zip(pts[:-1], pts[1:]) if a != b]
    if not all(_segment_clears_origin(a, b) for a, b in legs):   # before the first jet
        raise ValueError("path leg passes through xi = 0, where the flow is singular")
    y = e.fm[0] @ pts[0] ** np.arange(_SEED_ORDER + 1)

    centres: list[tuple[complex, np.ndarray]] = []
    rho = abs(pts[0])  # the first jet's trial scale: no radius reaches past xi = 0
    for a, b in legs:
        leg: list[tuple[complex, np.ndarray]] = []
        (y,), rho = _lockstep(s, _xi_jet, [_walk(a, y, [b], rho, leg)])[0]
        centres += leg
    centres.append((pts[-1], y))
    return ContinuationResult(np.array([c for c, _ in centres]),
                              np.array([v for _, v in centres]).T)


# -- x-plane singularity arrays ---------------------------------------------


@dataclass(frozen=True)
class ArrayEntry:
    """One member of a singularity array."""

    n: int
    x_asym: complex
    x_ref: complex | None
    residual: float | None


@dataclass
class SingularityArray:
    """Predicted x-plane singularity locations for one value of C."""

    xi_s: complex
    C: complex
    alpha1: complex
    entries: tuple[ArrayEntry, ...]

    def __post_init__(self):
        self.entries = tuple(sorted(self.entries, key=lambda en: en.n))

    def spacings(self) -> np.ndarray:
        """x_{n+1} - x_n over consecutive refined entries (near 2 pi i)."""
        xs = {e.n: e.x_ref for e in self.entries if e.x_ref is not None}
        return np.array([xs[n + 1] - xs[n] for n in sorted(xs) if n + 1 in xs])

    def to_dict(self) -> dict:
        entries = []
        for e in self.entries:
            entries.append({
                "n": e.n,
                "x_asym": [e.x_asym.real, e.x_asym.imag],
                "x_ref": None if e.x_ref is None else [e.x_ref.real, e.x_ref.imag],
                "residual": e.residual,
            })
        return {"xi_s": [self.xi_s.real, self.xi_s.imag],
                "C": [self.C.real, self.C.imag],
                "alpha1": [self.alpha1.real, self.alpha1.imag],
                "entries": entries}

    @classmethod
    def from_dict(cls, d) -> "SingularityArray":
        entries = []
        for e in d["entries"]:
            ref = e.get("x_ref")
            entries.append(ArrayEntry(
                int(e["n"]), complex(*e["x_asym"]),
                None if ref is None else complex(*ref), e.get("residual")))
        return cls(complex(*d["xi_s"]), complex(*d["C"]),
                   complex(*d["alpha1"]), tuple(entries))


def predict_array(xi_s, C, alpha1, n_range: Iterable[int]) -> SingularityArray:
    """Solve C e^{-x} x^{alpha_1} = xi_s for the array of roots x_n.

    The asymptotic seed x_n ~ 2 pi i n + alpha_1 Log(2 pi i n) + Log C
    - Log xi_s uses principal logarithms throughout; choosing other
    branches of Log C or Log xi_s re-indexes the same solution family
    through n, so only n varies here.  Each seed is Newton-refined on
    h(x) = -x + alpha_1 Log x + Log C - Log xi_s + 2 pi i n, whose roots
    are exactly the preimages, until |xi(x) - xi_s| <= 1e-12 max(1, |xi_s|).
    An entry that does not meet that within 50 steps is kept with
    x_ref = None; the other entries are unaffected.  C = 0 raises ``ValueError``.
    """
    C = complex(C)
    xi_sc = complex(xi_s)
    if C == 0:
        raise ValueError("C = 0 has no singularity array")
    if xi_sc == 0:
        raise ValueError("xi_s must be nonzero")
    a1 = complex(alpha1)
    log_c = cmath.log(C)
    base0 = log_c - cmath.log(xi_sc)
    tol_abs = _NEWTON_TOL * max(1.0, abs(xi_sc))

    entries = []
    for n in n_range:
        n = int(n)
        if n == 0:
            raise ValueError("n = 0 does not index an array entry")
        tpin = 2j * math.pi * n
        base = base0 + tpin
        x = x_asym = tpin + a1 * cmath.log(tpin) + base0
        x_ref = resid = None
        for _ in range(_NEWTON_ITER):
            if x == 0 or not (math.isfinite(x.real) and math.isfinite(x.imag)):
                break
            w = -x + a1 * cmath.log(x)
            try:
                xi_val = C * cmath.exp(w)
            except OverflowError:  # e^w alone overflows where |C| is tiny
                xi_val = cmath.exp(log_c + w)
            err = abs(xi_val - xi_sc)
            if err <= tol_abs:
                x_ref, resid = x, err
                break
            h = w + base
            x = x - h / (-1.0 + a1 / x)
        entries.append(ArrayEntry(n, x_asym, x_ref, resid))
    return SingularityArray(xi_sc, C, a1, tuple(entries))
