"""Singularity geometry: convergence disks, continuation, x-plane arrays.

Three layers.  Domb-Sykes ratio analysis turns truncated Taylor
coefficients into an estimate of the dominant singularity (radius,
location, local algebraic exponent).  Taylor jets of the leading
profile's flow in xi, walked like the x-plane hunts of
:mod:`transasym.validate`, continue F_0 beyond its disk and stop at the
blow-up point.  Finally, solving xi(x) = C e^{-x} x^{alpha_1} = xi_s
produces the nearly periodic array of x-plane singularity locations,
each entry Newton-refined from its asymptotic seed.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientCoefficients, OscillatoryCoefficients, ZeroC
from .series import TaylorSeries
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


def _coeff_array(f) -> np.ndarray:
    if isinstance(f, TaylorSeries):
        return np.asarray(f.coeffs)
    return np.asarray(f, dtype=complex)


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
    modulus-only root-test estimate attached.
    """
    c = _coeff_array(f)
    nonzero = np.abs(c) > 1e-300
    nz = np.flatnonzero(nonzero)
    if nz.size < 20:
        raise InsufficientCoefficients(
            f"{nz.size} nonzero coefficients, need at least 20")

    tail_nz = nz[-min(nz.size, 40):]
    gaps = np.diff(tail_nz)
    stride = int(gaps[0]) if gaps.size and np.all(gaps == gaps[0]) else 1
    if stride > 1:
        offset = int(tail_nz[-1]) % stride
        d = c[offset::stride]
    else:
        d = c

    live = np.abs(d) > 1e-300
    if not live[-1]:
        last = np.flatnonzero(live)
        if last.size == 0:
            raise InsufficientCoefficients("all coefficients vanish")
        d = d[: last[-1] + 1]
        live = live[: last[-1] + 1]
    holes = np.flatnonzero(~live)
    start = int(holes[-1]) + 1 if holes.size else 0
    run = len(d) - start
    if run < 20:
        raise InsufficientCoefficients(
            f"trailing nonzero run has {run} terms, need at least 20")

    j_hi = len(d) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        r_all = d[1:] / d[:-1]  # r_all[j-1] is the ratio at order j; used for j > start only
    tail = r_all[max(start, j_hi - 12):]
    rel = tail / tail[-1]
    if np.max(np.abs(np.angle(rel))) > 0.6:
        k_idx = np.arange(start + run // 2, len(d))
        slope = np.polyfit(k_idx, np.log(np.abs(d[k_idx])), 1)[0]
        raise OscillatoryCoefficients(math.exp(-slope) ** (1.0 / stride))

    kappa = max(1, (run - 1) // 6)
    picks = np.array([j_hi - i * kappa for i in range(4, -1, -1)])
    u = 1.0 / picks
    r = r_all[picks - 1]
    A = _neville_diagonal(u, r)[-1]
    if A == 0:
        raise InsufficientCoefficients(
            "ratio limit vanishes; no finite singularity resolved")
    B = _neville_diagonal(u, picks * (r - A))[-1]
    eta_s = 1.0 / A
    exponent = float((-B / A - 1.0).real)
    xi_s = eta_s ** (1.0 / stride) if stride > 1 else eta_s
    return RadiusEstimate(radius=abs(eta_s) ** (1.0 / stride),
                          xi_s=complex(xi_s), exponent=exponent)


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


def _segment_clears_origin(a: complex, b: complex, tol: float = 1e-12) -> bool:
    d = b - a
    t = min(1.0, max(0.0, (-(a.conjugate() * d).real) / abs(d) ** 2))
    return abs(a + t * d) > tol


def continue_f0(s: NormalSystem, path: Sequence[complex], *,
                seed_order: int = 64) -> ContinuationResult:
    """Continue F_0 along a polyline on Taylor jets of xi F_0' = Lam F_0 - g(0, F_0).

    The initial value is summed from the Taylor coefficients at ``path[0]``,
    which must lie well inside the convergence disk.  Each leg is walked
    like a pole hunt's approach (see :func:`transasym.validate.hunt_singularity`):
    jets in xi scaled to their own radius, summed inside half of it and
    landing exactly on each waypoint, at most ``_JET_BUDGET`` per leg
    (``NotConverging``).  A jet whose radius falls below 1e-3 of the
    distance left to its waypoint raises SingularApproach carrying its
    centre.  The flow is singular at xi = 0, so no leg may pass through
    the origin.
    """
    from .expansion import _xi_jet, build_expansion
    from .validate import _walk

    pts = [complex(p) for p in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two waypoints")
    e = build_expansion(s, 0, seed_order)
    r = e.reliability_radius()
    xi0 = pts[0]
    if math.isfinite(r) and (abs(xi0) / r) ** (seed_order + 1) > 1e-8:
        raise ValueError(
            f"path start {xi0} is not inside the Taylor seed disk (radius ~ {r:.3g})")
    y = e.fm[0] @ xi0 ** np.arange(seed_order + 1)

    centres: list[tuple[complex, np.ndarray]] = []
    rho = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if a == b:
            continue
        if not _segment_clears_origin(a, b):
            raise ValueError("path leg passes through xi = 0, where the flow is singular")
        rho = rho or abs(b - a)  # the first jet's trial scale: its leg's length
        leg: list[tuple[complex, np.ndarray]] = []
        (y,), rho = _walk(s, _xi_jet, a, y, [b], rho, leg)
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

    @property
    def converged(self) -> bool:
        return self.x_ref is not None


@dataclass
class SingularityArray:
    """Predicted x-plane singularity locations for one value of C."""

    xi_s: complex
    C: complex
    alpha1: complex
    entries: tuple[ArrayEntry, ...]

    def __post_init__(self):
        self.entries = tuple(sorted(self.entries, key=lambda en: en.n))

    @property
    def diverged(self) -> tuple[int, ...]:
        return tuple(e.n for e in self.entries if not e.converged)

    def refined(self) -> np.ndarray:
        return np.array([e.x_ref for e in self.entries if e.converged])

    def spacings(self) -> np.ndarray:
        """x_{n+1} - x_n over consecutive converged entries (near 2 pi i)."""
        xs = {e.n: e.x_ref for e in self.entries if e.converged}
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

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path: str) -> "SingularityArray":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def predict_array(xi_s, C, alpha1, n_range: Iterable[int], *,
                  newton_tol: float = 1e-12, max_iter: int = 50) -> SingularityArray:
    """Solve C e^{-x} x^{alpha_1} = xi_s for the array of roots x_n.

    The asymptotic seed x_n ~ 2 pi i n + alpha_1 Log(2 pi i n) + Log C
    - Log xi_s uses principal logarithms throughout; choosing other
    branches of Log C or Log xi_s re-indexes the same solution family
    through n, so only n varies here.  Each seed is Newton-refined on
    h(x) = -x + alpha_1 Log x + Log C - Log xi_s + 2 pi i n, whose roots
    are exactly the preimages.  Entries whose refinement fails to meet
    tolerance are kept with x_ref = None and listed in ``diverged``;
    the other entries are unaffected.
    """
    C = complex(C)
    xi_sc = complex(xi_s)
    if C == 0:
        raise ZeroC("C = 0 has no singularity array")
    if xi_sc == 0:
        raise ValueError("xi_s must be nonzero")
    a1 = complex(alpha1)
    base0 = cmath.log(C) - cmath.log(xi_sc)
    tol_abs = newton_tol * max(1.0, abs(xi_sc))

    entries = []
    for n in n_range:
        n = int(n)
        if n == 0:
            raise ValueError("n = 0 does not index an array entry")
        tpin = 2j * math.pi * n
        base = base0 + tpin
        x = x_asym = tpin + a1 * cmath.log(tpin) + base0
        x_ref = resid = None
        for _ in range(max_iter):
            if x == 0 or not (math.isfinite(x.real) and math.isfinite(x.imag)):
                break
            xi_val = C * cmath.exp(-x + a1 * cmath.log(x))
            err = abs(xi_val - xi_sc)
            if err <= tol_abs:
                x_ref, resid = x, err
                break
            h = -x + a1 * cmath.log(x) + base
            x = x - h / (-1.0 + a1 / x)
        entries.append(ArrayEntry(n, x_asym, x_ref, resid))
    return SingularityArray(xi_sc, C, a1, tuple(entries))
