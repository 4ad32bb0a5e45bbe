"""System model, assumption diagnostics, Stokes geometry, and the built-in
examples with their coordinate maps.

The model is the normalized first-order system

    y' = -L y + (1/x) A y + g(1/x, y),        L = diag(lambda_j), A = diag(alpha_j)

with lambda_1 = 1 and g an :class:`~transasym.series.AnalyticGerm` obeying the
order condition g = O(x^{-2}) + O(|y|^2).  Second-order scalar equations

    h'' + (1/t) h' - h - 2 a h / t + N(h, 1/t) = 0

are reduced to 2-systems in the diagonalizing variables u1 = (h - h')/2,
u2 = (h + h')/2, so h is recovered as the observable u1 + u2.

A system's coefficients and its pointwise field are complex128: the
integrator and the Taylor-jet walks of the pole hunts and the C ladder
run in double, whatever precision the two-scale hierarchy was built in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import OnBranchCut, UnknownLabel
from .series import AnalyticGerm

__all__ = [
    "BUILTIN_LABELS",
    "NormalSystem",
    "CoordinateMap",
    "StokesData",
    "DiagnosticsReport",
    "builtin",
    "builtin_map",
    "identity_map",
    "stokes_directions",
    "validate_system",
]


class NormalSystem:
    """Normalized system near the rank-one irregular singular point x = inf.

    Parameters
    ----------
    lam, alpha : complex sequences, length n
        Diagonals of L and A.  lambda_1 = 1 and lambda_j != 0 are enforced
        here; the softer assumptions (distinct arguments, Z-independence)
        are checked by :func:`validate_system` and reported, not rejected.
    germ : AnalyticGerm
        The nonlinearity g(z, y) with z = 1/x.
    observable : complex sequence, optional
        Weights w such that w . y is the scalar of interest (for reduced
        second-order equations, w = (1, 1) recovers h).  Defaults to e_1.
    xi_s_hint : complex, optional
        Known first-sheet singular value of the leading two-scale profile,
        used to seed singularity searches.

    Nothing about the solution's movable singularities is declared: the
    pole hunts of :mod:`transasym.validate` read each one's location,
    exponent and amplitude from the solution's own Taylor jet.
    """

    def __init__(self, lam, alpha, germ: AnalyticGerm, label: str = "custom",
                 observable=None, xi_s_hint=None, params: dict | None = None):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
        n = len(lam)
        if len(alpha) != n:
            raise ValueError("lambda and alpha must have equal length")
        if germ.dims != n:
            raise ValueError(f"germ has {germ.dims} components, system has {n}")
        if abs(complex(lam[0]) - 1.0) > 1e-14:
            raise ValueError("normalization requires lambda_1 = 1")
        if np.any(np.abs(lam) < 1e-14):
            raise ValueError("all lambda_j must be nonzero")
        self.n = n
        self.lam = lam
        self.lam.setflags(write=False)
        self.alpha = alpha
        self.alpha.setflags(write=False)
        self.germ = germ
        self.label = label
        if observable is None:
            observable = np.zeros(n, dtype=complex)
            observable[0] = 1.0
        self.observable = np.asarray(observable, dtype=complex)
        self.observable.setflags(write=False)
        self.xi_s_hint = None if xi_s_hint is None else complex(xi_s_hint)
        self.params = dict(params or {})
        self._program = None  # one monomial table for the build and the jet kernels, made on first use

    def __repr__(self) -> str:
        return f"NormalSystem(label={self.label!r}, n={self.n})"

    def field(self, x, y) -> np.ndarray:
        """Right-hand side -L y + (1/x) A y + g(1/x, y) at a point, in complex128."""
        x = complex(x)
        if x == 0:
            raise ValueError("the field is singular at x = 0")
        y = np.asarray(y, dtype=complex)
        z = 1.0 / x
        return -self.lam * y + z * (self.alpha * y) + self.germ.evaluate(z, y)

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "lambda": [[float(v.real), float(v.imag)] for v in self.lam],
            "alpha": [[float(v.real), float(v.imag)] for v in self.alpha],
            "label": self.label,
            "germ": self.germ.to_dict(),
            "observable": [[float(v.real), float(v.imag)] for v in self.observable],
        }
        if self.xi_s_hint is not None:
            d["xi_s_hint"] = [self.xi_s_hint.real, self.xi_s_hint.imag]
        if self.params:
            d["params"] = dict(self.params)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "NormalSystem":
        hint = d.get("xi_s_hint")
        return cls(
            lam=[complex(re, im) for re, im in d["lambda"]],
            alpha=[complex(re, im) for re, im in d["alpha"]],
            germ=AnalyticGerm.from_dict(d["germ"]),
            label=d.get("label", "custom"),
            observable=[complex(re, im) for re, im in d["observable"]] if "observable" in d else None,
            xi_s_hint=None if hint is None else complex(hint[0], hint[1]),
            params=d.get("params"),
        )


# -- coordinate maps ---------------------------------------------------------

_CUT_TOL = 1e-9  # how far past a cut angle, in radians, a point counts as on the cut


def _wrap_angle(a: float) -> float:
    """Reduce to (-pi, pi]."""
    a = math.remainder(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(frozen=True)
class CoordinateMap:
    """Point map between the original and normalized independent variables.

    ``forward`` sends an original-plane point to the normalized x plane,
    ``inverse`` goes back.  Fractional powers are taken on the principal
    branch shifted by ``branch_choice`` full windings, so sheet selection is
    reproducible.  Each direction declares the angles of its branch cuts;
    the convention is that a cut ray is approached continuously from
    arguments just below the cut angle and jumps just above it, so only the
    just-above side, within 1e-9 rad of the cut, raises :class:`OnBranchCut`.
    """

    label: str
    forward: Callable[[complex], complex]
    inverse: Callable[[complex], complex]
    branch_choice: int = 0
    forward_cuts: tuple[float, ...] = ()
    inverse_cuts: tuple[float, ...] = ()

    def _check_cut(self, value: complex, cuts: tuple[float, ...]) -> None:
        if not cuts or value == 0:
            return
        a = math.atan2(value.imag, value.real)
        for cut in cuts:
            d = _wrap_angle(a - cut)
            if 0.0 < d <= _CUT_TOL:
                raise OnBranchCut(
                    f"point with argument {a:.12f} lies on the discontinuous side "
                    f"of the {self.label} cut at angle {cut:.12f}"
                )

    def apply(self, direction: str, value) -> complex:
        """Forward or inverse image of a point under the declared branch."""
        value = complex(value)
        if direction == "forward":
            self._check_cut(value, self.forward_cuts)
            return complex(self.forward(value))
        if direction == "inverse":
            self._check_cut(value, self.inverse_cuts)
            return complex(self.inverse(value))
        raise ValueError("direction must be 'forward' or 'inverse'")


def identity_map() -> CoordinateMap:
    return CoordinateMap(
        label="identity",
        forward=lambda v: v,
        inverse=lambda v: v,
    )


def _abel_map(winding: int = 0) -> CoordinateMap:
    # x(z) = -(9/5) z^{5/3}; the -1 factor is carried as an explicit e^{i pi}
    # inside the exponent so the sheet is fixed by the winding index alone.
    w = 2.0j * math.pi * winding

    def forward(z: complex) -> complex:
        return np.exp(math.log(9.0 / 5.0) + (5.0 / 3.0) * (np.log(complex(z)) + w) + 1j * math.pi)

    def inverse(x: complex) -> complex:
        return np.exp((3.0 / 5.0) * (math.log(5.0 / 9.0) + np.log(complex(x)) + w + 1j * math.pi))

    return CoordinateMap(
        label="abel",
        forward=forward,
        inverse=inverse,
        branch_choice=winding,
        forward_cuts=(math.pi,),
        inverse_cuts=(math.pi,),
    )


def _p1_map(winding: int = 0) -> CoordinateMap:
    # x(z) = (-24 z)^{5/4} / 30, principal on -24z; the cut -24z in R^- is
    # the ray arg z = 0.  Sends the ray arg z = pi to arg x = 0.
    w = 2.0j * math.pi * winding

    def forward(z: complex) -> complex:
        return np.exp(1.25 * (np.log(-24.0 * complex(z)) + w)) / 30.0

    def inverse(x: complex) -> complex:
        return -np.exp(0.8 * (np.log(30.0 * complex(x)) + w)) / 24.0

    return CoordinateMap(
        label="p1",
        forward=forward,
        inverse=inverse,
        branch_choice=winding,
        forward_cuts=(0.0,),
        inverse_cuts=(math.pi,),
    )


_P2B_A = 1.5j / math.sqrt(2.0)  # A^2 = -9/8


def _p2_map(label: str, A: complex, winding: int = 0) -> CoordinateMap:
    # t(X) = X^{3/2} / A for the original P2 variable X (A = 3/2 for the
    # first normalization, A^2 = -9/8 for the alternative).
    w = 2.0j * math.pi * winding
    A = complex(A)

    def forward(X: complex) -> complex:
        return np.exp(1.5 * (np.log(complex(X)) + w)) / A

    def inverse(t: complex) -> complex:
        return np.exp((2.0 / 3.0) * (np.log(A * complex(t)) + w))

    return CoordinateMap(
        label=label,
        forward=forward,
        inverse=inverse,
        branch_choice=winding,
        forward_cuts=(math.pi,),
        inverse_cuts=(math.pi,),
    )


# -- built-in systems --------------------------------------------------------


def _second_order_germ(a: complex, N: Mapping[tuple[int, int], complex]) -> AnalyticGerm:
    """Germ of the 2-system for h'' + h'/t - h - 2a h/t + N(h, 1/t) = 0.

    In u1 = (h - h')/2, u2 = (h + h')/2 the off-diagonal 1/t couplings and
    the nonlinearity split as g1 = ((1-2a)/2) z u2 + N/2, g2 = ((1+2a)/2) z u1 - N/2
    with h = u1 + u2 expanded binomially.
    """
    terms: dict[tuple[int, tuple[int, int]], np.ndarray] = {}

    def add(i: int, k: tuple[int, int], c1: complex, c2: complex) -> None:
        key = (i, k)
        vec = terms.get(key)
        if vec is None:
            vec = np.zeros(2, dtype=complex)
            terms[key] = vec
        vec[0] += c1
        vec[1] += c2

    add(1, (0, 1), (1.0 - 2.0 * a) / 2.0, 0.0)
    add(1, (1, 0), 0.0, (1.0 + 2.0 * a) / 2.0)
    for (i, p), c in N.items():
        if c == 0:
            continue
        for q in range(p + 1):
            b = c * math.comb(p, q)
            add(i, (q, p - q), b / 2.0, -b / 2.0)
    return AnalyticGerm(2, terms)


_XI0_ABEL = 3.0 ** -0.5 * math.exp(-math.pi * math.sqrt(3.0) / 6.0)

BUILTIN_LABELS = ("abel", "p1", "p2a", "p2b")


def builtin(label: str, alpha: complex = 0.0, b_branch: int = 1):
    """Built-in normalized systems with their coordinate maps.

    Labels: ``abel``, ``p1``, ``p2a``, ``p2b``.  ``alpha`` parametrizes the
    P2 family; ``b_branch`` (+1 or -1) picks the sign branch of the constant
    B (B^2 = -1/2) in the alternative P2 normalization.

    Returns (NormalSystem, CoordinateMap).
    """
    if label == "abel":
        germ = AnalyticGerm(1, {
            (0, (2,)): -3.0,
            (0, (3,)): -3.0,
            (1, (2,)): 3.0 / 5.0,
            (2, (0,)): -1.0 / 15.0,
            (2, (1,)): -1.0 / 25.0,
            (3, (0,)): 1.0 / 1125.0,
        })
        system = NormalSystem(
            lam=[1.0], alpha=[0.2], germ=germ, label="abel",
            xi_s_hint=_XI0_ABEL,
        )
        return system, _abel_map()
    if label == "p1":
        germ = _second_order_germ(0.0, {(0, 2): -0.5, (4, 0): -392.0 / 625.0})
        system = NormalSystem(
            lam=[1.0, -1.0], alpha=[-0.5, -0.5], germ=germ, label="p1",
            observable=[1.0, 1.0], xi_s_hint=12.0,
        )
        return system, _p1_map()
    if label == "p2a":
        al = complex(alpha)
        germ = _second_order_germ(0.0, {
            (2, 1): -(24.0 * al ** 2 + 1.0) / 9.0,
            (0, 3): -8.0 / 9.0,
            (1, 2): 8.0 * al / 3.0,
            (3, 0): 8.0 * (al ** 3 - al) / 9.0,
        })
        system = NormalSystem(
            lam=[1.0, -1.0], alpha=[-0.5, -0.5], germ=germ, label="p2a",
            observable=[1.0, 1.0], xi_s_hint=3.0,
            params={"alpha": [al.real, al.imag]},
        )
        return system, _p2_map("p2a", 1.5)
    if label == "p2b":
        if b_branch not in (1, -1):
            raise ValueError("b_branch must be +1 or -1")
        al = complex(alpha)
        B = b_branch * 1j / math.sqrt(2.0)
        A = _P2B_A
        a = 1.5 * B * al / A  # equals b_branch * alpha
        germ = _second_order_germ(a, {
            (2, 1): (1.0 - 6.0 * al ** 2) / 9.0,
            (0, 2): -3.0 * B,
            (1, 2): 1.5 * al / A,
            (0, 3): 1.0,
            (2, 0): B * (1.0 + 6.0 * al ** 2) / 9.0,
            (3, 0): -al * (al ** 2 - 4.0) / 9.0,
        })
        system = NormalSystem(
            lam=[1.0, -1.0], alpha=[-0.5 - a, -0.5 + a], germ=germ, label="p2b",
            observable=[1.0, 1.0], xi_s_hint=-1j * math.sqrt(2.0) * b_branch,
            params={"alpha": [al.real, al.imag], "b_branch": b_branch},
        )
        return system, _p2_map("p2b", A)
    raise UnknownLabel(f"no builtin system named {label!r}")


def builtin_map(label: str, winding: int = 0) -> CoordinateMap:
    """Coordinate map of a builtin, with an explicit winding index."""
    if label == "abel":
        return _abel_map(winding)
    if label == "p1":
        return _p1_map(winding)
    if label == "p2a":
        return _p2_map("p2a", 1.5, winding)
    if label == "p2b":
        return _p2_map("p2b", _P2B_A, winding)
    if label == "identity":
        return identity_map()
    raise UnknownLabel(f"no builtin map named {label!r}")


# -- Stokes geometry ---------------------------------------------------------


@dataclass(frozen=True)
class StokesData:
    """Exponential-interaction points p_{j,k} = lambda_j - k . lambda and the
    direction classification they induce in the x plane."""

    points: dict
    stokes_directions: tuple
    antistokes_directions: tuple


def _dedup_directions(dirs: Sequence[complex], tol: float = 1e-10) -> tuple:
    out: list[complex] = []
    for d in dirs:
        if all(abs(d - e) > tol for e in out):
            out.append(d)
    out.sort(key=lambda d: math.atan2(d.imag, d.real))
    return tuple(out)


def stokes_directions(s: NormalSystem, k_max: int) -> StokesData:
    """Enumerate p_{j,k} for |k| <= k_max (p = 0 dropped) and classify rays.

    A point p contributes the Stokes direction conj(p)/|p| (where e^{-p x}
    decays fastest); antistokes rays are +-i conj(lambda_j)/|lambda_j|.
    """
    lam = s.lam
    points: dict[tuple[int, tuple[int, ...]], complex] = {}
    for j in range(s.n):
        for k in product(range(k_max + 1), repeat=s.n):
            if sum(k) > k_max:
                continue
            p = complex(lam[j] - np.dot(np.asarray(k), lam))
            if abs(p) < 1e-13:
                continue
            points[(j + 1, k)] = p
    stokes = _dedup_directions([p.conjugate() / abs(p) for p in points.values()])
    anti: list[complex] = []
    for j in range(s.n):
        u = complex(lam[j]).conjugate() / abs(complex(lam[j]))
        anti.extend([1j * u, -1j * u])
    return StokesData(points=points, stokes_directions=stokes,
                      antistokes_directions=_dedup_directions(anti))


# -- assumption diagnostics --------------------------------------------------


@dataclass
class DiagnosticsReport:
    """Assumption check results; findings are reported, never fatal."""

    label: str
    k_max: int
    order_violations: list = field(default_factory=list)
    near_resonances: list = field(default_factory=list)
    duplicate_args: list = field(default_factory=list)
    zero_lambda: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.order_violations or self.near_resonances
                    or self.duplicate_args or self.zero_lambda)

    def summary_lines(self) -> list[str]:
        lines = [f"system {self.label}: diagnostics up to |k| <= {self.k_max}"]
        if self.clean:
            lines.append("  clean: no findings")
            return lines
        for (i, k) in self.order_violations:
            lines.append(f"  order-condition violation: nonzero germ term (i={i}, k={list(k)})")
        for (j, k, dev) in self.near_resonances:
            lines.append(
                f"  Z-dependence warning: |k . lambda - lambda_{j}| = {dev:.3e} "
                f"for k = {list(k)}"
            )
        for (i, j) in self.duplicate_args:
            lines.append(f"  duplicate argument: arg lambda_{i} = arg lambda_{j}")
        for j in self.zero_lambda:
            lines.append(f"  zero eigenvalue: lambda_{j} = 0")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())


_RESONANCE_TOL = 1e-9  # |k . lambda - lambda_j| below which validate_system warns


def validate_system(s: NormalSystem, k_max: int) -> DiagnosticsReport:
    """Report germ order violations, small-|k| near-resonances
    (|k . lambda - lambda_j| < 1e-9), duplicate eigenvalue arguments, and
    zero eigenvalues.  Z-independence cannot be certified at finite
    k_max, so resonances are warnings only."""
    report = DiagnosticsReport(label=s.label, k_max=k_max)
    report.order_violations = list(s.germ.order_violations())
    lam = s.lam
    for j in range(s.n):
        e_j = tuple(1 if i == j else 0 for i in range(s.n))
        for k in product(range(k_max + 1), repeat=s.n):
            if sum(k) > k_max or k == e_j:
                continue
            dev = abs(complex(np.dot(np.asarray(k), lam) - lam[j]))
            if dev < _RESONANCE_TOL:
                report.near_resonances.append((j + 1, k, dev))
    args = [math.atan2(complex(v).imag, complex(v).real) for v in lam]
    for i in range(s.n):
        for j in range(i + 1, s.n):
            if abs(_wrap_angle(args[i] - args[j])) < 1e-12:
                report.duplicate_args.append((i + 1, j + 1))
    report.zero_lambda = [j + 1 for j in range(s.n) if abs(complex(lam[j])) < 1e-14]
    return report
