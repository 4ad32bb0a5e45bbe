"""System model and the built-in examples.

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
from typing import Mapping

import numpy as np

from .errors import read_field, require_keys
from .series import AnalyticGerm

__all__ = ["BUILTIN_LABELS", "NormalSystem", "builtin"]


class NormalSystem:
    """Normalized system near the rank-one irregular singular point x = inf.

    Parameters
    ----------
    lam, alpha : complex sequences, length n
        Diagonals of L and A.  lambda_1 = 1 and lambda_j != 0 are enforced
        here; :func:`~transasym.expansion.build_expansion` rejects germ
        terms that break the order condition and resonant orders.
    germ : AnalyticGerm
        The nonlinearity g(z, y) with z = 1/x.
    observable : complex sequence, optional
        Weights w such that w . y is the scalar of interest (for reduced
        second-order equations, w = (1, 1) recovers h), one per component.
        Defaults to e_1.
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
        if self.observable.shape != (n,):
            raise ValueError(f"observable has {self.observable.size} weights, "
                             f"system has {n} components")
        self.observable.setflags(write=False)
        self.xi_s_hint = None if xi_s_hint is None else complex(xi_s_hint)
        self.params = dict(params or {})
        self._program = None  # one monomial table for the build and the jet kernels, made on first use
        self._seed = None  # the order-64 F_0 expansion that seeds continue_f0, made on first use
        # per (jet kernel, order): its workspace and each order's operand views, planned once
        # for one lane count and reused; a copy or pickle drops them, as views alias the workspace
        self._plans = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_plans": {}}

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
        require_keys(d, ("lambda", "alpha", "germ"), "system")
        lam, alpha, observable = (read_field(d, key, "system", complex, listed=True)
                                  if key in d else None for key in ("lambda", "alpha", "observable"))
        hint = None if d.get("xi_s_hint") is None else read_field(d, "xi_s_hint", "system", complex)
        return cls(lam=lam, alpha=alpha, germ=AnalyticGerm.from_dict(d["germ"]),
                   label=d.get("label", "custom"), observable=observable, xi_s_hint=hint,
                   params=d.get("params"))


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
_P2B_A = 1.5j / math.sqrt(2.0)  # A^2 = -9/8

BUILTIN_LABELS = ("abel", "p1", "p2a", "p2b")


def builtin(label: str, alpha: complex = 0.0, b_branch: int = 1):
    """Built-in normalized systems.

    Labels: ``abel``, ``p1``, ``p2a``, ``p2b``.  ``alpha`` parametrizes the
    P2 family; ``b_branch`` (+1 or -1) picks the sign branch of the constant
    B (B^2 = -1/2) in the alternative P2 normalization.

    Returns the pair (NormalSystem, None).  The second slot held a
    coordinate chart; the pair stays only until the benchmark stops
    indexing ``builtin(...)[0]``.
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
        return system, None
    if label == "p1":
        germ = _second_order_germ(0.0, {(0, 2): -0.5, (4, 0): -392.0 / 625.0})
        system = NormalSystem(
            lam=[1.0, -1.0], alpha=[-0.5, -0.5], germ=germ, label="p1",
            observable=[1.0, 1.0], xi_s_hint=12.0,
        )
        return system, None
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
        return system, None
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
        return system, None
    raise ValueError(f"no builtin system named {label!r}")
