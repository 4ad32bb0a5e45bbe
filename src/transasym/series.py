"""Truncated series arithmetic and sparse analytic germs.

Three carriers:

* ``TaylorSeries``   dense Taylor polynomial in the fast variable xi,
  coefficients c_0..c_K with explicit truncation order K,
* ``InvXSeries``     dense series in inverse powers x^{-r}, r = r_min..R,
  used for formal power-series solutions (r_min = 2),
* ``AnalyticGerm``   sparse polynomial germ g(z, y) = sum g_{i,k} z^i y^k
  with a total-degree cap, vector valued (one coefficient
  vector per monomial).

All values are immutable after construction and every operation returns a new
object.  Binary operations never extrapolate: the result carries the minimum
truncation order of the operands.

Precision follows the data.  The Taylor carriers and the series-level
composition and solve keep the dtype of the arrays they are given, promoted
to at least complex128, so an extended (``numpy.clongdouble``) hierarchy stays
extended.  ``AnalyticGerm`` coefficients are always complex128: they come
from Python floats, and pointwise evaluation feeds the double-precision
integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegreeCapExceeded, ResonantOrder

__all__ = [
    "TaylorSeries",
    "InvXSeries",
    "AnalyticGerm",
    "LinearSeriesSolution",
    "series_field_solve_linear",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def complex_array(a) -> np.ndarray:
    """``a`` as a complex array of its own precision, at least complex128."""
    a = np.asarray(a)
    return a.astype(np.result_type(a.dtype, np.complex128), copy=False)


class TaylorSeries:
    """Taylor polynomial sum_{k=0}^{K} c_k xi^k with truncation order K."""

    __slots__ = ("_c",)

    def __init__(self, coeffs, truncation_order: int | None = None):
        c = np.atleast_1d(complex_array(coeffs))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if truncation_order is not None:
            if len(c) != truncation_order + 1:
                raise ValueError(
                    f"expected {truncation_order + 1} coefficients for truncation "
                    f"order {truncation_order}, got {len(c)}"
                )
        self._c = _freeze(c.copy())

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, truncation_order: int) -> "TaylorSeries":
        return cls(np.zeros(truncation_order + 1, dtype=complex))

    @classmethod
    def monomial(cls, power: int, truncation_order: int, coefficient=1.0) -> "TaylorSeries":
        if not 0 <= power <= truncation_order:
            raise ValueError("monomial power outside truncation range")
        c = np.zeros(truncation_order + 1, dtype=complex)
        c[power] = coefficient
        return cls(c)

    # -- views ----------------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, length K + 1."""
        return self._c

    @property
    def truncation_order(self) -> int:
        return len(self._c) - 1

    def __len__(self) -> int:
        return len(self._c)

    def __repr__(self) -> str:
        lead = ", ".join(f"{c:.6g}" for c in self._c[:4])
        tail = ", ..." if len(self._c) > 4 else ""
        return f"TaylorSeries([{lead}{tail}], K={self.truncation_order})"

    # -- arithmetic ------------------------------------------------------------

    def _K_with(self, other: "TaylorSeries") -> int:
        return min(self.truncation_order, other.truncation_order)

    def __add__(self, other):
        if isinstance(other, TaylorSeries):
            K = self._K_with(other)
            return TaylorSeries(self._c[: K + 1] + other._c[: K + 1])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TaylorSeries):
            K = self._K_with(other)
            return TaylorSeries(self._c[: K + 1] - other._c[: K + 1])
        return NotImplemented

    def __neg__(self):
        return TaylorSeries(-self._c)

    def __mul__(self, other):
        if isinstance(other, TaylorSeries):
            K = self._K_with(other)
            full = np.convolve(self._c[: K + 1], other._c[: K + 1])
            return TaylorSeries(full[: K + 1])
        if isinstance(other, (int, float, complex, np.number)):
            return TaylorSeries(self._c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return TaylorSeries(self._c / scalar)
        return NotImplemented

    def derivative(self) -> "TaylorSeries":
        """d/dxi, truncation order K - 1 (constants keep K = 0)."""
        if self.truncation_order == 0:
            return TaylorSeries.zeros(0)
        k = np.arange(1, len(self._c))
        return TaylorSeries(self._c[1:] * k)

    def shift_up(self, power: int = 1) -> "TaylorSeries":
        """Multiply by xi^power.  Exact, so truncation grows to K + power."""
        if power < 0:
            raise ValueError("shift power must be nonnegative")
        c = np.concatenate([np.zeros(power, dtype=self._c.dtype), self._c])
        return TaylorSeries(c)

    def truncated(self, truncation_order: int) -> "TaylorSeries":
        if truncation_order > self.truncation_order:
            raise ValueError("cannot extend a truncated series")
        return TaylorSeries(self._c[: truncation_order + 1])

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, xi):
        """Horner evaluation; accepts scalars or arrays."""
        xi = np.asarray(xi)
        acc = np.zeros_like(xi, dtype=self._c.dtype) + self._c[-1]
        for c in self._c[-2::-1]:
            acc = acc * xi + c
        if acc.ndim == 0:
            return acc[()]
        return acc

    def sup_on_circle(self, radius: float, n_points: int = 256) -> float:
        theta = 2.0 * np.pi * np.arange(n_points) / n_points
        return float(np.max(np.abs(self.evaluate(radius * np.exp(1j * theta)))))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "truncation": self.truncation_order,
            "coeffs": [[float(c.real), float(c.imag)] for c in self._c],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TaylorSeries":
        coeffs = [complex(re, im) for re, im in d["coeffs"]]
        return cls(coeffs, truncation_order=int(d["truncation"]))


class InvXSeries:
    """Series sum_{r=r_min}^{R} c_r x^{-r} (dense in r)."""

    __slots__ = ("_c", "_r_min")

    def __init__(self, coeffs, r_min: int = 2, truncation_order: int | None = None):
        c = np.atleast_1d(complex_array(coeffs))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if r_min < 0:
            raise ValueError("r_min must be nonnegative")
        if truncation_order is not None and len(c) != truncation_order - r_min + 1:
            raise ValueError("coefficient count does not match truncation order")
        self._c = _freeze(c.copy())
        self._r_min = int(r_min)

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def r_min(self) -> int:
        return self._r_min

    @property
    def truncation_order(self) -> int:
        """Largest inverse power R carried."""
        return self._r_min + len(self._c) - 1

    def coefficient(self, r: int) -> complex:
        if r < self._r_min or r > self.truncation_order:
            return 0.0 + 0.0j
        return complex(self._c[r - self._r_min])

    def evaluate(self, x, r_max: int | None = None):
        """sum_{r <= r_max} c_r x^{-r} (full truncation by default)."""
        R = self.truncation_order if r_max is None else min(r_max, self.truncation_order)
        acc = 0.0 + 0.0j
        z = 1.0 / complex(x)
        for r in range(R, self._r_min - 1, -1):
            acc = acc * z + complex(self._c[r - self._r_min])
        return acc * z ** self._r_min

    def __repr__(self) -> str:
        return f"InvXSeries(r={self._r_min}..{self.truncation_order})"

    def to_dict(self) -> dict:
        return {
            "truncation": self.truncation_order,
            "r_min": self._r_min,
            "coeffs": [[float(c.real), float(c.imag)] for c in self._c],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "InvXSeries":
        coeffs = [complex(re, im) for re, im in d["coeffs"]]
        return cls(coeffs, r_min=int(d.get("r_min", 2)), truncation_order=int(d["truncation"]))


class AnalyticGerm:
    """Sparse vector-valued polynomial germ g(z, y).

    Parameters
    ----------
    dims : int
        Number of y variables; also the number of output components.
    terms : mapping
        ``{(i, k): coefficient}`` with ``i`` the z power and ``k`` a length-
        ``dims`` multiindex of y powers.  Coefficients are scalars (dims = 1)
        or length-``dims`` vectors.
    degree_cap : int
        Total degree bound D; a term with i + |k| > D raises DegreeCapExceeded.
    """

    __slots__ = ("_dims", "_terms", "_degree_cap", "_I", "_Km", "_Cm")

    def __init__(self, dims: int, terms: Mapping, degree_cap: int = 12):
        if dims < 1:
            raise ValueError("dims must be positive")
        clean: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        for (i, k), coeff in terms.items():
            k = tuple(int(v) for v in k)
            i = int(i)
            if len(k) != dims or i < 0 or any(v < 0 for v in k):
                raise ValueError(f"malformed germ key (i={i}, k={k})")
            if i + sum(k) > degree_cap:
                raise DegreeCapExceeded(f"term (i={i}, k={k}) exceeds degree cap {degree_cap}")
            vec = np.asarray(coeff, dtype=complex)
            if vec.ndim == 0:
                vec = np.full(dims, complex(vec)) if dims == 1 else None
                if vec is None:
                    raise ValueError("vector coefficient required for dims > 1")
            if vec.shape != (dims,):
                raise ValueError(f"coefficient for (i={i}, k={k}) must have shape ({dims},)")
            if np.any(vec != 0):
                clean[(i, k)] = _freeze(vec.copy())
        self._dims = dims
        self._terms = clean
        self._degree_cap = int(degree_cap)
        # compiled arrays for fast pointwise evaluation
        T = len(clean)
        self._I = np.array([i for (i, _) in clean], dtype=np.int64).reshape(T)
        self._Km = np.array([k for (_, k) in clean], dtype=np.int64).reshape(T, dims)
        self._Cm = np.array([clean[key] for key in clean], dtype=complex).reshape(T, dims)

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def degree_cap(self) -> int:
        return self._degree_cap

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"AnalyticGerm(dims={self._dims}, terms={len(self._terms)}, D={self._degree_cap})"

    def coefficient(self, i: int, k: Sequence[int]) -> np.ndarray:
        key = (int(i), tuple(int(v) for v in k))
        vec = self._terms.get(key)
        if vec is None:
            return np.zeros(self._dims, dtype=complex)
        return vec

    def order_violations(self) -> list[tuple[int, tuple[int, ...]]]:
        """Terms violating g = O(z^2) + O(|y|^2): nonzero g_{i,k} with
        (i <= 1 and |k| = 0) or (i = 0 and |k| = 1)."""
        bad = []
        for (i, k) in self._terms:
            ka = sum(k)
            if (i <= 1 and ka == 0) or (i == 0 and ka == 1):
                bad.append((i, k))
        return sorted(bad)

    def evaluate(self, z, y) -> np.ndarray:
        """Pointwise g(z, y) in complex128; y is a length-dims vector."""
        if len(self._terms) == 0:
            return np.zeros(self._dims, dtype=complex)
        y = np.asarray(y, dtype=complex)
        zp = np.where(self._I == 0, 1.0 + 0.0j, complex(z) ** self._I)
        yk = np.prod(np.where(self._Km == 0, 1.0 + 0.0j, y[None, :] ** self._Km), axis=1)
        return (zp * yk) @ self._Cm

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        terms = []
        for (i, k), vec in sorted(self._terms.items()):
            if self._dims == 1:
                c = [float(vec[0].real), float(vec[0].imag)]
            else:
                c = [[float(v.real), float(v.imag)] for v in vec]
            terms.append({"i": i, "k": list(k), "c": c})
        return {"dims": self._dims, "degree_cap": self._degree_cap, "terms": terms}

    @classmethod
    def from_dict(cls, d: Mapping) -> "AnalyticGerm":
        dims = int(d["dims"])
        terms = {}
        for t in d["terms"]:
            c = t["c"]
            if dims == 1:
                vec = np.array([complex(c[0], c[1])])
            else:
                vec = np.array([complex(re, im) for re, im in c])
            terms[(int(t["i"]), tuple(int(v) for v in t["k"]))] = vec
        return cls(dims, terms, degree_cap=int(d.get("degree_cap", 12)))


# -- low-level composition over coefficient arrays --------------------------


def _trunc_mul(a: np.ndarray, b: np.ndarray, K: int) -> np.ndarray:
    return np.convolve(a, b)[: K + 1]


def compose_germ_series(g: AnalyticGerm, z_spec, Y: np.ndarray, K: int) -> np.ndarray:
    """g composed with coefficient arrays.

    Parameters
    ----------
    z_spec : complex scalar or length-(K+1) array
        What to substitute for z (scalar constants allowed, typically 0).
    Y : (dims, K+1) array
        Taylor coefficients substituted for y.

    Returns
    -------
    (dims, K+1) array, in the precision of ``Y`` and ``z_spec``.
    """
    z_is_series = isinstance(z_spec, np.ndarray)
    dt = np.result_type(Y, z_spec if z_is_series else np.complex128, np.complex128)
    out = np.zeros((g.dims, K + 1), dtype=dt)
    if len(g) == 0:
        return out
    pow_cache: dict[tuple[int, int], np.ndarray] = {}

    def ypow(j: int, p: int) -> np.ndarray:
        key = (j, p)
        got = pow_cache.get(key)
        if got is not None:
            return got
        if p == 1:
            val = np.asarray(Y[j, : K + 1], dtype=dt)
        else:
            val = _trunc_mul(ypow(j, p - 1), Y[j, : K + 1], K)
        pow_cache[key] = val
        return val

    zpow_cache: dict[int, np.ndarray] = {}

    def zpow(i: int) -> np.ndarray:
        got = zpow_cache.get(i)
        if got is not None:
            return got
        val = np.asarray(z_spec[: K + 1], dtype=dt) if i == 1 else _trunc_mul(zpow(i - 1), z_spec[: K + 1], K)
        zpow_cache[i] = val
        return val

    one = np.zeros(K + 1, dtype=dt)
    one[0] = 1.0
    for (i, k), vec in g.terms.items():
        factor = one
        started = False
        for j, p in enumerate(k):
            if p == 0:
                continue
            yp = ypow(j, p)
            factor = yp if not started else _trunc_mul(factor, yp, K)
            started = True
        if i > 0:
            if z_is_series:
                zi = zpow(i)
                factor = zi if not started else _trunc_mul(factor, zi, K)
                started = True
            else:
                zc = complex(z_spec) ** i
                if zc == 0:
                    continue
                factor = factor * zc
        if not started and i == 0:
            factor = one
        out += vec[:, None] * factor[None, :]
    return out


# -- coefficient-level linear field solver -----------------------------------


@dataclass(frozen=True)
class LinearSeriesSolution:
    """Result of series_field_solve_linear.

    ``series`` holds the solution components; ``resonant_orders`` lists every
    order whose linear solve was singular but consistent (free components
    taken from the seed when provided, else zero).
    """

    series: tuple[TaylorSeries, ...]
    resonant_orders: tuple[int, ...]


def _coerce_matrix_series(N) -> np.ndarray:
    """Accept TaylorSeries (n=1), nested sequences of TaylorSeries, or an
    ndarray shaped (K+1, n, n); return (K+1, n, n)."""
    if isinstance(N, TaylorSeries):
        return N.coeffs.reshape(-1, 1, 1)
    if isinstance(N, np.ndarray) and N.ndim == 3:
        return complex_array(N)
    rows = [list(row) for row in N]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix series must be square")
    K = min(s.truncation_order for row in rows for s in row)
    out = complex_array([[s.coeffs[: K + 1] for s in row] for row in rows])
    return np.moveaxis(out, 2, 0)


def series_field_solve_linear(N, rhs, seed: Mapping[int, object] | None = None,
                              *, tol: float = 1e-9) -> LinearSeriesSolution:
    """Solve xi F'(xi) = N(xi) F(xi) + rhs(xi) order by order.

    The order-k equation is (k I - N_0) c_k = r_k + sum_{j>=1} N_j c_{k-j},
    with N_0 diagonal (a non-diagonal N_0 raises ``ValueError``), so each
    order is a componentwise division.  At a singular order the equation
    must be consistent: each singular component of r_k must vanish within
    ``tol`` times the largest term entering it (R_k or one N_j c_{k-j}), so
    terms that cancel to roundoff pass whatever their size.  The free components
    then come from ``seed[k]`` when given, else zero, and the order is
    recorded.  An inconsistent singular order raises :class:`ResonantOrder`.
    The solve runs in the precision of ``N`` and ``rhs``.

    Parameters
    ----------
    N : matrix-valued Taylor series
        TaylorSeries (scalar case), nested sequence of TaylorSeries, or an
        ndarray of coefficient matrices shaped (K+1, n, n).
    rhs : sequence of TaylorSeries (or a single TaylorSeries)
    seed : mapping {order: coefficient vector}, optional
    """
    if isinstance(rhs, TaylorSeries):
        rhs_list = [rhs]
    else:
        rhs_list = list(rhs)
    Nc = _coerce_matrix_series(N)
    n = Nc.shape[1]
    if len(rhs_list) != n:
        raise ValueError(f"rhs must have {n} components")
    N0 = Nc[0]
    lam = np.diagonal(N0).copy()
    if np.any(N0 != np.diag(lam)):
        raise ValueError("N_0 must be diagonal")
    K = min(Nc.shape[0] - 1, min(s.truncation_order for s in rhs_list))
    R = complex_array([s.coeffs[: K + 1] for s in rhs_list]).T
    dt = np.result_type(Nc, R)
    seed = dict(seed or {})

    C = np.zeros((K + 1, n), dtype=dt)
    resonant: list[int] = []
    for k in range(K + 1):
        r = R[k].astype(dt)
        scale = np.abs(r)
        for j in range(1, min(k, Nc.shape[0] - 1) + 1):
            term = Nc[j] @ C[k - j]
            r += term
            scale = np.maximum(scale, np.abs(term))
        denom = k - lam
        sing = np.abs(denom) < 1e-12 * max(1.0, float(np.max(np.abs(lam))) + k)
        if not np.any(sing):
            C[k] = r / denom
            continue
        if np.any(np.abs(r[sing]) > tol * scale[sing]):
            raise ResonantOrder(k)
        ck = np.zeros(n, dtype=dt)
        ok = ~sing
        ck[ok] = r[ok] / denom[ok]
        if k in seed:
            sv = np.atleast_1d(np.asarray(seed[k], dtype=dt))
            if sv.shape != (n,):
                raise ValueError(f"seed for order {k} must have {n} components")
            ck[sing] = sv[sing]
            if np.any(np.abs(denom * ck - r) > tol * np.maximum(scale, np.abs(denom * ck))):
                raise ValueError(f"seed for order {k} is inconsistent with the equation")
        resonant.append(k)
        C[k] = ck

    out = tuple(TaylorSeries(C[:, j]) for j in range(n))
    return LinearSeriesSolution(series=out, resonant_orders=tuple(resonant))
