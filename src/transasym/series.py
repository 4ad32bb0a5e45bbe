"""Series carriers, sparse analytic germs, germ composition and the
series-level reference solver.

Two carriers:

* ``TaylorSeries``   a level's observable row c_0..c_K in the fast
  variable xi, read-only,
* ``AnalyticGerm``   sparse polynomial germ g(z, y) = sum g_{i,k} z^i y^k
  of total degree at most ``_DEGREE_CAP`` = 12, vector valued (one
  coefficient vector per monomial).

All values are immutable after construction.  The hierarchy itself is
built on coefficient arrays in :mod:`transasym.expansion`, and the formal
power series is one of them: a level row is summed and serialized there
as a plain array.  ``compose_germ_series`` composes a germ with bivariate
coefficient arrays in z and xi; it is the reference of the substitution
check, ``TwoScaleExpansion.residual_coefficients``, and the build does not
call it.  ``series_field_solve_linear`` solves a linear field over
truncated coefficient arrays; nothing in the package calls it.

Precision follows the data.  ``TaylorSeries`` and the series-level
composition and solve keep the dtype of the arrays they are given, promoted
to at least complex128, so an extended (``numpy.clongdouble``) hierarchy stays
extended.  ``AnalyticGerm`` coefficients are always complex128: they come
from Python floats, and pointwise evaluation feeds the double-precision
integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ResonantOrder, read_field, require_keys

__all__ = [
    "TaylorSeries",
    "AnalyticGerm",
    "LinearSeriesSolution",
    "series_field_solve_linear",
]

_DEGREE_CAP = 12  # largest total degree i + |k| of a germ term


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def complex_array(a) -> np.ndarray:
    """``a`` as a complex array of its own precision, at least complex128."""
    a = np.asarray(a)
    return a.astype(np.result_type(a.dtype, np.complex128), copy=False)


class TaylorSeries:
    """A level's observable row c_0..c_K in xi, as a read-only ``coeffs``.

    Elsewhere a level row is a plain array; ``observable_series`` returns
    this class, and ``radius_estimate`` takes it, only for the benchmark.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.atleast_1d(complex_array(coeffs))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        self._c = _freeze(c.copy())

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, length K + 1."""
        return self._c


class AnalyticGerm:
    """Sparse vector-valued polynomial germ g(z, y).

    Parameters
    ----------
    dims : int
        Number of y variables; also the number of output components.
    terms : mapping
        ``{(i, k): coefficient}`` with ``i`` the z power and ``k`` a length-
        ``dims`` multiindex of y powers.  Coefficients are scalars (dims = 1)
        or length-``dims`` vectors.  A term with i + |k| above
        ``_DEGREE_CAP`` = 12 raises ``ValueError``.
    """

    __slots__ = ("_dims", "_terms", "_I", "_Km", "_Cm")

    def __init__(self, dims: int, terms: Mapping):
        if dims < 1:
            raise ValueError("dims must be positive")
        clean: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        for (i, k), coeff in terms.items():
            k = tuple(int(v) for v in k)
            i = int(i)
            if len(k) != dims or i < 0 or any(v < 0 for v in k):
                raise ValueError(f"malformed germ key (i={i}, k={k})")
            if i + sum(k) > _DEGREE_CAP:
                raise ValueError(f"term (i={i}, k={k}) exceeds degree cap {_DEGREE_CAP}")
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
        # compiled arrays for fast pointwise evaluation
        T = len(clean)
        self._I = np.array([i for (i, _) in clean], dtype=np.int64).reshape(T)
        self._Km = np.array([k for (_, k) in clean], dtype=np.int64).reshape(T, dims)
        self._Cm = np.array([clean[key] for key in clean], dtype=complex).reshape(T, dims)

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __repr__(self) -> str:
        return f"AnalyticGerm(dims={self._dims}, terms={len(self._terms)})"

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
        return {"dims": self._dims, "terms": terms}

    @classmethod
    def from_dict(cls, d: Mapping) -> "AnalyticGerm":
        require_keys(d, ("dims", "terms"), "germ")
        dims = read_field(d, "dims", "germ")
        terms = {}
        for t in read_field(d, "terms", "germ", dict, listed=True):
            require_keys(t, ("i", "k", "c"), "germ term")
            i, k = read_field(t, "i", "germ term"), read_field(t, "k", "germ term", listed=True)
            terms[i, tuple(k)] = read_field(t, "c", "germ term", complex, listed=dims != 1)
        return cls(dims, terms)


# -- composition over coefficient arrays --------------------------------------


def _bi_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of bivariate coefficient arrays (z rows, xi columns), truncated
    to the shape of ``a``."""
    rows, cols = a.shape
    out = np.zeros_like(a)
    for r1 in range(rows):
        for r2 in range(min(b.shape[0], rows - r1)):
            out[r1 + r2, :] += np.convolve(a[r1], b[r2])[:cols]
    return out


def compose_germ_series(g: AnalyticGerm, Y: np.ndarray) -> np.ndarray:
    """g(z, y) for y given by bivariate coefficient arrays.

    ``Y[j, i, k]`` is [z^i xi^k] y_j.  Returns [z^i xi^k] g_j(z, y) in the
    same layout, truncated to the shape of ``Y`` and computed in its
    precision, at least complex128.  The z power of a term shifts rows.
    """
    Y = complex_array(Y)
    rows = Y.shape[1]
    out = np.zeros_like(Y)
    one = np.zeros_like(Y[0])
    one[0, 0] = 1.0
    powers: dict[tuple[int, int], np.ndarray] = {}

    def ypow(j: int, p: int) -> np.ndarray:
        if (j, p) not in powers:
            powers[j, p] = Y[j] if p == 1 else _bi_mul(ypow(j, p - 1), Y[j])
        return powers[j, p]

    for (i, k), vec in g.terms.items():
        if i >= rows:
            continue
        factor = None
        for j, p in enumerate(k):
            if p == 0:
                continue
            yp = ypow(j, p)
            factor = yp if factor is None else _bi_mul(factor, yp)
        if factor is None:
            factor = one
        if i > 0:
            shifted = np.zeros_like(factor)
            shifted[i:, :] = factor[: rows - i, :]
            factor = shifted
        out += vec[:, None, None] * factor[None, :, :]
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
    K = min(len(s.coeffs) - 1 for row in rows for s in row)
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
    rhs_list = [rhs] if isinstance(rhs, TaylorSeries) else list(rhs)
    Nc = _coerce_matrix_series(N)
    n = Nc.shape[1]
    if len(rhs_list) != n:
        raise ValueError(f"rhs must have {n} components")
    N0 = Nc[0]
    lam = np.diagonal(N0).copy()
    if np.any(N0 != np.diag(lam)):
        raise ValueError("N_0 must be diagonal")
    K = min(Nc.shape[0] - 1, min(len(s.coeffs) - 1 for s in rhs_list))
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
