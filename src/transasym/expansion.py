"""Two-scale transasymptotic expansions.

Substituting y(x) = sum_m x^{-m} F_m(xi), xi = C e^{-x} x^{alpha_1}, into the
normalized system and collecting powers of z = 1/x (with xi treated as an
independent scale) gives, for the coefficients Y_{m,k} = [z^m xi^k] y,

    (L - k) Y_{m,k} = [z^m xi^k] g(z, y) - alpha_1 k Y_{m-1,k} + ((m-1) I + A) Y_{m-1,k},

with F_0(0) = 0 and F_0'(0) = e_1.  The right side involves only lower
orders: Y_{0,0} = 0 and every linear germ term carries a power of z.
Only F_0 solves a nonlinear equation; its row is the xi-jet of F_0 at
the regular singular point xi = 0.  The orders k = 0 and k = 1 of every
level are solved one cell at a time, k outer and m inner.  Order k = 0
is the formal power series: F_m(0) = c_m, the coefficient of x^{-m} in
the unique formal solution.

Each level m >= 1 is resonant at xi^1 in the first component; its free
coefficient c_m = Y_{m,1}[0] is the delayed constant.  It is pinned at
(m+1, xi^1), where the first component of the right side is exactly
affine in c_m with slope m, so solvability fixes it before the rest of
that order is solved.  (A z y_1 term in the first component of g would
change that slope, but it already makes (1, xi^1) inconsistent.)  Row
M+1 is computed only to xi^1, to pin c_M.

At xi^k, k >= 2, the states of every level enter linearly, through the
xi^0 order only: one system, block lower-triangular in the level with
diagonal k - L, whose inverse is formed once per build by forward
substitution over levels.  So every level is solved at once, one order
at a time, in the build's dtype.  The one resonance rule: the first order
k >= 2 with some |lambda_j - k| < 1e-12 max(1, max|lambda| + k) raises
ResonantOrder(k) for every level, so the diagonal is regular.

The right side -L y + z A y + g(z, y) is compiled once per system into a
monomial table (state rows, a constant row, one full grid of products
per chain length, one coefficient matrix), kept on the ``NormalSystem``.
The build and both jet kernels run on that one table, held order-major:
the build's F[k, m, row] from its first cell, a kernel's T[lane, k, row].
The build fills its running products over two indices, z^m and xi^k;
over one index they give the Taylor jet of a solution in x about any
point, and of F_0 in xi.  The pole hunts and C ladders of
:mod:`transasym.validate` walk and read the first, and ``continue_f0``
walks the second; one kernel call computes the jets of many walks, one
lane each.  Each order of a kernel, and each order xi^2..xi^K of the
build, is one batched matmul per chain length, whose output is that
length's grid block; a kernel's step matrix, folding the monomials'
coefficients, writes the next states in place.  Lanes share only batched
matmuls, so no lane's arithmetic depends on the others.  Each kernel's
workspace and per-order operand views are planned once per system and
order, for one lane count, and reused: a call runs only its ufuncs.

The hierarchy is built in the dtype passed to :func:`build_expansion`
(complex128 by default, ``numpy.clongdouble`` for extended precision);
every later operation on the levels keeps that dtype.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InsufficientCoefficients,
    OscillatoryCoefficients,
    OutsideReliableDisk,
    ResonantOrder,
    require_keys,
)
from .series import TaylorSeries, complex_array, compose_germ_series
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


_TOL = 1e-9  # a singular component must vanish within this of the largest term entering it
_TAIL = 1e-8  # the largest (|xi| / radius)^(K+1) at which the Taylor rows are summed
_SUP_POINTS = 256  # roots on the circle where gevrey_fit takes its sup norms

# -- the coefficient recursion -----------------------------------------------


def _program(s: NormalSystem) -> tuple:
    """The right side -L y + z A y + g(z, y) of ``s`` as a monomial table, kept on ``s``.

    Table rows are the state components, a constant 1, then per chain
    length L >= 2 a full grid: every row of length L - 1 times every
    component, at row (block start + n head offset + component).  A monomial's
    coefficient sits on the row of its sorted factors; the other grid rows
    have zero columns.  So a kernel writes each block as one matmul, in
    place.  1 + sum_L n^L rows: 7 for p1 (6 compact), 15 for p2a and p2b
    (10), and for n = 1 (Abel, 4) the compact table itself.  Returns (rows
    in all, per chain length the slices of its heads and of its rows, and
    W[p, :, row], the z^p coefficients by row).
    """
    if s._program is None:
        n, eye = s.n, np.eye(s.n)
        terms = [(i, (j,), c * eye[j])
                 for j in range(n) for i, c in ((0, -s.lam[j]), (1, s.alpha[j]))]
        terms += [(i, tuple(j for j, p in enumerate(k) for _ in range(p)), vec)
                  for (i, k), vec in s.germ.terms.items()]
        ends = np.cumsum([n + 1, *n ** np.arange(2, max(len(f) for _, f, _ in terms) + 1)])
        spans = [slice(n, n + 1), slice(0, n)] + [slice(a, b) for a, b in zip(ends, ends[1:])]
        W = np.zeros((max(i for i, _, _ in terms) + 1, ends[-1], n), dtype=complex)
        for i, f, vec in terms:   # spans[L] holds the rows of length L, the constant row at 0
            W[i, spans[len(f)].start + np.ravel_multi_index(f, (n,) * len(f))] += vec
        s._program = (int(ends[-1]), list(zip(spans[1:], spans[2:])), W.transpose(0, 2, 1).copy())
    return s._program


def _block_toeplitz(blocks: np.ndarray, L: int) -> np.ndarray:
    """The (L r, L c) matrix with blocks[d] (r, c) at block (m, m - d), 0 <= d < len(blocks)."""
    d, r, c = blocks.shape
    out = np.zeros((L, r, L, c), dtype=blocks.dtype)
    for p in range(min(d, L)):
        out[range(p, L), :, range(L - p)] = blocks[p]
    return out.reshape(L * r, L * c)


def _coefficients(s: NormalSystem, M: int, K: int, dtype=np.complex128) -> np.ndarray:
    """The states F[k, m, :n] = Y_{m,k} = [z^m xi^k] y, m <= M, k <= K, as (K+1, M+1, n).

    One array F[k, m, row] holds the system's monomial table
    (:func:`_program`) order-major: its first n rows are Y, row n the
    constant 1, the rest the product chains.  A chain's (m, k) coefficient
    never involves Y_{m,k}, since Y_{0,0} = 0.  The right side at (m, k) is
    sum_p W[p] @ F[k, m - p] plus (m-1) Y_{m-1,k} - alpha_1 k Y_{m-1,k},
    read while Y_{m,k} is still 0, so the -L y monomials drop out.  Each
    cell of the orders xi^0 and xi^1 extends each chain length by one
    contraction over (level, xi), whose (head, component) products are its
    grid block; level M+1 pins c_M and is then sliced off.

    Then the orders k = 2..K are solved one at a time, every level at
    once.  The states u = Y_{:,k} enter F[k] only through the xi^0 order,
    as D u, so order k takes one matmul per chain length and level for
    F[k] at u = 0, then u = B_k (W~ F[k] / (lambda - k)), W~ the z-power
    coefficients, then F[k] += D u.  B_k inverts A_k = W~ D + (m-1) S +
    k (I - alpha_1 S) (S shifts the level) scaled to unit diagonal; every
    B_k comes from one forward substitution over levels in ``dtype``, held
    as B[row, column, k - 2].  B_k is block lower-triangular with identity
    diagonal blocks, so level m's step is one matmul of A's block below the
    diagonal against the view B[:m n, :m n], for every k at once.  An
    order k >= 2 singular in some component raises before any is solved.
    """
    bad = s.germ.order_violations()
    if bad:
        terms = ", ".join(f"(i={i}, k={list(k)})" for i, k in bad)
        raise ValueError(f"germ breaks the order condition at {terms}")
    n, lam, alpha1 = s.n, s.lam, s.alpha[0]
    size, groups, W = _program(s)
    depth = M + 2 if M >= 1 and K >= 1 else M + 1
    F = np.zeros((K + 1, depth, size), dtype=dtype)
    F[0, 0, n] = 1.0     # the constant row
    F[1:2, 0, 0] = 1.0   # F_0'(0) = e_1, when K >= 1
    Wz = W.swapaxes(0, 1).reshape(n, -1)   # Wz[:, p size + row] = W[p, :, row]

    def rhs(m: int, k: int) -> np.ndarray:
        """The right side at z^m >= 1, xi^k from the level rows F[k, :m + 1]."""
        p = min(m, len(W) - 1)
        t = F[k, m - p : m + 1][::-1].reshape(-1, 1)
        prev = F[k, m - 1, :n, None]
        return (Wz[:, : len(t)] @ t + (m - 1) * prev - (alpha1 * prev) * k)[:, 0]

    # the one resonance rule: sing[j, k] where |lambda_j - k| < 1e-12 max(1, max|lambda| + k)
    ks = np.arange(K + 1)
    sing = np.abs(lam[:, None] - ks) < 1e-12 * np.maximum(1.0, np.max(np.abs(lam)) + ks)
    # orders xi^0 and xi^1 of every level, k outer and m inner; an overflow is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, sk in enumerate(sing.T[:2]):
            any_sing, divisor = sk.any(), np.where(sk, 1, lam - k)
            for m in range(1, depth):
                tails = F[k::-1, m::-1, :n].transpose(1, 0, 2).reshape(-1, n)
                for heads, chain in groups:
                    P = F[: k + 1, : m + 1, heads].transpose(2, 1, 0).reshape(-1, len(tails))
                    F[k, m, chain] = (P @ tails).reshape(-1)
                if k == 1 and m >= 2:
                    # solvability of the first component pins c_{m-1}, slope m - 1
                    F[1, m - 1, 0] = -rhs(m, 1)[0] / (m - 1)
                    if m == M + 1:
                        continue
                r = rhs(m, k)
                if any_sing:   # each singular component against the largest term entering it
                    p = min(m, len(W) - 1)
                    terms = np.abs(W[: p + 1, sk] * F[k, m - p : m + 1][::-1, None]).max((0, 2))
                    prev = np.abs(F[k, m - 1, :n][sk])
                    big = np.maximum(terms, np.maximum(abs(m - 1) * prev, abs(alpha1) * prev * k))
                    if np.any(np.abs(r[sk]) > _TOL * big):
                        raise ResonantOrder(k)
                    r = np.where(sk, 0, r)
                F[k, m, :n] = r / divisor
    F = F[:, : M + 1]   # row M + 1 only pinned c_M
    if K < 2:   # the formal series alone (K = 0): level m is its order m
        bad = ~np.isfinite(F[:, :, :n]).all((0, 2))
        if bad.any():
            raise ValueError(f"the formal series is not finite from order {int(np.argmax(bad))} "
                             f"of R = {M}: its coefficients overflow; lower R")
        return F[:, :, :n]

    if sing[:, 2:].any():   # singular at some order k >= 2: refused for every level
        raise ResonantOrder(int(np.argmax(sing[:, 2:].any(0))) + 2)
    # xi^2..xi^K, every level at once, on the states R[K - k, a, j, m] = Y_{m-a,k}[j], 0 for a > m
    L, eye = M + 1, np.eye(n)[:, :, None]
    R = np.zeros((K + 1, L, n, L), dtype=dtype)
    mm, aa = np.tril_indices(L)   # R[K - k] takes Y_{m-a,k}[j] at dst from F[k] at src
    dst = (((aa * n)[:, None] + range(n)) * L + mm[:, None]).ravel()
    src = (((mm - aa) * size)[:, None] + range(n)).ravel()
    R[K].put(dst, F[0].take(src))

    # D[row, j, d] = d F[k, m, row] / d Y_{m-d,k}[j], carried along the chain steps
    D = np.zeros((size, n, L), dtype=dtype)
    D[range(n), range(n), 0] = 1.0
    for heads, chain in groups:   # D[chain] as [head, tail, j, d]: D[head] @ R[K][:, tail]
        G = np.matmul(D[heads, None], R[K].transpose(1, 0, 2), out=D[chain].reshape(-1, n, n, L))
        G[:, range(n), range(n)] += F[0][:, heads].T[:, None]
    Wl, Dl = _block_toeplitz(W, L), _block_toeplitz(D.transpose(2, 0, 1), L)
    A = Wl @ Dl   # W~ D, read below its diagonal blocks only
    # B[:, :, k - 2] solves A_k u = -r as u = B_k (r / (lambda - k)): forward substitution
    # over levels, held as B[row, column, k - 2] so each level is one matmul for every k
    # against the view B[:m n, :m n], the only nonzero columns of the rows it reads
    denom = lam[:, None] - ks[2:]
    shift = -alpha1 * ks[2:].astype(dtype)   # the S part of k (I - alpha_1 S), in dtype
    B = np.zeros((L * n, L * n, K - 1), dtype=dtype)
    B[:n, :n] = eye
    for m in range(1, L):
        lv, lo, mn = slice(m * n, (m + 1) * n), slice((m - 1) * n, m * n), m * n
        B[lv, :mn] = (A[lv, :mn] @ B[:mn, :mn].reshape(mn, -1)).reshape(n, mn, K - 1)
        B[lv, :mn] = (B[lv, :mn] + ((m - 1) + shift) * B[lo, :mn]) / denom[:, None]
        B[lv, lv] = eye
    B, denom, RT = B.transpose(2, 0, 1).copy(), np.tile(denom.T, L), R.transpose(1, 0, 2, 3)

    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is raised below
        for k in range(2, K + 1):
            R[K - k + 1].put(dst, F[k - 1].take(src))
            Fk, tails = F[k], RT[:, K - k + 1 :].reshape(L, k, n * L)
            for heads, chain in groups:
                P = F[1 : k + 1, :, heads].transpose(1, 2, 0) @ tails
                Fk[:, chain] = (P[0] if L == 1 else P.sum(0)).reshape(-1, L).T
            u = (Wl @ Fk.reshape(-1)) / denom[k - 2]
            if L > 1:   # B_k is the identity on one level
                u = B[k - 2] @ u
            Fk += (Dl @ u).reshape(L, size)
    bad = ~np.isfinite(F).all(2)
    if bad.any():
        k, m = map(int, np.unravel_index(np.argmax(bad), bad.shape))
        if k >= 2:
            # the level matmuls spread an overflow to the levels below it as 0 inf, but
            # levels 0..sub read no level above sub: built alone, they raise if they overflow
            for sub in range(m, M):
                _coefficients(s, sub, k, dtype)
            m = M
        raise ValueError(f"F_{m} is not finite from order {k} of K = {K}: "
                         "its Taylor coefficients overflow; lower K")
    return F[:, :, :n]


def _jets(s: NormalSystem, kernel, y0, order: int, shape: tuple, step, fill) -> np.ndarray:
    """Jets a[b, :, k] of lanes b from states y0 (n, B) on the program of ``s``, by ``kernel``.

    On the order-major table T[b, k, row] and the states reversed in R[b,
    order - k], order k of each chain block is one batched matmul, heads
    against states, written in place; then the ops that ``step(T, X, k)``
    returns write order k+1 of the states in T from the kernel's workspace
    X (B, *shape), which ``fill(X)`` writes first.  Lanes share only batched
    matmuls.

    The workspace and every order's operand views are planned once per
    (kernel, order) and kept on ``s``, replaced when the lane count changes,
    so a call only runs its ufuncs.  Apart from the constant row, a call
    reads only entries it has written, and it returns a copy.  One system's
    kernels are not reentrant across threads.
    """
    y0 = np.asarray(y0, dtype=complex)
    B, n = y0.shape[1], s.n
    plan = s._plans.get((kernel, order))
    if plan is None or len(plan[0]) != B:
        size, groups, _ = _program(s)
        T = np.zeros((B, order + 1, size), dtype=complex)
        R, X = np.empty((B, order + 1, n), dtype=complex), np.empty((B, *shape), dtype=complex)
        T[:, 0, n] = 1.0
        H = T.transpose(0, 2, 1)   # heads by row, then order; block[:, k] [lane, head, component]
        blocks = [(h, T[:, :, c].reshape(B, order + 1, -1, n)) for h, c in groups]
        ops = []   # the out operand positional: a keyword costs a dict per call
        for k in range(order):
            ops += [functools.partial(np.matmul, H[:, h, : k + 1], R[:, order - k :], b[:, k])
                    for h, b in blocks]
            ops += step(T, X, k)
            ops.append(functools.partial(np.copyto, R[:, order - k - 1], T[:, k + 1, :n]))
        plan = s._plans[kernel, order] = (T, R, X, ops)
    T, R, X, ops = plan
    fill(X)
    T[:, 0, :n] = R[:, order] = y0.T
    for op in ops:
        op()
    return T[:, :, :n].transpose(0, 2, 1).copy()


@functools.lru_cache(maxsize=None)
def _binomials(top: int, order: int) -> np.ndarray:
    """Read-only table C(i+k-1, k), i <= top, k <= order: [t^k] (1 + t)^{-i} up to sign."""
    binom = np.array([[math.comb(a + b - 1, b) if a else float(b == 0) for b in range(order + 1)]
                      for a in range(top + 1)])
    binom.flags.writeable = False
    return binom


def _x_jet(s: NormalSystem, x0, y0, rho, order: int) -> np.ndarray:
    """Taylor coefficients a[b, :, k] = [t^k] y_b(x0_b + rho_b t), k <= order.

    One lane b per entry of ``x0`` and ``rho`` (B,) and column of ``y0``
    (n, B).  With [t^k] z^i = C(i+k-1, k) (-rho/x0)^k / x0^i for
    z = 1/(x0 + rho t), order k of y' = -L y + z A y + g(z, y) gives
    (k+1) a_{k+1} = rho [t^k] f from a_0..a_k.  One matrix G per call
    folds rho, ``W`` and the z-power jets: (k+1) a_{k+1} is G's last
    (k+1) size columns against orders 0..k of the table.  G, written in
    place, and each order's views of it are planned once per system by
    :func:`_jets` and reused.  Computed in complex128.
    """
    W = _program(s)[-1]
    x0, rho = np.asarray(x0, dtype=complex), np.asarray(rho, dtype=float)
    i, j, (_, n, size) = np.arange(len(W))[:, None], np.arange(order + 1), W.shape
    # Z[b, i, order - k] = rho_b [t^k] z^i in lane b
    Z = (rho[:, None, None] * x0[:, None, None] ** -i * (-rho / x0)[:, None, None] ** j
         * _binomials(len(W) - 1, order))[:, :, ::-1]

    def step(T, G, k):
        cols, out = T.reshape(len(T), -1, 1)[:, : (k + 1) * size], T[:, k + 1, :n, None]
        return (functools.partial(np.matmul, G[:, :, (order - k) * size:], cols, out),
                functools.partial(np.divide, out, np.array(k + 1, dtype=complex), out))

    return _jets(s, _x_jet, y0, order, (n, (order + 1) * size), step, lambda G: np.einsum(
        "biq,ijr->bjqr", Z, W, out=G.reshape(len(G), n, order + 1, size)))


def _xi_jet(s: NormalSystem, xi0, F0, rho, order: int) -> np.ndarray:
    """Taylor coefficients a[b, :, k] = [t^k] F_0(xi0_b + rho_b t), lanes as in :func:`_x_jet`.

    The flow xi F' = Lam F - g(0, F), on the z^0 monomials of the same
    program: order k of (xi0 + rho t) dF/dt = rho (Lam F - g(0, F)) gives
    xi0 (k+1) a_{k+1} = rho ([t^k](Lam F - g(0, F)) - k a_k), without the
    alternating sum of expanding 1/(xi0 + rho t).  One matrix Q[:, k] per
    order k folds -rho/xi0, the z^0 monomials and the k a_k term; Q and its
    views are planned as in :func:`_x_jet`.  Computed in complex128.
    """
    W0 = _program(s)[-1][0]
    xi0, rho = np.asarray(xi0, dtype=complex), np.asarray(rho, dtype=float)
    k = np.arange(order)[:, None, None]
    fold = (W0 + k * np.eye(*W0.shape)) / (k + 1)

    def step(T, Q, k):
        return (functools.partial(np.matmul, Q[:, k], T[:, k, :, None], T[:, k + 1, : s.n, None]),)

    return _jets(s, _xi_jet, F0, order, (order, *W0.shape), step,
                 lambda Q: np.multiply((-rho / xi0)[:, None, None, None], fold, out=Q))


def formal_power_series(s: NormalSystem, R: int) -> np.ndarray:
    """Unique formal solution y ~ sum_{r>=2} c_r x^{-r}, orders to R.

    Returns the read-only (n, R+1) array c[j, r], the coefficient of
    x^{-r} in y_j: order xi^0 of the two-scale recursion, with nothing
    pinned, so c[:, 0] and c[:, 1] vanish.  Order r reads
    L c_r = (A + (r-1) I) c_{r-1} + [z^r] g(z, y), whose right side
    depends on c_2..c_{r-1} only.  Computed in complex128.  A coefficient
    that overflows raises ``ValueError`` naming the first order that is
    not finite.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    c = _coefficients(s, R, 0)[0].T
    c.setflags(write=False)
    return c


# -- expansion container -----------------------------------------------------


class TwoScaleExpansion:
    """The computed F_0..F_M with the pinned free constants.

    ``fm`` is the read-only (M+1, n, K+1) array of Taylor coefficients,
    level m in ``fm[m]``, given as one array or as a sequence of levels;
    ``observable_series(m)`` projects a level on the system's observable
    weights.
    """

    def __init__(self, system: NormalSystem, fm: np.ndarray | Sequence[np.ndarray],
                 free_constants: Sequence[complex], K: int):
        self.system = system
        # contiguous: matmul sums a strided level in another order (continue_f0's seed)
        self.fm = np.ascontiguousarray(complex_array(fm))
        self.fm.setflags(write=False)
        self.free_constants = tuple(complex(c) for c in free_constants)
        self.K = int(K)
        self.M = len(self.fm) - 1
        self._radius: float | None = None
        self._default_fit: "GevreyFit | None" = None
        self._formal: np.ndarray | None = None

    def observable_series(self, m: int) -> TaylorSeries:
        """w . F_m for a level 0 <= m <= M; any other m raises ``ValueError``."""
        if not 0 <= m <= self.M:
            raise ValueError(f"level m = {m} is outside 0..{self.M}")
        return TaylorSeries(np.tensordot(self.system.observable, self.fm[m], axes=(0, 0)))

    def xi(self, C: complex, x: complex) -> complex:
        x = complex(x)
        return complex(C) * np.exp(-x + complex(self.system.alpha[0]) * np.log(x))

    def reliability_radius(self) -> float:
        """Estimated convergence radius of the leading observable profile."""
        if self._radius is None:
            self._radius = _profile_radius(self.observable_series(0).coeffs)
        return self._radius

    def _require_disk(self, xi: complex) -> None:
        """Raise :class:`OutsideReliableDisk` unless the Taylor rows sum at ``xi``:
        (|xi| / r)^(K+1) <= 1e-8 for the reliability radius r, so |xi| > r fails."""
        r = self.reliability_radius()
        if abs(xi) > r or (abs(xi) / r) ** (self.K + 1) > _TAIL:
            raise OutsideReliableDisk(
                f"|xi| = {abs(xi):.6g} is outside the disk where the order-{self.K} "
                f"Taylor rows can be summed (reliability radius {r:.6g})")

    def default_fit(self) -> "GevreyFit":
        if self._default_fit is None:
            self._default_fit = gevrey_fit(self, 0.5 * self.reliability_radius())
        return self._default_fit

    def _formal_series(self, R: int) -> np.ndarray:
        """``formal_power_series(self.system, R)``, sliced from the deepest one
        built so far: order r depends on lower orders only, so bitwise the same."""
        if self._formal is None or self._formal.shape[1] <= R:
            self._formal = formal_power_series(self.system, R)
        return self._formal[:, : R + 1]

    def residual_coefficients(self) -> np.ndarray:
        """Residual of the substituted two-scale series, as a bivariate stack.

        Returns (n, M+1, K+1) in the build's dtype: [z^m xi^k] of the
        recursion's two sides, moved to one side, for every level m.  These
        rows vanish to roundoff by construction, which is the
        substitution-identity check.  The reference is formed in
        ``numpy.clongdouble`` from the stored levels, with
        :func:`~transasym.series.compose_germ_series`, so its own rounding
        stays below a double build's wherever longdouble is wider than double.
        """
        s, M, K = self.system, self.M, self.K
        F = np.moveaxis(self.fm, 0, 1).astype(np.clongdouble)
        lam, alpha = (np.asarray(v, dtype=np.clongdouble)[:, None, None] for v in (s.lam, s.alpha))
        k = np.arange(K + 1)
        res = (lam - k) * F - compose_germ_series(s.germ, F)
        m = np.arange(1, M + 1)[:, None]
        res[:, 1:] += (alpha[0] * k - (m - 1) - alpha) * F[:, :-1]
        return res.astype(self.fm.dtype)

    def to_dict(self) -> dict:
        alpha1 = complex(self.system.alpha[0])
        return {
            "system": self.system.to_dict(),
            "M": self.M,
            "K": self.K,
            "alpha1": [alpha1.real, alpha1.imag],
            "free_constants": [[c.real, c.imag] for c in self.free_constants],
            "fm": [[{"truncation": len(row) - 1,
                     "coeffs": [[float(c.real), float(c.imag)] for c in row]} for row in level]
                   for level in self.fm],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TwoScaleExpansion":
        require_keys(d, ("system", "fm", "free_constants", "K"), "expansion")
        system = NormalSystem.from_dict(d["system"])
        fm = [[_row_from_dict(row, f"{m}, {j}") for j, row in enumerate(level)]
              for m, level in enumerate(d["fm"])]
        consts = _read(d, "free_constants", "expansion", pairs=True)
        K = _read(d, "K", "expansion")
        orders = {len(c) - 1 for level in fm for c in level} - {K}
        if orders:
            raise ValueError(f"expansion K = {K}, but its Taylor rows have order {min(orders)}")
        return cls(system, fm, consts, K=K)


def _read(d: Mapping, key: str, where: str, pairs: bool = False):
    """``d[key]`` as an int, or as complex [re, im] ``pairs``; else a TypeError naming ``key``."""
    try:
        return [complex(re, im) for re, im in d[key]] if pairs else int(d[key])
    except (TypeError, ValueError):
        what = "a list of [re, im]" if pairs else "an integer"
        raise TypeError(f"{where} {key} must be {what}, got {d[key]!r}") from None


def _row_from_dict(d: Mapping, where: str) -> list:
    """The coefficients of a Taylor row ``{"coeffs": [[re, im], ...], "truncation": K}``."""
    require_keys(d, ("coeffs", "truncation"), "Taylor row")
    coeffs = _read(d, "coeffs", f"Taylor row {where}", pairs=True)
    if len(coeffs) != _read(d, "truncation", f"Taylor row {where}") + 1:
        raise ValueError(f"Taylor row {where} has {len(coeffs)} coefficients, "
                         f"but truncation {d['truncation']}")
    return coeffs


def _profile_radius(f0: np.ndarray) -> float:
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
        c = np.abs(f0)
        K = len(c) - 1
        lo = max(1, K // 2)
        nz = [(k, v) for k, v in enumerate(c) if k >= lo and v > 0]
        if not nz:
            return math.inf
        return float(min(v ** (-1.0 / k) for k, v in nz))


def build_expansion(s: NormalSystem, M: int, K: int, *,
                    dtype=np.complex128) -> TwoScaleExpansion:
    """Compute F_0..F_M to Taylor order K with delayed-constant pinning.

    ``dtype`` is the precision of the whole hierarchy: ``numpy.complex128``
    or ``numpy.clongdouble``.  A germ that breaks the order condition
    g = O(z^2) + O(|y|^2) is rejected with ``ValueError``.

    On one order-major table, the orders xi^0 and xi^1 of every level are
    solved one cell at a time, then xi^2..xi^K one order at a time for
    every level at once, all in ``dtype`` (see the module docstring).
    The free constant c_m of level m is pinned at (m+1, xi^1), where the
    first component of the right side is d + m c_m; c_M uses row M+1,
    which is computed through xi^1 only and then dropped; c_m is fm[m, 0,
    1].  At xi^0 and xi^1 a singular component must vanish within 1e-9 of
    the largest term entering it, else :class:`ResonantOrder` names its
    order: a z y_1 term in the first component of g raises it at 1.  The
    first order k >= 2 singular in some component raises it at k, for
    every level alike, after the orders xi^0 and xi^1.  A coefficient
    that overflows raises ``ValueError`` naming the first level and order
    that are not finite.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if K < 2:
        raise ValueError("K must be at least 2")
    fm = _coefficients(s, M, K, np.result_type(dtype, np.complex128)).transpose(1, 2, 0)
    return TwoScaleExpansion(s, fm, fm[1:, 0, 1], K=K)


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


def eval_two_scale(e: TwoScaleExpansion, C: complex, x: complex):
    """Evaluate sum_{m<=m*} x^{-m} F_m(xi(x)) with a Gevrey error bound.

    m* is the least-term rule min(M, floor(|x|/B_g)) of ``e.default_fit()``,
    which gives the bound.  Raises :class:`OutsideReliableDisk` for xi outside
    the disk where the Taylor rows can be summed.  Returns (value: n-vector,
    error_bound: float).
    The one-point case of :func:`_eval_points`.
    """
    values, bounds = _eval_points(e, C, [x])
    return values[0], bounds[0]


def _eval_points(e: TwoScaleExpansion, C: complex,
                 xs: Sequence[complex]) -> tuple[np.ndarray, list[float]]:
    """:func:`eval_two_scale` at each of ``xs``: values (P, n) and bounds, bitwise the lone
    calls'.  One Horner in xi runs over every point and level; each point sums its levels
    m <= m* in Python's powers of 1/x.  The first point a lone call refuses raises its error.
    """
    xs, xis = [complex(x) for x in xs], []
    for x in xs:
        if abs(x) <= 1.0:
            raise ValueError("evaluation requires |x| > 1")
        xis.append(e.xi(C, x))
        e._require_disk(xis[-1])
    fit = e.default_fit()
    stars = [least_term_index(fit.B_g, abs(x), e.M) for x in xs]
    levels = e.fm[: max(stars, default=0) + 1]
    xi = np.array(xis)[:, None, None]
    acc = levels[:, :, -1]
    for k in range(e.K - 1, -1, -1):   # Horner over every point and level at once
        acc = acc * xi + levels[:, :, k]
    values, bounds = np.zeros((len(xs), e.system.n), dtype=e.fm.dtype), []
    for value, level, x, m_star in zip(values, acc, xs, stars):
        xm = 1.0 + 0.0j
        for m in range(m_star + 1):
            value += level[m] * xm
            xm /= x
        mp = m_star + 1  # the first omitted level, bounded under the Gevrey envelope
        bounds.append(math.exp(math.log(max(fit.K_g, 1e-300)) + math.lgamma(mp + 1)
                               + mp * math.log(fit.B_g) - mp * math.log(abs(x))))
    return values, bounds


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


def gevrey_fit(e: TwoScaleExpansion, rho: float) -> GevreyFit:
    """Fit the factorial envelope to circle sup norms of the observables.

    log(s_m / m!) is affine only asymptotically: the first levels carry a
    transient hump from the growing profile numerators.  The scale B_g is
    therefore fit past the hump (everything after the argmax, keeping at
    least four points when available) and r_squared grades that tail fit;
    the prefactor K_g is still inflated over every level, so the envelope
    bounds the whole family.  The sup norms are taken at the 256 roots
    rho e^{2 pi i j / 256}: each level's observable, scaled by rho^k and
    folded k mod 256, goes through one FFT.  With c = m 2^q and rho = f 2^p,
    c rho^k = (m f^k) 2^(q + p k) neither overflows nor goes subnormal early.
    """
    f, p = np.frexp(rho)
    k, n = np.arange(e.K + 1), _SUP_POINTS
    obs = np.tensordot(e.fm, e.system.observable, axes=(1, 0))
    re, im = (np.ldexp(m * f ** k, q + p * k) for m, q in map(np.frexp, (obs.real, obs.imag)))
    folded = np.zeros((e.M + 1, -(-(e.K + 1) // n) * n), dtype=obs.dtype)
    folded[:, : e.K + 1] = re + 1j * im
    sups = np.abs(np.fft.fft(folded.reshape(e.M + 1, -1, n).sum(1))).max(1)
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
