#! /usr/bin/env python3

"""Build a two-scale expansion and look at what it contains.

The normalized system y' = -L y + (1/x) A y + g(1/x, y) is solved with a
hierarchy of level functions F_0(xi), F_1(xi), ... in the exponential
scale xi = C e^{-x} x^{alpha_1}.  This script builds the hierarchy for
the first built-in system, prints the leading Taylor data and the
delayed free constants, and evaluates the resummed solution at a point.

usage:
    ./01_expansion_basics.py [label]
"""

import sys

from transasym import build_expansion, builtin, eval_two_scale, least_term_index


def main(label):
    s, _ = builtin(label)
    print(f"system {label}: n = {s.n}, lambda = {s.lam}, alpha = {s.alpha}")
    print(f"singular level hint xi_s = {s.xi_s_hint}")

    e = build_expansion(s, M=4, K=24)
    for m in range(e.M + 1):
        c = e.observable_series(m).coeffs[:6]
        pretty = "  ".join(f"{z.real:+.6g}" for z in c)
        print(f"F_{m} observable Taylor head: {pretty}")
    consts = ", ".join(f"c_{m + 1} = {c}" for m, c in enumerate(e.free_constants))
    print(f"delayed constants: {consts}")

    # resum at a concrete point; the bound is the first dropped term
    C, x = 1.0, 12.0
    y, bound = eval_two_scale(e, C, x)
    print(f"y(C = {C}, x = {x}) = {y}  (error bound {bound:.3g})")

    # the optimal truncation depth grows linearly with |x|
    for r in (8.0, 16.0, 32.0):
        print(f"|x| = {r:4.0f}: least-term level m* = {least_term_index(1.0, r, m_cap=64)}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "p1")
