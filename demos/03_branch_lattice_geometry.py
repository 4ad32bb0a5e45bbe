#! /usr/bin/env python3

"""Map the branch geometry of the cubic flow's leading profile.

The leading profile F_0 of the "abel" system lives on a multi-sheeted
surface: a square-root branch point at xi_0 on the positive real axis,
repeated along a geometric lattice xi = (-1)^{p} xi_0 e^{p' pi sqrt 3}.
Three views of that geometry:

  1. the Taylor coefficients of F_0 feel the nearest branch point; a
     ratio-based estimate recovers xi_0 and the exponent -1/2,
  2. continuing F_0 around xi_0 once lands on the second sheet, twice
     returns home (square root monodromy),
  3. the real section of the flow has stationary points at the branch
     point images; the direction field goes to branch_field.csv with
     columns X, Y, dX, dY.

usage:
    ./03_branch_lattice_geometry.py [field.csv]
"""

import cmath
import csv
import math
import sys

import numpy as np

from transasym import build_expansion, builtin, continue_f0, radius_estimate
from transasym.oracles import XI0

LATTICE_RATIO = math.exp(math.pi * math.sqrt(3.0))   # of successive lattice levels


def abel_phase_field(X, Y):
    """Direction field (dX, dY) of the real-section trajectories; the
    stationary points are the branch-point images (-1/2, +-sqrt(3)/6)."""
    dX = X + 3 * X ** 2 - 3 * Y ** 2 + 3 * X ** 3 - 9 * X * Y ** 2
    dY = Y * (1 + 6 * X + 9 * X ** 2 - 3 * Y ** 2)
    return dX, dY


def coefficient_view():
    s, _ = builtin("abel")
    e = build_expansion(s, 0, 200)
    est = radius_estimate(e.observable_series(0))
    print(f"coefficients: radius {est.radius:.9f} (xi_0 = {XI0:.9f}), "
          f"exponent {est.exponent:+.4f}")
    print("lattice levels p' = 0..2:",
          "  ".join(f"{XI0 * LATTICE_RATIO ** p:.6g}" for p in range(3)))


def monodromy_view():
    s, _ = builtin("abel")
    for loops, sweep in (("one", 3.0), ("two", 5.0)):
        theta = np.linspace(math.pi, sweep * math.pi, 9 if sweep < 4 else 17)
        path = [0.1] + [XI0 + 0.12 * cmath.exp(1j * t) for t in theta] + [0.1]
        res = continue_f0(s, path)
        gap = abs(res.final[0] - res.values[0, 0])
        print(f"{loops} circuit(s) around xi_0: |F_0 end - F_0 start| = {gap:.3g}")


def field_view(out):
    xs = np.linspace(-1.2, 0.6, 61)
    ys = np.linspace(-0.9, 0.9, 61)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["X", "Y", "dX", "dY"])
        for X in xs:
            for Y in ys:
                dX, dY = abel_phase_field(X, Y)
                w.writerow([f"{v:.6g}" for v in (X, Y, dX, dY)])
    print(f"direction field ({xs.size * ys.size} samples) -> {out}")
    print("stationary points sit at (-1/2, +-sqrt(3)/6) and the origin")


if __name__ == "__main__":
    coefficient_view()
    monodromy_view()
    field_view(sys.argv[1] if len(sys.argv) > 1 else "branch_field.csv")
