#! /usr/bin/env python3

"""Predict the nearly periodic array of movable singularities.

Each singularity of the resummed solution sits where the scale variable
xi = C e^{-x} x^{alpha_1} crosses the singular level xi_s of the leading
profile.  Solving that condition for x gives an array marching up the
antistokes line with spacing approaching 2 pi i.  The script prints the
array, its spacings, and writes the entries as JSON plot data.

usage:
    ./02_pole_array_prediction.py [out.json]
"""

import json
import math
import sys

from transasym import predict_array


def main(out):
    arr = predict_array(12.0, 12.0, -0.5, range(8, 21))
    print(f"xi_s = {arr.xi_s}, C = {arr.C}, {len(arr.entries)} entries")
    for en in arr.entries:
        print(f"n = {en.n:2d}: x = {en.x_ref.real:+10.6f} {en.x_ref.imag:+10.6f}i"
              f"   |residual| = {en.residual:.2e}")

    print("\nspacing drift toward 2 pi i:")
    for n, gap in zip([en.n for en in arr.entries], arr.spacings()):
        dev = abs(gap - 2j * math.pi)
        print(f"  x_{n + 1} - x_{n}: |gap - 2 pi i| = {dev:.4f}")

    with open(out, "w") as fh:
        json.dump(arr.to_dict(), fh, sort_keys=True, indent=1)
    print(f"\narray -> {out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "array.json")
