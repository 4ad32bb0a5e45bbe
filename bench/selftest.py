"""Show that no correctness check passes vacuously.

    python3 bench/selftest.py

Runs one pass of every workload, requires every check to pass on the
real outputs, then feeds each check a wrong answer (a pole shifted by
0.2, a C off by 1 %, one perturbed coefficient, ...) and requires it to
fail.  Exits 1 and names the check if any of this does not hold.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import numpy as np

import checks as ck
from run import OUT, load_package
from workloads import WORKLOADS


def _shift_observed(out, i, dx):
    """Move the i-th matched pole (pair and observation) by dx."""
    out = copy.deepcopy(out)
    run = out["run"]
    pair = run["comparison"]["pairs"][i]
    x = complex(*pair["observed"]) + dx
    pair["observed"] = [x.real, x.imag]
    run["observations"][i]["location"] = [x.real, x.imag]
    return out


def _with_obs(out, i, **fields):
    out = copy.deepcopy(out)
    out["run"]["observations"][i].update(fields)
    return out


def _with_level(e, m, edit):
    """Copy of expansion e whose level m is replaced by edit(copy of F_m)."""
    fm = [np.array(a) for a in e.fm]
    edit(fm[m])
    return type(e)(e.system, fm, e.free_constants, K=e.K)


def _scaled(a, j, k, factor):
    a[j, k] *= factor


def _bumped(a, j, k):
    a[j, k] += 1e-6 * np.max(np.abs(a))


def _hier(out, key, field, value):
    out = dict(out)
    out[field] = {**out[field], key: value}
    return out


def wrong_answers(outs):
    """(check, what is wrong, outputs) for every check."""
    pole, branch, ladder, hier = (outs[w] for w in WORKLOADS)
    pred = complex(*pole["run"]["predicted"]["entries"][0]["x_ref"])
    uncorrected = _shift_observed(pole, 0, pred - complex(*pole["run"]["comparison"]["pairs"][0]["observed"]))
    moved_pred = copy.deepcopy(pole)
    moved_pred["run"]["predicted"]["entries"][3]["x_ref"][0] += 1e-6
    p1 = hier["builds"]["p1 M=16 K=64"]
    p2a = hier["builds"]["p2a alpha=0 M=8 K=64"]
    fit = hier["fits"]["p1 M=16 K=64"]
    yield ck.pole_matched, "a pole shifted by 0.2", _shift_observed(pole, 5, 0.2)
    yield ck.pole_local_model, "an exponent of -1.9", _with_obs(pole, 2, exponent=-1.9)
    yield ck.pole_local_model, "an amplitude of 12.6", _with_obs(pole, 2, amplitude=[12.6, 0.0])
    yield ck.pole_roots, "a predicted root moved by 1e-6", moved_pred
    yield ck.pole_xi_correction, "a pole on xi = 12 itself", uncorrected
    yield ck.branch_exponents, "an exponent of -0.45", _with_obs(branch, 4, exponent=-0.45)
    yield ck.branch_locations, "a branch point shifted by 0.2", _shift_observed(branch, 4, 0.2)
    yield ck.branch_loops, "a two-circuit defect of 1e-3", {**branch, "loop_defect": {1: 0.9, 2: 1e-3}}
    yield ck.branch_loops, "a loop closing after one circuit", {**branch, "loop_defect": {1: 1e-6, 2: 1e-12}}
    xi_end, F = branch["polyline"]
    yield ck.branch_polyline, "an endpoint off by 1e-6", {**branch, "polyline": (xi_end, F * (1 + 1e-6))}
    C, arg, got = ladder["ladders"][7]
    bad_ladder = {**ladder, "ladders": ladder["ladders"][:7] + [(C, arg, got * 1.01)] + ladder["ladders"][8:]}
    yield ck.ladder_constants, "a C off by 1 %", bad_ladder
    C, arg, got = ladder["ladders"][16]
    bad_steep = {**ladder, "ladders": ladder["ladders"][:16] + [(C, arg, C * 1.002)] + ladder["ladders"][17:]}
    yield ck.ladder_constants, "a steep-ray C off by 0.2 %", bad_steep
    yield ck.hier_p1_levels, "one F_1 coefficient off by 1e-8", _hier(
        hier, "p1 M=16 K=64", "builds", _with_level(p1, 1, lambda a: _scaled(a, 0, 5, 1 + 1e-8)))
    yield ck.hier_p2_profiles, "one F_0 coefficient off by 1e-8", _hier(
        hier, "p2a alpha=0 M=8 K=64", "builds", _with_level(p2a, 0, lambda a: _scaled(a, 0, 5, 1 + 1e-8)))
    yield ck.hier_residuals, "one F_2 coefficient bumped", _hier(
        hier, "p1 M=16 K=64", "builds", _with_level(p1, 2, lambda a: _bumped(a, 1, 10)))
    yield ck.hier_radii, "a p1 radius off by 1 %", _hier(hier, "p1 M=16 K=64", "radii", (12.12, -2.0))
    yield ck.hier_radii, "an Abel exponent of -0.6", _hier(
        hier, "abel M=0 K=400", "radii", (hier["radii"]["abel M=0 K=400"][0], -0.6))
    yield ck.hier_envelopes, "an envelope prefactor 10 % low", _hier(
        hier, "p1 M=16 K=64", "fits", dataclasses.replace(fit, K_g=0.9 * fit.K_g))
    yield ck.hier_envelopes, "F_3 doubled after the fit", _hier(
        hier, "p1 M=16 K=64", "builds", _with_level(p1, 3, lambda a: np.multiply(a, 2.0, out=a)))
    yield ck.hier_envelopes, "a tail fit with r^2 0.5", _hier(
        hier, "p1 M=16 K=64", "fits", dataclasses.replace(fit, r_squared=0.5))
    yield ck.hier_failures, "a second failed build", {**hier, "failed": hier["failed"] + ["p2a alpha=0 M=8 K=64"]}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    ts = load_package()
    outs, broken = {}, []
    for name, cls in WORKLOADS.items():
        wl = cls(OUT)
        out = wl.run(ts, wl.setup(ts, 0)).outputs
        broken += [f"{name}: fails on real outputs: {m}" for m in wl.check(ts, out)]
        outs[name] = out
    for check, what, out in wrong_answers(outs):
        verdict = check(out)
        print(f"{check.__name__:20s} {what:36s} -> {'FAILS' if verdict else 'passes'}")
        if verdict is None:
            broken.append(f"{check.__name__} passes on {what}")
    for msg in broken:
        print(f"SELF-TEST FAILED: {msg}", file=sys.stderr)
    print("self-test", "failed" if broken else "passed")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
