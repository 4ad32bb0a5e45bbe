"""Release-gate checks for the worked systems.

Ten numbered end-to-end checks, each pinning its own tolerances and
returning (passed, detail).  Together they cover the closed-form level
profiles, the singular-scale correction, the branch radius of the Abel
profile, a pole-array survey by complex-plane continuation, the local
blow-up models read there, recovery of the transseries constant from sampled
solutions, the factorial growth envelope, Newton refinement of the
predicted array, and the offset law of the second singularity array.

Heavy artifacts (expansions, the hunted survey, the Abel circuits)
are cached at module level so the full battery shares them; checks 5, 6
and 10 all read the same survey.  ``run_check(k)`` executes one check,
``run_all()`` the battery, and ``format_report`` renders one line per
check.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable

import numpy as np

from . import oracles
from .expansion import build_expansion, eval_two_scale, gevrey_fit
from .singular import continue_f0, predict_array, radius_estimate
from .systems import builtin
from .validate import extraction_ladder, hunt_singularity, ladder_radii, run_validation
from .walk import _STAGING

__all__ = ["CHECKS", "run_check", "run_all", "format_report"]


@lru_cache(maxsize=None)
def _system(label: str):
    return builtin(label)[0]


@lru_cache(maxsize=None)
def _expansion(label: str, M: int, K: int):
    return build_expansion(_system(label), M, K)


@lru_cache(maxsize=None)
def _survey():
    """Hunted pole survey shared by checks 5, 6 and 10, with its wall time."""
    e = _expansion("p1", 8, 32)
    t0 = time.perf_counter()
    run = run_validation(_system("p1"), e, 12.0, range(8, 21))
    return run, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _abel_models():
    """Two branch points hunted from their staging points plus the closed two-circuit defect."""
    s = _system("abel")
    obs = run_validation(s, _expansion("abel", 2, 48), 1.0, [2, 3]).observations
    # double circuit about the branch point; the square-root pair
    # must close up after two turns
    theta = np.linspace(np.pi, 5.0 * np.pi, 17)
    circle = [oracles.XI0 + 0.12 * np.exp(1j * t) for t in theta]
    res = continue_f0(s, [0.1] + circle + [0.1])
    return obs, float(np.max(np.abs(res.final - res.values[:, 0])))


def _rel_coeff_dev(got, ref) -> float:
    """Worst per-coefficient relative deviation; zero targets are judged
    against the largest reference coefficient."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    scale = float(np.max(np.abs(ref)))
    dev = 0.0
    for a, b in zip(got, ref):
        dev = max(dev, abs(a - b) / (abs(b) if b != 0 else scale))
    return dev


def _check_profiles() -> tuple[bool, str]:
    t0 = time.perf_counter()
    e = _expansion("p1", 8, 32)
    dev = max(_rel_coeff_dev(e.observable_series(m).coeffs[:15],
                             oracles.p1_h_taylor(m, 14))
              for m in range(3))
    dt = time.perf_counter() - t0
    ok = dev <= 1e-10 and dt < 5.0
    return ok, (f"levels 0..2, first 15 coefficients: max relative deviation "
                f"{dev:.2e} (tol 1e-10), {dt:.2f}s (limit 5s)")


def _check_scale_correction() -> tuple[bool, str]:
    A = oracles.pole_scale_correction(_expansion("p1", 8, 32))
    err = abs(A - 10.9)
    return err <= 1e-6, (f"singular-scale correction A = {A.real:.10f}: "
                         f"|A - 109/10| = {err:.2e} (tol 1e-6)")


def _check_sibling_profiles() -> tuple[bool, str]:
    worst = 0.0
    for label, which in (("p2a", "a"), ("p2b", "b")):
        ref = oracles.p2_f0_taylor(which, 14)
        for alpha in (0.0, 0.3):
            s, _ = builtin(label, alpha=alpha)
            e = build_expansion(s, 0, 32)
            worst = max(worst, _rel_coeff_dev(e.observable_series(0).coeffs[:15], ref))
    ok = worst <= 1e-10
    return ok, (f"leading profiles at alpha = 0 and 0.3, first 15 coefficients: "
                f"max relative deviation {worst:.2e} (tol 1e-10)")


def _check_branch_radius() -> tuple[bool, str]:
    t0 = time.perf_counter()
    e = _expansion("abel", 0, 200)
    est = radius_estimate(e.observable_series(0))
    dt = time.perf_counter() - t0
    r_err = abs(est.radius - oracles.XI0)
    x_err = abs(est.exponent + 0.5)
    ok = r_err <= 1e-3 and x_err <= 0.05 and dt < 10.0
    return ok, (f"radius {est.radius:.6f} vs 3^(-1/2) exp(-pi sqrt(3)/6) = "
                f"{oracles.XI0:.6f} (err {r_err:.1e}, tol 1e-3), exponent "
                f"{est.exponent:.4f} (tol 0.05 about -1/2), {dt:.2f}s (limit 10s)")


def _check_pole_array() -> tuple[bool, str]:
    run, dt = _survey()
    rep = run.report
    mono = rep.distances_nonincreasing()
    ok = (rep.all_matched and rep.stats["max_distance"] <= 0.15
          and mono and dt < 120.0)
    return ok, (f"poles n = 8..20: {rep.stats['n_pairs']}/13 matched, max |Delta| "
                f"{rep.stats['max_distance']:.4f} (tol 0.15), median "
                f"{rep.stats['median_distance']:.4f}, distances nonincreasing "
                f"{mono}, {dt:.1f}s (limit 120s)")


def _check_local_models() -> tuple[bool, str]:
    run, _ = _survey()
    p_exp = max(abs(o.local_fit[1] + 2.0) for o in run.observations)
    p_amp = max(abs(o.local_fit[0] - 12.0) for o in run.observations)
    abel_obs, mono = _abel_models()
    a_exp = max(abs(o.local_fit[1] + 0.5) for o in abel_obs)
    ok = p_exp <= 0.05 and p_amp <= 0.5 and a_exp <= 0.02 and mono <= 1e-4
    return ok, (f"double poles: exponent within {p_exp:.1e} of -2 (tol 0.05), "
                f"amplitude within {p_amp:.1e} of 12 (tol 0.5); branch points: "
                f"exponent within {a_exp:.1e} of -1/2 (tol 0.02); two-circuit "
                f"defect {mono:.1e} (tol 1e-4)")


def _check_constant_recovery() -> tuple[bool, str]:
    s = _system("p1")
    e = _expansion("p1", 12, 32)
    ests = [extraction_ladder(s, e, 12.0, arg, ladder_radii(e, arg))
            for arg in (1.2, 1.0)]
    rel = [abs(est.value - 12.0) / 12.0 for est in ests]
    agree = ests[0].consistent_with(ests[1])
    ok = max(rel) <= 1e-3 and agree
    return ok, (f"rays arg x = 1.2 / 1.0: C = {ests[0].value:.6f} / "
                f"{ests[1].value:.6f}, relative errors {rel[0]:.1e} / {rel[1]:.1e} "
                f"(tol 1e-3), cross-consistent {agree}")


def _check_envelope() -> tuple[bool, str]:
    fit = gevrey_fit(_expansion("p1", 8, 32), 6.0)
    env = all(sm <= fit.envelope(m) * (1.0 + 1e-12)
              for m, sm in enumerate(fit.sup_norms))
    ok = env and fit.r_squared >= 0.98
    return ok, (f"sup norms on |xi| = 6 vs K_g m! B_g^m with K_g = {fit.K_g:.3g}, "
                f"B_g = {fit.B_g:.3g}: envelope holds {env}, R^2 = "
                f"{fit.r_squared:.4f} (floor 0.98)")


def _check_refinement_gap() -> tuple[bool, str]:
    arr = predict_array(12.0, 12.0, -0.5, [10, 40])
    by_n = {en.n: en for en in arr.entries}
    g10 = abs(by_n[10].x_ref - by_n[10].x_asym)
    g40 = abs(by_n[40].x_ref - by_n[40].x_asym)
    res = max(en.residual for en in arr.entries)
    ok = g40 <= 0.5 * g10 and res <= 1e-10
    return ok, (f"|x_ref - x_asym|: n = 10 gives {g10:.5f}, n = 40 gives {g40:.5f} "
                f"(ratio {g40 / g10:.3f}, need <= 0.5); max Newton residual "
                f"{res:.1e} (tol 1e-10)")


def _check_second_array() -> tuple[bool, str]:
    run, _ = _survey()
    x_s = run.observations[0].location          # refined n = 8 pole
    # staged between predictions 8 and 9: both straight walks to the second
    # array pass about 2 from every first-array pole
    x_0 = 0.5 * (run.predicted.entries[0].x_ref + run.predicted.entries[1].x_ref) + _STAGING
    y_0, _ = eval_two_scale(_expansion("p1", 8, 32), 12.0, x_0)
    targets = [x_s + oracles.p1_second_array_offset(x_s, m) for m in (0, 1)]
    obs = [hunt_singularity(_system("p1"), x_0, y_0, t) for t in targets]
    deltas = [abs(o.location - t) for o, t in zip(obs, targets)]
    ok = max(deltas) <= 0.3
    return ok, (f"second-array targets m = 0, 1 seeded from the refined n = 8 "
                f"pole: |Delta| = {deltas[0]:.4f}, {deltas[1]:.4f} (tol 0.3 each)")


CHECKS: dict[int, tuple[str, Callable[[], tuple[bool, str]]]] = {
    1: ("closed-form level profiles", _check_profiles),
    2: ("singular-scale correction", _check_scale_correction),
    3: ("sibling leading profiles", _check_sibling_profiles),
    4: ("branch radius of the Abel profile", _check_branch_radius),
    5: ("pole-array survey", _check_pole_array),
    6: ("local blow-up models", _check_local_models),
    7: ("constant recovery", _check_constant_recovery),
    8: ("factorial envelope", _check_envelope),
    9: ("array refinement", _check_refinement_gap),
    10: ("second-array offsets", _check_second_array),
}


def run_check(k: int) -> tuple[bool, str]:
    _, fn = CHECKS[k]
    return fn()


def run_all(numbers=None) -> list[tuple[int, str, bool, str]]:
    out = []
    for k in sorted(CHECKS if numbers is None else numbers):
        name, _ = CHECKS[k]
        passed, detail = run_check(k)
        out.append((k, name, passed, detail))
    return out


def format_report(results) -> str:
    lines = [f"[{'PASS' if p else 'FAIL'}] {k:2d} {name}: {detail}"
             for k, name, p, detail in results]
    n_run = len(lines)
    n_ok = sum(1 for _, _, p, _ in results if p)
    lines.append(f"{n_ok}/{n_run} checks passed")
    return "\n".join(lines)
