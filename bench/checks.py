"""Correctness checks for the benchmark workloads.

Every reference here is computed by the benchmark itself from closed
forms (roots of the scale equation, rational profiles, the inverse of
the Abel profile) or is a property the method must have (exponents of
the local models, closure of a square-root loop, vanishing residual
rows).  None is a stored copy of an earlier output.

Each check takes the outputs of one pass and returns ``None`` when it
holds or a one-line message when it does not.  ``selftest.py`` feeds
every check a wrong answer and requires that it fails.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

XI0 = 3.0 ** -0.5 * math.exp(-math.pi * math.sqrt(3.0) / 6.0)
_THETA = 0.5 + 0.5j * math.sqrt(3.0)
_OMEGA = 0.5 + 1j * math.sqrt(3.0) / 6.0


def scale_root(C, alpha1, xi_s, n, tol=1e-14):
    """Root x_n of C e^{-x} x^{alpha1} = xi_s on sheet n, by Newton.

    Works on -x + alpha1 Log x + Log C - Log xi_s + 2 pi i n = 0 from the
    leading-order seed 2 pi i n + alpha1 Log(2 pi i n).
    """
    pin = 2j * math.pi * n
    shift = cmath.log(C) - cmath.log(xi_s) + pin
    x = pin + alpha1 * cmath.log(pin) + shift - pin
    for _ in range(60):
        step = (-x + alpha1 * cmath.log(x) + shift) / (-1.0 + alpha1 / x)
        x -= step
        if abs(step) <= tol * abs(x):
            break
    return x


def abel_xi_of_F(F):
    """Closed-form inverse xi = xi_0 F (F+Omega)^{-theta} (F+conj Omega)^{-conj theta}."""
    return XI0 * F * cmath.exp(-_THETA * cmath.log(F + _OMEGA)
                               - _THETA.conjugate() * cmath.log(F + _OMEGA.conjugate()))


def rational_taylor(num, den, K):
    """Taylor coefficients 0..K of num/den by long division (den[0] != 0)."""
    c = []
    for k in range(K + 1):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * c[k - j]
        c.append(acc / den[0])
    return np.array(c, dtype=complex)


def p1_level_taylor(m, K):
    """Observable level H_m of p1 (m = 0, 1, 2) from its rational closed form."""
    nums = {
        0: [0.0, 144.0],
        1: [0.0, 216.0, 210.0, 3.0, -1.0 / 60.0],
        2: [0.0, 1458.0, 5238.0, -99.0 / 8.0, -211.0 / 30.0, 13.0 / 288.0, 1.0 / 21600.0],
    }
    den = np.polynomial.polynomial.polypow([-12.0, 1.0], m + 2)
    return rational_taylor(nums[m], list(den), K)


def rel_coeff_dev(got, ref):
    """Worst per-coefficient relative deviation; zero references are judged
    against the largest reference coefficient."""
    got, ref = np.asarray(got, complex), np.asarray(ref, complex)
    scale = float(np.max(np.abs(ref)))
    den = np.where(ref != 0, np.abs(ref), scale)
    return float(np.max(np.abs(got - ref) / den))


def _fail(cond, message):
    return None if cond else message


# -- pole-survey: p1, C = 12, n = 8..20 ---------------------------------------


def _pairs(run):
    return {p["n"]: complex(*p["observed"]) for p in run["comparison"]["pairs"]}


def pole_matched(out):
    """Every n is matched, each pole within 0.15 of the benchmark's own root."""
    got, ns = _pairs(out["run"]), out["n"]
    if sorted(got) != list(ns):
        return f"matched n = {sorted(got)}, expected {list(ns)}"
    worst = max(abs(got[n] - scale_root(12.0, -0.5, 12.0, n)) for n in ns)
    return _fail(worst <= 0.15, f"max |Delta| {worst:.4g} (tol 0.15)")


def pole_local_model(out):
    obs = out["run"]["observations"]
    d_exp = max(abs(o["exponent"] + 2.0) for o in obs)
    d_amp = max(abs(complex(*o["amplitude"]) - 12.0) for o in obs)
    return _fail(len(obs) == len(out["n"]) and d_exp <= 0.05 and d_amp <= 0.5,
                 f"exponent off -2 by {d_exp:.3g} (tol 0.05), amplitude off 12 by {d_amp:.3g} (tol 0.5)")


def pole_roots(out):
    """Predicted roots equal the benchmark's own roots of 12 e^{-x} x^{-1/2} = 12."""
    worst = 0.0
    for en in out["run"]["predicted"]["entries"]:
        x = complex(*en["x_ref"])
        mine = scale_root(12.0, -0.5, 12.0, en["n"])
        resid = abs(12.0 * cmath.exp(-x) * x ** -0.5 - 12.0) / 12.0
        worst = max(worst, abs(x - mine), resid)
    return _fail(worst <= 1e-9, f"predicted roots off the scale equation by {worst:.3g} (tol 1e-9)")


def pole_xi_correction(out):
    """Observed poles sit on xi = 12 + 109/(10 x), not on xi = 12."""
    bad = []
    for n, x in sorted(_pairs(out["run"]).items()):
        xi = 12.0 * cmath.exp(-x) * x ** -0.5
        if not abs(xi - (12.0 + 10.9 / x)) < abs(xi - 12.0):
            bad.append(n)
    return _fail(not bad, f"poles n = {bad} are closer to xi = 12 than to 12 + 109/(10x)")


POLE_CHECKS = (pole_matched, pole_local_model, pole_roots, pole_xi_correction)


# -- branch-survey: abel, C = 1, n = 1..10, and continue_f0 --------------------


def branch_exponents(out):
    obs = out["run"]["observations"]
    dev = max(abs(o["exponent"] + 0.5) for o in obs)
    return _fail(len(obs) == len(out["n"]) and dev <= 0.02,
                 f"exponent off -1/2 by {dev:.3g} (tol 0.02)")


def branch_locations(out):
    """Each branch point lies near the benchmark's root of e^{-x} x^{1/5} = xi_0."""
    got = _pairs(out["run"])
    if sorted(got) != list(out["n"]):
        return f"matched n = {sorted(got)}, expected {list(out['n'])}"
    worst = max(abs(got[n] - scale_root(1.0, 0.2, XI0, n)) for n in out["n"])
    return _fail(worst <= 0.1, f"branch point off the xi = xi_0 root by {worst:.3g} (tol 0.1)")


def branch_loops(out):
    two, one = out["loop_defect"][2], out["loop_defect"][1]
    return _fail(two <= 1e-4 and one >= 1e-2,
                 f"loop defect after two circuits {two:.3g} (tol 1e-4), after one {one:.3g} (need >= 1e-2)")


def branch_polyline(out):
    xi_end, F = out["polyline"]
    err = abs(abel_xi_of_F(F) - xi_end)
    return _fail(err <= 1e-8 * max(1.0, abs(xi_end)),
                 f"continued F_0 maps back to xi off by {err:.3g} (tol 1e-8)")


BRANCH_CHECKS = (branch_exponents, branch_locations, branch_loops, branch_polyline)


# -- constant-ladder -----------------------------------------------------------


LADDER_TOL = 1e-3


def _ladder_error(C, got):
    return abs(got - C) / abs(C)


def known_ladder_missed(out):
    """Whether the known-failure ladder ran and missed the tolerance."""
    C, arg = out["known_failure"]
    return any(c == C and a == arg and _ladder_error(c, got) > LADDER_TOL
               for c, a, got in out["ladders"])


def ladder_constants(out):
    """Each recovered C within 1e-3 relative, bar the known failure."""
    known = out["known_failure"]
    bad = [(C, arg, _ladder_error(C, got)) for C, arg, got in out["ladders"]
           if (C, arg) != known and _ladder_error(C, got) > LADDER_TOL]
    return _fail(not bad, "recovered C off by more than 1e-3 relative at "
                 + ", ".join(f"C={C:.4g} arg x={arg:.3g} ({err:.3g})" for C, arg, err in bad))


LADDER_CHECKS = (ladder_constants,)


# -- hierarchy -----------------------------------------------------------------


def hier_p1_levels(out):
    e = out["builds"].get("p1 M=16 K=64")
    if e is None:
        return "p1 M=16 K=64 did not build"
    K = 14
    ref0 = np.array([k / 12.0 ** (k - 1) for k in range(K + 1)])
    dev = rel_coeff_dev(e.observable_series(0).coeffs[:K + 1], ref0)
    for m in (1, 2):
        dev = max(dev, rel_coeff_dev(e.observable_series(m).coeffs[:K + 1], p1_level_taylor(m, K)))
    return _fail(dev <= 1e-10, f"p1 levels 0..2 off their closed forms by {dev:.3g} (tol 1e-10)")


def hier_p2_profiles(out):
    worst = 0.0
    for key, e in out["builds"].items():
        if key.startswith("p2"):
            ref = out["p2_ref"][key[2]]
            worst = max(worst, rel_coeff_dev(e.observable_series(0).coeffs, ref[:e.K + 1]))
    return _fail(worst <= 1e-10, f"p2 leading profiles off p2_f0_taylor by {worst:.3g} (tol 1e-10)")


def hier_residuals(out):
    worst = 0.0
    for e in out["builds"].values():
        res = e.residual_coefficients()
        for m in range(e.M + 1):
            scale = max(1.0, float(np.max(np.abs(e.fm[m]))))
            worst = max(worst, float(np.max(np.abs(res[:, m, :]))) / scale)
    return _fail(worst <= 1e-10, f"residual rows 0..M reach {worst:.3g} of the level scale (tol 1e-10)")


def hier_radii(out):
    """Radius of F_0 against the closed-form nearest singularity."""
    expect = {"p1": 12.0, "p2a": 3.0, "p2b": math.sqrt(2.0), "abel": XI0}
    bad = []
    for key, (radius, exponent) in out["radii"].items():
        r_ref = expect[key.split()[0]]
        if abs(radius - r_ref) > 1e-3 * max(r_ref, 1.0):
            bad.append(f"{key} radius {radius:.6g} vs {r_ref:.6g}")
        if key.startswith("abel") and abs(exponent + 0.5) > 0.05:
            bad.append(f"{key} exponent {exponent:.4g} vs -1/2")
    return _fail(not bad, "; ".join(bad))


def circle_sup(coeffs, rho, n_points=4096):
    """Sup of |sum c_k z^k| over n_points equally spaced on |z| = rho."""
    z = rho * np.exp(2j * np.pi * np.arange(n_points) / n_points)
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(z, coeffs))))


def hier_envelopes(out):
    """Each level's sup on |xi| = rho, computed here on a circle 16 times
    finer than the fit's, matches the fit's sup norm to 1e-3 and lies under
    the envelope K_g m! B_g^m to 1e-3; the tail fit keeps r^2 >= 0.7."""
    bad = []
    for key, fit in out["fits"].items():
        e = out["builds"][key]
        if not (math.isfinite(fit.B_g) and fit.B_g > 0 and fit.r_squared >= 0.7):
            bad.append(f"{key} B_g {fit.B_g:.4g} r^2 {fit.r_squared:.4g}")
            continue
        for m in range(e.M + 1):
            sup = circle_sup(e.observable_series(m).coeffs, fit.rho)
            if abs(sup - fit.sup_norms[m]) > 1e-3 * sup or sup > fit.envelope(m) * (1.0 + 1e-3):
                bad.append(f"{key} level {m}: sup {sup:.6g}, fit's {fit.sup_norms[m]:.6g}, "
                           f"envelope {fit.envelope(m):.6g}")
                break
    return _fail(not bad, "Gevrey envelope broken: " + "; ".join(bad))


def hier_failures(out):
    extra = sorted(set(out["failed"]) - {out["known_failure"]})
    return _fail(not extra, f"builds failed besides the known one: {extra}")


HIERARCHY_CHECKS = (hier_p1_levels, hier_p2_profiles, hier_residuals, hier_radii,
                    hier_envelopes, hier_failures)


def run_checks(checks, out):
    """Messages of the checks that fail on ``out``."""
    return [f"{fn.__name__}: {msg}" for fn in checks if (msg := fn(out)) is not None]
