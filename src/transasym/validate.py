"""Ground truth by complex-plane integration.

Adaptive integration of a normalized system along polyline paths in the
x plane, location of the singularities the solution blows up at,
extraction of the transseries constant C from far-field samples, and
minimal-distance matching of predicted pole arrays against observed ones.

Conventions.  A path is a sequence of waypoints joined by straight legs;
the integrator is an embedded Runge-Kutta pair (scipy's RK45) driven at
the requested tolerances per leg.  A validation run seeds each hunt with
the two-scale expansion on the level curve |xi(x)| = ``anchor_xi`` at the
height of its predicted pole, so every approach leg has about the same
length whatever the pole's index.  Blow-up ends a run with
``StepUnderflow``; the partial trajectory is attached to the exception as
``err.trajectory`` and is the input the detector works from.  The point
stored in ``StepUnderflow.where`` marks where integration stopped, not
the singularity itself; ``detect_singularity`` recovers the latter.

One estimate locates every singularity, whatever its kind.  Where
h ~ A (x - x*)^p, the log-derivative h'/h of the observable, with h'
read from the field, gives x* = x - p h/h' up to terms of second order
in x - x*; p is the exponent of the system's ``blowup_model`` (-2, a
double pole, when it declares none).  The homing legs of
``hunt_singularity`` aim at this estimate, and ``detect_singularity``
extrapolates it over the diverging tail to the singularity, without a
second integration.

Integration, detection and the extraction of C run in complex128.  An
extended-precision expansion only seeds them: its values are cast to
double at the start of each path.
"""

from __future__ import annotations

import cmath
import csv
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, linear_sum_assignment

from .errors import NoBlowup, NotConverging, StepUnderflow
from .expansion import (
    TwoScaleExpansion,
    build_expansion,
    eval_two_scale,
    formal_power_series,
)
from .singular import SingularityArray, predict_array
from .systems import NormalSystem

__all__ = [
    "PathSpec",
    "Trajectory",
    "PoleObservation",
    "CEstimate",
    "ComparisonReport",
    "ValidationRun",
    "integrate_path",
    "detect_singularity",
    "hunt_singularity",
    "extract_C",
    "extraction_ladder",
    "ladder_radii",
    "compare_arrays",
    "anchor_point",
    "run_validation",
]

# Fitted blow-up exponents are matched against these nominals; anything
# farther than 0.35 from both is reported as unknown_blowup.
_NOMINAL_EXPONENTS = {"double_pole": -2.0, "branch_neg_half": -0.5}
_CLASSIFY_WINDOW = 0.35

_log = logging.getLogger("transasym")


@dataclass(frozen=True)
class PathSpec:
    """Polyline integration request: waypoints plus step control.

    Consecutive waypoints must be distinct; revisiting an earlier point
    later in the path is allowed (loops).  ``max_step`` bounds the step
    in x-plane distance, not in the internal leg parameter.
    """

    waypoints: tuple
    max_step: float = math.inf
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        pts = tuple(complex(w) for w in self.waypoints)
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        if not (self.max_step > 0 and self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("step bound and tolerances must be positive")
        object.__setattr__(self, "waypoints", pts)

    @property
    def length(self) -> float:
        return sum(abs(b - a) for a, b in zip(self.waypoints, self.waypoints[1:]))


class Trajectory:
    """Accepted integration samples along a path.

    ``x`` has shape (N,), ``y`` shape (n, N).  Consecutive samples are
    accepted steps of the embedded pair, so each carries a local error
    estimate within the requested tolerances.  When built with dense
    output the trajectory interpolates: ``eval(x)`` works for any x on
    one of the legs actually covered.
    """

    def __init__(self, x, y, *, legs=None, stats=None):
        self.x = np.asarray(x)
        self.y = np.asarray(y)
        if self.y.shape[1] != self.x.shape[0]:
            raise ValueError("sample count mismatch between x and y")
        self._legs = list(legs or [])
        self.stats = dict(stats or {})

    @property
    def dense(self) -> bool:
        return bool(self._legs)

    def observable(self, s: NormalSystem) -> np.ndarray:
        return np.asarray(s.observable_value(self.y.T))

    def eval(self, x) -> np.ndarray:
        """Dense-output state at a point on the covered path."""
        x = complex(x)
        for a, delta, sol in self._legs:
            t = (x - a) / delta
            if abs(t.imag) <= 1e-9 * (1.0 + abs(t)) and -1e-12 <= t.real <= 1.0 + 1e-12:
                return sol(min(max(t.real, 0.0), 1.0))
        raise ValueError(f"x = {x:.6g} is not on the integrated path")

    def to_csv(self, path) -> None:
        """Write samples as x_re,x_im,y1_re,y1_im,...  (one row per step)."""
        n = self.y.shape[0]
        header = ["x_re", "x_im"]
        for j in range(n):
            header += [f"y{j + 1}_re", f"y{j + 1}_im"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for k in range(self.x.shape[0]):
                row = [self.x[k].real, self.x[k].imag]
                for j in range(n):
                    row += [self.y[j, k].real, self.y[j, k].imag]
                w.writerow(row)


def integrate_path(
    s: NormalSystem,
    y_init,
    path: PathSpec,
    *,
    escape: float = 1e8,
    dense: bool = False,
) -> Trajectory:
    """Integrate y' = f(x, y) along the polyline of ``path``.

    Returns the full trajectory if every leg completes.  If the state
    norm crosses ``escape``, or the step size collapses (both signal a
    nearby singularity), raises ``StepUnderflow`` with the stop location
    in ``.where`` and the partial trajectory attached as ``.trajectory``.
    """
    y = np.asarray(y_init, dtype=complex)
    if y.shape != (s.n,):
        raise ValueError(f"initial state must have shape ({s.n},)")
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    legs = []
    nfev = 0

    def _partial(stats_extra):
        stats = {"n_steps": sum(len(a) for a in xs), "n_rhs": nfev, **stats_extra}
        return Trajectory(
            np.concatenate(xs) if xs else np.empty(0, complex),
            np.concatenate(ys, axis=1) if ys else np.empty((s.n, 0), complex),
            legs=legs if dense else None,
            stats=stats,
        )

    def _stop(where, reason):
        err = StepUnderflow(where, f"{reason} near x = {complex(where):.8g}")
        err.trajectory = _partial({"stopped": reason})
        raise err

    for i, (a, b) in enumerate(zip(path.waypoints, path.waypoints[1:])):
        delta = b - a
        if np.max(np.abs(y)) >= escape:
            _stop(a, "state escaped")

        def rhs(t, v, a=a, delta=delta):
            return delta * s.field(a + t * delta, v)

        def hit_escape(t, v):
            return float(np.max(np.abs(v))) - escape

        hit_escape.terminal = True
        sol = solve_ivp(
            rhs,
            (0.0, 1.0),
            y,
            method="RK45",
            rtol=path.rel_tol,
            atol=path.abs_tol,
            max_step=path.max_step / abs(delta),
            dense_output=dense,
            events=hit_escape,
        )
        nfev += sol.nfev
        skip = 1 if i > 0 else 0  # leg start duplicates previous leg end
        xs.append(a + sol.t[skip:] * delta)
        ys.append(sol.y[:, skip:])
        if dense:
            legs.append((a, delta, sol.sol))
        if sol.status == 1:
            t_e = sol.t_events[0][0]
            xs.append(np.array([a + t_e * delta]))
            ys.append(sol.y_events[0].T.astype(complex))
            _stop(a + t_e * delta, "state escaped")
        if sol.status != 0:
            _stop(a + sol.t[-1] * delta, "step size underflow")
        y = sol.y[:, -1]

    return _partial({"stopped": "completed"})


# -- blow-up detection --------------------------------------------------------


@dataclass(frozen=True)
class PoleObservation:
    """A located singularity with its fitted local model.

    ``local_fit`` is (amplitude, exponent, fit_residual): the strength
    and power of the fitted blow-up h ~ amplitude * (x - location)^exponent
    and the rms residual of the log-log regression behind the exponent.
    ``exponent_deviation`` is the distance from the fitted exponent to
    the nominal one of the reported kind; it is recorded, never rounded
    away.
    """

    location: complex
    kind: str
    local_fit: tuple
    exponent_deviation: float

    def to_dict(self) -> dict:
        amp, expo, resid = self.local_fit
        return {
            "location": [self.location.real, self.location.imag],
            "kind": self.kind,
            "amplitude": [complex(amp).real, complex(amp).imag],
            "exponent": float(expo),
            "fit_residual": float(resid),
            "exponent_deviation": float(self.exponent_deviation),
        }


def _blowup_tail(s, traj, threshold):
    """Indices of the contiguous run with |h| >= threshold ending the path."""
    h = traj.observable(s)
    mag = np.abs(h)
    if mag.size == 0 or np.nanmax(mag) < threshold:
        raise NoBlowup(f"observable stays below threshold {threshold:g}")
    below = np.flatnonzero(~(mag >= threshold))
    start = 0 if below.size == 0 else below[-1] + 1
    tail = np.arange(start, mag.size)
    if tail.size < 8:
        raise NoBlowup("fewer than 8 samples past the blow-up threshold")
    return traj.x[tail], h[tail], tail


def _loglog_exponent(xs, hs, x0):
    """Slope of log|h| against log|x - x0| over the last decade of approach.

    Distances below ~1e4 ulp of the location are skipped: there the
    sample grid itself is roundoff and would flatten the slope.
    """
    d = np.abs(xs - x0)
    floor = 1e4 * np.finfo(float).eps * max(1.0, abs(x0))
    keep = d > floor
    if np.count_nonzero(keep) < 4:
        keep = d > 0
    d, hv = d[keep], np.abs(hs[keep])
    sel = d <= 10.0 * d.min() * (1.0 + 1e-12)
    if np.count_nonzero(sel) < 4:
        order = np.argsort(d)
        sel = np.zeros(d.size, bool)
        sel[order[: min(8, d.size)]] = True
    u, v = np.log(d[sel]), np.log(hv[sel])
    slope, intercept = np.polyfit(u, v, 1)
    resid = float(np.sqrt(np.mean((v - slope * u - intercept) ** 2)))
    return float(slope), resid, sel, keep


def _classify(exponent):
    kind = min(_NOMINAL_EXPONENTS, key=lambda k: abs(exponent - _NOMINAL_EXPONENTS[k]))
    deviation = abs(exponent - _NOMINAL_EXPONENTS[kind])
    if deviation > _CLASSIFY_WINDOW:
        return "unknown_blowup", deviation
    return kind, deviation


def _finish(xs, hs, x0):
    exponent, resid, sel, keep = _loglog_exponent(xs, hs, x0)
    kind, deviation = _classify(exponent)
    p_amp = _NOMINAL_EXPONENTS.get(kind, exponent)
    dx = (xs[keep][sel] - x0).astype(complex)
    amps = hs[keep][sel] * dx ** (-p_amp)
    coef = np.polynomial.polynomial.polyfit(dx, amps, 1)
    amplitude = complex(coef[0])
    return PoleObservation(
        location=complex(x0),
        kind=kind,
        local_fit=(amplitude, exponent, resid),
        exponent_deviation=deviation,
    )


def _log_derivative(s, x, y) -> complex:
    """h'/h of the observable at the state y at x, with h' from the field.

    Near a blow-up h ~ A (x - x*)^p it equals p / (x - x*), so
    x - p h/h' estimates x*.
    """
    return s.observable_value(s.field(x, y)) / s.observable_value(y)


def detect_singularity(
    s: NormalSystem,
    approach: Trajectory,
    *,
    threshold: float = 1e4,
) -> PoleObservation:
    """Locate the singularity a diverging trajectory tail runs into.

    Every tail sample gives the estimate x - t with t = p h/h', h' taken
    from the field and p the exponent of ``s.blowup_model`` (-2 when it
    declares none); the estimates are extrapolated to t -> 0 by least
    squares on [1, t^2, t^3].  No second integration is made.  The
    reported kind comes from the exponent fitted at that location, so a
    system whose data disagree with its declared exponent is reported as
    seen, with the deviation on record.
    """
    xs, hs, tail = _blowup_tail(s, approach, threshold)
    p = float(s.blowup_model.get("exponent", -2.0))
    ys = approach.y[:, tail].T
    t = np.array([p / _log_derivative(s, x, y) for x, y in zip(xs, ys)])
    V = np.column_stack([np.ones_like(t), t * t, t * t * t])
    coef, *_ = np.linalg.lstsq(V, xs - t, rcond=None)
    return _finish(xs, hs, complex(coef[0]))


def hunt_singularity(
    s: NormalSystem,
    x_start,
    y_start,
    target,
    *,
    via: Sequence = (),
    staging: float = 0.35,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    escape: float = 1e8,
    threshold: float = 1e4,
    max_legs: int = 20,
    csv_path=None,
) -> PoleObservation:
    """Integrate from a trusted state into a suspected pole and locate it.

    The path runs through ``via`` to a staging point ``staging`` away
    from ``target``.  From there the hunt homes in: the log-derivative
    h'/h of the observable, with h' from the field, gives the pole
    estimate x* = x - p h/h' with p the exponent of ``s.blowup_model``
    (-2 when it declares none), and successive legs aim at it with
    shrinking stand-off until the blow-up ends integration.  The
    diverging leg is what ``detect_singularity`` sees; it applies the
    same estimate to every sample of the tail and integrates no further.
    Aiming straight at the prediction is not enough: the true pole sits
    a little off it, and a leg that merely passes by can stay below the
    escape norm.  A ``target`` equal to ``x_start``, or to the last
    ``via`` point, raises ``ValueError``.

    Each hunt logs one DEBUG record to the ``transasym`` logger, whose
    ``hunt`` attribute holds the start point, the approach length, the
    number of integrated legs and their summed right-hand-side calls.
    """
    x_start, target = complex(x_start), complex(target)
    prev = complex(via[-1]) if via else x_start
    if prev == target:
        where = "the last via point" if via else "x_start"
        raise ValueError(f"target {target:.6g} coincides with {where}")
    u = (prev - target) / abs(prev - target)
    stage = target + staging * u
    pts = [x_start, *map(complex, via), stage]
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    p_nom = float(s.blowup_model.get("exponent", -2.0))

    parts_x, parts_y = [], []
    tally = {"legs": 0, "n_rhs": 0}

    def _absorb(tr):
        tally["legs"] += 1
        tally["n_rhs"] += tr.stats.get("n_rhs", 0)
        if tr.x.size:
            skip = 0
            if parts_x and tr.x[0] == parts_x[-1][-1]:
                skip = 1
            parts_x.append(tr.x[skip:])
            parts_y.append(tr.y[:, skip:])

    def _detect():
        approach = Trajectory(np.concatenate(parts_x), np.concatenate(parts_y, axis=1))
        if csv_path is not None:
            approach.to_csv(csv_path)
        return detect_singularity(s, approach, threshold=threshold)

    x, y = x_start, np.asarray(y_start, dtype=complex)
    stopped = False
    try:
        if len(pts) >= 2:
            traj = integrate_path(
                s, y, PathSpec(tuple(pts), rel_tol=rel_tol, abs_tol=abs_tol),
                escape=escape,
            )
            _absorb(traj)
            x, y = pts[-1], traj.y[:, -1]
        for _ in range(max_legs):
            try:
                x_star = x - p_nom / _log_derivative(s, x, y)
            except ZeroDivisionError:  # h or h' vanishes: nothing to aim at
                break
            r = abs(x - x_star)
            if r == 0:
                break
            if r < 0.02:
                tgt = x_star  # collision course; blow-up ends the leg
            else:
                tgt = x_star + 0.3 * (x - x_star)  # contract the stand-off
            if tgt == x:
                break
            traj = integrate_path(
                s, y, PathSpec((x, tgt), rel_tol=rel_tol, abs_tol=abs_tol),
                escape=escape,
            )
            _absorb(traj)
            x, y = tgt, traj.y[:, -1]
    except StepUnderflow as err:
        _absorb(err.trajectory)
        stopped = True
    approach = sum(abs(b - a) for a, b in zip(pts, pts[1:]))
    _log.debug(
        "hunt from %s toward %s: approach %.4g, %d legs, %d rhs",
        x_start, target, approach, tally["legs"], tally["n_rhs"],
        extra={"hunt": {"start": x_start, "approach_length": approach, **tally}},
    )
    if stopped:
        return _detect()
    # a weak blow-up (branch point) can pin the homing to the singularity
    # without ever underflowing a step; the collected legs are the approach
    if parts_x and np.max(np.abs(Trajectory(
            np.concatenate(parts_x), np.concatenate(parts_y, axis=1)
            ).observable(s))) >= threshold:
        return _detect()
    raise NoBlowup(f"no blow-up on the way to {target:.6g}")


# -- extraction of C ----------------------------------------------------------


@dataclass(frozen=True)
class CEstimate:
    """Stabilized beyond-all-orders constant with its uncertainty.

    ``ladder`` holds the raw per-sample estimates the extrapolation was
    built from, innermost sample first.
    """

    value: complex
    uncertainty: float
    ladder: tuple

    def __complex__(self) -> complex:
        return self.value

    def consistent_with(self, other: "CEstimate") -> bool:
        return abs(self.value - other.value) <= self.uncertainty + other.uncertainty

    def to_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "uncertainty": float(self.uncertainty),
            "ladder": [[c.real, c.imag] for c in self.ladder],
        }


def _neville_diagonal(u, v):
    """Neville table diagonal for extrapolating v(u) to u = 0.

    Entry k is the depth-k estimate built from the last k+1 nodes (the
    smallest u when u decreases along the input).
    """
    t = [complex(x) for x in v]
    diag = [t[-1]]
    for lev in range(1, len(t)):
        for j in range(len(t) - 1, lev - 1, -1):
            t[j] = t[j] + (t[j] - t[j - 1]) * u[j] / (u[j - lev] - u[j])
        diag.append(t[-1])
    return diag


def extract_C(
    s: NormalSystem,
    e: TwoScaleExpansion,
    samples: Iterable,
    *,
    atol: float = 1e-8,
) -> CEstimate:
    """Recover C from solution samples on a ray in the transseries sector.

    Each sample is a pair (x, y).  The formal series is truncated at
    k <= floor(|x|) per sample (the floor rule; the ladder spread shows
    its sensitivity), the residue is divided by e^{-x} x^{alpha_1}, and
    the resulting per-sample estimates are extrapolated to |x| = inf.
    Raises ``NotConverging`` when the extrapolation steps stay larger
    than max(0.1 |value|, atol).
    """
    pts = sorted(
        ((complex(x), np.atleast_1d(np.asarray(y, dtype=complex))) for x, y in samples),
        key=lambda p: abs(p[0]),
    )
    if len(pts) < 4:
        raise ValueError("need at least 4 samples to stabilize C")
    r_top = int(math.floor(abs(pts[-1][0])))
    tilde = formal_power_series(s, max(r_top, 2))[0]
    alpha1 = complex(s.alpha[0])
    raw = []
    for x, y in pts:
        part = tilde.evaluate(x, r_max=int(math.floor(abs(x))))
        scale = cmath.exp(-x + alpha1 * cmath.log(x))
        raw.append((complex(y[0]) - part) / scale)
    # extrapolate over at most 5 rungs spread across the ladder; the
    # per-rung error has a smooth non-polynomial floor (the next
    # transseries level), so walk the diagonal and stop where the steps
    # bottom out instead of always taking the deepest entry
    m = min(5, len(raw))
    picks = np.unique(np.linspace(0, len(raw) - 1, m).round().astype(int))
    u = [1.0 / abs(pts[i][0]) for i in picks]
    diag = _neville_diagonal(u, [raw[i] for i in picks])
    steps = [abs(b - a) for a, b in zip(diag, diag[1:])]
    k = int(np.argmin(steps)) + 1
    value = diag[k]
    uncertainty = steps[k - 1]
    if uncertainty > max(0.1 * abs(value), atol):
        raise NotConverging(
            f"C ladder step {uncertainty:.3g} exceeds tolerance at |C| = {abs(value):.3g}"
        )
    return CEstimate(complex(value), float(uncertainty), tuple(raw))


def ladder_radii(e: TwoScaleExpansion, arg: float, *, count: int = 8, span: float = 7.0):
    """Rung radii centered on the least-term radius of the level hierarchy.

    The truncated hierarchy's error is of order Gamma(M+2) x^{-(M+1)},
    which relative to the signal scale e^{-x} x^{alpha_1} is smallest
    near r* = (M+1)/cos(arg); rungs far outside that window pay an
    e^{(r - r*) cos(arg)} contamination penalty.
    """
    r_star = (e.M + 1) / math.cos(arg)
    lo = max(r_star - span, 2.0)
    return np.linspace(lo, lo + 2.0 * span, count)


def extraction_ladder(
    s: NormalSystem,
    e: TwoScaleExpansion,
    C,
    arg: float,
    radii,
    *,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-14,
    atol: float = 1e-8,
) -> CEstimate:
    """Seed at the outermost radius and integrate inward, sampling each rung.

    Inward is the stable direction: eigenmodes that decay as Re x grows
    would turn outward integration error into e^{+x} contamination of
    the exponentially small residue, while inward they die off and the
    C-carrying mode grows along with the signal.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 4:
        raise ValueError("need at least 4 ladder radii")
    direction = cmath.exp(1j * arg)
    x = radii[0] * direction
    y, _ = eval_two_scale(e, C, x)
    collected = [(x, y)]
    for r_next in radii[1:]:
        x_next = r_next * direction
        traj = integrate_path(
            s, y, PathSpec((x, x_next), rel_tol=rel_tol, abs_tol=abs_tol)
        )
        x, y = x_next, traj.y[:, -1]
        collected.append((x, y))
    return extract_C(s, e, collected, atol=atol)


# -- array comparison ---------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Predicted-vs-observed pole arrays after minimal-distance matching.

    ``pairs`` holds (n, x_predicted, x_observed, distance) per match;
    predictions and observations left over appear in the unmatched
    tuples.  ``stats`` reports max and median distance and the slope of
    distance against n.
    """

    pairs: tuple
    unmatched_predictions: tuple
    unmatched_observations: tuple
    stats: Mapping

    @property
    def all_matched(self) -> bool:
        return not self.unmatched_predictions and not self.unmatched_observations

    def distances_nonincreasing(self, slack: float = 0.0) -> bool:
        d = [p[3] for p in sorted(self.pairs, key=lambda p: abs(p[0]))]
        return all(b <= a + slack for a, b in zip(d, d[1:]))

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "n": n,
                    "predicted": [xp.real, xp.imag],
                    "observed": [xo.real, xo.imag],
                    "distance": d,
                }
                for n, xp, xo, d in self.pairs
            ],
            "unmatched_predictions": [
                {"n": n, "predicted": [xp.real, xp.imag]}
                for n, xp in self.unmatched_predictions
            ],
            "unmatched_observations": [
                [xo.real, xo.imag] for xo in self.unmatched_observations
            ],
            "stats": dict(self.stats),
        }


def compare_arrays(
    predicted: SingularityArray,
    observed: Sequence,
    *,
    capture: float = 1.0,
) -> ComparisonReport:
    """Match predicted positions to observed ones within a capture radius.

    ``observed`` may hold PoleObservations or bare complex locations.
    Matching minimizes total distance (rectangular assignment); any pair
    farther apart than ``capture`` is dissolved into unmatched entries.
    """
    preds = [(en.n, en.x_ref if en.x_ref is not None else en.x_asym) for en in predicted.entries]
    locs = [
        complex(o.location) if isinstance(o, PoleObservation) else complex(o)
        for o in observed
    ]
    pairs = []
    used_p, used_o = set(), set()
    if preds and locs:
        cost = np.array([[abs(xp - xo) for xo in locs] for _, xp in preds])
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if cost[i, j] <= capture:
                n, xp = preds[i]
                pairs.append((n, complex(xp), locs[j], float(cost[i, j])))
                used_p.add(i)
                used_o.add(j)
    pairs.sort(key=lambda p: abs(p[0]))
    dists = [p[3] for p in pairs]
    if len(pairs) >= 3:
        slope = float(np.polyfit([p[0] for p in pairs], dists, 1)[0])
    else:
        slope = 0.0
    stats = {
        "n_pairs": len(pairs),
        "max_distance": float(max(dists)) if dists else math.nan,
        "median_distance": float(np.median(dists)) if dists else math.nan,
        "distance_slope": slope,
    }
    return ComparisonReport(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(
            (n, complex(xp)) for i, (n, xp) in enumerate(preds) if i not in used_p
        ),
        unmatched_observations=tuple(
            loc for j, loc in enumerate(locs) if j not in used_o
        ),
        stats=stats,
    )


# -- end-to-end orchestration -------------------------------------------------


def _on_level(s: NormalSystem, C, xi_abs: float, line, lo: float, hi: float):
    """The point ``line(t)``, lo < t < hi, where |xi(x)| equals ``xi_abs``.

    log|xi| = log|C| - Re x + Re(alpha_1 log x), so Im alpha_1 enters
    through arg x.
    """
    alpha1 = complex(s.alpha[0])
    level = math.log(abs(complex(C)) / xi_abs)

    def f(t):
        x = line(t)
        return level - x.real + (alpha1 * cmath.log(x)).real

    return line(brentq(f, lo, hi, xtol=1e-14))


def anchor_point(s: NormalSystem, C, arg: float, xi_abs: float = 1e-3):
    """Point on the ray arg(x) = arg where |xi| equals ``xi_abs``."""
    if complex(C) == 0:
        raise ValueError("C = 0 has no singularity scale to anchor to")
    if math.cos(arg) <= 0:
        raise ValueError("anchor ray must point into the decaying half-plane")
    direction = cmath.exp(1j * arg)
    return _on_level(s, C, xi_abs, lambda r: r * direction, 1.0, 1e4)


@dataclass(frozen=True)
class ValidationRun:
    """Everything one validation pass produced."""

    system: str
    C: complex
    anchor: complex
    predicted: SingularityArray
    observations: tuple
    report: ComparisonReport
    extraction: CEstimate | None = None

    def to_dict(self) -> dict:
        d = {
            "system": self.system,
            "C": [self.C.real, self.C.imag],
            "anchor": [self.anchor.real, self.anchor.imag],
            "predicted": self.predicted.to_dict(),
            "observations": [o.to_dict() for o in self.observations],
            "comparison": self.report.to_dict(),
        }
        if self.extraction is not None:
            d["C_extracted"] = self.extraction.to_dict()
        return d


def run_validation(
    s: NormalSystem,
    e: TwoScaleExpansion,
    C,
    n_range,
    *,
    anchor_arg: float = 1.2,
    anchor_xi: float = 1e-3,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    capture: float = 1.0,
    extract: bool = False,
    deep_M: int = 12,
    csv_dir=None,
) -> ValidationRun:
    """Predict a pole array, hunt each pole by integration, and compare.

    The anchor x_a is the point of the ray arg x = ``anchor_arg`` where
    |xi| = ``anchor_xi``, far from every pole.  The hunt for a pole above
    x_a starts on the same level curve |xi| = ``anchor_xi`` at the height
    of the refined predicted location and aims straight at it, from a
    fresh two-scale seed there; poles no higher than x_a are hunted from
    x_a itself, since the level curve below it comes closer to the origin,
    where the seed is less accurate.  With ``extract`` set, a radius
    ladder on the anchor ray re-measures C from the integrated solution,
    seeding from a level-``deep_M`` expansion (deepened on demand, in the
    precision of ``e``).  The run is labelled with ``s.label``.
    """
    if s.xi_s_hint is None:
        raise ValueError("system carries no xi_s hint to predict an array from")
    C = complex(C)
    x_a = anchor_point(s, C, anchor_arg, anchor_xi)
    y_a, _ = eval_two_scale(e, C, x_a)
    predicted = predict_array(s.xi_s_hint, C, s.alpha[0], n_range)
    observations = []
    for en in predicted.entries:
        if en.x_ref is None:
            continue
        x0, y0 = x_a, y_a
        height = en.x_ref.imag
        if height > x_a.imag:
            x0 = _on_level(s, C, anchor_xi, lambda u: complex(u, height), -1e4, 1e4)
            y0, _ = eval_two_scale(e, C, x0)
        csv_path = None
        if csv_dir is not None:
            csv_path = f"{csv_dir}/pole_n{en.n}.csv"
        obs = hunt_singularity(
            s,
            x0,
            y0,
            en.x_ref,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            csv_path=csv_path,
        )
        observations.append(obs)
    report = compare_arrays(predicted, observations, capture=capture)
    extraction = None
    if extract:
        # the seed floor scales like cos(arg)^{M+1}; hunting depth is not
        # enough for a 1e-3 constant measurement, so deepen if needed
        e_x = e if e.M >= deep_M else build_expansion(s, deep_M, e.K, dtype=e.fm[0].dtype)
        extraction = extraction_ladder(
            s, e_x, C, anchor_arg, ladder_radii(e_x, anchor_arg)
        )
    return ValidationRun(
        system=s.label,
        C=C,
        anchor=x_a,
        predicted=predicted,
        observations=tuple(observations),
        report=report,
        extraction=extraction,
    )
