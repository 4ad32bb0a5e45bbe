"""Ground truth by complex-plane continuation.

Walks of a normalized system along polyline paths in the x plane,
location of the singularities the solution blows up at, extraction of
the transseries constant C from far-field samples, and minimal-distance
matching of predicted pole arrays against observed ones.

Hunts and C ladders walk with Taylor jets of the solution in x, computed
by the running-product recursion of the two-scale hierarchy (Corliss and
Chang); ``continue_f0`` walks F_0 in xi the same way.  The walk sums
each jet inside half its own radius of convergence and lands exactly on
each waypoint; a jet whose radius falls below 1e-3 of the distance left
to its waypoint stops it with ``SingularApproach``.  A validation run
seeds each hunt with the two-scale expansion on the level curve |xi(x)| =
``anchor_xi`` at the height of its predicted pole, so every walk has
about the same length whatever the pole's index; the homing reads
location, exponent and amplitude of the nearest singularity from a jet
by Domb-Sykes ratio analysis (``radius_estimate``).  No system declares
its kind of blow-up.  A C ladder walks its ray inward through every rung.

``integrate_path`` is the reference integrator: an embedded Runge-Kutta
pair (scipy's RK45) at the requested tolerances per leg.  Blow-up ends
it with ``StepUnderflow``; the partial trajectory is attached to the
exception as ``err.trajectory``.

Integration, jets, detection and the extraction of C run in complex128.
An extended-precision expansion only seeds them: its values are cast to
double at the start of each path or walk.
"""

from __future__ import annotations

import cmath
import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, linear_sum_assignment

from .errors import (InsufficientCoefficients, NoBlowup, NotConverging,
                     OscillatoryCoefficients, SingularApproach, StepUnderflow)
from .expansion import (
    TwoScaleExpansion,
    _x_jet,
    build_expansion,
    eval_two_scale,
    formal_power_series,
)
from .singular import SingularityArray, _neville_diagonal, predict_array, radius_estimate
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

# Read blow-up exponents are matched against these nominals; anything
# farther than 0.35 from all of them is reported as unknown_blowup.
_NOMINAL_EXPONENTS = {"simple_pole": -1.0, "double_pole": -2.0, "branch_neg_half": -0.5}
_CLASSIFY_WINDOW = 0.35
_ORDER = 40  # of every Taylor jet
_JET_BUDGET = 100  # jets one hunt or one ladder may compute
_STAGING = 0.35  # how far short of its target a walk hands over to homing
_EPS = 1e-16  # truncation a walk step allows, relative to the state
_STOP = 1e-3  # jet radius, relative to the distance left, at which a walk stops

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
        header = ["x", *(f"y{j + 1}" for j in range(self.y.shape[0]))]
        cols = [self.x, *self.y]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"{c}_{part}" for c in header for part in ("re", "im")])
            w.writerows([v for c in cols for v in (c[k].real, c[k].imag)]
                         for k in range(self.x.shape[0]))


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
    """A located singularity with its local model.

    ``local_fit`` is (amplitude, exponent, spread): the blow-up
    h ~ amplitude * (x - location)^exponent read from the solution's
    Taylor jet, and the distance between the last two location estimates
    of the hunt that found it (0 for a single read).  ``exponent_deviation``
    is the distance from the read exponent to the nominal one of the
    reported kind; it is recorded, never rounded away.
    """

    location: complex
    kind: str
    local_fit: tuple
    exponent_deviation: float

    def to_dict(self) -> dict:
        amp, expo, spread = self.local_fit
        return {
            "location": [self.location.real, self.location.imag],
            "kind": self.kind,
            "amplitude": [complex(amp).real, complex(amp).imag],
            "exponent": float(expo),
            "fit_residual": float(spread),
            "exponent_deviation": float(self.exponent_deviation),
        }


def _jet(s: NormalSystem, jet, x: complex, y, rho: float):
    """Jet of the solution through (x, y), scaled to its own radius.

    ``jet`` is the kernel, :func:`~transasym.expansion._x_jet` or
    :func:`~transasym.expansion._xi_jet`.  Returns (a, rho, exact) with
    a[:, k] = [t^k] y(x + rho t) and rho the radius read from the tail:
    the slope of log max_j |a_jk| over the upper half of the orders, so
    that the nearest singularity sits near |t| = 1.  A trial scale far
    off is replaced before the exact rescaling, keeping the coefficients
    in range.  A jet with fewer than two nonzero coefficients in that
    half terminates: it is returned exact, at the trial scale.
    """
    k = np.arange(_ORDER + 1)
    for _ in range(4):
        a = jet(s, x, y, rho, _ORDER)
        mag = np.max(np.abs(a), axis=0)
        keep = (k >= _ORDER // 2) & (mag > 0)
        if np.count_nonzero(keep) < 2:
            return a, rho, True
        r = math.exp(-np.polyfit(k[keep], np.log(mag[keep]), 1)[0])
        if 0.1 < r < 10.0:
            break
        rho *= r
    return a * r ** k, rho * r, False


def _read(s: NormalSystem, x: complex, a: np.ndarray, rho: float, exact: bool) -> PoleObservation:
    """The singularity dominating a jet scaled to its radius, with spread 0."""
    if exact:
        raise NoBlowup(f"the jet at x = {x:.8g} terminates")
    h = s.observable @ a
    try:
        est = radius_estimate(h)
    except (InsufficientCoefficients, OscillatoryCoefficients) as err:
        raise NoBlowup(f"no single singularity resolved from x = {x:.8g}: {err}") from err
    t_s = est.xi_s
    if abs(t_s) > 2.0:
        raise NoBlowup(f"no singularity within two jet radii of x = {x:.8g}")
    p = est.exponent
    kind = min(_NOMINAL_EXPONENTS, key=lambda k: abs(p - _NOMINAL_EXPONENTS[k]))
    deviation = abs(p - _NOMINAL_EXPONENTS[kind])
    if deviation > _CLASSIFY_WINDOW:
        kind = "unknown_blowup"
    p = _NOMINAL_EXPONENTS.get(kind, p)
    # top coefficient against h = A (x - x*)^p = A (-rho t_s)^p (1 - t/t_s)^p
    g = np.prod((np.arange(_ORDER) - p) / np.arange(1, _ORDER + 1))
    amplitude = complex(h[-1] * t_s ** _ORDER / (g * (-rho * t_s) ** p))
    return PoleObservation(x + rho * t_s, kind, (amplitude, est.exponent, 0.0), deviation)


def _budgeted_jet(s: NormalSystem, jet, x: complex, y, rho: float, centres: list):
    """:func:`_jet`, recording its centre in ``centres``; ``NotConverging``
    once ``_JET_BUDGET`` centres are recorded."""
    if len(centres) >= _JET_BUDGET:
        raise NotConverging(f"jet budget of {_JET_BUDGET} spent at {x:.8g}")
    centres.append((x, y))
    return _jet(s, jet, x, y, rho)


def _walk(s: NormalSystem, jet, x: complex, y, waypoints, rho: float, centres: list):
    """Taylor steps from (x, y) through each of ``waypoints`` in turn.

    Each jet of the kernel ``jet``, scaled to its own radius, is summed at
    |t| <= 1/2, less where its last term would pass 1e-16 of the state,
    and the step that reaches a waypoint lands on it exactly; a jet that
    terminates is exact and steps straight there.  A jet whose radius is
    below ``_STOP`` of the distance left to its waypoint raises
    ``SingularApproach`` at its centre.  ``rho`` is the first jet's trial
    scale.  Returns the state at every waypoint and the radius of the
    last jet.
    """
    states = []
    for w in waypoints:
        while x != w:
            a, rho, exact = _budgeted_jet(s, jet, x, y, rho, centres)
            reach = math.inf
            if not exact:
                if rho < _STOP * abs(w - x):
                    raise SingularApproach(x)
                top = np.max(np.abs(a[:, -1]))  # exactly 0 sets no truncation limit
                reach = 0.5 if top == 0 else min(
                    0.5, (_EPS * np.max(np.abs(a[:, 0])) / top) ** (1.0 / _ORDER))
            t = (w - x) / rho
            short = abs(t) > reach
            t *= reach / abs(t) if short else 1.0
            y = a @ t ** np.arange(_ORDER + 1)
            x = x + rho * t if short else w
        states.append(y)
    return states, rho


def detect_singularity(s: NormalSystem, x, y) -> PoleObservation:
    """Read the nearest singularity of the solution through (x, y).

    One Taylor jet of the solution in x, scaled to its own radius, gives
    the observable's coefficients; :func:`~transasym.singular.radius_estimate`
    reads the location and exponent of the singularity dominating them,
    and the top coefficient the amplitude.  The kind is the nominal
    exponent nearest the read one.  ``NoBlowup`` is raised when the jet
    resolves no single singularity: the ratios have no finite limit or
    it lies beyond two jet radii (an entire solution), or the ratios
    oscillate (two singularities at about the same distance).  The
    spread of a single read is 0.
    """
    x, y = complex(x), np.asarray(y, dtype=complex)
    # |y / y'| is about the distance to a blow-up: a trial scale in range
    slope = _x_jet(s, x, y, 1.0, 1)[:, 1]
    return _read(s, x, *_jet(s, _x_jet, x, y, np.max(np.abs(y)) / np.max(np.abs(slope))))


def hunt_singularity(
    s: NormalSystem,
    x_start,
    y_start,
    target,
    *,
    via: Sequence = (),
    csv_path=None,
) -> PoleObservation:
    """Walk from a trusted state to a suspected singularity and home in on it.

    Taylor steps walk the polyline through ``via`` to a staging point
    0.35 short of ``target``: each jet, scaled to its own radius (see
    :func:`detect_singularity`), is summed at |t| <= 1/2, less where its
    last term would pass 1e-16 of the state.  From there each jet is
    read by ``radius_estimate``; the hunt steps halfway to the estimate,
    scales the next jet to the remaining distance, and stops when the
    distance between successive estimates stops shrinking.  It returns
    the estimate before that, with that distance as its spread.  More
    than ``_JET_BUDGET`` jets raise ``NotConverging``, a walk stopped by
    a singularity short of the staging point ``SingularApproach`` (see
    :func:`_walk`), a read resolving no single singularity ``NoBlowup``,
    and a ``target`` equal to ``x_start`` or to the last ``via`` point
    ``ValueError``.
    ``csv_path`` receives one row per jet centre (:meth:`Trajectory.to_csv`).

    Each hunt logs one DEBUG record to the ``transasym`` logger; its
    ``hunt`` attribute holds ``start``, ``approach_length``, ``jets``,
    ``stopped`` ("settled" or the error's name) and ``spread``.
    """
    x_start, target = complex(x_start), complex(target)
    prev = complex(via[-1]) if via else x_start
    if prev == target:
        where = "the last via point" if via else "x_start"
        raise ValueError(f"target {target:.6g} coincides with {where}")
    pts = [x_start, *map(complex, via), target + _STAGING * (prev - target) / abs(prev - target)]
    centres: list[tuple[complex, np.ndarray]] = []
    spread, stopped = math.inf, None
    try:
        states, rho = _walk(s, _x_jet, x_start, np.asarray(y_start, dtype=complex), pts[1:],
                            abs(target - x_start), centres)
        x, y = pts[-1], states[-1]
        found = None
        while True:
            a, rho, exact = _budgeted_jet(s, _x_jet, x, y, rho, centres)
            read = _read(s, x, a, rho, exact)
            if found is not None:
                gap = abs(read.location - found.location)
                if gap >= spread:
                    break
                spread = gap
            found = read
            t = 0.5 * (found.location - x) / rho
            y = a @ t ** np.arange(_ORDER + 1)
            x += rho * t
            rho = abs(found.location - x)
        stopped = "settled"
    except Exception as err:
        stopped = type(err).__name__
        raise
    finally:
        info = {"start": x_start, "jets": len(centres), "stopped": stopped, "spread": spread,
                "approach_length": sum(abs(b - a) for a, b in zip(pts, pts[1:]))}
        _log.debug("hunt toward %s: %s", target, info, extra={"hunt": info})
        if csv_path is not None and centres:
            Trajectory([c for c, _ in centres],
                       np.array([v for _, v in centres]).T).to_csv(csv_path)
    return replace(found, local_fit=(*found.local_fit[:2], spread))


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
    atol: float = 1e-8,
) -> CEstimate:
    """Seed at the outermost radius and walk inward, sampling each rung.

    Inward is the stable direction: eigenmodes that decay as Re x grows
    would turn outward integration error into e^{+x} contamination of
    the exponentially small residue, while inward they die off and the
    C-carrying mode grows along with the signal.  The walk takes the
    hunts' Taylor steps (see :func:`hunt_singularity`) in complex128,
    landing on every rung; more than ``_JET_BUDGET`` jets raise
    ``NotConverging``, so no estimate comes from an unfinished walk.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 4:
        raise ValueError("need at least 4 ladder radii")
    xs = [r * cmath.exp(1j * arg) for r in radii]
    y = np.asarray(eval_two_scale(e, C, xs[0])[0], dtype=complex)
    states, _ = _walk(s, _x_jet, xs[0], y, xs[1:], abs(xs[-1] - xs[0]), [])
    return extract_C(s, e, zip(xs, [y, *states]), atol=atol)


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
    capture: float = 1.0,
    extract: bool = False,
    deep_M: int = 12,
    csv_dir=None,
) -> ValidationRun:
    """Predict a pole array, hunt each pole with Taylor jets, and compare.

    The anchor x_a is the point of the ray arg x = ``anchor_arg`` where
    |xi| = ``anchor_xi``, far from every pole.  The hunt for a pole above
    x_a starts on the same level curve |xi| = ``anchor_xi`` at the height
    of the refined predicted location and aims straight at it, from a
    fresh two-scale seed there; poles no higher than x_a are hunted from
    x_a itself, since the level curve below it comes closer to the origin,
    where the seed is less accurate.  With ``extract`` set, a radius
    ladder on the anchor ray re-measures C from the integrated solution,
    seeding from a level-``deep_M`` expansion (deepened on demand, in the
    precision of ``e``).  With ``csv_dir`` set, each hunt writes its jet
    centres to ``pole_n<n>.csv`` there.  The run is labelled with
    ``s.label``.
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
