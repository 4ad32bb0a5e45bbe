"""Ground truth by complex-plane continuation.

Hunts of the singularities a predicted array places, C ladders that
extract the transseries constant from far-field samples, and the
comparison of each hunt's pole with the predicted one it was aimed at.
Hunts, detections and ladders walk on :mod:`transasym.walk`'s Taylor
jets.  A survey seeds each hunt with the two-scale expansion at its staging
point, 2.0 toward Re x -> +inf from the predicted pole, where |xi| is about
e^-2 |xi_s|: the two-scale sum holds to an O(1) distance from the
singularities it predicts (Costin and Costin 2001), so the hunt homes with
no walk.

``integrate_path`` is the tests' independent reference: scipy's RK45,
leg by leg at fixed tolerances.  It alone uses scipy, which only the
``test`` extra installs, and imports it on its first call, so every
other path runs on numpy alone.  Blow-up ends it with
``StepUnderflow``; the partial trajectory is attached to the exception
as ``err.trajectory``.

Integration and the extraction of C run in complex128, as the walks do.
An extended-precision expansion only seeds them: its values are cast to
double at the start of each path or walk.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NotConverging, StepUnderflow
from .expansion import TwoScaleExpansion, _eval_points, _x_jet, build_expansion, eval_two_scale
from .singular import SingularityArray, _neville_diagonal, predict_array
from .systems import NormalSystem
from .walk import _STAGING, PoleObservation, _home, _hunts, _lockstep, _walk

__all__ = [
    "Trajectory",
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
    "run_validation",
]

_ATOL = 1e-8  # floor of the C extrapolation step that counts as converged
_RUNGS, _SPAN = 8, 7.0  # rungs of a C ladder, and its half-width in |x|
_LADDER_ARG = 1.2  # ray of a validation run's C ladder
_DEEP_M = 12  # least level of the expansion a validation run's C ladder seeds from
_CAPTURE = 1.0  # farthest a hunt's pole may lie from its target and still match it
_RK_RTOL, _RK_ATOL, _ESCAPE = 1e-10, 1e-12, 1e8  # of integrate_path: RK45 tolerances, stop norm

_log = logging.getLogger("transasym")


@dataclass(frozen=True)
class Trajectory:
    """Accepted RK45 steps along a path: ``x`` of shape (N,), ``y`` of shape (n, N).

    ``stats`` holds ``n_steps``, ``n_rhs`` and ``stopped`` ("completed"
    or the reason the integration stopped).
    """

    x: np.ndarray
    y: np.ndarray
    stats: dict


def integrate_path(s: NormalSystem, y_init, waypoints) -> Trajectory:
    """Integrate y' = f(x, y) from ``y_init`` along the polyline through ``waypoints``.

    Each leg is one run of scipy's RK45 at rtol 1e-10 and atol 1e-12.  A
    path needs at least two waypoints and no two consecutive ones equal
    (``ValueError``); revisiting an earlier point is allowed.  Returns the
    trajectory if every leg completes.  If the state norm reaches 1e8, or
    the step size collapses (both signal a nearby singularity), raises
    ``StepUnderflow`` with the stop location in ``.where`` and the partial
    trajectory attached as ``.trajectory``.  scipy, which only the ``test``
    extra installs, is imported here: without it the call raises ``ImportError``.
    """
    from scipy.integrate import solve_ivp  # the reference alone loads scipy

    pts = [complex(w) for w in waypoints]
    if len(pts) < 2:
        raise ValueError("a path needs at least two waypoints")
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("consecutive waypoints must be distinct")
    y = np.asarray(y_init, dtype=complex)
    if y.shape != (s.n,):
        raise ValueError(f"initial state must have shape ({s.n},)")
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    nfev = 0

    def _partial(stopped):
        return Trajectory(
            np.concatenate(xs) if xs else np.empty(0, complex),
            np.concatenate(ys, axis=1) if ys else np.empty((s.n, 0), complex),
            {"n_steps": sum(len(a) for a in xs), "n_rhs": nfev, "stopped": stopped},
        )

    def _stop(where, reason):
        err = StepUnderflow(where, f"{reason} near x = {complex(where):.8g}")
        err.trajectory = _partial(reason)
        raise err

    def hit_escape(t, v):
        return float(np.max(np.abs(v))) - _ESCAPE

    hit_escape.terminal = True
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        delta = b - a
        if np.max(np.abs(y)) >= _ESCAPE:
            _stop(a, "state escaped")
        sol = solve_ivp(lambda t, v: delta * s.field(a + t * delta, v), (0.0, 1.0), y,
                        method="RK45", rtol=_RK_RTOL, atol=_RK_ATOL, events=hit_escape)
        nfev += sol.nfev
        skip = 1 if i > 0 else 0  # leg start duplicates previous leg end
        xs.append(a + sol.t[skip:] * delta)
        ys.append(sol.y[:, skip:])
        if sol.status == 1:
            t_e = sol.t_events[0][0]
            xs.append(np.array([a + t_e * delta]))
            ys.append(sol.y_events[0].T.astype(complex))
            _stop(a + t_e * delta, "state escaped")
        if sol.status != 0:
            _stop(a + sol.t[-1] * delta, "step size underflow")
        y = sol.y[:, -1]

    return _partial("completed")


# -- blow-up detection --------------------------------------------------------


def detect_singularity(s: NormalSystem, x, y) -> PoleObservation:
    """Locate the nearest singularity of the solution through (x, y) by a lone
    :func:`~transasym.walk._home`, whose first jet is scaled to rho =
    |y|/|y'|, about the distance to a blow-up."""
    x, y = complex(x), np.asarray(y, dtype=complex)
    slope = _x_jet(s, [x], y[:, None], [1.0], 1)[0, :, 1]
    rho = np.max(np.abs(y)) / np.max(np.abs(slope))
    return _lockstep(s, _x_jet, [_home(x, y, rho, [])])[0]


def hunt_singularity(s: NormalSystem, x_start, y_start, target) -> PoleObservation:
    """Walk from a trusted state to a suspected singularity and home in on it.

    Taylor steps walk straight to the staging point ``_STAGING`` = 2.0 short
    of ``target`` (:func:`~transasym.walk._walk`), where
    :func:`~transasym.walk._home` takes over.  The first jet is scaled to at
    least 2.0, the distance homing starts from, even for a target a few ulps
    away.  A start that is its own staging point, as a survey's ``target +
    2.0`` is exactly, homes at once: its walk takes no jet.
    More than ``_JET_BUDGET`` jets raise ``NotConverging``, a walk stopped
    short of the staging point ``SingularApproach``, reads that resolve or
    confirm no single singularity ``NoBlowup``, and a ``target`` equal to
    ``x_start`` ``ValueError``.

    Each hunt logs one DEBUG record to the ``transasym`` logger; its
    ``hunt`` attribute holds ``start``, ``target``, ``approach_length``,
    ``jets``, ``stopped`` ("settled" or the error's name) and ``spread``
    (inf when it fails).
    """
    return _hunts(s, [(x_start, y_start, target)])[0]


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

    def consistent_with(self, other: "CEstimate") -> bool:
        return abs(self.value - other.value) <= self.uncertainty + other.uncertainty

    def to_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "uncertainty": float(self.uncertainty),
            "ladder": [[c.real, c.imag] for c in self.ladder],
        }


def _formal_sum(c, x: complex) -> complex:
    """sum_{r>=2} c[r] x^{-r} over the row ``c``: Horner in z = 1/x from the top, then z^2."""
    acc, z = 0.0 + 0.0j, 1.0 / complex(x)
    for r in range(len(c) - 1, 1, -1):
        acc = acc * z + complex(c[r])
    return acc * z ** 2


def extract_C(s: NormalSystem, e: TwoScaleExpansion, samples: Iterable) -> CEstimate:
    """Recover C from solution samples on a ray in the transseries sector.

    Each sample is a pair (x, y).  The formal series of ``e.system``,
    kept on ``e`` to the deepest order asked so far, is truncated at
    k <= floor(|x|) per sample (the floor rule; the ladder spread shows
    its sensitivity), the residue is divided by e^{-x} x^{alpha_1}, and
    the resulting per-sample estimates are extrapolated to |x| = inf.
    Fewer than 4 samples, or two that share |x|, raise ``ValueError``.
    Raises ``NotConverging`` when the formal series or a per-sample
    estimate is not finite, or when the extrapolation steps stay larger
    than max(0.1 |value|, 1e-8).
    """
    pts = sorted(
        ((complex(x), np.atleast_1d(np.asarray(y, dtype=complex))) for x, y in samples),
        key=lambda p: abs(p[0]),
    )
    if len(pts) < 4:
        raise ValueError("need at least 4 samples to stabilize C")
    if len({abs(x) for x, _ in pts}) < len(pts):   # the extrapolation in 1/|x| divides by gaps
        raise ValueError("two samples share one |x|; C needs distinct |x|")
    r_top = int(math.floor(abs(pts[-1][0])))
    try:
        tilde = e._formal_series(max(r_top, 2))[0]
    except ValueError as err:   # it overflows before the outermost sample's order
        raise NotConverging(f"C ladder reaches |x| = {abs(pts[-1][0]):.6g}: {err}") from err
    alpha1 = complex(s.alpha[0])
    raw = []
    for x, y in pts:
        part = _formal_sum(tilde[: int(math.floor(abs(x))) + 1], x)
        scale = cmath.exp(-x + alpha1 * cmath.log(x))
        raw.append((complex(y[0]) - part) / scale)
    bad = [abs(x) for (x, _), c in zip(pts, raw) if not cmath.isfinite(c)]
    if bad:
        raise NotConverging(f"C ladder is not finite at |x| = {bad[0]:.6g}")
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
    if uncertainty > max(0.1 * abs(value), _ATOL):
        raise NotConverging(
            f"C ladder step {uncertainty:.3g} exceeds tolerance at |C| = {abs(value):.3g}"
        )
    return CEstimate(complex(value), float(uncertainty), tuple(raw))


def ladder_radii(e: TwoScaleExpansion, arg: float):
    """Eight rung radii over a width of 14, centered on the least-term radius of the hierarchy.

    The truncated hierarchy's error is of order Gamma(M+2) x^{-(M+1)},
    which relative to the signal scale e^{-x} x^{alpha_1} is smallest
    near r* = (M+1)/cos(arg); rungs far outside that window pay an
    e^{(r - r*) cos(arg)} contamination penalty.
    """
    r_star = (e.M + 1) / math.cos(arg)
    lo = max(r_star - _SPAN, 2.0)
    return np.linspace(lo, lo + 2.0 * _SPAN, _RUNGS)


def extraction_ladder(
    s: NormalSystem,
    e: TwoScaleExpansion,
    C,
    arg: float,
    radii,
) -> CEstimate:
    """Seed at the outermost radius and walk inward, sampling each rung.

    Inward is the stable direction: eigenmodes that decay as Re x grows
    would turn outward integration error into e^{+x} contamination of
    the exponentially small residue, while inward they die off and the
    C-carrying mode grows along with the signal.  The walk takes the
    hunts' Taylor steps (:func:`~transasym.walk._walk`) in complex128, landing on
    every rung inside each jet's reach; more than ``_JET_BUDGET`` jets
    raise ``NotConverging``, so no estimate comes from an unfinished walk.
    One DEBUG record to the ``transasym`` logger carries the attribute
    ``ladder``, which holds ``C``, ``arg``, ``rungs`` and ``jets``.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 4:
        raise ValueError("need at least 4 ladder radii")
    xs = [r * cmath.exp(1j * arg) for r in radii]
    y = np.asarray(eval_two_scale(e, C, xs[0])[0], dtype=complex)
    centres: list[tuple[complex, np.ndarray]] = []
    states, _ = _lockstep(s, _x_jet, [_walk(xs[0], y, xs[1:], abs(xs[-1] - xs[0]), centres)])[0]
    info = {"C": complex(C), "arg": arg, "rungs": len(xs), "jets": len(centres)}
    _log.debug("ladder at arg %s: %s", arg, info, extra={"ladder": info})
    return extract_C(s, e, zip(xs, [y, *states]))


# -- array comparison ---------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Predicted-vs-observed pole arrays, each hunt judged against its own target.

    ``pairs`` holds (n, x_predicted, x_observed, distance) per match, in
    order of |n|; predictions and observations left over appear in the
    unmatched tuples, in entry and observation order.  ``stats`` reports
    max and median distance and the slope of distance against n;
    ``to_dict`` writes a stat that is not finite (no pair matched) as null.
    """

    pairs: tuple
    unmatched_predictions: tuple
    unmatched_observations: tuple
    stats: Mapping

    @property
    def all_matched(self) -> bool:
        return not self.unmatched_predictions and not self.unmatched_observations

    def distances_nonincreasing(self) -> bool:
        d = [p[3] for p in sorted(self.pairs, key=lambda p: abs(p[0]))]
        return all(b <= a for a, b in zip(d, d[1:]))

    def to_dict(self) -> dict:
        return {
            "pairs": [{"n": n, "predicted": [xp.real, xp.imag], "observed": [xo.real, xo.imag],
                       "distance": d} for n, xp, xo, d in self.pairs],
            "unmatched_predictions": [{"n": n, "predicted": [xp.real, xp.imag]}
                                      for n, xp in self.unmatched_predictions],
            "unmatched_observations": [[xo.real, xo.imag] for xo in self.unmatched_observations],
            "stats": {k: v if math.isfinite(v) else None for k, v in self.stats.items()},
        }


def compare_arrays(predicted: SingularityArray, observed: Sequence) -> ComparisonReport:
    """Pair each hunt's pole with the predicted one it was aimed at.

    ``observed`` holds one pole location per entry of ``predicted`` that
    has a refined root ``x_ref``, in entry order (``ValueError`` if the
    counts differ).  A pair farther apart than ``_CAPTURE`` = 1 goes to the
    unmatched tuples; an entry without ``x_ref`` was never hunted and is an
    unmatched prediction at ``x_asym``.
    """
    hunted = sum(en.x_ref is not None for en in predicted.entries)
    if len(observed) != hunted:
        raise ValueError(f"{len(observed)} observations for {hunted} hunted entries")
    pairs, missed, strays, obs = [], [], [], iter(observed)
    for en in predicted.entries:
        if en.x_ref is None:
            missed.append((en.n, complex(en.x_asym)))
            continue
        x = complex(next(obs))
        if (d := abs(en.x_ref - x)) <= _CAPTURE:
            pairs.append((en.n, complex(en.x_ref), x, d))
        else:
            missed.append((en.n, complex(en.x_ref)))
            strays.append(x)
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
    return ComparisonReport(pairs=tuple(pairs), unmatched_predictions=tuple(missed),
                            unmatched_observations=tuple(strays), stats=stats)


# -- end-to-end orchestration -------------------------------------------------


@dataclass(frozen=True)
class ValidationRun:
    """Everything one validation pass produced: the predicted array, one
    observation per hunted entry, their comparison and, when asked, the C
    ladder's estimate.  ``M`` and ``K`` are the seeds' depth and order."""

    system: str
    C: complex
    M: int
    K: int
    predicted: SingularityArray
    observations: tuple
    report: ComparisonReport
    extraction: CEstimate | None = None

    def to_dict(self) -> dict:
        d = {
            "system": self.system,
            "C": [self.C.real, self.C.imag],
            "M": self.M,
            "K": self.K,
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
    extract: bool = False,
    csv_dir=None,
) -> ValidationRun:
    """Predict a pole array, hunt each pole with Taylor jets, and compare.

    The hunt for each refined predicted location x_ref starts at its
    staging point x_ref + 2.0, 2.0 toward Re x -> +inf, from a fresh
    two-scale seed there, and homes at once (:func:`hunt_singularity`).
    Every seed comes from one evaluation
    (:func:`~transasym.expansion._eval_points`) of ``e``, whose depth
    ``e.M`` and order ``e.K`` the run records.  With ``extract`` set, a
    radius ladder on the ray arg x = 1.2 (:func:`ladder_radii`) re-measures
    C from the solution walked on Taylor jets, seeding from ``e`` deepened
    to level ``_DEEP_M`` = 12 when it is shallower, in the precision of
    ``e``.  With ``csv_dir`` set, each hunt writes its jet centres to
    ``pole_n<n>.csv`` there.  The hunts walk in lockstep
    (:func:`~transasym.walk._hunts`): once all have ended, the first failure in n order is
    raised.  The run is labelled with ``s.label``.
    """
    if s.xi_s_hint is None:
        raise ValueError("system carries no xi_s hint to predict an array from")
    C = complex(C)
    predicted = predict_array(s.xi_s_hint, C, s.alpha[0], n_range)
    hunted = [en for en in predicted.entries if en.x_ref is not None]
    x0s = [en.x_ref + _STAGING for en in hunted]
    y0s = _eval_points(e, C, x0s)[0]
    starts = [(x0, y0, en.x_ref) for x0, y0, en in zip(x0s, y0s, hunted)]
    csv_paths = [None if csv_dir is None else f"{csv_dir}/pole_n{en.n}.csv" for en in hunted]
    observations = _hunts(s, starts, csv_paths=csv_paths)
    report = compare_arrays(predicted, [o.location for o in observations])
    extraction = None
    if extract:
        # the seed floor scales like cos(arg)^{M+1}; hunting depth is not
        # enough for a 1e-3 constant measurement, so deepen if needed
        e_x = e if e.M >= _DEEP_M else build_expansion(s, _DEEP_M, e.K, dtype=e.fm.dtype)
        extraction = extraction_ladder(s, e_x, C, _LADDER_ARG, ladder_radii(e_x, _LADDER_ARG))
    return ValidationRun(
        system=s.label,
        C=C,
        M=e.M,
        K=e.K,
        predicted=predicted,
        observations=tuple(observations),
        report=report,
        extraction=extraction,
    )
