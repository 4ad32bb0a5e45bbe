"""Ground truth by complex-plane continuation.

Walks of a normalized system along polyline paths in the x plane,
location of the singularities the solution blows up at, extraction of
the transseries constant C from far-field samples, and the comparison
of each hunt's pole with the predicted one it was aimed at.

Hunts and C ladders walk with Taylor jets of the solution in x, computed
by the running-product recursion of the two-scale hierarchy (Corliss and
Chang); ``continue_f0`` walks F_0 in xi the same way.  The walk sums
each jet inside half its own radius of convergence, at every waypoint
inside its reach; a jet whose radius falls below 1e-3 of the distance
left to its waypoint stops it with ``SingularApproach``.  A hunt's walk
hands over to homing at its staging point 2.0 short of its target, under
a third of an array's spacing of about 2 pi, where a read has not yet
lost digits to cancellation near the pole.  A validation run seeds each
hunt with the two-scale expansion at that point itself, 2.0 toward
Re x -> +inf from the predicted pole, where |xi| is about e^-2 |xi_s|:
the two-scale sum holds to an O(1) distance from the singularities it
predicts (Costin and Costin 2001), so a survey hunt homes with no walk.
Homing, the one locator (``_home``, also
all of ``detect_singularity``), reads the nearest singularity from each
jet by Domb-Sykes ratio analysis (``radius_estimate``).  A pole's read is
refined on the same jet from Pade approximants of h'/h, whose root must
confirm it and whose two degrees' gap, within 1e-10 of the first read's
distance, ends the hunt there: a pole hunt reads one jet.  Any other read,
and a pole read whose Pade system is exactly singular, must be confirmed
by the one from halfway to it, and homing stops once successive reads
agree within 1e-10 of the first read's distance, or stop drawing closer.
No system declares its kind of blow-up.  A C ladder walks its ray inward
through every rung.

Walks are generators that yield jet and read requests; ``_lockstep`` runs
any number together, per round one Domb-Sykes read of every read request,
then one call of the lane-batched kernel and one read of every lane's
radius, rescaled jet and reach.  A validation run seeds its hunts in one
evaluation and hunts all its poles in lockstep, while a lone hunt or
detection, a ladder or a continuation leg is driven alone on the same
path; lanes do not share arithmetic, so a result is bitwise the same either way.

``integrate_path`` is the tests' independent reference: scipy's RK45,
leg by leg at fixed tolerances.  It alone uses scipy, which only the
``test`` extra installs, and imports it on its first call, so every
other path runs on numpy alone.  Blow-up ends it with
``StepUnderflow``; the partial trajectory is attached to the exception
as ``err.trajectory``.  ``_write_csv`` is the one CSV layout, shared by
a hunt's jet centres and ``transasym continue``.

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
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (InsufficientCoefficients, NoBlowup, NotConverging,
                     OscillatoryCoefficients, SingularApproach, StepUnderflow)
from .expansion import (
    TwoScaleExpansion,
    _eval_points,
    _x_jet,
    build_expansion,
    eval_two_scale,
)
from .singular import (SingularityArray, _domb_sykes, _neville_diagonal, _pade_poles,
                       predict_array)
from .systems import NormalSystem

__all__ = [
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
    "run_validation",
]

# Read blow-up exponents are matched against these nominals; anything
# farther than 0.35 from all of them is reported as unknown_blowup.
_NOMINAL_EXPONENTS = {"simple_pole": -1.0, "double_pole": -2.0, "branch_neg_half": -0.5}
_CLASSIFY_WINDOW = 0.35
_POLES = ("simple_pole", "double_pole")  # kinds whose reads a Pade approximant refines
_ORDER = 40  # of every Taylor jet
_POWERS = np.arange(_ORDER + 1)  # of t in a jet
_U = _POWERS[_ORDER // 2:] - _POWERS[_ORDER // 2:].mean()  # upper-half orders, centred
_JET_BUDGET = 100  # jets one hunt or one ladder may compute
_STAGING = 2.0  # how far short of its target a walk hands over to homing
_SETTLE = 1e-10  # gap between successive reads, relative to the first one's distance, that settles
_EPS = 1e-16  # truncation a walk step allows, relative to the state
_STOP = 1e-3  # jet radius, relative to the distance left, at which a walk stops
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


def _write_csv(path, x, y, x_name: str, y_name: str) -> None:
    """Write samples ``x`` (N,) and ``y`` (n, N) as CSV, a row per sample.

    The header is ``<x>_re,<x>_im,<y>1_re,<y>1_im,...``; every value has
    17 significant digits, so it parses back exactly.
    """
    names = [x_name, *(f"{y_name}{j + 1}" for j in range(len(y)))]
    cols = [x, *y]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"{c}_{part}" for c in names for part in ("re", "im")])
        w.writerows([f"{v:.17g}" for c in cols for v in (c[k].real, c[k].imag)]
                    for k in range(len(x)))


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


@dataclass(frozen=True)
class PoleObservation:
    """A located singularity with its local model.

    ``local_fit`` is (amplitude, exponent, spread): the blow-up
    h ~ amplitude * (x - location)^exponent read from the solution's
    Taylor jet, and for a pole the gap between two Pade degrees' roots on
    that jet, else the last shrinking gap between successive reads of the
    homing that found it (:func:`_home`).  The spread measures the read's
    consistency, not the location's error.  ``exponent_deviation``
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


def _jet(x: complex, y, rho: float, centres: list):
    """Jet of the solution through (x, y), scaled to its own radius.

    A walk step for :func:`_lockstep`: each ``yield`` of (x, y, rho) is
    sent the lane's read (:func:`_scale_jets`) of a[:, k] =
    [t^k] y(x + rho t).  Returns (a r^k, rho r, exact, reach), so that
    the nearest singularity sits near |t| = 1; a trial scale far off, r
    outside (0.1, 10), is first replaced by rho r, keeping the
    coefficients in range.  A jet that terminates is returned exact, at
    the trial scale.  The centre is recorded in ``centres``; once
    ``_JET_BUDGET`` are recorded, ``NotConverging`` is raised instead.
    """
    if len(centres) >= _JET_BUDGET:
        raise NotConverging(f"jet budget of {_JET_BUDGET} spent at {x:.8g}")
    centres.append((x, y))
    for _ in range(4):
        a, r, exact, reach = yield x, y, rho
        rho *= r
        if exact or 0.1 < r < 10.0:
            break
    return a, rho, exact, reach


def _scale_jets(a: np.ndarray) -> list:
    """Each lane's read of a[b, :, k] = [t^k] y_b(x_b + rho_b t): (a_b r^k, r, False, reach).

    r, the radius over rho_b, is exp of minus the least-squares slope of
    log max_j |a_bjk| over the upper half of the orders.  The reach is
    |t| <= 1/2, less where the last term of a_b r^k would pass 1e-16 of
    the state.  A lane with fewer than two nonzero coefficients in that
    half terminates: (a_b, 1.0, True, inf).  Each lane's numbers come from
    its own row, so a lane reads bitwise the same in any batch.
    """
    mag = np.abs(a).max(axis=1)
    keep = mag[:, _ORDER // 2:] > 0
    live = keep.sum(axis=1)
    with np.errstate(all="ignore"):  # zeros in a tail, and trial scales about to be replaced
        v = np.log(mag[:, _ORDER // 2:])
        slope = (_U * (v - v.sum(axis=1, keepdims=True) / _U.size)).sum(axis=1) / (_U @ _U)
        for b in range(len(a)):
            if 2 <= live[b] < _U.size:  # zeros in the tail: fit the nonzero orders alone
                k, w = _POWERS[_ORDER // 2:][keep[b]], v[b, keep[b]]
                slope[b] = np.sum((u := k - k.mean()) * (w - w.mean())) / np.sum(u * u)
        r = [math.exp(-q) for q in slope]  # NaN where the jet terminates
        a_r = a * (np.array(r)[:, None] ** _POWERS)[:, None]
        ends = np.abs(a_r[:, :, ::_ORDER]).max(axis=1)
        base = _EPS * ends[:, 0] / ends[:, 1]
    # a scalar power per lane: np.power over all lanes rounds some differently
    return [(a[b], 1.0, True, math.inf) if live[b] < 2 else
            (a_r[b], r[b], False, 0.5 if ends[b, 1] == 0 else min(0.5, base[b] ** (1.0 / _ORDER)))
            for b in range(len(a))]


class _Read(NamedTuple):
    """A walk's request to read the jet ``a`` about ``x``, scaled to its radius ``rho``."""
    x: complex
    a: np.ndarray
    rho: float
    exact: bool


def _lockstep(s: NormalSystem, jet, walks) -> list:
    """Run the generators ``walks`` together on the batched kernel ``jet``.

    Walks yield jet requests (x, y, rho) and :class:`_Read` requests.  Each
    round answers every read request in one call of :func:`_reads`, sending
    or throwing each walk its outcome, then computes the jets asked in one
    call of ``jet`` and sends each walk its lane's :func:`_scale_jets` read.
    Once all have ended, one DEBUG record's attribute ``lockstep`` holds
    ``rounds`` (kernel calls), ``jets``, ``reads`` and ``read_calls``; then the
    first failure in order is raised, else the return values are returned.
    """
    outcomes, failures = [None] * len(walks), {}
    asked, replies = {}, dict.fromkeys(range(len(walks)))
    rounds = jets = reads = read_calls = 0
    while replies:
        for i, reply in replies.items():
            try:
                asked[i] = (walks[i].throw(reply) if isinstance(reply, Exception)
                            else walks[i].send(reply))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as err:  # ends this walk only; raised once all have ended
                failures[i] = err
        todo, replies = [i for i, q in asked.items() if isinstance(q, _Read)], {}
        if todo:
            replies = dict(zip(todo, _reads(s, [asked.pop(i) for i in todo])))
            reads, read_calls = reads + len(todo), read_calls + 1
        elif asked:
            x, y, rho = zip(*asked.values())
            replies = dict(zip(asked, _scale_jets(jet(s, np.array(x), np.array(y).T,
                                                      np.array(rho), _ORDER))))
            rounds, jets, asked = rounds + 1, jets + len(asked), {}
    if _log.isEnabledFor(logging.DEBUG):
        info = {"rounds": rounds, "jets": jets, "reads": reads, "read_calls": read_calls}
        _log.debug("lockstep: %s", info, extra={"lockstep": info})
    if failures:
        raise failures[min(failures)]
    return outcomes


def _kind(p: float) -> tuple:
    """(kind, deviation) of a read exponent: the nearest nominal, unless farther than the window."""
    kind = min(_NOMINAL_EXPONENTS, key=lambda k: abs(p - _NOMINAL_EXPONENTS[k]))
    deviation = abs(p - _NOMINAL_EXPONENTS[kind])
    return ("unknown_blowup" if deviation > _CLASSIFY_WINDOW else kind), deviation


def _reads(s: NormalSystem, asks: Sequence[_Read]) -> list:
    """Each ask's singularity, or the error to throw into its walk.

    One Domb-Sykes read of every jet's observable (``radius_estimate`` over
    the stack) gives a location and exponent, whose nearest nominal is the
    kind.  A pole's read is refined on its jet (:func:`_pade_poles`): the Pade
    root, its residue and the gap to the lower degree's root are its location,
    exponent and spread, or ``NoBlowup`` if the root lies more than 1e-3 of
    the read's distance from the Domb-Sykes one or the residue outside the
    kind's window.  A pole whose Pade system is exactly singular (its residue
    reads NaN, as for the jet of 1/(1 - t)) keeps its Domb-Sykes read, and
    so do other reads: their spread is inf.  The amplitude is read from
    the top coefficient, a double pole's from the top two.
    """
    h = np.array([s.observable @ q.a for q in asks])
    ests = _domb_sykes(h)
    kinds = [None if isinstance(e, Exception) else _kind(e.exponent) for e in ests]
    poles = [b for b, k in enumerate(kinds) if k and k[0] in _POLES]
    refined = dict(zip(poles, _pade_poles(h[poles], np.array([ests[b].xi_s for b in poles])))
                   if poles else {})
    out = []
    for b, ((x, _, rho, exact), hb, est) in enumerate(zip(asks, h, ests)):
        try:
            if exact:
                raise NoBlowup(f"the jet at x = {x:.8g} terminates")
            if isinstance(est, (InsufficientCoefficients, OscillatoryCoefficients)):
                raise NoBlowup(f"no single singularity resolved from x = {x:.8g}: {est}") from est
            if isinstance(est, Exception):
                raise est
            t_s, p, spread = est.xi_s, est.exponent, math.inf
            if abs(t_s) > 2.0:
                raise NoBlowup(f"no singularity within two jet radii of x = {x:.8g}")
            kind, deviation = kinds[b]
            if b in refined and not cmath.isnan(refined[b][1]):   # NaN: a singular Toeplitz system
                t, residue, t_low = refined[b]
                deviation = abs(residue - _NOMINAL_EXPONENTS[kind])
                if not (abs(t - t_s) <= 1e-3 * abs(t_s) and deviation <= _CLASSIFY_WINDOW):
                    raise NoBlowup(f"the Pade read from x = {x:.8g} does not confirm the "
                                   f"Domb-Sykes read: a {kind} at {x + rho * t_s:.8g}")
                t_s, p, spread = complex(t), float(residue.real), float(rho * abs(t - t_low))
            if kind == "double_pole":  # t_s^k [t^k] h = (k + 1) A (-rho t_s)^-2 + B: the top two
                top = hb[-1] * t_s ** _ORDER - hb[-2] * t_s ** (_ORDER - 1)  # cancel B
                amplitude = complex(top * (-rho * t_s) ** 2)
            else:  # top coefficient against h = A (x - x*)^p = A (-rho t_s)^p (1 - t/t_s)^p
                p_nom = _NOMINAL_EXPONENTS.get(kind, p)
                g = np.prod((np.arange(_ORDER) - p_nom) / np.arange(1, _ORDER + 1))
                amplitude = complex(hb[-1] * t_s ** _ORDER / (g * (-rho * t_s) ** p_nom))
            out.append(PoleObservation(x + rho * t_s, kind, (amplitude, p, spread), deviation))
        except Exception as err:  # thrown into its own walk, as if raised there
            out.append(err)
    return out


def _walk(x: complex, y, waypoints, rho: float, centres: list):
    """Taylor steps from (x, y) through each of ``waypoints`` in turn.

    A walk for :func:`_lockstep`, in x or in xi as its kernel is.  Each
    jet, scaled to its own radius, comes with its reach
    (:func:`_scale_jets`): |t| <= 1/2, less where its last term would
    pass 1e-16 of the state.  It is summed at every next waypoint inside
    its reach, landing on each exactly, or else steps its reach toward
    the next; the next jet is centred where it ended.  No singularity
    lies within half a radius, so a skipped waypoint leaves the branch
    unchanged.  A jet that terminates is exact and reaches every
    waypoint.  A jet whose radius is below ``_STOP`` of the distance left
    to the next waypoint raises ``SingularApproach`` at its centre.
    ``rho`` is the first jet's trial scale.  Returns the state at every
    waypoint and the radius of the last jet.
    """
    states, todo = [], list(waypoints)
    while todo:
        if x == todo[0]:
            states.append(y)
            todo.pop(0)
            continue
        c = x
        a, rho, exact, reach = yield from _jet(c, y, rho, centres)
        if not exact and rho < _STOP * abs(todo[0] - c):
            raise SingularApproach(c)
        reached = len(states)
        while todo and abs(t := (todo[0] - c) / rho) <= reach:
            x, y = todo.pop(0), a @ t ** _POWERS
            states.append(y)
        if len(states) == reached:  # no waypoint inside the reach: step it toward the next
            t *= reach / abs(t)
            y, x = a @ t ** _POWERS, c + rho * t
    return states, rho


def _home(x: complex, y, rho: float, centres: list):
    """Read the singularity nearest (x, y) from Taylor jets and home in on it.

    A walk for :func:`_lockstep`, and the package's one locator.  Each jet,
    scaled to its own radius from the trial scale ``rho`` (:func:`_jet`,
    which records its centre in ``centres``), is yielded as a :class:`_Read`
    request, answered with its observation (:func:`_reads`) or its failure.
    A read whose own spread settles it, a pole's Pade read, is returned at
    once; the settle is ``_SETTLE`` = 1e-10 of the first read's distance.
    Else the next jet is centred halfway to the read location and scaled to
    the distance left.  ``NoBlowup`` is raised when the second read is more
    than 1e-3 of the first read's distance from it, or when a jet resolves
    no single singularity: it terminates, its ratios have no finite limit
    or one beyond two jet radii (an entire solution), they oscillate (two
    singularities about equally near), or a pole's Pade read does not
    confirm them.  Homing stops once two successive reads agree within the
    settle, returning the latest, or once their gap stops shrinking,
    returning the one before; the last gap that shrank is the returned
    spread.
    """
    x0, reads, spread = x, [], math.inf
    while True:
        a, rho, exact, _ = yield from _jet(x, y, rho, centres)
        reads.append((yield _Read(x, a, rho, exact)))
        distance = abs(reads[0].location - x0)
        if len(reads) > 1:
            gap = abs(reads[-1].location - reads[-2].location)
            if len(reads) == 2 and gap > 1e-3 * distance:
                raise NoBlowup(f"the reads from x = {x0:.8g} and from halfway to it disagree")
            if gap >= spread:
                break
            spread = gap
        found = reads[-1]
        if found.local_fit[2] <= _SETTLE * distance:  # a pole's Pade read, consistent on its jet
            return found
        if spread <= _SETTLE * distance:
            break
        t = 0.5 * (found.location - x) / rho
        y = a @ t ** _POWERS
        x += rho * t
        rho = abs(found.location - x)
    return replace(found, local_fit=(*found.local_fit[:2], spread))


def detect_singularity(s: NormalSystem, x, y) -> PoleObservation:
    """Locate the nearest singularity of the solution through (x, y) by a lone
    :func:`_home`, whose first jet is scaled to rho = |y|/|y'|, about the
    distance to a blow-up."""
    x, y = complex(x), np.asarray(y, dtype=complex)
    slope = _x_jet(s, [x], y[:, None], [1.0], 1)[0, :, 1]
    rho = np.max(np.abs(y)) / np.max(np.abs(slope))
    return _lockstep(s, _x_jet, [_home(x, y, rho, [])])[0]


def hunt_singularity(s: NormalSystem, x_start, y_start, target) -> PoleObservation:
    """Walk from a trusted state to a suspected singularity and home in on it.

    Taylor steps walk straight to the staging point ``_STAGING`` = 2.0 short of
    ``target`` (:func:`_walk`), where :func:`_home` takes over.  The first jet
    is scaled to at least 2.0, the distance homing starts from, even for a
    target a few ulps away.  A start that is its own staging point, as a
    survey's ``target + 2.0`` is exactly, homes at once: its walk takes no jet.
    More than ``_JET_BUDGET`` jets raise ``NotConverging``, a walk stopped
    short of the staging point ``SingularApproach``, reads that resolve or
    confirm no single singularity ``NoBlowup``, and a ``target`` equal to
    ``x_start`` ``ValueError``.

    Each hunt logs one DEBUG record to the ``transasym`` logger; its
    ``hunt`` attribute holds ``start``, ``target``, ``approach_length``,
    ``jets``, ``stopped`` ("settled" or the error's name) and ``spread``
    (inf when it fails).
    """
    return _lockstep(s, _x_jet, [_hunt(x_start, y_start, target)])[0]


def _hunts(s: NormalSystem, starts, *, csv_paths=None) -> list:
    """Hunts from each (x_start, y_start, target) of ``starts`` in :func:`_lockstep`; a hunt
    with a path in ``csv_paths`` writes one row per jet centre there, the first at its start
    (:func:`_write_csv`, header ``x_re,x_im,y1_re,...``)."""
    paths = csv_paths or [None] * len(starts)
    return _lockstep(s, _x_jet, [_hunt(x, y, t, p) for (x, y, t), p in zip(starts, paths)])


def _hunt(x_start, y_start, target, csv_out=None):
    """The walk of one :func:`hunt_singularity`, for :func:`_lockstep`."""
    x_start, target = complex(x_start), complex(target)
    if x_start == target:
        raise ValueError(f"target {target:.6g} coincides with x_start")
    staging = target + _STAGING * (x_start - target) / abs(x_start - target)
    centres: list[tuple[complex, np.ndarray]] = []
    found, stopped = None, None
    try:
        (y,), rho = yield from _walk(x_start, np.asarray(y_start, dtype=complex), [staging],
                                     max(abs(target - x_start), _STAGING), centres)
        found = yield from _home(staging, y, rho, centres)
        stopped = "settled"
    except Exception as err:
        stopped = type(err).__name__
        raise
    finally:
        info = {"start": x_start, "target": target, "jets": len(centres), "stopped": stopped,
                "spread": found.local_fit[2] if found else math.inf,
                "approach_length": abs(staging - x_start)}
        _log.debug("hunt toward %s: %s", target, info, extra={"hunt": info})
        if csv_out is not None and centres:
            _write_csv(csv_out, [c for c, _ in centres], np.array([v for _, v in centres]).T,
                       "x", "y")
    return found


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
    hunts' Taylor steps (see :func:`_walk`) in complex128, landing on
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
    ``pole_n<n>.csv`` there.  The hunts walk in lockstep (see
    :func:`_hunts`): once all have ended, the first failure in n order is
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
