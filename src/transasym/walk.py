"""Taylor-jet walks of a system, and the reads that locate its singularities.

Hunts and C ladders walk the solution in x on Taylor jets computed by the
running-product recursion of the two-scale hierarchy (Corliss and Chang),
and ``continue_f0`` walks F_0 in xi the same way (:func:`_walk`): each jet
is summed inside half its own radius of convergence, and one whose radius
falls below 1e-3 of the distance left stops the walk.  A hunt hands over
to homing at its staging point 2.0 short of its target, under a third of an
array's spacing of about 2 pi, where a read has not yet lost digits to
cancellation near the pole.  Homing, the one locator (:func:`_home`), reads
the nearest singularity from each jet by Domb-Sykes ratio analysis and
refines a pole's read on the same jet from Pade approximants of h'/h
(:func:`_reads`), so a pole hunt reads one jet; any other read must be
confirmed from halfway to it.  No system declares its kind of blow-up.

Walks are generators that yield jet and read requests; :func:`_lockstep`
runs any number together, per round one read call for every read request
and one call of the lane-batched kernel.  A survey hunts all its poles in
lockstep, while a lone hunt or detection, a ladder or a continuation leg
is driven alone; lanes do not share arithmetic, so a result is bitwise the
same either way.  Jets, reads and walks run in complex128.  ``_write_csv``
is the one CSV layout, shared by a hunt's jet centres and ``transasym
continue``.
"""

from __future__ import annotations

import cmath
import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (InsufficientCoefficients, NoBlowup, NotConverging,
                     OscillatoryCoefficients, SingularApproach)
from .expansion import _x_jet
from .singular import _domb_sykes, _pade_poles
from .systems import NormalSystem

_NOMINAL_EXPONENTS = {"simple_pole": -1.0, "double_pole": -2.0, "branch_neg_half": -0.5}
_CLASSIFY_WINDOW = 0.35  # a read exponent farther than this from every nominal is unknown_blowup
_POLES = ("simple_pole", "double_pole")  # kinds whose reads a Pade approximant refines
_ORDER = 40  # of every Taylor jet
_POWERS = np.arange(_ORDER + 1)  # of t in a jet
_U = _POWERS[_ORDER // 2:] - _POWERS[_ORDER // 2:].mean()  # upper-half orders, centred
_JET_BUDGET = 100  # jets one hunt or one ladder may compute
_STAGING = 2.0  # how far short of its target a walk hands over to homing
_SETTLE = 1e-10  # gap between successive reads, relative to the first one's distance, that settles
_EPS = 1e-16  # truncation a walk step allows, relative to the state
_STOP = 1e-3  # jet radius, relative to the distance left, at which a walk stops

_log = logging.getLogger("transasym")


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


def _hunts(s: NormalSystem, starts, *, csv_paths=None) -> list:
    """Hunts from each (x_start, y_start, target) of ``starts`` in :func:`_lockstep`; a hunt
    with a path in ``csv_paths`` writes one row per jet centre there, the first at its start
    (:func:`_write_csv`, header ``x_re,x_im,y1_re,...``)."""
    paths = csv_paths or [None] * len(starts)
    return _lockstep(s, _x_jet, [_hunt(x, y, t, p) for (x, y, t), p in zip(starts, paths)])


def _hunt(x_start, y_start, target, csv_out=None):
    """The walk of one :func:`~transasym.validate.hunt_singularity`, for :func:`_lockstep`."""
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
