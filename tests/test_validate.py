"""Complex-plane integration, blow-up detection, and constant extraction."""

import cmath
import copy
import csv
import logging
import math
import os
import pathlib
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from transasym import validate, walk
from transasym.cli import RunConfig, main
from transasym.errors import (NoBlowup, NotConverging, SingularApproach, StepUnderflow,
                              TransasymError)
from transasym.expansion import (_x_jet, _xi_jet, build_expansion, eval_two_scale,
                                 formal_power_series)
from transasym.series import AnalyticGerm
from transasym.singular import RadiusEstimate, predict_array
from transasym.systems import NormalSystem, builtin
from transasym.validate import (CEstimate, ValidationRun, compare_arrays,
                                detect_singularity, extract_C, extraction_ladder,
                                hunt_singularity, integrate_path, ladder_radii,
                                run_validation)
from transasym.walk import PoleObservation


@pytest.fixture(scope="module")
def lin():
    # y' = -y with no forcing; endpoints are known exactly
    return NormalSystem([1.0], [0.0], AnalyticGerm(1, {}), label="lin")


# -- integrator on a known flow ----------------------------------------------


def test_endpoint_against_exponential(lin):
    tr = integrate_path(lin, np.array([1.0 + 0j]), (1.0, 6.0 + 5.0j))
    exact = cmath.exp(-(5.0 + 5.0j))
    assert abs(tr.y[0, -1] - exact) < 1e-9 * abs(exact)
    assert tr.stats["stopped"] == "completed" and tr.stats["n_rhs"] > tr.stats["n_steps"] > 0


def test_endpoint_is_path_independent(lin):
    y0 = np.array([1.0 + 0j])
    va = integrate_path(lin, y0, (1.0, 6.0 + 5.0j)).y[0, -1]
    vb = integrate_path(lin, y0, (1.0, 1.0 + 5.0j, 6.0 + 5.0j)).y[0, -1]
    assert abs(va - vb) < 1e-9 * abs(va)


@pytest.mark.parametrize("waypoints", [(1.0, 1.0, 2.0), (1.0,)], ids=["stationary-leg", "one-point"])
def test_integrate_path_rejects_a_stationary_leg(lin, waypoints):
    with pytest.raises(ValueError):
        integrate_path(lin, np.array([1.0 + 0j]), waypoints)


def test_trajectory_csv_round_trip(tmp_path, lin):
    tr = integrate_path(lin, np.array([1.0 + 0j]), (1.0, 2.0 + 1.0j))
    out = tmp_path / "traj.csv"
    walk._write_csv(out, tr.x, tr.y, "x", "y")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_re", "x_im", "y1_re", "y1_im"]
    back = np.array(rows[1:], dtype=float)
    assert np.array_equal(back[:, 0] + 1j * back[:, 1], tr.x)
    assert np.array_equal(back[:, 2] + 1j * back[:, 3], tr.y[0])


# -- blow-up detection -------------------------------------------------------


def _logistic():
    # y' = -y + y^2 solves to xi/(1 + xi), xi = C e^{-x}: simple poles
    # of amplitude -1 at x = log C + i pi (2k + 1)
    return NormalSystem(lam=[1.0], alpha=[0.0], germ=AnalyticGerm(1, {(0, (2,)): 1.0}),
                        xi_s_hint=-1.0)


def _logistic_state(x):
    xi = cmath.exp(-x)
    return np.array([xi / (1.0 + xi)])


def test_batched_jets_sum_to_the_logistic_closed_form():
    # five lanes, each with its own centre and scale; every lane's nearest
    # pole lies at least 1.4 of its scales away, so |t| = 1/2 is inside
    s = _logistic()
    x0 = np.array([0.5, 1.0 + 1.0j, -0.3 + 0.8j, 2.0 - 1.0j, 0.2 + 2.5j])
    rho = np.array([1.0, 1.5, 0.7, 2.0, 0.4])
    y0 = np.array([_logistic_state(x) for x in x0]).T
    a = _x_jet(s, x0, y0, rho, walk._ORDER)
    assert a.shape == (5, 1, walk._ORDER + 1)
    for b in range(5):
        for t in 0.5 * np.exp(2j * math.pi * np.arange(8) / 8):
            got = sum(complex(c) * t ** k for k, c in enumerate(a[b, 0]))
            assert abs(got - _logistic_state(x0[b] + rho[b] * t)[0]) < 1e-13


def test_detects_logistic_simple_pole():
    x = 1j * math.pi + 0.3 * cmath.exp(2.4j)
    obs = detect_singularity(_logistic(), x, _logistic_state(x))
    assert abs(obs.location - 1j * math.pi) < 1e-12
    assert obs.kind == "simple_pole"
    amplitude, exponent, spread = obs.local_fit
    assert abs(exponent + 1.0) < 1e-9 and abs(amplitude + 1.0) < 1e-9
    assert spread <= 1e-12


def test_detection_homes_in_on_a_pole_read_from_afar():
    # i pi is 1.6 away; a single read from here is good to about 6e-7 only
    x = 0.5 + 1.5j
    obs = detect_singularity(_logistic(), x, _logistic_state(x))
    assert abs(obs.location - 1j * math.pi) < 1e-11
    assert abs(obs.local_fit[1] + 1.0) < 1e-10


def test_jet_between_equal_poles_is_no_blowup():
    # on the real axis the poles at +-i pi are equally near; neither dominates
    with pytest.raises(NoBlowup):
        detect_singularity(_logistic(), 2.0, _logistic_state(2.0))


def test_read_not_confirmed_halfway_is_no_blowup():
    # from 2 + 0.5i the poles at +-i pi are 3.30 and 4.15 away: the first jet
    # reads a location 0.15 from i pi with exponent 4.4, the halfway jet another
    with pytest.raises(NoBlowup, match="halfway"):
        detect_singularity(_logistic(), 2.0 + 0.5j, _logistic_state(2.0 + 0.5j))


def _pole_jet(a, p, A, far, order=walk._ORDER):
    """[t^k] of A (1 - t/a)^-p prod_b (1 - t/b)^-1, k <= order: a pole of order p at t = a."""
    h = np.zeros(order + 1, complex)
    h[0] = A
    for r in [a] * p + list(far):  # times 1/(1 - t/r): partial sums of h_j r^j, over r^k
        h = np.cumsum(h * r ** np.arange(order + 1.0)) / r ** np.arange(order + 1.0)
    return h


def _pole_jets():
    """Strategy: (a, p, A, far), a pole of order p at |a| in [0.5, 1.5] and 0..3 poles b
    2..4 times as far, drawn from a seed: generic numbers, never a jet like 1/(1 - t)
    whose Toeplitz systems are exactly singular (it keeps its Domb-Sykes read; see the
    stack test)."""
    st = pytest.importorskip("hypothesis.strategies")

    def draw(seed, p, count):
        rng = np.random.default_rng(seed)
        a, A = rng.uniform(0.5, 1.5) * np.exp(2j * math.pi * rng.random(2))
        far = abs(a) * rng.uniform(2.0, 4.0, count) * np.exp(2j * math.pi * rng.random(count))
        return a, p, A, list(far)

    return st.builds(draw, st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, 3))


def test_pade_read_of_a_rational_jet_is_its_pole():
    # the location, the exponent (the residue of h'/h) and the amplitude of a
    # simple or double pole of a rational h, read about x = 1 + i at scale 0.5
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_pole_jets())
    def check(jet):
        a, p, A, far = jet
        (obs,) = walk._reads(_logistic(), [walk._Read(1 + 1j, _pole_jet(*jet)[None], 0.5,
                                                      False)])
        assert obs.kind == ("simple_pole", "double_pole")[p - 1]
        assert abs(obs.location - (1 + 1j + 0.5 * a)) <= 1e-10
        assert abs(obs.local_fit[1] + p) <= 1e-9 and obs.exponent_deviation <= 1e-9
        amplitude = A * np.prod([1 / (1 - a / b) for b in far]) * (-0.5 * a) ** p
        assert abs(obs.local_fit[0] - amplitude) <= 1e-8 * abs(amplitude)
        assert obs.local_fit[2] <= 1e-10

    check()


def test_a_noisy_jet_reads_its_pole_or_refuses():
    # 1e-13 relative noise on every coefficient: the true pole within the
    # confirm threshold, 1e-3 of its distance, or NoBlowup
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_pole_jets(), st.integers(0, 2**32 - 1))
    def check(jet, seed):
        rng = np.random.default_rng(seed)
        noise = [1.0, 1j] @ rng.normal(size=(2, walk._ORDER + 1))
        h = _pole_jet(*jet) * (1.0 + 1e-13 * noise)
        (obs,) = walk._reads(_logistic(), [walk._Read(0j, h[None], 1.0, False)])
        assert isinstance(obs, NoBlowup) or abs(obs.location - jet[0]) <= 1e-3 * abs(jet[0])

    check()


def test_a_pade_read_over_a_stack_is_each_lone_read():
    # rational poles, a geometric jet whose Toeplitz systems are singular, a
    # square-root branch point (no Pade read), a logistic jet, an exact jet and
    # eight more poles: each lane reads bitwise what it reads alone, and the
    # singular lane keeps its own Domb-Sykes read
    s, x, k = _logistic(), 2.0 + 2.5j, np.arange(walk._ORDER + 1)
    rng = np.random.default_rng(7)
    logistic = _x_jet(s, [x], _logistic_state(x)[:, None], [2.0], walk._ORDER)[0, 0]
    branch = np.cumprod(np.r_[1.0, (k[:-1] + 0.5) / k[1:]]) / 0.9 ** k  # (1 - t/0.9)^-1/2
    lanes = [(0j, _pole_jet(0.8j, 2, 1.5, [2.0]), 1.0, False),
             (1.0, np.ones(walk._ORDER + 1, complex), 1.0, False),  # 1/(1 - t)
             (0.5j, _pole_jet(-1.1 + 0.2j, 1, 2.0 - 1j, [3.0j, -2.5]), 2.0, False),
             (0j, branch.astype(complex), 1.0, False),
             (x, logistic, 2.0, False),
             (0j, _pole_jet(0.7, 1, 1.0, []), 1.0, True)]
    lanes += [(0j, _pole_jet(cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-3.0, 3.0)), 1 + i % 2,
                             1.0, [2.5 + i]), 1.0, False) for i in range(8)]
    asks = [walk._Read(x0, h[None], rho, exact) for x0, h, rho, exact in lanes]
    together = walk._reads(s, asks)
    for got, ask in zip(together, asks, strict=True):
        (alone,) = walk._reads(s, [ask])
        if isinstance(alone, Exception):
            assert type(got) is type(alone) and str(got) == str(alone)
        else:
            assert got == alone
    assert [type(o).__name__ for o in together] == ["PoleObservation"] * 5 + [
        "NoBlowup"] + ["PoleObservation"] * 8
    # 1/(1 - t) from x = 1 at radius 1: a simple pole at 2, homed from halfway
    assert together[1].kind == "simple_pole" and together[1].location == 2.0
    assert together[1].local_fit[1:] == (-1.0, math.inf)
    assert together[3].kind == "branch_neg_half" and together[3].local_fit[2] == math.inf
    assert abs(together[4].location - 1j * math.pi) < 1e-12


def test_a_pade_root_that_disagrees_is_no_blowup():
    # 1/(1 - t) - 0.9/(1 - t/1.01): Domb-Sykes reads one double pole at 1.0036,
    # the Pade root is the simple pole at 1, 3.6e-3 away
    h = 1.0 - 0.9 / 1.01 ** np.arange(walk._ORDER + 1.0) + 0j
    (obs,) = walk._reads(_logistic(), [walk._Read(0j, h[None], 1.0, False)])
    assert isinstance(obs, NoBlowup) and "does not confirm" in str(obs)

def test_entire_solution_is_no_blowup(lin):
    with pytest.raises(NoBlowup):
        detect_singularity(lin, 2.0 + 1.0j, [1.0])


def test_straight_shot_underflows_at_the_pole(p1, e_p1, far_start):
    arr = predict_array(12.0, 12.0, -0.5, [10])
    x_ref = arr.entries[0].x_ref
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    beyond = x_ref + 0.3 * (x_ref - x_far) / abs(x_ref - x_far)
    with pytest.raises(StepUnderflow) as info:
        integrate_path(p1, y_far, (x_far, beyond))
    assert abs(info.value.where - x_ref) < 0.05
    assert info.value.trajectory.x.shape[0] > 100
    assert info.value.trajectory.stats["stopped"] == "state escaped"


def test_hunt_lands_on_predicted_pole(p1, e_p1, far_start):
    arr = predict_array(12.0, 12.0, -0.5, [10])
    en = arr.entries[0]
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    obs = hunt_singularity(p1, x_far, y_far, en.x_ref)
    assert abs(obs.location - en.x_ref) < 0.15
    assert obs.kind == "double_pole"
    assert obs.local_fit[1] == pytest.approx(-2.0, abs=0.05)
    assert abs(obs.local_fit[0]) == pytest.approx(12.0, abs=0.5)


def _walk_through_x8(x_far, y_far, x8, x9):
    """A walk from x_far through the n = 8 prediction x8 to 2.0 short of x9."""
    return walk._walk(x_far, y_far, [x8, x9 + walk._STAGING * (x8 - x9) / abs(x8 - x9)],
                          abs(x9 - x_far), [])


def test_walk_through_a_pole_raises_singular_approach(p1, e_p1, far_start):
    # x8 lies about 0.02 from the n = 8 pole: the jets shrink there while
    # the distance left to x8 does not
    x8, x9 = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, [8, 9]).entries)
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    with pytest.raises(SingularApproach) as info:
        walk._lockstep(p1, _x_jet, [_walk_through_x8(x_far, y_far, x8, x9)])
    assert abs(info.value.where - x8) < 0.05


def test_hunts_driven_together_end_as_they_do_alone(p1, e_p1, far_start):
    x8, x9, x10 = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, [8, 9, 10]).entries)
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    alone = hunt_singularity(p1, x_far, y_far, x10)
    with pytest.raises(SingularApproach) as info:
        walk._lockstep(p1, _x_jet, [_walk_through_x8(x_far, y_far, x8, x9)])

    def caught(steps):
        try:
            return (yield from steps)
        except SingularApproach as err:
            return err

    both = walk._lockstep(p1, _x_jet, [walk._hunt(x_far, y_far, x10),
                                       caught(_walk_through_x8(x_far, y_far, x8, x9))])
    assert both[0] == alone
    assert isinstance(both[1], SingularApproach) and both[1].where == info.value.where


def test_survey_raises_its_first_failure_in_n_order(monkeypatch, p1, e_p1):
    # the n = 11 hunt fails before its first jet, the n = 9 hunt after its
    # last; the survey lets every hunt end, then raises n = 9's failure
    x9, x11 = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, [9, 11]).entries)
    hunt, ended = walk._hunt, []

    def failing(x_start, y_start, target, *args):
        if abs(target - x11) < 1e-9:
            raise NotConverging("n = 11 fails first")
        obs = yield from hunt(x_start, y_start, target, *args)
        ended.append(target)
        if abs(target - x9) < 1e-9:
            raise NoBlowup("n = 9 fails last")
        return obs

    monkeypatch.setattr(walk, "_hunt", failing)
    with pytest.raises(NoBlowup, match="n = 9"):
        run_validation(p1, e_p1, 12.0, range(8, 13))
    assert len(ended) == 4


def test_hunt_that_reads_the_other_array_is_no_blowup(far_start):
    # p2a's two pole arrays interleave pi apart: from its far start toward n = 5
    # the first read lands near the other array's pole, 3.1 from the target,
    # and the read from halfway to it disagrees
    s = builtin("p2a")[0]
    e = build_expansion(s, 2, 32)
    x_far = far_start["p2a"]
    y_far, _ = eval_two_scale(e, 1.0, x_far)
    target = predict_array(s.xi_s_hint, 1.0, s.alpha[0], [5]).entries[0].x_ref
    with pytest.raises(NoBlowup, match="halfway"):
        hunt_singularity(s, x_far, y_far, target)


def test_hunt_rejects_a_target_on_its_path_end(p1, e_p1, far_start):
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    with pytest.raises(ValueError, match="x_start"):
        hunt_singularity(p1, x_far, y_far, x_far)


@pytest.mark.parametrize("offset", [1.2e-16, 3e-16])
def test_hunt_toward_a_target_a_few_ulps_away_homes(p1, e_p1, offset):
    # from 1.0 beyond the n = 10 staging point, targets 1 and 3 ulps from the
    # start: a first jet scaled to that distance underflows and reads as terminating
    x0 = predict_array(12.0, 12.0, -0.5, [10]).entries[0].x_ref + 3.0
    y0, _ = eval_two_scale(e_p1, 12.0, x0)
    ref = hunt_singularity(p1, x0, y0, x0 + 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = hunt_singularity(p1, x0, y0, x0 + offset)
    assert 0 < abs(x0 + offset - x0) < 1e-15
    assert abs(obs.location - ref.location) < 1e-9


def test_locates_logistic_poles_against_closed_form():
    s = _logistic()
    run = run_validation(s, build_expansion(s, 2, 32), 1.0, range(1, 7))
    assert len(run.observations) == 6
    for obs in run.observations:
        k = round((obs.location.imag / math.pi - 1.0) / 2.0)
        assert abs(obs.location - 1j * math.pi * (2 * k + 1)) < 1e-11
        assert obs.kind == "simple_pole"
        amplitude, exponent, _ = obs.local_fit
        assert abs(exponent + 1.0) < 1e-8
        assert abs(amplitude + 1.0) < 1e-3


def test_hunt_between_two_poles_finds_one_or_refuses(p1, e_p1, far_start):
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    for pair in ([8, 9], [12, 13]):
        a, b = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, pair).entries)
        try:
            obs = hunt_singularity(p1, x_far, y_far, 0.5 * (a + b))
        except TransasymError:
            continue
        assert min(abs(obs.location - a), abs(obs.location - b)) < 0.15


def _hunt_record(caplog, hunt, *args, **kwargs):
    """Run one hunt through ``hunt``; return what it returns and the ``hunt``
    attribute it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        obs = hunt(*args, **kwargs)
    records = [r for r in caplog.records if hasattr(r, "hunt")]
    assert len(records) == 1
    assert records[0].name == "transasym" and records[0].levelno == logging.DEBUG
    return obs, records[0].hunt


def test_unsettled_estimates_raise_not_converging(monkeypatch, caplog, p1, e_p1, far_start):
    en = predict_array(12.0, 12.0, -0.5, [10]).entries[0]
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    _, hunt = _hunt_record(caplog, hunt_singularity, p1, x_far, y_far, en.x_ref)
    # one jet short of the read that showed the estimates had settled
    monkeypatch.setattr(walk, "_JET_BUDGET", hunt["jets"] - 1)
    with pytest.raises(NotConverging):
        hunt_singularity(p1, x_far, y_far, en.x_ref)


# -- constant extraction -----------------------------------------------------


def test_formal_sum_runs_over_its_row():
    c = [0.0, 0.0, 1.0, 2.0, 3.0]   # x^-2 + 2 x^-3 + 3 x^-4
    assert abs(validate._formal_sum(c, 2.0) - (0.25 + 0.25 + 3 / 16)) < 1e-15
    assert abs(validate._formal_sum(c[:4], 2.0) - 0.5) < 1e-15


def _truncated_sum_samples(p1, C):
    # partial sums cut at the least-term rule, plus C times the pure scale
    c = formal_power_series(p1, 40)[0]
    xs = [r * cmath.exp(1j * math.pi / 4) for r in np.linspace(24, 38, 8)]
    out = []
    for x in xs:
        part = np.polynomial.polynomial.polyval(1 / x, c[: int(math.floor(abs(x))) + 1])
        E = cmath.exp(-x - 0.5 * cmath.log(x))
        out.append((x, [part + C * E, 0.0]))
    return out


def test_unsteady_rung_constants_raise_not_converging(p1, e_p1):
    # each rung carries its own unit-modulus C, so the per-rung estimates
    # jump by O(1) and no extrapolation step can fall below 0.1 |value|
    rng = np.random.default_rng(0)
    samples = []
    for x, y in _truncated_sum_samples(p1, 0.0):
        C = cmath.exp(2j * math.pi * rng.random())
        samples.append((x, [y[0] + C * cmath.exp(-x - 0.5 * cmath.log(x)), y[1]]))
    with pytest.raises(NotConverging):
        extract_C(p1, e_p1, samples)


def test_extracts_manufactured_constant(p1, e_p1):
    est = extract_C(p1, e_p1, _truncated_sum_samples(p1, 1.0))
    assert abs(est.value - 1.0) < 1e-6


def test_a_sample_that_is_not_finite_raises_not_converging(p1, e_p1):
    samples = _truncated_sum_samples(p1, 1.0)
    x, y = samples[3]
    samples[3] = (x, [complex(math.nan), y[1]])
    with pytest.raises(NotConverging, match=f"not finite at .x. = {abs(x):.6g}"):
        extract_C(p1, e_p1, samples)


def test_samples_that_share_a_modulus_are_refused(p1, e_p1):
    # the extrapolation runs in 1/|x|: two samples at one |x| have no step between them
    samples = _truncated_sum_samples(p1, 1.0)[:4]
    x, y = samples[1]
    samples.append((x.conjugate(), y))   # five samples: the extrapolation takes each
    with pytest.raises(ValueError, match="two samples share one .x."):
        extract_C(p1, e_p1, samples)


def test_zero_residue_reads_as_zero_or_refuses(p1, e_p1):
    # with nothing beyond the partial sums the estimate must either come
    # out tiny or refuse to converge; both are correct answers
    samples = [(x, [y[0] - 1.0 * cmath.exp(-x - 0.5 * cmath.log(x)), y[1]])
               for x, y in _truncated_sum_samples(p1, 1.0)]
    try:
        est = extract_C(p1, e_p1, samples)
        assert abs(est.value) < 1e-6
    except NotConverging:
        pass


@pytest.fixture(scope="module")
def e12_p1(p1):
    # seeding needs the formal-series content the deeper levels carry;
    # shallow seeds leave a power-law residue comparable to the signal
    return build_expansion(p1, 12, 32)


def test_ladder_recovers_C_on_two_rays(p1, e12_p1):
    e = e12_p1
    a = extraction_ladder(p1, e, 12.0, 1.2, ladder_radii(e, 1.2))
    b = extraction_ladder(p1, e, 12.0, 1.0, ladder_radii(e, 1.0))
    assert abs(a.value - 12.0) / 12.0 < 1e-3
    assert abs(b.value - 12.0) / 12.0 < 1e-3
    assert a.consistent_with(b)


def test_ladder_rungs_match_reference_integration(monkeypatch, p1, e12_p1):
    # the rung states handed to extract_C, against DOP853 at rtol 1e-13 over
    # the same rungs, in units of the C-carrying scale |C e^{-x} x^{alpha_1}|
    C, arg = 12.0, 0.8
    samples = []
    extract = validate.extract_C

    def recorded(s, e, pts, **kwargs):
        samples.extend(pts)
        return extract(s, e, samples, **kwargs)

    monkeypatch.setattr(validate, "extract_C", recorded)
    extraction_ladder(p1, e12_p1, C, arg, ladder_radii(e12_p1, arg))
    assert len(samples) == 8
    (x, y), alpha1 = samples[0], complex(p1.alpha[0])
    for x_next, y_rung in samples[1:]:
        delta = x_next - x
        sol = solve_ivp(lambda t, v: delta * p1.field(x + t * delta, v), (0.0, 1.0), y,
                        method="DOP853", rtol=1e-13, atol=1e-16)
        x, y = x_next, sol.y[:, -1]
        scale = abs(C * cmath.exp(-x + alpha1 * cmath.log(x)))
        assert np.max(np.abs(y_rung - y)) <= 1e-8 * scale


def test_ladder_past_its_jet_budget_raises_not_converging(monkeypatch, p1, e12_p1):
    jets = [0]
    jet = walk._jet

    def counted(*args):
        jets[0] += 1
        return jet(*args)

    monkeypatch.setattr(walk, "_jet", counted)
    radii = ladder_radii(e12_p1, 1.2)
    extraction_ladder(p1, e12_p1, 12.0, 1.2, radii)
    # a jet serves every rung inside its reach, so the walk takes fewer jets than legs
    assert 1 <= jets[0] < len(radii) - 1
    monkeypatch.setattr(walk, "_JET_BUDGET", jets[0] - 1)
    with pytest.raises(NotConverging):
        extraction_ladder(p1, e12_p1, 12.0, 1.2, radii)


def test_ladder_past_the_formal_series_raises_not_converging(p1, e12_p1):
    # at arg x = 1.5 the rungs reach |x| = 191, past order 173, where p1's
    # formal series leaves double range
    radii = ladder_radii(e12_p1, 1.5)
    assert max(radii) > 173
    with pytest.raises(NotConverging, match="formal series is not finite from order 173"):
        extraction_ladder(p1, e12_p1, 12.0, 1.5, radii)


def test_ladder_with_a_repeated_radius_is_refused(p1, e12_p1):
    with pytest.raises(ValueError, match="two samples share one .x."):
        extraction_ladder(p1, e12_p1, 12.0, 1.2, [20, 20, 24, 28, 32])


def test_ladder_logs_its_jets(caplog, p1, e12_p1):
    radii = ladder_radii(e12_p1, 1.2)
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        extraction_ladder(p1, e12_p1, 12.0, 1.2, radii)
    (ladder,) = [r.ladder for r in caplog.records if hasattr(r, "ladder")]
    assert ladder["C"] == 12.0 and ladder["arg"] == 1.2 and ladder["rungs"] == len(radii)
    assert 1 <= ladder["jets"] < len(radii) - 1


def _inward(arg, r, rungs):
    """(start, waypoints) on the ray ``arg``, from |x| = r inward by each of ``rungs``."""
    return cmath.rect(r, arg), [cmath.rect(w, arg) for w in r - np.cumsum(rungs)]


def _inward_walks():
    """Strategy: (start, waypoints) on a p1 ray, 3..8 rungs inward from |x| in [25, 45]."""
    st = pytest.importorskip("hypothesis.strategies")
    return st.tuples(st.floats(0.8, 1.3), st.floats(25.0, 45.0),
                     st.lists(st.floats(0.3, 3.0), min_size=3, max_size=8)).map(
        lambda d: _inward(*d))


def test_one_walk_through_many_waypoints_matches_a_chain_of_legs(p1, e12_p1):
    # each state of one walk against single-waypoint walks chained leg by leg, within
    # 16 eps e^{Re(x0 - w)} of max|y|: walking inward grows the e^{-x} mode by that factor
    # (the largest ratio in 300 draws is 2.6); two walks in lockstep end bitwise as alone
    hypothesis = pytest.importorskip("hypothesis")

    def seed(x):
        return np.asarray(eval_two_scale(e12_p1, 12.0, x)[0], dtype=complex)

    def alone(steps):
        return walk._lockstep(p1, _x_jet, [steps])[0]

    @hypothesis.settings(max_examples=20, deadline=None, database=None)
    @hypothesis.given(_inward_walks(), _inward_walks())
    @hypothesis.example(_inward(1.0, 25.0, [1, 1, 1]), _inward(0.8125, 36.0, [1, 1, 3, 3, 3, 3]))
    def check(first, second):
        lone = []
        for x0, pts in (first, second):
            centres, legs = [], []
            states, _ = alone(walk._walk(x0, seed(x0), pts, abs(pts[-1] - x0), centres))
            x, y, rho = x0, seed(x0), abs(pts[-1] - x0)
            for w, got in zip(pts, states, strict=True):
                (y,), rho = alone(walk._walk(x, y, [w], rho, legs))
                x = w
                bound = 16 * np.finfo(float).eps * math.exp((x0 - w).real) * np.max(np.abs(y))
                assert np.max(np.abs(got - y)) <= bound
            assert len(centres) <= len(legs)
            lone.append(states)
        both = walk._lockstep(p1, _x_jet, [
            walk._walk(x0, seed(x0), pts, abs(pts[-1] - x0), []) for x0, pts in (first, second)])
        for (got, _), states in zip(both, lone):
            assert all(np.array_equal(a, b) for a, b in zip(got, states, strict=True))

    check()


def _lane_read(a):
    """Reference read of one lane's jet a (n, K+1), one lane at a time."""
    k = np.arange(walk._ORDER + 1)
    mag = np.max(np.abs(a), axis=0)
    keep = (k >= walk._ORDER // 2) & (mag > 0)
    if np.count_nonzero(keep) < 2:
        return a, 1.0, True, math.inf
    u, v = k[keep] - k[keep].mean(), np.log(mag[keep])
    r = math.exp(-np.sum(u * (v - v.mean())) / np.sum(u * u))
    a = a * r ** k
    top = np.max(np.abs(a[:, -1]))
    return a, r, False, 0.5 if top == 0 else min(
        0.5, (walk._EPS * np.max(np.abs(a[:, 0])) / top) ** (1.0 / walk._ORDER))


def test_batched_reads_are_bitwise_the_lane_reads(p1, e_p1, far_start):
    # thirteen p1 lanes at scales 0.05..2 of their distance to the far start, one
    # with zeros in its tail and one zero jet
    x = far_start["p1"] + 1j * np.linspace(0.0, 70.0, 13)
    y = np.array([eval_two_scale(e_p1, 12.0, v)[0] for v in x]).T
    a = _x_jet(p1, x, y, np.abs(x) * np.geomspace(0.05, 2.0, 13), walk._ORDER)
    a[3, :, 25::3] = 0.0
    a[7] = 0.0
    for got, want in zip(walk._scale_jets(a), map(_lane_read, a), strict=True):
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def _asking(steps, asked):
    """The walk ``steps``, recording each jet it asks for in ``asked``."""
    read = None
    while True:
        try:
            request = steps.send(read)
        except StopIteration as stop:
            return stop.value
        asked.append(request)
        read = yield request


# y1 under the germ of a terminating F_0 (z y1^2: F_0 = c xi in xi), y2 logistic;
# y = 0 is a solution in x, and F = (c xi, 0) a line in xi
_MIXED = NormalSystem([1.0, 2.0], [0.3, 0.0],
                      AnalyticGerm(2, {(1, (2, 0)): [1.0, 0.0], (0, (0, 2)): [0.0, 1.0]}))


# per kernel: an ordinary lane, a short one, a retrying lane and a terminating lane
_MIXED_LANES = [
    (_x_jet, [(3 + 1j, (0.1, 0.2), [4 + 1j, 6 + 1j], 1.0),  # ordinary
              (3 + 2j, (0.05, 0.3), [5 + 2j], 1.0),
              (3 + 1j, (0.1, 0.2), [4 + 1j, 6 + 1j], 0.01),  # trial scale 100x short
              (3 + 1j, (0.0, 0.0), [4 + 1j, 9 + 1j], 1.0)]),  # zero jet
    (_xi_jet, [(0.25, (0.25, 0.1), [0.4, 0.6], 0.5),
               (0.25 + 0.1j, (0.25 + 0.1j, 0.05), [0.5 + 0.1j], 0.5),
               (0.25, (0.25, 0.1), [0.4, 0.6], 0.005),
               (0.25, (0.25, 0.0), [0.5, 2.0], 0.25)]),  # F = (xi, 0): a line
]


def _mixed_walk(lane, centres):
    x0, y0, pts, rho = lane
    return walk._walk(x0, np.array(y0, dtype=complex), pts, rho, centres)


@pytest.mark.parametrize("kernel, lanes", _MIXED_LANES, ids=["x", "xi"])
def test_mixed_lanes_end_as_they_do_alone(kernel, lanes):
    # a retrying lane, a terminating lane and ordinary lanes in one lockstep
    alone, asked, centres = [], [[] for _ in lanes], [[] for _ in lanes]
    for lane, a, c in zip(lanes, asked, centres):
        alone += walk._lockstep(_MIXED, kernel, [_asking(_mixed_walk(lane, c), a)])
    together = walk._lockstep(_MIXED, kernel, [_mixed_walk(lane, []) for lane in lanes])
    for (states, rho), (lone, lone_rho) in zip(together, alone, strict=True):
        assert rho == lone_rho
        assert all(np.array_equal(a, b) for a, b in zip(states, lone, strict=True))
    assert [len(a) - len(c) for a, c in zip(asked, centres)][:2] == [0, 0]
    assert len(asked[2]) > len(centres[2])  # replaced its first trial scale
    assert len(centres[3]) == 1 and alone[3][1] == lanes[3][3]  # one exact jet, at its trial scale
    x0, y0, pts, _ = lanes[3]  # y = 0 and F = (xi, 0) both scale with x
    assert np.allclose(alone[3][0][-1], np.array(y0) * pts[-1] / x0, rtol=1e-15, atol=0)


def _jet_args(kernel, s, lanes, seed, big=False):
    """Inputs of ``lanes`` lanes for ``kernel`` on ``s``; ``big`` states overflow the jet."""
    rng = np.random.default_rng(seed)
    z, y = (rng.normal(size=(*shape, 2)) @ [1, 1j] for shape in ((lanes,), (s.n, lanes)))
    y *= 1e200 if big else 0.05
    if kernel is _x_jet:
        return 6.0 + z, y, 0.5 + rng.random(lanes)
    return 0.25 + 0.05 * z, y, 0.02 + 0.05 * rng.random(lanes)


@pytest.mark.parametrize("lanes", [1, 13])
@pytest.mark.parametrize("kernel", [_x_jet, _xi_jet], ids=["x", "xi"])
@pytest.mark.parametrize("label", ["p1", "abel"])
def test_a_jet_reads_nothing_an_earlier_jet_left(label, kernel, lanes):
    # the kernel's workspace and views are kept on the system between calls
    used, order = builtin(label)[0], 40
    args = _jet_args(kernel, used, lanes, 0)
    kernel(used, *_jet_args(kernel, used, lanes, 1), order)
    kernel(used, *_jet_args(kernel, used, 4, 2), order)
    kernel(used, *_jet_args(kernel, used, lanes, 3), 1)
    with np.errstate(all="ignore"):
        blown = kernel(used, *_jet_args(kernel, used, lanes, 4, big=True), order)
    assert not np.isfinite(blown).all()
    got, want = kernel(used, *args, order), kernel(builtin(label)[0], *args, order)
    assert np.isfinite(want).all() and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel, lanes", _MIXED_LANES, ids=["x", "xi"])
def test_a_lockstep_whose_lanes_shrink_keeps_one_plan(kernel, lanes):
    s, sizes = NormalSystem(_MIXED.lam, _MIXED.alpha, _MIXED.germ), []

    def counting(s, x, y, rho, order):
        sizes.append(len(x))
        return kernel(s, x, y, rho, order)

    walk._lockstep(s, counting, [_mixed_walk(lane, []) for lane in lanes])
    assert sizes[0] == len(lanes) and len(set(sizes)) > 1
    assert list(s._plans) == [(kernel, walk._ORDER)]
    assert len(s._plans[kernel, walk._ORDER][0]) == sizes[-1]


@pytest.mark.parametrize("kernel", [_x_jet, _xi_jet], ids=["x", "xi"])
def test_a_copied_or_pickled_system_jets_as_the_original(kernel):
    s = builtin("abel")[0]
    args, other = _jet_args(kernel, s, 3, 0), _jet_args(kernel, s, 3, 1)
    want = [kernel(builtin("abel")[0], *a, 40).tobytes() for a in (other, args)]
    assert kernel(s, *args, 40).tobytes() == want[1]
    for c in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert [kernel(c, *a, 40).tobytes() for a in (other, args)] == want
        assert [kernel(s, *a, 40).tobytes() for a in (other, args)] == want


def test_a_jet_whose_scale_misses_four_times_returns_its_own_scale():
    # a stand-in kernel whose tail always reads r = 20: every trial scale misses
    # (0.1, 10), and the jet returned is the fourth trial's, rescaled by r once
    trials = []

    def kernel(s, x, y, rho, order):
        trials.extend(rho)
        return np.tile(20.0 ** -np.arange(order + 1.0), (len(x), 1, 1)).astype(complex)

    a, rho, exact, _ = walk._lockstep(None, kernel, [walk._jet(0j, np.ones(1), 1.0, [])])[0]
    assert trials == pytest.approx([1.0, 20.0, 400.0, 8000.0], rel=1e-12)
    assert not exact and rho == pytest.approx(1.6e5, rel=1e-12)
    assert np.allclose(a, 1.0, rtol=1e-12, atol=0)  # 20^-k rescaled by r^k once


def test_estimate_consistency_is_symmetric():
    a = CEstimate(1.0 + 0j, 0.2, (1.0 + 0j,))
    b = CEstimate(1.3 + 0j, 0.2, (1.3 + 0j,))
    c = CEstimate(2.0 + 0j, 0.1, (2.0 + 0j,))
    assert a.consistent_with(b) and b.consistent_with(a)
    assert not a.consistent_with(c)


# -- array comparison --------------------------------------------------------


def test_compare_identical_arrays():
    pred = predict_array(12.0, 12.0, -0.5, range(8, 13))
    locs = [en.x_ref for en in pred.entries]
    rep = compare_arrays(pred, locs)
    assert rep.all_matched and rep.stats["max_distance"] < 1e-12


def test_compare_shifted_arrays():
    pred = predict_array(12.0, 12.0, -0.5, range(8, 13))
    locs = [en.x_ref + 0.1 for en in pred.entries]
    rep = compare_arrays(pred, locs)
    assert rep.stats["max_distance"] == pytest.approx(0.1, abs=1e-9)
    assert rep.stats["median_distance"] == pytest.approx(0.1, abs=1e-9)


def test_compare_dissolves_outliers():
    pred = predict_array(12.0, 12.0, -0.5, range(8, 13))
    locs = [en.x_ref for en in pred.entries]
    rep = compare_arrays(pred, locs[:-1] + [locs[-1] + 5.0])
    assert rep.stats["n_pairs"] == 4
    assert len(rep.unmatched_predictions) == 1
    assert len(rep.unmatched_observations) == 1
    rep_far = compare_arrays(pred, [x + 1.5 for x in locs])
    assert rep_far.stats["n_pairs"] == 0


def test_capture_radius_is_one():
    # a pair exactly 1 apart matches; one just beyond it does not
    pred = predict_array(12.0, 12.0, -0.5, [8, 9])
    x8, x9 = (en.x_ref for en in pred.entries)
    on, beyond = x8 - 1j, x9 - (1.0 + 1e-12) * 1j
    assert abs(x8 - on) == validate._CAPTURE == 1.0
    rep = compare_arrays(pred, [on, beyond])
    assert rep.pairs == ((8, x8, on, 1.0),)
    assert rep.unmatched_predictions == ((9, x9),)
    assert rep.unmatched_observations == (beyond,)


def test_a_hunt_is_judged_against_its_own_target():
    # n = 9's pole reported by n = 8's hunt and the reverse: each lies a
    # spacing of about 2 pi from its own target, so neither matches
    pred = predict_array(12.0, 12.0, -0.5, [8, 9])
    x8, x9 = (en.x_ref for en in pred.entries)
    rep = compare_arrays(pred, [x9, x8])
    assert rep.stats["n_pairs"] == 0
    assert rep.unmatched_predictions == ((8, x8), (9, x9))
    assert rep.unmatched_observations == (x9, x8)


@pytest.mark.parametrize("count", [1, 3])
def test_compare_needs_one_observation_per_hunted_entry(count):
    pred = predict_array(12.0, 12.0, -0.5, [8, 9])
    with pytest.raises(ValueError, match="observations for 2 hunted entries"):
        compare_arrays(pred, [pred.entries[0].x_ref] * count)


def test_the_package_imports_without_scipy(tmp_path, monkeypatch, capsys):
    # scipy serves integrate_path, the tests' RK45 reference, alone; it is
    # imported there, on first call.  With scipy unimportable a survey runs
    # and writes the bytes it writes beside scipy.
    script = ("import sys, transasym, transasym.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
              "sys.modules['scipy'] = None\n"
              "sys.exit(transasym.cli.main(['validate', 'p1', '--C', '12', '--n', '8..9',\n"
              "                             '--out', 'noscipy.json']))\n")
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[]\n") and "2/2 matched" in done.stdout
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "p1", "--C", "12", "--n", "8..9", "--out", "run.json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "noscipy.json").read_bytes() == (tmp_path / "run.json").read_bytes()


def test_validation_run_serialization():
    pred = predict_array(12.0, 12.0, -0.5, [8, 9])
    rep = compare_arrays(pred, [en.x_ref for en in pred.entries])
    run = ValidationRun("p1", 12.0 + 0j, 8, 32, pred, (), rep)
    d = run.to_dict()
    assert set(d) == {"system", "C", "M", "K", "predicted", "observations", "comparison"}
    assert (d["M"], d["K"]) == (8, 32)
    est = CEstimate(12.0 + 0j, 1e-4, (12.0 + 0j,))
    d2 = ValidationRun("p1", 12.0 + 0j, 8, 32, pred, (), rep, est).to_dict()
    assert d2["C_extracted"]["value"] == [12.0, 0.0]


# -- per-pole starts ---------------------------------------------------------


def _starts(monkeypatch, s, e, C, n_range):
    """Run ``run_validation`` with a stub for its batched hunt; return the
    run and every (x_start, y_start, target) it was asked to hunt from."""
    calls = []

    def stub(s_, starts, **kwargs):
        calls.extend((complex(x), np.asarray(y), complex(t)) for x, y, t in starts)
        return [PoleObservation(complex(t), "double_pole", (1.0, -2.0, 0.0), 0.0)
                for _, _, t in starts]

    monkeypatch.setattr(validate, "_hunts", stub)
    return run_validation(s, e, C, n_range), calls


@pytest.mark.parametrize("label, C, n_range", [("p1", 12.0, range(8, 21)),
                                               ("abel", 1.0, range(1, 11))])
def test_each_hunt_starts_at_its_staging_point(monkeypatch, request, label, C, n_range):
    # every hunt starts 2.0 toward Re x -> +inf from its refined target, from
    # a seed of the one batched evaluation
    s = request.getfixturevalue(label)
    e = request.getfixturevalue(f"e_{label}")
    evaluated, eval_points = [], validate._eval_points

    def recorded(e_, C_, xs, *args):
        evaluated.append(list(xs))
        return eval_points(e_, C_, xs, *args)

    monkeypatch.setattr(validate, "_eval_points", recorded)
    run, calls = _starts(monkeypatch, s, e, C, n_range)
    targets = [en.x_ref for en in run.predicted.entries if en.x_ref is not None]
    assert len(targets) == len(n_range)
    assert [t for _, _, t in calls] == targets
    assert [x0 for x0, _, _ in calls] == [t + walk._STAGING for t in targets]
    assert evaluated == [[x0 for x0, _, _ in calls]]
    seeds = eval_points(e, C, evaluated[0])[0]
    for (x0, y0, _), y_seed in zip(calls, seeds, strict=True):
        assert np.array_equal(y0, y_seed)
        assert np.array_equal(y0, eval_two_scale(e, C, x0)[0])


@pytest.mark.parametrize("label, C, n_range", [("p1", 12.0, range(8, 21)),
                                               ("abel", 1.0, range(1, 11))])
def test_integration_between_starts_stays_within_the_gevrey_bounds(
        monkeypatch, request, label, C, n_range):
    # ground truth for the eval_two_scale error bound: the integrated state
    # at the next start must agree with the seed there within both bounds
    s = request.getfixturevalue(label)
    e = request.getfixturevalue(f"e_{label}")
    _, calls = _starts(monkeypatch, s, e, C, n_range)
    starts = list(dict.fromkeys(x0 for x0, _, _ in calls))
    assert len(starts) == len(n_range)
    for a, b in zip(starts, starts[1:]):
        y_a, bound_a = eval_two_scale(e, C, a)
        y_b, bound_b = eval_two_scale(e, C, b)
        y_end = integrate_path(s, y_a, (a, b)).y[:, -1]
        assert np.max(np.abs(y_end - y_b)) <= bound_a + bound_b


@pytest.mark.parametrize("label, C, n_range", [("p1", 12.0, range(8, 21)),
                                               ("abel", 1.0, range(1, 11))])
def test_a_lone_hunt_returns_its_survey_observation_bitwise(
        monkeypatch, request, label, C, n_range):
    s = request.getfixturevalue(label)
    e = request.getfixturevalue(f"e_{label}")
    run = run_validation(s, e, C, n_range)
    with monkeypatch.context() as stubbed:
        _, calls = _starts(stubbed, s, e, C, n_range)
    assert [hunt_singularity(s, x0, y0, t) for x0, y0, t in calls] == list(run.observations)


@pytest.mark.parametrize("label, C, n_range, n_tight", [
    ("p1", 12.0, range(8, 21), 8), ("p2a", 1.0, range(2, 12), 4),
    ("p2b", 1.0, range(2, 12), 6), ("abel", 1.0, range(1, 11), 6)])
def test_survey_locations_lie_near_a_deep_walked_reference(label, C, n_range, n_tight):
    # the reference hunts walk from M = 16 seeds at far starts: the point of
    # the ray arg x = 1.2 where |xi| = 1e-3 for a pole no higher than it, else
    # the level |xi| = 1e-3 at the pole's height.  From M = 2 seeds the same
    # hunts are the survey those starts gave at the former default depth.
    # At today's default depth every
    # n >= n_tight lies within 1e-9 of the reference, and no lower n lies
    # farther from it than the former survey does
    s = builtin(label)[0]
    targets = [en.x_ref for en in predict_array(s.xi_s_hint, C, s.alpha[0], n_range).entries]
    level, alpha1 = math.log(C / 1e-3), complex(s.alpha[0])

    def log_xi(x):  # log|xi/1e-3| at x
        return level - x.real + (alpha1 * cmath.log(x)).real

    def on_level(h):  # the point of Im x = h where |xi| = 1e-3
        return complex(brentq(lambda u: log_xi(complex(u, h)), -1e4, 1e4, xtol=1e-14), h)

    ray = cmath.exp(1.2j)
    x_ray = ray * brentq(lambda r: log_xi(r * ray), 1.0, 1e4, xtol=1e-14)
    far = [x_ray if t.imag <= x_ray.imag else on_level(t.imag) for t in targets]

    def walked(M):
        e = build_expansion(s, M, RunConfig.K)
        return np.array([hunt_singularity(s, x0, eval_two_scale(e, C, x0)[0], t).location
                         for x0, t in zip(far, targets)])

    ref, former = walked(16), walked(2)
    run = run_validation(s, build_expansion(s, RunConfig.M, RunConfig.K), C, n_range)
    dist = np.abs(np.array([o.location for o in run.observations]) - ref)
    tight = np.array(n_range) >= n_tight
    assert np.all(dist[tight] <= 1e-9)
    assert np.all(dist[~tight] <= np.abs(former - ref)[~tight])


@pytest.fixture
def field_calls(monkeypatch):
    """Counter of NormalSystem.field calls made while the test runs."""
    count = [0]
    field = NormalSystem.field

    def counted(self, x, y):
        count[0] += 1
        return field(self, x, y)

    monkeypatch.setattr(NormalSystem, "field", counted)
    return count


def test_far_pole_is_cheap(caplog, p1, e_p1):
    jets = {}
    for n in (8, 100):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="transasym"):
            run = run_validation(p1, e_p1, 12.0, [n])
        assert run.report.stats["n_pairs"] == 1
        assert run.report.stats["max_distance"] < 0.15
        jets[n] = [r.hunt["jets"] for r in caplog.records if hasattr(r, "hunt")][0]
    assert jets[100] <= 1.5 * jets[8]


@pytest.mark.parametrize("label, C, n_range, most, nominal", [
    ("p1", 12.0, range(8, 21), 8, -2.0),
    ("abel", 1.0, range(1, 11), 15, -0.5),
], ids=["p1", "abel"])
def test_surveys_settle_in_few_jets(request, caplog, label, C, n_range, most, nominal):
    # homing from _STAGING short stops once successive reads agree within _SETTLE
    s, e = request.getfixturevalue(label), request.getfixturevalue(f"e_{label}")
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        run = run_validation(s, e, C, n_range)
    hunts = [r.hunt for r in caplog.records if hasattr(r, "hunt")]
    assert len(hunts) == len(n_range)
    assert all(h["stopped"] == "settled" for h in hunts)
    jets = [h["jets"] for h in hunts]
    assert max(jets) <= most and sum(jets) <= 100
    assert max(abs(obs.local_fit[1] - nominal) for obs in run.observations) <= 1e-6


def test_a_survey_logs_its_lockstep_rounds(caplog, p1, e_p1, abel, e_abel):
    # the hunts of a survey home together from their staging points: one kernel
    # call per round, and every read of a round in one call; a p1 hunt settles
    # on its first read, a Pade read at its start, while Abel's branch points home
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        run_validation(p1, e_p1, 12.0, range(8, 21))
        run_validation(abel, e_abel, 1.0, range(1, 11))
    records = [r.lockstep for r in caplog.records if hasattr(r, "lockstep")]
    assert records == [{"rounds": 1, "jets": 13, "reads": 13, "read_calls": 1},
                       {"rounds": 5, "jets": 50, "reads": 50, "read_calls": 5}]


def test_a_failed_read_ends_only_its_own_hunt(monkeypatch, caplog, tmp_path, p1, e_p1, far_start):
    # the first read, the n = 10 hunt's alone, gets an estimate whose amplitude
    # overflows; the hunts beside it still settle, log and write their CSVs
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    targets = [en.x_ref for en in predict_array(12.0, 12.0, -0.5, [10, 11, 12]).entries]
    read, calls = walk._domb_sykes, []

    def spoiled(h):
        out = read(h)
        if not calls:
            out[0] = RadiusEstimate(1e-200, 1e-200, -50.0)
        calls.append(len(h))
        return out

    monkeypatch.setattr(walk, "_domb_sykes", spoiled)
    paths = [tmp_path / f"n{n}.csv" for n in (10, 11, 12)]
    with caplog.at_level(logging.DEBUG, logger="transasym"), pytest.raises(OverflowError):
        walk._hunts(p1, [(x_far, y_far, t) for t in targets], csv_paths=paths)
    hunts = {r.hunt["target"]: r.hunt["stopped"] for r in caplog.records if hasattr(r, "hunt")}
    assert hunts == dict(zip(targets, ["OverflowError", "settled", "settled"]))
    assert all(p.exists() for p in paths)


def test_hunt_logs_its_legs(field_calls, caplog, capsys, tmp_path, p1, e_p1, far_start):
    en = predict_array(12.0, 12.0, -0.5, [10]).entries[0]
    x_far = far_start["p1"]
    y_far, _ = eval_two_scale(e_p1, 12.0, x_far)
    csv_path = tmp_path / "centres.csv"
    # a lone hunt writes its CSV through the survey's path, as validate --csv-dir does
    (obs,), hunt = _hunt_record(caplog, walk._hunts, p1, [(x_far, y_far, en.x_ref)],
                                csv_paths=[csv_path])
    assert hunt["start"] == x_far and hunt["target"] == en.x_ref
    assert hunt["approach_length"] == pytest.approx(abs(en.x_ref - x_far) - walk._STAGING)
    assert hunt["stopped"] == "settled" and hunt["spread"] == obs.local_fit[2]
    # one CSV row per jet centre, the first at the start
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert rows.shape[0] == hunt["jets"]
    assert complex(rows[0, 0], rows[0, 1]) == x_far
    # the hunt never evaluates the field pointwise
    assert field_calls[0] == 0
    assert capsys.readouterr() == ("", "")
