"""Complex-plane integration, blow-up detection, and constant extraction."""

import cmath
import csv
import logging
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from transasym import validate
from transasym.errors import (NoBlowup, NotConverging, SingularApproach, StepUnderflow,
                              TransasymError)
from transasym.expansion import build_expansion, eval_two_scale, formal_power_series
from transasym.series import AnalyticGerm
from transasym.singular import predict_array
from transasym.systems import NormalSystem, builtin
from transasym.validate import (CEstimate, PathSpec, PoleObservation,
                                ValidationRun, anchor_point, compare_arrays,
                                detect_singularity, extract_C, extraction_ladder,
                                hunt_singularity, integrate_path, ladder_radii,
                                run_validation)


@pytest.fixture(scope="module")
def lin():
    # y' = -y with no forcing; endpoints are known exactly
    return NormalSystem([1.0], [0.0], AnalyticGerm(1, {}), label="lin")


# -- integrator on a known flow ----------------------------------------------


def test_endpoint_against_exponential(lin):
    spec = PathSpec((1.0, 6.0 + 5.0j), rel_tol=1e-10, abs_tol=1e-14)
    tr = integrate_path(lin, np.array([1.0 + 0j]), spec)
    exact = cmath.exp(-(5.0 + 5.0j))
    assert abs(tr.y[0, -1] - exact) < 1e-9 * abs(exact)


def test_endpoint_is_path_independent(lin):
    a = PathSpec((1.0, 6.0 + 5.0j), rel_tol=1e-10, abs_tol=1e-14)
    b = PathSpec((1.0, 1.0 + 5.0j, 6.0 + 5.0j), rel_tol=1e-10, abs_tol=1e-14)
    y0 = np.array([1.0 + 0j])
    va = integrate_path(lin, y0, a).y[0, -1]
    vb = integrate_path(lin, y0, b).y[0, -1]
    assert abs(va - vb) < 1e-9 * abs(va)


def test_error_tracks_tolerance(lin):
    exact = cmath.exp(-(5.0 + 5.0j))
    errs = []
    for rt in (1e-6, 1e-8):
        tr = integrate_path(lin, np.array([1.0 + 0j]),
                            PathSpec((1.0, 6.0 + 5.0j), rel_tol=rt, abs_tol=1e-16))
        errs.append(abs(tr.y[0, -1] - exact) / abs(exact))
    assert errs[1] < errs[0]


def test_dense_output_interpolates(lin):
    tr = integrate_path(lin, np.array([1.0 + 0j]),
                        PathSpec((1.0, 6.0 + 5.0j)), dense=True)
    assert tr.dense
    mid = 3.5 + 2.5j
    assert abs(tr.eval(mid)[0] - cmath.exp(-(mid - 1.0))) < 1e-6


def test_path_spec_rejects_stationary_leg():
    with pytest.raises(ValueError):
        PathSpec((1.0, 1.0, 2.0))
    assert PathSpec((0.0, 3.0 + 4.0j)).length == pytest.approx(5.0)


def test_trajectory_csv_round_trip(tmp_path, lin):
    tr = integrate_path(lin, np.array([1.0 + 0j]), PathSpec((1.0, 2.0)))
    out = tmp_path / "traj.csv"
    tr.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_re", "x_im", "y1_re", "y1_im"]
    assert len(rows) - 1 == tr.x.shape[0]
    assert float(rows[-1][2]) == pytest.approx(tr.y[0, -1].real)


# -- blow-up detection -------------------------------------------------------


def _logistic():
    # y' = -y + y^2 solves to xi/(1 + xi), xi = C e^{-x}: simple poles
    # of amplitude -1 at x = log C + i pi (2k + 1)
    return NormalSystem(lam=[1.0], alpha=[0.0], germ=AnalyticGerm(1, {(0, (2,)): 1.0}),
                        xi_s_hint=-1.0)


def _logistic_state(x):
    xi = cmath.exp(-x)
    return np.array([xi / (1.0 + xi)])


def test_detects_logistic_simple_pole():
    x = 1j * math.pi + 0.3 * cmath.exp(2.4j)
    obs = detect_singularity(_logistic(), x, _logistic_state(x))
    assert abs(obs.location - 1j * math.pi) < 1e-12
    assert obs.kind == "simple_pole"
    amplitude, exponent, spread = obs.local_fit
    assert abs(exponent + 1.0) < 1e-9 and abs(amplitude + 1.0) < 1e-9
    assert spread == 0.0


def test_jet_between_equal_poles_is_no_blowup():
    # on the real axis the poles at +-i pi are equally near; neither dominates
    with pytest.raises(NoBlowup):
        detect_singularity(_logistic(), 2.0, _logistic_state(2.0))


def test_entire_solution_is_no_blowup(lin):
    with pytest.raises(NoBlowup):
        detect_singularity(lin, 2.0 + 1.0j, [1.0])


def test_straight_shot_underflows_at_the_pole(p1, e_p1):
    arr = predict_array(12.0, 12.0, -0.5, [10])
    x_ref = arr.entries[0].x_ref
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    beyond = x_ref + 0.3 * (x_ref - x_a) / abs(x_ref - x_a)
    with pytest.raises(StepUnderflow) as info:
        integrate_path(p1, y_a, PathSpec((x_a, beyond)), escape=1e8)
    assert abs(info.value.where - x_ref) < 0.05
    assert info.value.trajectory.x.shape[0] > 100


def test_hunt_lands_on_predicted_pole(p1, e_p1):
    arr = predict_array(12.0, 12.0, -0.5, [10])
    en = arr.entries[0]
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    obs = hunt_singularity(p1, x_a, y_a, en.x_ref)
    assert abs(obs.location - en.x_ref) < 0.15
    assert obs.kind == "double_pole"
    assert obs.local_fit[1] == pytest.approx(-2.0, abs=0.05)
    assert abs(obs.local_fit[0]) == pytest.approx(12.0, abs=0.5)


def test_walk_through_a_pole_raises_singular_approach(p1, e_p1):
    # the via point lies about 0.02 from the n = 8 pole: the jets shrink
    # there while the distance left to the via point does not
    x8, x9 = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, [8, 9]).entries)
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    with pytest.raises(SingularApproach) as info:
        hunt_singularity(p1, x_a, y_a, x9, via=[x8])
    assert abs(info.value.where - x8) < 0.05


def test_hunt_rejects_a_target_on_its_path_end(p1, e_p1):
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    with pytest.raises(ValueError, match="x_start"):
        hunt_singularity(p1, x_a, y_a, x_a)
    with pytest.raises(ValueError, match="via"):
        hunt_singularity(p1, x_a, y_a, x_a + 1.0, via=(x_a + 1.0,))


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


def test_hunt_between_two_poles_finds_one_or_refuses(p1, e_p1):
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    for pair in ([8, 9], [12, 13]):
        a, b = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, pair).entries)
        try:
            obs = hunt_singularity(p1, x_a, y_a, 0.5 * (a + b))
        except TransasymError:
            continue
        assert min(abs(obs.location - a), abs(obs.location - b)) < 0.15


def _hunt_record(caplog, *args, **kwargs):
    """Run a hunt; return its observation and the ``hunt`` attribute it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        obs = hunt_singularity(*args, **kwargs)
    records = [r for r in caplog.records if hasattr(r, "hunt")]
    assert len(records) == 1
    assert records[0].name == "transasym" and records[0].levelno == logging.DEBUG
    return obs, records[0].hunt


def test_unsettled_estimates_raise_not_converging(monkeypatch, caplog, p1, e_p1):
    en = predict_array(12.0, 12.0, -0.5, [10]).entries[0]
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    _, hunt = _hunt_record(caplog, p1, x_a, y_a, en.x_ref)
    # one jet short of the read that showed the estimates had settled
    monkeypatch.setattr(validate, "_JET_BUDGET", hunt["jets"] - 1)
    with pytest.raises(NotConverging):
        hunt_singularity(p1, x_a, y_a, en.x_ref)


# -- constant extraction -----------------------------------------------------


def _truncated_sum_samples(p1, C):
    # partial sums cut at the least-term rule, plus C times the pure scale
    tilde = formal_power_series(p1, 40)[0]
    xs = [r * cmath.exp(1j * math.pi / 4) for r in np.linspace(24, 38, 8)]
    out = []
    for x in xs:
        part = tilde.evaluate(x, r_max=int(math.floor(abs(x))))
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
    jet = validate._jet

    def counted(*args):
        jets[0] += 1
        return jet(*args)

    monkeypatch.setattr(validate, "_jet", counted)
    radii = ladder_radii(e12_p1, 1.2)
    extraction_ladder(p1, e12_p1, 12.0, 1.2, radii)
    assert jets[0] >= len(radii) - 1
    monkeypatch.setattr(validate, "_JET_BUDGET", jets[0] - 1)
    with pytest.raises(NotConverging):
        extraction_ladder(p1, e12_p1, 12.0, 1.2, radii)


def test_estimate_consistency_is_symmetric():
    a = CEstimate(1.0 + 0j, 0.2, (1.0 + 0j,))
    b = CEstimate(1.3 + 0j, 0.2, (1.3 + 0j,))
    c = CEstimate(2.0 + 0j, 0.1, (2.0 + 0j,))
    assert a.consistent_with(b) and b.consistent_with(a)
    assert not a.consistent_with(c)
    assert complex(a) == 1.0 + 0j


# -- array comparison and anchoring ------------------------------------------


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
    rep_tight = compare_arrays(pred, [x + 0.1 for x in locs], capture=0.05)
    assert rep_tight.stats["n_pairs"] == 0


def test_anchor_sits_on_the_requested_level(p1, e_p1):
    # p2b with alpha = 0.3 + 0.4i has alpha_1 = -0.8 - 0.4i, whose imaginary
    # part scales |x^{alpha_1}| by e^{-Im alpha_1 arg x}
    p2b = builtin("p2b", alpha=0.3 + 0.4j)[0]
    e_p2b = build_expansion(p2b, 1, 8)
    assert complex(p2b.alpha[0]).imag != 0
    for s, e, C in ((p1, e_p1, 12.0), (p2b, e_p2b, 2.0 - 1.0j)):
        for arg in (1.0, 1.2):
            x = anchor_point(s, C, arg, 1e-3)
            assert cmath.phase(x) == pytest.approx(arg, abs=1e-12)
            assert abs(e.xi(C, x)) == pytest.approx(1e-3, rel=1e-12)


def test_anchor_rejects_bad_rays(p1):
    with pytest.raises(ValueError):
        anchor_point(p1, 0.0, 1.0)
    with pytest.raises(ValueError):
        anchor_point(p1, 12.0, 2.0)    # growing half-plane


def test_validation_run_serialization():
    pred = predict_array(12.0, 12.0, -0.5, [8, 9])
    rep = compare_arrays(pred, [en.x_ref for en in pred.entries])
    run = ValidationRun("p1", 12.0 + 0j, 30.0 + 0j, pred, (), rep)
    d = run.to_dict()
    assert set(d) == {"system", "C", "anchor", "predicted", "observations",
                      "comparison"}
    est = CEstimate(12.0 + 0j, 1e-4, (12.0 + 0j,))
    d2 = ValidationRun("p1", 12.0 + 0j, 30.0 + 0j, pred, (), rep, est).to_dict()
    assert d2["C_extracted"]["value"] == [12.0, 0.0]


# -- per-pole starts ---------------------------------------------------------


def _starts(monkeypatch, s, e, C, n_range):
    """Run ``run_validation`` with a stub hunt; return the run and every
    (x_start, y_start, target) it was asked to hunt from."""
    calls = []

    def stub(s_, x_start, y_start, target, **kwargs):
        calls.append((complex(x_start), np.asarray(y_start), complex(target)))
        return PoleObservation(complex(target), "double_pole", (1.0, -2.0, 0.0), 0.0)

    monkeypatch.setattr(validate, "hunt_singularity", stub)
    return run_validation(s, e, C, n_range), calls


@pytest.mark.parametrize("label, C, n_range", [("p1", 12.0, range(8, 21)),
                                               ("abel", 1.0, range(1, 11))])
def test_each_hunt_starts_on_the_level_at_its_pole_height(
        monkeypatch, request, label, C, n_range):
    s = request.getfixturevalue(label)
    e = request.getfixturevalue(f"e_{label}")
    run, calls = _starts(monkeypatch, s, e, C, n_range)
    x_a = run.anchor
    assert x_a == anchor_point(s, C, 1.2, 1e-3)
    y_a, bound_a = eval_two_scale(e, C, x_a)
    targets = [en.x_ref for en in run.predicted.entries if en.x_ref is not None]
    assert [t for _, _, t in calls] == targets
    for x0, y0, target in calls:
        y_seed, bound = eval_two_scale(e, C, x0)
        assert abs(e.xi(C, x0)) == pytest.approx(1e-3, rel=1e-12)
        assert x0.imag == max(target.imag, x_a.imag)
        assert bound <= bound_a
        assert np.array_equal(y0, y_seed)
        if target.imag <= x_a.imag:
            assert x0 == x_a and np.array_equal(y0, y_a)
    if label == "abel":
        # the lowest branch points keep the shared ray anchor and its seed
        low = [x0 for x0, _, t in calls if t.imag <= x_a.imag]
        assert len(low) == 3 and all(x0 == x_a for x0 in low)


@pytest.mark.parametrize("label, C, n_range", [("p1", 12.0, range(8, 21)),
                                               ("abel", 1.0, range(3, 11))])
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
        y_end = integrate_path(s, y_a, PathSpec((a, b))).y[:, -1]
        assert np.max(np.abs(y_end - y_b)) <= bound_a + bound_b


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


def test_hunt_logs_its_legs(field_calls, caplog, capsys, tmp_path, p1, e_p1):
    en = predict_array(12.0, 12.0, -0.5, [10]).entries[0]
    x_a = anchor_point(p1, 12.0, 1.2, 1e-3)
    y_a, _ = eval_two_scale(e_p1, 12.0, x_a)
    csv_path = tmp_path / "centres.csv"
    obs, hunt = _hunt_record(caplog, p1, x_a, y_a, en.x_ref, csv_path=csv_path)
    assert hunt["start"] == x_a
    assert hunt["approach_length"] == pytest.approx(abs(en.x_ref - x_a) - 0.35)
    assert hunt["stopped"] == "settled" and hunt["spread"] == obs.local_fit[2]
    # one CSV row per jet centre, the first at the start
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert rows.shape[0] == hunt["jets"]
    assert complex(rows[0, 0], rows[0, 1]) == x_a
    # the hunt never evaluates the field pointwise
    assert field_calls[0] == 0
    assert capsys.readouterr() == ("", "")
