"""Singularity location from series, continuation, and array prediction."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from transasym import expansion, singular, validate
from transasym.cli import _dump_json
from transasym.errors import (InsufficientCoefficients, OscillatoryCoefficients,
                              OutsideReliableDisk, SingularApproach, TransasymError)
from transasym.expansion import build_expansion, eval_two_scale
from transasym.oracles import XI0
from transasym.series import AnalyticGerm, TaylorSeries
from transasym.singular import (SingularityArray, _domb_sykes, continue_f0, predict_array,
                                radius_estimate)
from transasym.systems import NormalSystem, builtin

TWO_PI_I = 2j * math.pi


def _binomial_series(p, xi_s, K):
    """Taylor coefficients of (1 - xi/xi_s)^p."""
    c = np.zeros(K + 1, dtype=complex)
    c[0] = 1.0
    for k in range(K):
        c[k + 1] = c[k] * (p - k) / (k + 1) * (-1.0 / xi_s)
    return TaylorSeries(c)


# -- radius_estimate ---------------------------------------------------------


def test_radius_of_double_pole():
    est = radius_estimate(_binomial_series(-2.0, 5.0, 60))
    assert est.radius == pytest.approx(5.0, abs=1e-8)
    assert est.xi_s == pytest.approx(5.0, abs=1e-7)
    assert est.exponent == pytest.approx(-2.0, abs=1e-6)


def test_radius_of_fractional_branch():
    est = radius_estimate(_binomial_series(1.0 / 3.0, 2.0, 80))
    assert est.radius == pytest.approx(2.0, abs=1e-8)
    assert est.exponent == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_radius_off_axis_location():
    xi_s = 2.0 * cmath.exp(0.25j * math.pi)
    est = radius_estimate(_binomial_series(-1.0, xi_s, 60))
    assert abs(est.xi_s - xi_s) < 1e-7


def test_radius_handles_even_support():
    # series in xi^2 only; decimation maps the location back through the
    # principal root
    c = np.zeros(81, dtype=complex)
    c[::2] = 3.0 ** -np.arange(41.0) ** 0 * (1.0 / 9.0) ** np.arange(41)
    est = radius_estimate(TaylorSeries(c))
    assert est.radius == pytest.approx(3.0, abs=1e-9)
    assert est.xi_s == pytest.approx(3.0, abs=1e-7)


def test_radius_abel_branch():
    s, _ = builtin("abel")
    e = build_expansion(s, 0, 200)
    est = radius_estimate(e.observable_series(0))
    assert est.radius == pytest.approx(XI0, abs=1e-6)
    assert est.exponent == pytest.approx(-0.5, abs=1e-3)


def test_radius_reads_binomial_singularities():
    # (1 - xi/xi_s)^p for p off the non-negative integers, where the series terminates
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.one_of(st.sampled_from([-1.0, -2.0, -3.0]), st.floats(-3.0, 2.0).filter(
        lambda p: min(abs(p - n) for n in range(3)) >= 0.02))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.floats(0.3, 8.0), st.floats(-math.pi, math.pi), exponents,
                      st.integers(40, 120))
    def check(modulus, arg, p, K):
        xi_s = cmath.rect(modulus, arg)
        est = radius_estimate(_binomial_series(p, xi_s, K))
        assert abs(est.xi_s - xi_s) <= 1e-11 * modulus
        assert abs(est.exponent - p) <= 1e-9

    check()


def test_radius_needs_coefficients():
    with pytest.raises(InsufficientCoefficients):
        radius_estimate(TaylorSeries(np.ones(10)))


def test_radius_flags_beating_singularities():
    # two equal-modulus poles at incommensurate arguments make the ratio
    # phase wander; the modulus-only estimate rides on the exception
    xi_a, xi_b = 2.0, 2.0 * cmath.exp(1.0j)
    a = _binomial_series(-1.0, xi_a, 90)
    b = _binomial_series(-1.0, xi_b, 90)
    with pytest.raises(OscillatoryCoefficients) as info:
        radius_estimate(np.convolve(a.coeffs, b.coeffs)[:91])
    assert info.value.modulus == pytest.approx(2.0, rel=0.05)


def _homing_series(monkeypatch, s, e, C, n, x_far):
    """The observable's coefficients on the first jet homing reads, hunting
    pole n of ``s`` from ``x_far``."""
    asks, reads = [], validate._reads
    target = predict_array(s.xi_s_hint, C, s.alpha[0], [n]).entries[0].x_ref
    with monkeypatch.context() as m:
        m.setattr(validate, "_reads", lambda s_, qs: asks.extend(qs) or reads(s_, qs))
        validate.hunt_singularity(s, x_far, eval_two_scale(e, C, x_far)[0], target)
    return s.observable @ asks[0].a


def test_one_read_over_a_stack_is_each_lone_read(monkeypatch, p1, e_p1, abel, e_abel,
                                                  far_start):
    # lanes of every fate in one stack of 41 coefficients, as homing reads them
    # together: each is bitwise its lone estimate, or raises the same error
    even = np.zeros(41, dtype=complex)
    even[::2] = 9.0 ** -np.arange(21.0)  # support on xi^2: read with stride 2
    holes = _binomial_series(-1.0, 2.0, 40).coeffs.copy()
    holes[[3, 7]] = 0.0  # read from the run after the last hole
    beats = np.convolve(_binomial_series(-1.0, 2.0, 40).coeffs,
                        _binomial_series(-1.0, 2.0 * cmath.exp(1.0j), 40).coeffs)[:41]
    ends = np.zeros(41, dtype=complex)
    ends[:3] = 1.0, 2.0, 1.0  # a terminating jet, (1 + t)^2
    sparse = np.zeros(41, dtype=complex)
    sparse[::3] = 1.0  # 14 nonzero coefficients
    short = _binomial_series(-2.0, 3.0, 40).coeffs.copy()
    short[25] = 0.0  # a trailing run of 15
    stack = np.array([_homing_series(monkeypatch, p1, e_p1, 12.0, 10, far_start["p1"]),
                      _homing_series(monkeypatch, abel, e_abel, 1.0, 1, far_start["abel"]),
                      even, holes, beats, ends, sparse, short])
    reads = _domb_sykes(stack)
    assert [type(r).__name__ for r in reads] == [
        "RadiusEstimate"] * 4 + ["OscillatoryCoefficients"] + ["InsufficientCoefficients"] * 3
    assert reads[0].exponent == pytest.approx(-2.0, abs=1e-3)
    assert reads[1].exponent == pytest.approx(-0.5, abs=1e-3)

    def bits(est):
        return np.array([est.radius, est.xi_s, est.exponent]).tobytes()

    for row, got in zip(stack, reads, strict=True):
        try:
            want = radius_estimate(row)
        except TransasymError as err:
            assert type(got) is type(err) and str(got) == str(err)
        else:
            assert bits(got) == bits(want)


def _loop_read(c):
    """Reference Domb-Sykes read of one series, written lane by lane."""
    nz = np.flatnonzero(np.abs(c) > 1e-300)
    if nz.size < 20:
        raise InsufficientCoefficients(f"{nz.size} nonzero coefficients, need at least 20")
    gaps = np.diff(nz[-40:])
    stride = int(gaps[0]) if np.all(gaps == gaps[0]) else 1
    d = c[int(nz[-1]) % stride::stride] if stride > 1 else c
    live = np.abs(d) > 1e-300
    d = d[: np.flatnonzero(live)[-1] + 1]
    holes = np.flatnonzero(~live[: len(d)])
    start = int(holes[-1]) + 1 if holes.size else 0
    run = len(d) - start
    if run < 20:
        raise InsufficientCoefficients(f"trailing nonzero run has {run} terms, need at least 20")
    with np.errstate(divide="ignore", invalid="ignore"):
        r_all = d[1:] / d[:-1]
    tail = r_all[len(d) - 13:]
    if np.max(np.abs(np.angle(tail / tail[-1]))) > 0.6:
        k = np.arange(start + run // 2, len(d))
        slope = np.polyfit(k, np.log(np.abs(d[k])), 1)[0]
        raise OscillatoryCoefficients(math.exp(-slope) ** (1.0 / stride))
    kappa = max(1, (run - 1) // 6)
    picks = np.array([len(d) - 1 - i * kappa for i in range(4, -1, -1)])
    u, r = 1.0 / picks, r_all[picks - 1]
    A = singular._neville_diagonal(u, r)[-1]
    if A == 0:
        raise InsufficientCoefficients("ratio limit vanishes; no finite singularity resolved")
    B = singular._neville_diagonal(u, picks * (r - A))[-1]
    eta_s = 1.0 / A
    return (abs(eta_s) ** (1.0 / stride), eta_s ** (1.0 / stride) if stride > 1 else eta_s,
            float((-B / A - 1.0).real))


def test_a_read_over_a_stack_is_bitwise_the_loop_read():
    # random stacks of binomial series, real, strided (any offset), holed, beating,
    # terminating and trailing-zero lanes: every lane reads bitwise as the loop does, signed
    # zeros included, or raises the same error
    rng = np.random.default_rng(3)

    def lane(N):
        xi_s = cmath.rect(rng.uniform(0.3, 5.0), rng.uniform(-math.pi, math.pi))
        kind = rng.integers(0, 7)
        if kind == 1:
            xi_s = abs(xi_s)  # real coefficients
        c = _binomial_series(rng.choice([-2.0, -1.0, -0.5, rng.uniform(-3.0, 2.0)]),
                             xi_s, N - 1).coeffs.copy()
        if kind == 2:  # support on one residue class mod 2 or 3
            m = rng.integers(2, 4)
            c[np.arange(N) % m != rng.integers(0, m)] = 0.0
        elif kind == 3:
            c[rng.integers(0, N, 3)] = 0.0
        elif kind == 4:
            c += _binomial_series(-1.0, xi_s * cmath.exp(1j * rng.uniform(0.5, 2.0)), N - 1).coeffs
        elif kind == 5:
            c[rng.integers(3, 25):] = 0.0
        elif kind == 6:
            c[-rng.integers(1, 6):] = 0.0
        return c

    fates = set()
    for _ in range(150):
        N = int(rng.choice([25, 41, 60]))
        stack = np.array([lane(N) for _ in range(rng.integers(1, 14))])
        for row, got in zip(stack, _domb_sykes(stack), strict=True):
            try:
                want = _loop_read(row)
            except TransasymError as err:
                assert type(got) is type(err) and str(got) == str(err)
                fates.add(type(err).__name__)
            else:
                assert np.array([got.radius, got.xi_s, got.exponent]).tobytes() == \
                    np.array(want).tobytes()
                fates.add("estimate")
    assert fates == {"estimate", "InsufficientCoefficients", "OscillatoryCoefficients"}


# -- continuation ------------------------------------------------------------


def test_continuation_matches_taylor(abel):
    e = build_expansion(abel, 0, 64)
    res = continue_f0(abel, [0.02, 0.12])
    direct = np.polynomial.polynomial.polyval(0.12, e.fm[0][0])
    assert abs(res.final[0] - direct) < 1e-12


def test_continuation_path_independence(abel):
    target = 0.15 + 0.06j
    r1 = continue_f0(abel, [0.02, target])
    r2 = continue_f0(abel, [0.02, 0.02 + 0.1j, target])
    assert abs(r1.final[0] - r2.final[0]) < 1e-12


def test_continuation_rejects_origin_leg(abel):
    with pytest.raises(ValueError):
        continue_f0(abel, [0.05, -0.05])


def test_continuation_checks_every_leg_before_its_first_jet(monkeypatch):
    # the last leg crosses xi = 0: the path is refused before the earlier legs jet
    s, calls, jet = builtin("abel")[0], [], expansion._xi_jet
    monkeypatch.setattr(expansion, "_xi_jet", lambda *args: calls.append(1) or jet(*args))
    with pytest.raises(ValueError, match="passes through xi = 0"):
        continue_f0(s, [0.1, 0.2, 0.2 + 0.1j, -0.1 - 0.05j])
    assert not calls
    continue_f0(s, [0.1, 0.2, 0.2 + 0.1j])
    assert calls


def test_continuation_rejects_far_start(abel):
    with pytest.raises(OutsideReliableDisk, match="radius"):
        continue_f0(abel, [0.5, 0.6])


def test_continuation_blows_up_past_branch_value(abel):
    with pytest.raises(SingularApproach) as info:
        continue_f0(abel, [0.05, 1.2 * XI0])
    assert abs(info.value.where - XI0) < 1e-2 * (1.2 * XI0 - 0.05)


def test_continuation_stops_at_the_p1_pole(p1):
    # h = 144 xi / (12 - xi)^2 has its double pole on the leg
    with pytest.raises(SingularApproach) as info:
        continue_f0(p1, [1.0, 20.0])
    assert abs(info.value.where - 12.0) < 0.19


def test_continuation_steps_over_a_terminating_jet():
    # g(0, y) vanishes, so F_0 = xi and every jet is a line
    s = NormalSystem([1.0], [0.3], AnalyticGerm(1, {(2, (0,)): 0.1, (1, (2,)): 1.0}))
    assert abs(continue_f0(s, [0.25, 0.5]).final[0] - 0.5) < 1e-15


@pytest.mark.parametrize("label, start, end", [("abel", 0.1, 0.2), ("p1", 1.0, 5.0)])
@pytest.mark.parametrize("leg", [1e-8, 1e-15, 1e-17, 1e-24])
def test_continuation_takes_a_short_first_leg(label, start, end, leg):
    # a first leg far shorter than the distance to xi = 0 must not set the
    # first jet's scale: its coefficients would underflow to a terminating jet
    s = builtin(label)[0]
    direct = continue_f0(s, [start, end]).final
    final = continue_f0(s, [start, start + 1j * leg, end]).final
    assert np.all(np.isfinite(final))
    assert np.max(np.abs(final - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_continuation_seed_is_kept_on_the_system():
    s = builtin("abel")[0]
    path = [0.1, 0.2 + 0.1j, 0.3]
    first = continue_f0(s, path)
    seed = s._seed
    again = continue_f0(s, path)
    fresh = continue_f0(builtin("abel")[0], path)
    assert seed is not None and s._seed is seed
    for res in (again, fresh):
        assert np.array_equal(res.xi, first.xi) and np.array_equal(res.values, first.values)


def test_continuation_budget_is_per_leg(abel):
    # ten circuits take more jets than one walk may spend
    theta = np.linspace(math.pi, 21.0 * math.pi, 81)
    loop = [XI0 + 0.12 * cmath.exp(1j * t) for t in theta]
    res = continue_f0(abel, [0.1] + loop + [0.1])
    assert res.xi.size > validate._JET_BUDGET
    assert np.max(np.abs(res.final - res.values[:, 0])) < 1e-12


def test_branch_monodromy(abel):
    # F_0 has a square-root pair at xi_0: one circuit lands on the other
    # sheet, two circuits close up
    theta = np.linspace(math.pi, 3.0 * math.pi, 9)
    loop = [XI0 + 0.12 * cmath.exp(1j * t) for t in theta]
    one = continue_f0(abel, [0.1] + loop + [0.1])
    base = one.values[:, 0]
    assert np.max(np.abs(one.final - base)) > 0.1
    theta2 = np.linspace(math.pi, 5.0 * math.pi, 17)
    loop2 = [XI0 + 0.12 * cmath.exp(1j * t) for t in theta2]
    two = continue_f0(abel, [0.1] + loop2 + [0.1])
    assert np.max(np.abs(two.final - two.values[:, 0])) < 1e-12


# -- predicted arrays --------------------------------------------------------


def test_predict_array_frozen_entry():
    arr = predict_array(12.0, 12.0, -0.5, [8])
    en = arr.entries[0]
    assert en.x_ref == pytest.approx(-1.95097456952 + 49.4603719104j, abs=1e-6)
    assert en.residual <= 1e-10


def test_predict_array_near_periodicity():
    arr = predict_array(12.0, 12.0, -0.5, range(8, 16))
    gaps = np.abs(arr.spacings() - TWO_PI_I)
    assert np.all(gaps < 0.08)
    assert np.all(np.diff(gaps) < 0)     # drift shrinks with n


def test_predict_array_roots_solve_scale_equation():
    arr = predict_array(12.0, 12.0, -0.5, [9, 21])
    for en in arr.entries:
        xi = 12.0 * cmath.exp(-en.x_ref - 0.5 * cmath.log(en.x_ref))
        assert abs(xi - 12.0) < 1e-9


def test_predict_array_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="C = 0 has no singularity array") as err:
        predict_array(12.0, 0.0, -0.5, [3])
    assert not isinstance(err.value, TransasymError)
    with pytest.raises(ValueError):
        predict_array(0.0, 12.0, -0.5, [3])


def test_singularity_array_round_trip():
    arr = predict_array(12.0, 12.0, -0.5, [5, 6])
    clone = SingularityArray.from_dict(json.loads(json.dumps(arr.to_dict())))
    assert clone.C == arr.C and len(clone.entries) == 2
    for a, b in zip(clone.entries, arr.entries):
        assert a.x_ref == pytest.approx(b.x_ref, abs=1e-12)


def test_a_value_that_is_not_finite_is_not_saved(tmp_path):
    arr = predict_array(12.0, 12.0, -0.5, [5])
    bad = SingularityArray(arr.xi_s, arr.C, arr.alpha1,
                           (dataclasses.replace(arr.entries[0], residual=math.nan),))
    path = tmp_path / "arr.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        _dump_json(bad.to_dict(), str(path))
    assert not path.exists()
