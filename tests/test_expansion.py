"""Two-scale expansions: level recursion, evaluation, and Gevrey envelope."""

import cmath
import itertools
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from closed_forms import abel_F0_of_xi
from transasym import oracles
from transasym.errors import OutsideReliableDisk, ResonantOrder
from transasym.expansion import (TwoScaleExpansion, _eval_points, _program, _x_jet,
                                 _xi_jet, build_expansion, eval_two_scale, formal_power_series,
                                 gevrey_fit, least_term_index)
from transasym.series import AnalyticGerm, compose_germ_series
from transasym.systems import NormalSystem, builtin


# -- level recursion ---------------------------------------------------------


def test_leading_profile_normalization():
    for label in ("p1", "abel", "p2a", "p2b"):
        s, _ = builtin(label)
        e = build_expansion(s, 0, 16)
        f0 = e.fm[0]
        assert all(abs(c[0]) < 1e-14 for c in f0)
        assert abs(f0[0, 1] - 1.0) < 1e-13       # F_0'(0) = e_1
        for j in range(1, s.n):
            assert abs(f0[j, 1]) < 1e-13


def test_p1_levels_match_closed_forms(e_p1):
    for m in range(3):
        got = e_p1.observable_series(m).coeffs[:15]
        ref = oracles.p1_h_taylor(m, 14)
        scale = np.max(np.abs(ref))
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), scale))


def test_p1_delayed_constants(e_p1):
    assert e_p1.free_constants[0] == pytest.approx(0.125, abs=1e-12)
    assert e_p1.free_constants[1] == pytest.approx(-3.0 / 128.0, abs=1e-12)


def test_abel_delayed_constants(e_abel):
    assert e_abel.free_constants[0] == pytest.approx(-0.36, abs=1e-12)
    assert e_abel.free_constants[1] == pytest.approx(-0.33253333333333335, abs=1e-12)


def test_p1_builds_past_level_nineteen(p1):
    # the pin slope is the closed form -m, not a difference of trial
    # defects that grow like m! B^m
    e = build_expansion(p1, 20, 32)
    res = e.residual_coefficients()
    for m in range(e.M + 1):
        assert np.max(np.abs(res[:, m, :])) <= 1e-14 * np.max(np.abs(e.fm[m]))
    e16 = build_expansion(p1, 16, 32)
    for a, b in zip(e.free_constants, e16.free_constants):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_abel_builds_past_level_eleven(abel):
    # the pinned first component at (m+1, xi^1) cancels terms of about
    # 1e7 at level 12 to roundoff; consistency is judged against them
    e = build_expansion(abel, 16, 32)
    res = e.residual_coefficients()
    for m in range(e.M + 1):
        assert np.max(np.abs(res[:, m, :])) <= 1e-13 * np.max(np.abs(e.fm[m]))
    e8 = build_expansion(abel, 8, 32)
    for a, b in zip(e.free_constants, e8.free_constants):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_an_overflowing_profile_is_rejected(abel):
    # F_0's coefficients grow like 0.233^-k and leave double range at order 487;
    # each level above grows faster and leaves it earlier.  Level 2's overflow
    # spreads to levels 0 and 1 at the same order as 0 inf, yet level 2 is named
    for M, K, level, order in ((0, 700, 0, 487), (1, 700, 1, 483), (2, 486, 2, 480)):
        with pytest.raises(ValueError, match=rf"F_{level} is not finite from order {order} of K = {K}:"):
            build_expansion(abel, M, K)


def test_an_overflowing_formal_series_is_rejected(p1):
    # p1's formal series grows factorially and leaves double range at order 173
    assert np.isfinite(formal_power_series(p1, 172)).all()
    with pytest.raises(ValueError, match="formal series is not finite from order 173 of R = 180:"):
        formal_power_series(p1, 180)


def test_order_violations_are_rejected():
    germ = AnalyticGerm(1, {(0, (1,)): 0.5, (1, (0,)): 0.1, (0, (2,)): 1.0})
    s = NormalSystem([1.0], [0.0], germ, label="bad")
    assert s.germ.order_violations() == [(0, (1,)), (1, (0,))]
    with pytest.raises(ValueError, match=r"\(i=0, k=\[1\]\), \(i=1, k=\[0\]\)"):
        build_expansion(s, 2, 16)


@pytest.mark.parametrize("g11", [0.5, -1.0, -2.0])
def test_z_y1_term_in_the_first_component_is_resonant_at_xi_one(g11):
    # the term leaves g11 in the first component's right side at (1, xi^1),
    # which is singular there, so no pin slope other than m is ever reached
    germ = AnalyticGerm(2, {(0, (2, 0)): [1.0, 0.5], (1, (1, 0)): [g11, 0.0]})
    s = NormalSystem([1.0, -1.0], [-0.5, -0.5], germ)
    with pytest.raises(ResonantOrder) as err:
        build_expansion(s, 3, 8)
    assert err.value.order == 1


def test_resonant_leading_profile_raises_its_order():
    s = NormalSystem([1, 2], [0, 0], AnalyticGerm(2, {(0, (2, 0)): [1, 1]}))
    with pytest.raises(ResonantOrder) as err:
        build_expansion(s, 2, 8)
    assert err.value.order == 2


def test_leading_profile_raises_its_first_resonant_order():
    # F_0's orders 2..K are checked at once, before its row is built
    s = NormalSystem([1, 7], [0, 0], AnalyticGerm(2, {(0, (2, 0)): [1, 1]}))
    with pytest.raises(ResonantOrder) as err:
        build_expansion(s, 2, 8)
    assert err.value.order == 7


def test_xi_one_column_resonance_comes_before_the_leading_profile():
    germ = AnalyticGerm(2, {(0, (2, 0)): [1, 1], (1, (1, 0)): [0.5, 0]})
    s = NormalSystem([1, 7], [0, 0], germ)
    with pytest.raises(ResonantOrder) as err:
        build_expansion(s, 2, 8)
    assert err.value.order == 1


@pytest.mark.parametrize("label, b_branch", [("p2a", 1), ("p2b", 1), ("p2b", -1)],
                         ids=["p2a", "p2b", "p2b-minus"])
@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_p2_leading_profile_matches_its_closed_form(label, b_branch, alpha):
    e = build_expansion(builtin(label, alpha=alpha, b_branch=b_branch)[0], 8, 64)
    ref = oracles.p2_f0_taylor(label[-1], 64, b_branch)
    got = e.observable_series(0).coeffs
    # per coefficient; the zero coefficients are judged against the largest one
    den = np.where(ref != 0, np.abs(ref), np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref) / den) <= 1e-10


def test_abel_deep_leading_profile_matches_the_inverted_profile(abel):
    e = build_expansion(abel, 0, 400)
    for xi in (0.1, 0.1j):
        ref = abel_F0_of_xi(xi)
        got = np.polynomial.polynomial.polyval(xi, e.observable_series(0).coeffs)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def _mp_levels(s, M, K):
    """Y[m][k][j] = [z^m xi^k] y_j for m <= M, k <= K, in mpmath at the working
    precision on the system's double coefficients, one cell at a time, k outer
    and m inner, from

        (lambda_j - k) Y_{m,k} = [z^m xi^k] g + ((m-1) + alpha_j - alpha_1 k) Y_{m-1,k},

    Y_{0,0} = 0 and Y_{0,1} = e_1.  A component with lambda_j = k is left 0,
    except c_{m-1} = Y_{m-1,1}[0], which the first component fixes at (m, xi^1)
    with slope m - 1; row M + 1 is solved at xi^0 and xi^1 to fix c_M."""
    import mpmath

    mpc, n = mpmath.mpc, s.n
    lam, alpha = [mpc(complex(v)) for v in s.lam], [mpc(complex(v)) for v in s.alpha]
    terms = [(i, tuple(j for j, p in enumerate(kk) for _ in range(p)),
              [mpc(complex(v)) for v in vec]) for (i, kk), vec in s.germ.terms.items()]
    Y = [[[mpc(0)] * n for _ in range(K + 1)] for _ in range(M + 2)]
    # P[f][a][b] = [z^a xi^b] of the product of the components f, for |f| >= 2
    P = {f[:L]: [[mpc(0)] * (K + 1) for _ in range(M + 2)]
         for _, f, _ in terms for L in range(2, len(f) + 1)}

    def product(f, a, b):
        if len(f) < 2:
            return Y[a][b][f[0]] if f else mpc(a == b == 0)
        return P[f][a][b]

    def cell(m, k):   # products at (m, k), then the right side there
        for f in sorted(P, key=len):
            P[f][m][k] = mpmath.fdot((product(f[:-1], a, b), Y[m - a][k - b][f[-1]])
                                     for a in range(m + 1) for b in range(k + 1))
        r = [mpc(0)] * n
        for i, f, vec in terms:
            if i <= m:
                r = [r[j] + vec[j] * product(f, m - i, k) for j in range(n)]
        if m >= 1:
            r = [r[j] + ((m - 1) + alpha[j] - alpha[0] * k) * Y[m - 1][k][j] for j in range(n)]
        return r

    Y[0][1][0] = mpc(1)
    for k in range(K + 1):
        for m in range(M + 2 if k <= 1 else M + 1):
            r = cell(m, k)
            if m == 0 and k <= 1:
                continue
            if k == 1 and m >= 2:
                Y[m - 1][1][0] = -r[0] / (m - 1)
                r = cell(m, k)
                if m == M + 1:
                    continue
            Y[m][k] = [r[j] / (lam[j] - k) if abs(lam[j] - k) > 1e-12 else Y[m][k][j]
                       for j in range(n)]
    return Y


@pytest.mark.parametrize("label, alpha, M, K", [
    pytest.param("p1", 0.0, 2, 32, id="e_p1"),
    pytest.param("abel", 0.0, 2, 48, id="e_abel"),
    pytest.param("p2b", 0.3, 4, 32, id="p2b_alpha0.3_M4_K32"),
    pytest.param("p1", 0.0, 8, 24, id="p1_M8_K24")])
def test_levels_match_a_fifty_digit_recursion(label, alpha, M, K):
    # every coefficient of every level; a zero coefficient is judged against the
    # level's largest one.  p2b has two chain lengths and alpha_1 != 0 drives the
    # level solve's shift term; p1 at M = 8 takes eight forward-substitution steps
    mpmath = pytest.importorskip("mpmath")
    e = build_expansion(builtin(label, alpha=alpha)[0], M, K)
    with mpmath.workdps(50):
        Y = _mp_levels(e.system, e.M, e.K)
        ref = np.array([[[complex(Y[m][k][j]) for k in range(e.K + 1)]
                         for j in range(e.system.n)] for m in range(e.M + 1)])
    for got, r in zip(e.fm, ref):
        den = np.where(r != 0, np.abs(r), np.max(np.abs(r)))
        assert np.max(np.abs(got - r) / den) <= 1e-12


@pytest.mark.parametrize("c", [0.0, 0.3])
def test_level_resonance_at_xi_two(c):
    # lambda_2 - 2 = 5e-12 is singular for the levels but not for F_0; the
    # z y_1 term puts c F_0[xi^2] = -c into that component at (1, xi^2)
    germ = AnalyticGerm(3, {(0, (2, 0, 0)): [1.0, 0.0, 0.5], (1, (1, 0, 0)): [0.0, c, 0.2],
                            (2, (0, 0, 0)): [0.0, 0.0, 0.1]})
    s = NormalSystem([1.0, 2.0 + 5e-12, 100.0], [0.1, 0.0, 0.0], germ)
    if c:
        with pytest.raises(ResonantOrder) as err:
            build_expansion(s, 3, 8)
        assert err.value.order == 2
    else:
        e = build_expansion(s, 3, 8)
        res = e.residual_coefficients()
        for m in range(e.M + 1):
            assert np.max(np.abs(res[:, m, :])) <= 1e-14 * np.max(np.abs(e.fm[m]))


def _random_system(seed: int) -> NormalSystem:
    """A germ of up to six terms z^i y^k, i + |k| <= 5, |coefficient| <= 0.5,
    obeying the order condition, with no z y_1 term in the first component."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 2
    keys = [(i, k) for i in range(6) for k in itertools.product(range(6), repeat=n)
            if 2 <= i + sum(k) <= 5]
    chosen = rng.choice(len(keys), size=6, replace=False)
    terms = {}
    for idx in chosen:
        i, k = keys[idx]
        vec = 0.5 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        if i == 1 and k[0] == 1 and sum(k) == 1:
            vec[0] = 0.0
        terms[i, k] = vec
    germ = AnalyticGerm(n, terms)
    assert germ.order_violations() == []
    return NormalSystem([1.0, -1.0][:n], rng.uniform(-0.5, 0.5, n), germ, label=f"random{seed}")


def _check_substitution_identity(s: NormalSystem, M: int, K: int) -> None:
    """Residual rows vanish within 1e-12 of max|F_m|, and extended agrees with double."""
    e = build_expansion(s, M, K)
    res = e.residual_coefficients()
    ext = build_expansion(s, M, K, dtype=np.clongdouble)
    for m in range(e.M + 1):
        scale = np.max(np.abs(e.fm[m]))
        assert np.max(np.abs(res[:, m, :])) <= 1e-12 * scale
        assert np.max(np.abs(ext.fm[m] - e.fm[m])) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(8))
def test_random_germs_satisfy_the_substitution_identity(seed):
    # longer chains and more z powers than any builtin reaches
    _check_substitution_identity(_random_system(seed), 4, 24)


def test_drawn_germs_satisfy_the_substitution_identity():
    # the germ of any seed, at every depth 1..6 and order 2..24
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 24))
    def check(seed, M, K):
        _check_substitution_identity(_random_system(seed), M, K)

    check()


def test_substitution_residual_vanishes(e_p1):
    res = e_p1.residual_coefficients()
    scale = max(np.max(np.abs(level)) for level in e_p1.fm)
    assert np.max(np.abs(res[:, : e_p1.M + 1, :])) < 1e-9 * scale


def test_expansion_serialization_round_trip(e_p1):
    clone = TwoScaleExpansion.from_dict(json.loads(json.dumps(e_p1.to_dict())))
    assert clone.M == e_p1.M and clone.K == e_p1.K
    for m in range(clone.M + 1):
        assert np.allclose(clone.fm[m], e_p1.fm[m])


@pytest.mark.parametrize("seed", range(8))
def test_random_systems_round_trip_exactly(seed):
    # through JSON text: Python writes each float so that it parses back bitwise
    s = _random_system(seed)
    assert NormalSystem.from_dict(s.to_dict()).to_dict() == s.to_dict()
    e = build_expansion(s, 4, 24)
    clone = TwoScaleExpansion.from_dict(json.loads(json.dumps(e.to_dict())))
    assert clone.free_constants == e.free_constants
    for got, want in zip(clone.fm, e.fm, strict=True):
        assert np.array_equal(got, want)


def test_drawn_systems_round_trip_and_satisfy_the_substitution_identity():
    # n = 1 or 2, up to four germ terms z^i y^k with 2 <= i + |k| <= 4, every germ
    # and alpha modulus 0 or at least 1e-3 (raw floats drew terms near 1e-86)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def floored(top):
        return st.builds(lambda r, t: r * cmath.exp(1j * t),
                         st.one_of(st.just(0.0), st.floats(1e-3, top)), st.floats(0.0, 2 * math.pi))

    @st.composite
    def systems(draw):
        n = draw(st.integers(1, 2))
        keys = [(i, k) for i in range(5) for k in itertools.product(range(5), repeat=n)
                if 2 <= i + sum(k) <= 4]
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
        terms = {key: [draw(floored(1.0)) for _ in range(n)] for key in chosen}
        if (1, (1,) + (0,) * (n - 1)) in terms:   # z y_1 in the first component: ResonantOrder(1)
            terms[1, (1,) + (0,) * (n - 1)][0] = 0.0
        lam = [1.0, complex(draw(st.floats(-3.0, -0.25)), draw(st.floats(-0.5, 0.5)))][:n]
        return NormalSystem(lam, [draw(floored(0.5)) for _ in range(n)], AnalyticGerm(n, terms))

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(systems(), st.integers(1, 4), st.integers(2, 16))
    def check(s, M, K):
        assert NormalSystem.from_dict(s.to_dict()).to_dict() == s.to_dict()
        try:
            e = build_expansion(s, M, K)
        except ResonantOrder:
            hypothesis.assume(False)
        except ValueError as err:
            hypothesis.assume("not finite" not in str(err))
            raise
        # each residual row within 1e-12 of the terms entering it, bounded by the
        # majorant with every coefficient and level taken by modulus; max|F_m| is no
        # yardstick where a level cancels (alpha_1 = 1/2 under g = y^3 leaves F_2 at
        # roundoff) or shrinks fast (g = 1e-3 z^2 y_1 shrinks each level by 1e-3)
        F, k = np.abs(np.moveaxis(e.fm, 0, 1)), np.arange(K + 1)
        g = AnalyticGerm(s.n, {key: np.abs(v) for key, v in s.germ.terms.items()})
        terms = np.abs(s.lam[:, None, None] - k) * F + compose_germ_series(g, F).real
        a = np.abs(s.alpha)
        terms[:, 1:] += (a[0] * k + np.arange(M)[:, None] + a[:, None, None]) * F[:, :-1]
        res = e.residual_coefficients()
        for m in range(M + 1):
            assert np.max(np.abs(res[:, m, :])) <= 1e-12 * np.max(terms[:, m])

    check()


# -- formal series and evaluation -------------------------------------------


@pytest.mark.parametrize("R", [8, 12])
@pytest.mark.parametrize("label,alpha", [("p1", 0.0), ("abel", 0.0),
                                         ("p2a", 0.3), ("p2b", 0.3)])
def test_formal_series_residual_has_its_order(label, alpha, R):
    # pointwise, through the coefficient array and the field only: the truncated
    # series leaves a residual ~ x^{-R-1}, so doubling x divides it by 2^{R+1}
    s, _ = builtin(label, alpha=alpha)
    c = formal_power_series(s, R)
    assert c.shape == (s.n, R + 1) and not c[:, :2].any() and not c.flags.writeable
    r = np.arange(R + 1)

    def residual(x):
        return np.linalg.norm(c @ (-r * x ** (-r - 1.0)) - s.field(x, c @ x ** -r))

    x = 12.0 * cmath.exp(0.3j)
    assert residual(x) / residual(2 * x) == pytest.approx(2.0 ** (R + 1), rel=0.05)


def test_kept_formal_series_slices_bitwise(p1):
    # the expansion keeps its deepest formal series; a shallower request
    # is a slice of it, equal to a fresh build to that order
    e = build_expansion(p1, 2, 8)
    for R in (40, 60, 31, 2):
        assert np.array_equal(e._formal_series(R), formal_power_series(p1, R))
    assert e._formal.shape == (p1.n, 61)


def test_formal_series_agrees_with_two_scale_at_zero_C(p1, e_p1):
    # column xi^0 of the hierarchy and the formal series come from one
    # recursion, so this checks evaluation, not the coefficients
    c = formal_power_series(p1, 12)
    x = 10.0
    value, bound = eval_two_scale(e_p1, 0.0, x)
    direct = c @ x ** -np.arange(13.0)
    assert np.all(np.abs(value - direct) <= bound + 1e-12)


@pytest.mark.parametrize("name", ["e_p1", "e_abel"])
def test_levels_evaluate_as_one_horner_sum_each(name, request):
    # all levels share one Horner loop; each must come out bitwise as if
    # evaluated alone and the levels summed in order of m
    e = request.getfixturevalue(name)
    rng = np.random.default_rng(0)
    for _ in range(8):
        x = complex(rng.uniform(8.0, 14.0), rng.uniform(-3.0, 3.0))
        xi = e.reliability_radius() * rng.uniform(0.05, 0.5) * cmath.exp(2j * math.pi * rng.uniform())
        C = xi / e.xi(1.0, x)
        value, _ = eval_two_scale(e, C, x)   # |x| >= 8 sums every level: m* = M
        xi, ref, xm = e.xi(C, x), np.zeros(e.system.n, dtype=e.fm[0].dtype), 1.0 + 0.0j
        for level in e.fm:
            acc = level[:, -1].copy()
            for k in range(e.K - 1, -1, -1):
                acc = acc * xi + level[:, k]
            ref += acc * xm
            xm /= x
        assert np.array_equal(value, ref)
    # one call over points of different least-term depths m* comes out point by
    # point as lone calls do; a point outside the disk raises as it does alone
    fit = e.default_fit()
    xs = [cmath.rect(r, rng.uniform(-0.5, 0.5))
          for r in np.linspace(1.05, (e.M + 1) * fit.B_g, 6)]
    assert len({least_term_index(fit.B_g, abs(x), e.M) for x in xs}) >= 2
    C = 0.2 * e.reliability_radius() / max(abs(e.xi(1.0, x)) for x in xs)
    values, bounds = _eval_points(e, C, xs)
    for x, value, bound in zip(xs, values, bounds, strict=True):
        lone, lone_bound = eval_two_scale(e, C, x)
        assert np.array_equal(value, lone) and bound == lone_bound
    outside = xs[0] - 5.0
    with pytest.raises(OutsideReliableDisk) as alone:
        eval_two_scale(e, C, outside)
    with pytest.raises(OutsideReliableDisk) as batched:
        _eval_points(e, C, [*xs[:2], outside, *xs[2:]])
    assert str(batched.value) == str(alone.value)


def test_no_points_evaluate_to_no_values(e_p1):
    values, bounds = _eval_points(e_p1, 12.0, [])
    assert values.shape == (0, e_p1.system.n) and bounds == []


def test_two_scale_profile_value(p1):
    # pick C so that xi(x) = 6 exactly at x = 10; level 0 alone gives H0(6)
    e = build_expansion(p1, 0, 64)
    x = 10.0
    C = 6.0 / (math.exp(-x) * x ** -0.5)
    value, _ = eval_two_scale(e, C, x)
    h = p1.observable @ value
    assert abs(h - 24.0) < 1e-9


def test_two_scale_linearization(p1):
    # |xi| tiny: observable ~ xi itself (F_0 ~ xi e_1, observable weight 1)
    e = build_expansion(p1, 0, 32)
    x = 30.0
    C = 1e-9 / (math.exp(-x) * x ** -0.5)
    value, _ = eval_two_scale(e, C, x)
    xi = e.xi(C, x)
    assert abs(complex(value[0]) - xi) < 1e-6 * abs(xi)


def test_eval_guards(e_p1):
    with pytest.raises(OutsideReliableDisk, match="radius"):
        # xi(x) far outside the profile disk
        x = 5.0
        C = 100.0 / (math.exp(-x) * x ** -0.5)
        eval_two_scale(e_p1, C, x)


def test_levels_outside_0_to_M_are_rejected(e_p1):
    for m in (-1, e_p1.M + 1):
        with pytest.raises(ValueError, match=f"0..{e_p1.M}"):
            e_p1.observable_series(m)


def test_least_term_index_clips():
    assert least_term_index(1.0, 7.3) == 7
    assert least_term_index(2.0, 7.3) == 3
    assert least_term_index(1.0, 25.0, m_cap=8) == 8


# -- Gevrey diagnostics ------------------------------------------------------


def test_gevrey_sup_norm_closed_form(p1):
    # sup of |H0| on |xi| = 6 is attained at xi = +6 (closest to the pole)
    e = build_expansion(p1, 0, 64)
    fit = gevrey_fit(e, 6.0)
    assert fit.sup_norms[0] == pytest.approx(24.0, abs=1e-9)


@pytest.mark.parametrize("label, M, K, rho, n_points", [
    ("p1", 16, 64, 6.0, 256),
    ("abel", 0, 400, None, 256),      # half the radius; K + 1 > n_points
    ("p1", 0, 400, 6.0, 256),         # 6^400 overflows; the top coefficients underflow
    ("p1", 2, 400, 11.5, 256),        # near the pole at 12: c rho^k must not go subnormal
])
def test_gevrey_sup_norms_match_the_circle_values(label, M, K, rho, n_points):
    # the reference takes the fit's own n_points roots; near the radius
    # polyval loses about 1e-6, so there it is summed in mpmath at 40 digits
    e = build_expansion(builtin(label)[0], M, K)
    rho = 0.5 * e.reliability_radius() if rho is None else rho
    fit = gevrey_fit(e, rho)
    near = rho > 0.9 * e.reliability_radius()
    if near:
        mpmath = pytest.importorskip("mpmath")
    for m, sup in enumerate(fit.sup_norms):
        coeffs = e.observable_series(m).coeffs
        if near:
            with mpmath.workdps(40):
                c = [mpmath.mpc(complex(v)) for v in coeffs[::-1]]
                ref = max(abs(mpmath.polyval(c, rho * mpmath.expjpi(mpmath.mpf(2 * j) / n_points)))
                          for j in range(n_points))
        else:
            roots = rho * np.exp(2j * np.pi * np.arange(n_points) / n_points)
            ref = np.max(np.abs(np.polynomial.polynomial.polyval(roots, coeffs)))
        assert abs(sup - ref) <= 1e-13 * ref


def test_gevrey_envelope_is_upper_bound(e_p1):
    fit = gevrey_fit(e_p1, 6.0)
    for m, sm in enumerate(fit.sup_norms):
        assert sm <= fit.envelope(m) * (1 + 1e-12)


def test_gevrey_single_level_trivial(p1):
    e = build_expansion(p1, 0, 32)
    fit = gevrey_fit(e, 4.0)
    assert fit.B_g == 1.0 and fit.r_squared == 1.0


# -- Taylor-jet kernels ------------------------------------------------------

_JET_ORDER = 40
_QUARTER_TURNS = 0.25 * np.exp(0.5j * np.pi * np.arange(4) + 0.3j)


def test_lone_lanes_are_bitwise_lanes_of_a_batch():
    # p1 has one chain length and z powers up to 4; abel, p2a and p2b have two chain lengths
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = {label: builtin(label)[0] for label in ("p1", "abel", "p2a", "p2b")}

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(systems)), st.integers(1, 16),
                      st.integers(0, 2**32 - 1))
    def check(label, B, seed):
        s, rng = systems[label], np.random.default_rng(seed)
        y0 = 0.5 * (rng.normal(size=(s.n, B)) + 1j * rng.normal(size=(s.n, B)))
        x0 = rng.uniform(2.0, 10.0, B) + 1j * rng.uniform(-10.0, 10.0, B)
        xi0 = rng.uniform(0.05, 1.0, B) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, B))
        rho = rng.uniform(0.05, 2.0, B)
        for kernel, c, r in ((_x_jet, x0, rho), (_xi_jet, xi0, 0.1 * rho)):
            batch = kernel(s, c, y0, r, _JET_ORDER)
            for b in range(B):
                lone = kernel(s, c[b : b + 1], y0[:, b : b + 1], r[b : b + 1], _JET_ORDER)
                assert np.array_equal(lone[0], batch[b])

    check()


def test_table_rows_contracted_with_w_give_the_field():
    # rows formed as the kernels form them (states, 1, then each chain block one matmul of
    # its heads against the states) give the field at (z, y); each germ monomial sits on
    # exactly one row, whose exponents, formed the same way, are its own
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def check(seed, point):
        s, rng = _random_system(seed), np.random.default_rng(point)
        n, (size, groups, W) = s.n, _program(s)
        z = rng.uniform(0.02, 0.5) * np.exp(2j * np.pi * rng.random())
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        rows, powers = np.zeros(size, dtype=complex), np.zeros((size, n), dtype=int)
        rows[:n], rows[n], powers[:n] = y, 1.0, np.eye(n, dtype=int)
        for heads, chain in groups:
            rows[chain] = (rows[heads, None] @ y[None]).reshape(-1)
            powers[chain] = (powers[heads, None] + np.eye(n, dtype=int)).reshape(-1, n)
        got = sum(z ** p * W[p] @ rows for p in range(len(W)))
        scale = sum(abs(z) ** p * np.abs(W[p]) @ np.abs(rows) for p in range(len(W)))
        assert np.max(np.abs(got - s.field(1 / z, y))) <= 1e-13 * np.max(scale)
        chains = [(i, r) for i in range(len(W)) for r in range(n + 1, size) if W[i][:, r].any()]
        products = {(i, k): vec for (i, k), vec in s.germ.terms.items() if sum(k) >= 2}
        assert len(chains) == len(products)
        for (i, k), vec in products.items():
            (r,) = [r for j, r in chains if j == i and tuple(powers[r]) == k]
            assert np.array_equal(W[i][:, r], vec)

    check()


@pytest.mark.parametrize("label", ["p1", "abel", "p2a"])
def test_x_jets_sum_to_reference_integration(label):
    # two lanes, each scaled so its coefficients past order 20 stay below 1;
    # each sum at |t| = 1/4 against DOP853 at rtol 1e-13 along the same segment
    s = builtin(label)[0]
    x0 = np.array([5.0 + 1.0j, 3.0 - 2.0j])
    y0 = np.array([[0.3 + 0.1j, 0.2 - 0.4j], [-0.2 + 0.2j, 0.1]])[: s.n]
    a = _x_jet(s, x0, y0, np.ones(2), _JET_ORDER)
    k = np.arange(20, _JET_ORDER + 1)
    rho = 1.0 / np.max(np.max(np.abs(a[:, :, 20:]), axis=1) ** (1.0 / k), axis=1)
    a = _x_jet(s, x0, y0, rho, _JET_ORDER)
    for b in range(2):
        for t in _QUARTER_TURNS:
            d = rho[b] * t
            ref = solve_ivp(lambda u, v: d * s.field(x0[b] + u * d, v), (0.0, 1.0),
                            y0[:, b].astype(complex), method="DOP853", rtol=1e-13,
                            atol=1e-16).y[:, -1]
            got = a[b] @ t ** np.arange(_JET_ORDER + 1)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("label", ["abel", "p1"])
def test_xi_jets_sum_to_the_leading_profile(label):
    # jets at 0.4 of F_0's radius, with scale 0.4 of it, summed at |t| = 1/4,
    # against F_0 summed from a K = 200 build at the same points
    s = builtin(label)[0]
    e = build_expansion(s, 0, 200)

    def F0(xi):
        return e.fm[0] @ xi ** np.arange(201)

    r = e.reliability_radius()
    xi0 = 0.4 * r * np.exp(1j * np.array([0.3, 2.0, 4.0]))
    rho = np.full(3, 0.4 * r)
    a = _xi_jet(s, xi0, np.array([F0(xi) for xi in xi0]).T, rho, _JET_ORDER)
    for b in range(3):
        for t in _QUARTER_TURNS:
            ref = F0(xi0[b] + rho[b] * t)
            got = a[b] @ t ** np.arange(_JET_ORDER + 1)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
