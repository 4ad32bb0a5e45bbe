"""Normalized systems, their diagnostics, and the coordinate maps."""

import math

import numpy as np
import pytest

from transasym.errors import OnBranchCut, UnknownLabel
from transasym.series import AnalyticGerm
from transasym.systems import (BUILTIN_LABELS, NormalSystem, builtin,
                               builtin_map, identity_map, stokes_directions,
                               validate_system)


def test_builtin_labels_resolve():
    for label in BUILTIN_LABELS:
        s, cmap = builtin(label)
        assert s.label == label
        assert s.lam[0] == 1.0
    with pytest.raises(UnknownLabel):
        builtin("nope")


def test_first_eigenvalue_must_be_one():
    with pytest.raises(ValueError):
        NormalSystem([2.0], [0.0], AnalyticGerm(1, {}))


def test_builtin_metadata(p1, abel):
    assert p1.xi_s_hint == 12.0
    assert abel.alpha[0] == pytest.approx(0.2)
    # nothing about the movable singularities is declared
    assert set(p1.to_dict()) == {"n", "lambda", "alpha", "label", "germ",
                                 "observable", "xi_s_hint"}


def test_serialization_round_trip(p1):
    clone = NormalSystem.from_dict(p1.to_dict())
    assert clone.label == p1.label
    assert np.allclose(clone.lam, p1.lam)
    y = np.array([0.3, -0.4 + 0.2j])
    assert np.allclose(clone.germ.evaluate(0.1, y), p1.germ.evaluate(0.1, y))


def test_diagnostics_report_known_resonances():
    rep = validate_system(builtin("abel")[0], 4)
    assert rep.clean, rep.summary_lines()
    # lam = (1, -1) is exactly resonant at k = (2,1) and (1,2); the
    # diagnostics must surface that and nothing else
    for label in ("p1", "p2a", "p2b"):
        rep = validate_system(builtin(label)[0], 4)
        hits = {(j, k) for j, k, _ in rep.near_resonances}
        assert hits == {(1, (2, 1)), (2, (1, 2))}, rep.summary_lines()
        assert not rep.order_violations and not rep.zero_lambda


def test_stokes_directions_p1(p1):
    data = stokes_directions(p1, 3)
    # lam = (1, -1): Stokes rays +-1, antistokes rays +-i
    for u in (1.0, -1.0):
        assert any(abs(d - u) < 1e-12 for d in data.stokes_directions)
    for u in (1j, -1j):
        assert any(abs(d - u) < 1e-12 for d in data.antistokes_directions)


def test_identity_map_round_trip():
    m = identity_map()
    z = 0.7 - 0.3j
    assert m.apply("forward", z) == z
    assert m.apply("inverse", m.apply("forward", z)) == z


def test_builtin_maps_invert():
    for label in BUILTIN_LABELS:
        m = builtin_map(label)
        z = 2.0 + 1.5j           # away from every cut
        x = m.apply("forward", z)
        back = m.apply("inverse", x)
        assert abs(back - z) < 1e-9 * max(1.0, abs(z)), label


def test_branch_cut_is_one_sided():
    m = builtin_map("p1")
    if not m.forward_cuts:
        pytest.skip("map declares no forward cuts")
    cut = m.forward_cuts[0]
    r = 1.3
    just_above = r * complex(math.cos(cut + 1e-12), math.sin(cut + 1e-12))
    just_below = r * complex(math.cos(cut - 1e-6), math.sin(cut - 1e-6))
    with pytest.raises(OnBranchCut):
        m.apply("forward", just_above)
    m.apply("forward", just_below)   # continuous side passes
