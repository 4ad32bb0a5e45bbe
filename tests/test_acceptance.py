"""End-to-end release checks, one test per numbered criterion."""

import logging

import pytest

from transasym import acceptance, oracles
from transasym.expansion import build_expansion, eval_two_scale
from transasym.singular import predict_array
from transasym.validate import _STAGING, hunt_singularity


@pytest.mark.parametrize("number", sorted(acceptance.CHECKS))
def test_criterion(number):
    name, _ = acceptance.CHECKS[number]
    passed, detail = acceptance.run_check(number)
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def e_p1_deep():
    return build_expansion(acceptance._system("p1"), 16, 32)


def test_second_array_hunts_lie_near_deep_seeded_ones(monkeypatch, e_p1_deep):
    # check 10 seeds between predictions 8 and 9 from the M = 8 build; the
    # same hunts seeded from an M = 16 build land within 1e-9 of its poles
    hunt, hunts = acceptance.hunt_singularity, []

    def recorded(s, x0, y0, target):
        hunts.append((s, x0, target, hunt(s, x0, y0, target)))
        return hunts[-1][-1]

    monkeypatch.setattr(acceptance, "hunt_singularity", recorded)
    assert acceptance.run_check(10)[0]
    assert len(hunts) == 2
    for s, x0, target, obs in hunts:
        deep = hunt(s, x0, eval_two_scale(e_p1_deep, 12.0, x0)[0], target)
        assert abs(deep.location - obs.location) <= 1e-9


def test_second_array_hunts_take_few_jets(caplog):
    # from between predictions 8 and 9 each straight walk to the second
    # array stays about 2 from every first-array pole
    acceptance._survey()
    with caplog.at_level(logging.DEBUG, logger="transasym"):
        assert acceptance.run_check(10)[0]
    jets = [r.hunt["jets"] for r in caplog.records if hasattr(r, "hunt")]
    assert len(jets) == 2 and max(jets) <= 15


@pytest.mark.parametrize("n", [20, 40])
def test_deeper_second_array_hunts_lie_near_deep_seeded_ones(n, e_p1_deep):
    # check 10's geometry one array row further out: start between predictions
    # n and n + 1, aim at the targets of the located n-th pole
    s, e = acceptance._system("p1"), acceptance._expansion("p1", 8, 32)
    x_n, x_next = (en.x_ref for en in predict_array(12.0, 12.0, -0.5, [n, n + 1]).entries)
    x_s = hunt_singularity(s, x_n + _STAGING, eval_two_scale(e, 12.0, x_n + _STAGING)[0],
                           x_n).location
    x_0 = 0.5 * (x_n + x_next) + _STAGING
    for m in (0, 1):
        target = x_s + oracles.p1_second_array_offset(x_s, m)
        obs = hunt_singularity(s, x_0, eval_two_scale(e, 12.0, x_0)[0], target)
        deep = hunt_singularity(s, x_0, eval_two_scale(e_p1_deep, 12.0, x_0)[0], target)
        assert abs(deep.location - obs.location) <= 1e-9
