"""End-to-end release checks, one test per numbered criterion."""

import pytest

from transasym import acceptance
from transasym.expansion import build_expansion, eval_two_scale


@pytest.mark.parametrize("number", sorted(acceptance.CHECKS))
def test_criterion(number):
    name, _ = acceptance.CHECKS[number]
    passed, detail = acceptance.run_check(number)
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_second_array_hunts_lie_near_deep_seeded_ones(monkeypatch):
    # check 10 seeds at the survey's n = 8 staging point from the M = 8 build;
    # the same hunts seeded from an M = 16 build land within 1e-9 of its poles
    hunt, hunts = acceptance.hunt_singularity, []

    def recorded(s, x0, y0, target, **kwargs):
        hunts.append((s, x0, target, kwargs, hunt(s, x0, y0, target, **kwargs)))
        return hunts[-1][-1]

    monkeypatch.setattr(acceptance, "hunt_singularity", recorded)
    assert acceptance.run_check(10)[0]
    assert len(hunts) == 2
    e = build_expansion(hunts[0][0], 16, 32)
    for s, x0, target, kwargs, obs in hunts:
        deep = hunt(s, x0, eval_two_scale(e, 12.0, x0)[0], target, **kwargs)
        assert abs(deep.location - obs.location) <= 1e-9
