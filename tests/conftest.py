"""Shared fixtures; session scope keeps expansion builds to one each."""

import pytest

from transasym.expansion import build_expansion
from transasym.systems import builtin


@pytest.fixture(scope="session")
def p1():
    return builtin("p1")[0]


@pytest.fixture(scope="session")
def abel():
    return builtin("abel")[0]


@pytest.fixture(scope="session")
def e_p1(p1):
    return build_expansion(p1, 2, 32)


@pytest.fixture(scope="session")
def e_abel(abel):
    return build_expansion(abel, 2, 48)


@pytest.fixture(scope="session")
def far_start():
    """One start per system far from its poles, for hunts that walk a long way:
    the point of the ray arg x = 1.2 where |xi| = 1e-3, for p1 at C = 12 and
    for p2a and Abel at C = 1."""
    return {"p1": 7.85455356914019 + 20.203102703942005j,
            "p2a": 5.543849114640183 + 14.259620493045302j,
            "abel": 7.514137176224341 + 19.32750012670511j}
