"""Normalized systems and the built-in examples."""

import numpy as np
import pytest

from transasym.errors import TransasymError
from transasym.series import AnalyticGerm
from transasym.systems import BUILTIN_LABELS, NormalSystem, builtin


def test_builtin_labels_resolve():
    for label in BUILTIN_LABELS:
        s, _ = builtin(label)
        assert s.label == label
        assert s.lam[0] == 1.0
    with pytest.raises(ValueError, match="no builtin system named 'nope'") as err:
        builtin("nope")
    assert not isinstance(err.value, TransasymError)


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
