"""Exception types the package raises, and the one reader of a JSON document.

Every domain failure raises a subclass of TransasymError so callers (and the
CLI) can distinguish "the mathematics said no" from programming errors.  Each
class here is raised by some code path of the package; a usage error, such as
a missing key, an unknown builtin label, C = 0 or a germ term above the
degree cap, is a ``ValueError``.  Every document read back (a system, its
germ, an expansion, a run config) names the keys it lacks by
:func:`require_keys` and reads each value by :func:`read_field`.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Mapping


def require_keys(d: Mapping, keys: Iterable[str], what: str) -> None:
    """Raise ``ValueError`` naming each of ``keys`` that the ``what`` dict ``d`` lacks."""
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(missing)}")


def _integer(v) -> bool:
    """A JSON integer: never a bool, nor a float such as 8.0."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _pair(v) -> bool:
    """``[re, im]``: exactly two numbers, never bools."""
    return isinstance(v, list) and len(v) == 2 and all(
        isinstance(r, numbers.Real) and not isinstance(r, bool) for r in v)


_NOUNS = {int: ("an integer", "integers"), complex: ("[re, im]", "[re, im]"),
          list: ("a list", "lists"), dict: ("an object", "objects")}  # alone, and listed


def read_field(d, key, what: str, kind: type = int, listed: bool = False):
    """``d[key]`` of the ``what`` document: an ``int``; for ``kind=complex`` a pair
    ``[re, im]`` (:func:`_pair`); for ``list`` or ``dict`` a JSON array or object, as it
    stands; ``listed``, a list of them.  ``d`` is an object, or an array read by index.
    Any other value raises ``TypeError`` naming ``what`` and ``key``."""
    v = d[key]
    items = v if listed else [v]
    ok = {int: _integer, complex: _pair}.get(kind, lambda u: isinstance(u, kind))
    if not (isinstance(items, list) and all(map(ok, items))):
        noun = _NOUNS[kind][listed]
        raise TypeError(f"{what} {key} must be {'a list of ' * listed}{noun}, got {v!r}")
    values = [int(u) if kind is int else complex(*u) if kind is complex else u for u in items]
    return values if listed else values[0]


class TransasymError(Exception):
    """Base class for domain errors."""


class ResonantOrder(TransasymError):
    """An order-k coefficient solve is singular and cannot go on.

    The hierarchy build refuses every singular order k >= 2; at k = 0 or 1,
    and in a linear series solve, a singular order is refused only when its
    equation is inconsistent.  The offending order is stored in ``order``.
    """

    def __init__(self, order: int):
        self.order = int(order)
        super().__init__(f"resonant order k={order}: the order-{order} solve is singular")


class InsufficientCoefficients(TransasymError):
    """Too few usable Taylor coefficients for a ratio-based estimate."""


class OscillatoryCoefficients(TransasymError):
    """Coefficient ratios oscillate (conjugate-pair singularities).

    ``modulus`` carries the modulus-only radius estimate; the phase of the
    dominant singularity is undetermined.
    """

    def __init__(self, modulus: float):
        self.modulus = float(modulus)
        super().__init__(f"oscillatory coefficient ratios; modulus-only radius {modulus:.6g}")


class SingularApproach(TransasymError):
    """Analytic continuation ran into a singularity; location in ``where``."""

    def __init__(self, where: complex):
        self.where = complex(where)
        super().__init__(f"singular approach near {where:.8g}")


class OutsideReliableDisk(TransasymError):
    """|xi| lies outside the disk where the Taylor rows can be summed:
    (|xi| / r)^(K+1) > 1e-8 for the leading profile's reliability radius r."""


class StepUnderflow(TransasymError):
    """The reference integrator stopped: its step collapsed, or the state escaped.

    The stop location is in ``where``.
    """

    def __init__(self, where: complex, message: str | None = None):
        self.where = complex(where)
        super().__init__(message or f"step underflow near x = {where:.8g}")


class NoBlowup(TransasymError):
    """A Taylor jet resolves no single singularity to read a model from."""


class NotConverging(TransasymError):
    """A stabilized limit (Richardson ladder) failed its convergence check."""

