"""Exception types the package raises, and the check for missing keys.

Every domain failure raises a subclass of TransasymError so callers (and the
CLI) can distinguish "the mathematics said no" from programming errors.  Each
class here is raised by some code path of the package; a usage error, such as
a missing key, an unknown builtin label, C = 0 or a germ term above the
degree cap, is a ``ValueError``.
"""

from __future__ import annotations

from typing import Iterable, Mapping


def require_keys(d: Mapping, keys: Iterable[str], what: str) -> None:
    """Raise ``ValueError`` naming each of ``keys`` that the ``what`` dict ``d`` lacks."""
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(missing)}")


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

