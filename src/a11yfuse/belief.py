"""Mass-function algebra on the binary frame {accessible, not accessible}.

Masses live on the four subsets of the power set: the two singletons, the
whole frame (ignorance) and the empty set (conflict, populated only by
combination). Combination is the unnormalized conjunctive rule, so conflict
is kept on the empty set rather than renormalized away; the pignistic
transform divides it back out at decision time.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from typing import Iterable

from .errors import (
    ConflictPresent,
    EmptySourceSet,
    NegativeMass,
    NotNormalized,
    OutOfRange,
    TotalConflict,
)

NORM_TOL = 1e-9
NEG_TOL = 1e-12


class MassFunction(namedtuple("MassFunction", "ac nac omega empty")):
    """Basic belief assignment over {Ac, NotAc, Omega, Empty}."""

    __slots__ = ()

    def __new__(cls, ac: float, nac: float, omega: float, empty: float = 0.0):
        for name, v in (("ac", ac), ("nac", nac),
                        ("omega", omega), ("empty", empty)):
            if v < -NEG_TOL or v > 1.0 + NORM_TOL:
                raise NegativeMass(f"mass component {name}={v} outside [0, 1]")
        s = ac + nac + omega + empty
        if abs(s - 1.0) > NORM_TOL:
            raise NotNormalized(f"mass components sum to {s}, expected 1")
        return tuple.__new__(cls, (ac, nac, omega, empty))

    def isclose(self, other: "MassFunction", tol: float = NORM_TOL) -> bool:
        return (abs(self.ac - other.ac) <= tol
                and abs(self.nac - other.nac) <= tol
                and abs(self.omega - other.omega) <= tol
                and abs(self.empty - other.empty) <= tol)


def make_mass(ac: float, nac: float, omega: float) -> MassFunction:
    """Build a conflict-free mass function from a normalized triple.

    Tiny negative drift (within 1e-12) is clamped to zero and the triple is
    rescaled to sum exactly to 1; anything larger is rejected.
    """
    for v in (ac, nac, omega):
        if v < -NEG_TOL:
            raise NegativeMass(f"mass component {v} is negative")
    ac, nac, omega = max(ac, 0.0), max(nac, 0.0), max(omega, 0.0)
    s = ac + nac + omega
    if abs(s - 1.0) > NORM_TOL:
        raise NotNormalized(f"mass components sum to {s}, expected 1")
    return MassFunction(ac / s, nac / s, omega / s, 0.0)


def vacuous() -> MassFunction:
    """Total ignorance: all mass on the whole frame."""
    return MassFunction(0.0, 0.0, 1.0, 0.0)


def discount(m: MassFunction, delta: float) -> MassFunction:
    """Weaken a source's committed masses by its reliability delta in
    [0, 1].

    The removed mass is transferred to the whole frame. Only conflict-free
    masses may be discounted; discounting happens before fusion.
    """
    if not 0.0 <= delta <= 1.0:
        raise OutOfRange(f"reliability {delta} outside [0, 1]")
    if m.empty > NEG_TOL:
        raise ConflictPresent("cannot discount a mass carrying conflict")
    return MassFunction(delta * m.ac, delta * m.nac,
                        1.0 - delta * (1.0 - m.omega), 0.0)


def combine_conjunctive(a: MassFunction, b: MassFunction) -> MassFunction:
    """Unnormalized conjunctive combination of two mass functions.

    Mass is multiplied over intersecting focal sets; disagreement between the
    singletons, and any mass already on the empty set, lands on the empty set.
    """
    ac = a.ac * b.ac + a.ac * b.omega + a.omega * b.ac
    nac = a.nac * b.nac + a.nac * b.omega + a.omega * b.nac
    omega = a.omega * b.omega
    empty = (a.ac * b.nac + a.nac * b.ac
             + a.empty * (b.ac + b.nac + b.omega + b.empty)
             + b.empty * (a.ac + a.nac + a.omega))
    total = ac + nac + omega + empty
    # products of near-unit floats drift below tolerance; rescale exactly
    return MassFunction(ac / total, nac / total, omega / total, empty / total)


def combine_all(sources: Iterable[MassFunction]) -> MassFunction:
    """Left fold of the conjunctive rule over an ordered collection.

    The rule is commutative and associative, so the result is independent of
    the input order.
    """
    masses = list(sources)
    if not masses:
        raise EmptySourceSet("no mass functions to combine")
    return reduce(combine_conjunctive, masses)


def pignistic(m: MassFunction) -> float:
    """Decision-level probability of accessibility.

    Splits the ignorance mass evenly over the two singletons and conditions
    away the conflict mass. Dividing by the non-conflict mass itself, not by
    1 - m.empty, keeps the result in [0, 1] under rounding and exact near
    total conflict.
    """
    committed = m.ac + m.nac + m.omega
    if committed <= NEG_TOL:
        raise TotalConflict("all mass on the empty set; no decision possible")
    return (m.ac + m.omega / 2.0) / committed
