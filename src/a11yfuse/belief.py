"""Mass-function algebra on the binary frame {accessible, not accessible}.

Masses live on the four subsets of the power set: the two singletons, the
whole frame (ignorance) and the empty set (conflict, populated only by
combination). Combination is the unnormalized conjunctive rule, so conflict
is kept on the empty set rather than renormalized away; the pignistic
transform divides it back out at decision time.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial, reduce

from .errors import (EmptySourceSet, InvalidMass, OutOfRange, TotalConflict,
                     checked_tuple)

NORM_TOL = 1e-9
NEG_TOL = 1e-12


class MassFunction(checked_tuple("MassFunction", "ac nac omega empty")):
    """Basic belief assignment over {Ac, NotAc, Omega, Empty}."""

    __slots__ = ()

    def __new__(cls, ac: float, nac: float, omega: float, empty: float = 0.0):
        lo, hi, s = -NEG_TOL, 1.0 + NORM_TOL, ac + nac + omega + empty
        if (lo <= ac <= hi and lo <= nac <= hi and lo <= omega <= hi
                and lo <= empty <= hi and abs(s - 1.0) <= NORM_TOL):
            return tuple.__new__(cls, (ac, nac, omega, empty))
        # each check negates the valid range: a NaN fails every comparison
        for name, v in zip(cls._fields, (ac, nac, omega, empty)):
            if not lo <= v <= hi:
                raise InvalidMass(f"mass component {name}={v} outside [0, 1]")
        raise InvalidMass(f"mass components sum to {s}, expected 1")


# unchecked, for results of checked inputs; tests/test_belief.py shows why
_mass = partial(tuple.__new__, MassFunction)


def make_mass(ac: float, nac: float, omega: float) -> MassFunction:
    """Build a conflict-free mass function from a triple that MassFunction
    accepts, raising its InvalidMass otherwise. Tiny negative drift (within
    1e-12) is clamped to zero and the triple is rescaled to sum exactly to 1.
    """
    MassFunction(ac, nac, omega)
    # max(v, 0.0)'s values, without its call: this runs per source and frame
    ac, nac, omega = (ac if ac >= 0.0 else 0.0, nac if nac >= 0.0 else 0.0,
                      omega if omega >= 0.0 else 0.0)
    s = ac + nac + omega
    return _mass((ac / s, nac / s, omega / s, 0.0))


def vacuous() -> MassFunction:
    """Total ignorance: all mass on the whole frame."""
    return MassFunction(0.0, 0.0, 1.0, 0.0)


def discount(m: MassFunction, delta: float) -> MassFunction:
    """Weaken a source's committed masses by its reliability delta in
    [0, 1].

    Every focal set other than the whole frame, the empty set included,
    keeps delta of its mass; the removed mass is transferred to the whole
    frame.
    """
    if not 0.0 <= delta <= 1.0:
        raise OutOfRange(f"reliability {delta} outside [0, 1]")
    ac, nac, omega, empty = m
    return _mass((delta * ac, delta * nac, 1.0 - delta * (1.0 - omega),
                  delta * empty))


def combine_conjunctive(a: MassFunction, b: MassFunction) -> MassFunction:
    """Unnormalized conjunctive combination of two mass functions.

    Mass is multiplied over intersecting focal sets; disagreement between the
    singletons, and any mass already on the empty set, lands on the empty set.
    """
    (a_ac, a_nac, a_omega, a_empty), (b_ac, b_nac, b_omega, b_empty) = a, b
    ac = a_ac * b_ac + a_ac * b_omega + a_omega * b_ac
    nac = a_nac * b_nac + a_nac * b_omega + a_omega * b_nac
    omega = a_omega * b_omega
    empty = (a_ac * b_nac + a_nac * b_ac
             + a_empty * (b_ac + b_nac + b_omega + b_empty)
             + b_empty * (a_ac + a_nac + a_omega))
    total = ac + nac + omega + empty
    # products of near-unit floats drift below tolerance; rescale exactly
    return _mass((ac / total, nac / total, omega / total, empty / total))


def combine_all(sources: Iterable[MassFunction]) -> MassFunction:
    """Left fold of the conjunctive rule over an ordered collection.

    The rule is commutative and associative exactly. The fold rounds after
    each step, so in floats the result can differ in its last bits with the
    input order.
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
