"""Independent straight-line oracle for the combination rule.

Deliberately implemented from scratch on top of frozensets and plain dicts,
with no imports from the package under test, so it can serve as a second
opinion on the conjunctive rule. masses_close compares two masses
component by component.

The reference for the whole scoring pipeline is bench/reference.py, shared
with the benchmark. The suite uses these of its names: score_frame (and the
sources, fused, decision and discounted fields of its result), FRAMES,
ALPHA, levels_near and the focal sets AC, NAC, OMEGA and EMPTY.
"""

from __future__ import annotations

from itertools import product

AC = frozenset({"Ac"})
NAC = frozenset({"NotAc"})
OMEGA = frozenset({"Ac", "NotAc"})
EMPTY = frozenset()

SUBSETS = (EMPTY, AC, NAC, OMEGA)


def to_setmap(ac, nac, omega, empty=0.0):
    return {AC: ac, NAC: nac, OMEGA: omega, EMPTY: empty}


def masses_close(a, b, tol: float) -> bool:
    """Whether two masses, as (ac, nac, omega, empty) tuples, agree to
    within tol in every component."""
    return all(abs(x - y) <= tol for x, y in zip(a, b, strict=True))


def combine_bruteforce(a: dict, b: dict) -> dict:
    """Enumerate all 4x4 focal-set intersections of the power set."""
    out = {s: 0.0 for s in SUBSETS}
    for x, y in product(SUBSETS, SUBSETS):
        out[x & y] += a[x] * b[y]
    return out
