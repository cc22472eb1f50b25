import math
import struct

import pytest
from hypothesis import example, given, strategies as st

from a11yfuse.belief import (
    MassFunction,
    combine_all,
    combine_conjunctive,
    discount,
    make_mass,
    pignistic,
    vacuous,
)
from a11yfuse.errors import (
    ConflictPresent,
    EmptySourceSet,
    InvalidMass,
    OutOfRange,
    TotalConflict,
)

from oracle import (AC, EMPTY, NAC, OMEGA, combine_bruteforce,
                    masses_close, to_setmap)


@st.composite
def masses(draw, with_conflict=False):
    n = 4 if with_conflict else 3
    vals = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    s = sum(vals)
    if s <= 1e-6:
        vals = [0.0] * (n - 1) + [1.0]
        s = 1.0
    vals = [v / s for v in vals]
    if with_conflict:
        return MassFunction(*vals)
    return make_mass(*vals)


class TestMakeMass:
    def test_valid_triple(self):
        m = make_mass(0.5, 0.3, 0.2)
        assert m == MassFunction(0.5, 0.3, 0.2, 0.0)

    def test_total_ignorance(self):
        assert make_mass(0.0, 0.0, 1.0) == vacuous()

    def test_not_normalized(self):
        with pytest.raises(InvalidMass, match=r"^mass components sum to "
                                              r"0\.9, expected 1$"):
            make_mass(0.5, 0.3, 0.1)

    def test_negative(self):
        with pytest.raises(InvalidMass, match=r"^mass component -0\.1 is "
                                              r"negative or NaN$"):
            make_mass(-0.1, 0.6, 0.5)

    def test_tiny_drift_renormalized(self):
        m = make_mass(0.5, 0.3, 0.2 + 5e-10)
        assert math.isclose(m.ac + m.nac + m.omega, 1.0, abs_tol=1e-15)

    def test_nan_rejected(self):
        # a NaN fails every comparison, so it is no negative number
        with pytest.raises(InvalidMass,
                           match=r"^mass component nan is negative or NaN$"):
            make_mass(math.nan, 0.0, 1.0)


class TestMassFunction:
    @pytest.mark.parametrize("components", [
        (math.nan, 0.0, 1.0), (0.0, 0.0, 1.0, math.nan)], ids=str)
    def test_nan_rejected(self, components):
        with pytest.raises(InvalidMass,
                           match=r"^mass component \w+=nan outside \[0, 1\]$"):
            MassFunction(*components)


class TestVacuous:
    def test_definition(self):
        assert vacuous() == MassFunction(0.0, 0.0, 1.0, 0.0)

    def test_neutral_element(self):
        x = make_mass(0.4, 0.35, 0.25)
        assert masses_close(combine_conjunctive(vacuous(), x), x, 1e-12)
        assert masses_close(combine_conjunctive(x, vacuous()), x, 1e-12)

    def test_pignistic_is_half(self):
        assert pignistic(vacuous()) == 0.5


class TestDiscount:
    def test_full_reliability_is_identity(self):
        m = make_mass(0.5, 0.3, 0.2)
        assert masses_close(discount(m, 1.0), m, 1e-12)

    def test_partial_reliability(self):
        # 0.9 * 0.5 = 0.45, 0.9 * 0.3 = 0.27, 1 - 0.9 * (1 - 0.2) = 0.28
        m = discount(make_mass(0.5, 0.3, 0.2), 0.9)
        assert masses_close(m, MassFunction(0.45, 0.27, 0.28), 1e-12)

    def test_zero_reliability_yields_vacuous(self):
        m = discount(make_mass(0.7, 0.3, 0.0), 0.0)
        assert masses_close(m, vacuous(), 1e-12)

    def test_rejects_conflict(self):
        conflicted = MassFunction(0.3, 0.3, 0.2, 0.2)
        with pytest.raises(ConflictPresent):
            discount(conflicted, 0.5)

    @pytest.mark.parametrize("m", [
        MassFunction(0.5, 0.5 + 1e-9 + 5e-13, 0.0, -6e-13),
        MassFunction(0.5, 0.5 - 1e-9 - 1e-12, 0.0, 1e-12)])
    def test_rejects_rounding_sized_conflict(self, m):
        # each is inside MassFunction's tolerances only with its conflict
        with pytest.raises(InvalidMass, match=r"^mass components sum to "):
            MassFunction(m.ac, m.nac, m.omega)
        with pytest.raises(ConflictPresent):
            discount(m, 1.0)

    def test_reliability_range(self):
        with pytest.raises(OutOfRange):
            discount(vacuous(), 1.2)
        with pytest.raises(OutOfRange):
            discount(vacuous(), -0.1)


class TestCombine:
    def test_worked_example(self):
        got = combine_conjunctive(make_mass(0.6, 0.2, 0.2),
                                  make_mass(0.5, 0.3, 0.2))
        # conflict = 0.6*0.3 + 0.2*0.5 = 0.28
        assert masses_close(got, MassFunction(0.52, 0.16, 0.04, 0.28), 1e-12)

    def test_total_contradiction(self):
        got = combine_conjunctive(make_mass(1, 0, 0), make_mass(0, 1, 0))
        assert masses_close(got, MassFunction(0, 0, 0, 1), 1e-12)

    def test_combine_all_single(self):
        x = make_mass(0.2, 0.3, 0.5)
        assert combine_all([x]) == x

    def test_combine_all_pair(self):
        a, b = make_mass(0.6, 0.2, 0.2), make_mass(0.5, 0.3, 0.2)
        assert combine_all([a, b]) == combine_conjunctive(a, b)

    def test_combine_all_order_independent(self):
        import itertools
        trio = [make_mass(0.6, 0.2, 0.2), make_mass(0.1, 0.7, 0.2),
                make_mass(0.3, 0.3, 0.4)]
        results = [combine_all(p) for p in itertools.permutations(trio)]
        for r in results[1:]:
            assert masses_close(r, results[0], 1e-12)

    def test_combine_all_empty(self):
        with pytest.raises(EmptySourceSet):
            combine_all([])


class TestPignistic:
    def test_certainty(self):
        assert pignistic(MassFunction(1, 0, 0, 0)) == 1.0

    def test_worked_example(self):
        # (0.52 + 0.04/2) / (1 - 0.28)
        d = pignistic(MassFunction(0.52, 0.16, 0.04, 0.28))
        assert math.isclose(d, 0.75, abs_tol=1e-12)

    def test_total_conflict(self):
        with pytest.raises(TotalConflict):
            pignistic(MassFunction(0, 0, 0, 1))

    def test_conflict_within_normalization_tolerance(self):
        # sums to 1 within 1e-9 but commits nothing outside the empty set
        with pytest.raises(TotalConflict):
            pignistic(MassFunction(0, 0, 0, 1 - 5e-10))

    def test_near_total_conflict_keeps_precision(self):
        m = MassFunction(0.0, 0.0, 9.99999999e-10, 0.9999999989999999)
        assert pignistic(m) == 0.5

    def test_certain_source_fused_with_conflict_stays_in_range(self):
        # the mass behind fixture seed 148's hearing frame, where dividing
        # by 1 - empty gave 1.0000000000000002
        m = MassFunction(0.6470171466730731, 0.0, 0.0, 0.35298285332692697)
        assert pignistic(m) == 1.0


class TestProperties:
    @given(masses(with_conflict=True), masses(with_conflict=True))
    def test_commutative(self, a, b):
        assert masses_close(combine_conjunctive(a, b),
                            combine_conjunctive(b, a), 1e-12)

    @given(masses(with_conflict=True), masses(with_conflict=True),
           masses(with_conflict=True))
    def test_associative(self, a, b, c):
        left = combine_conjunctive(combine_conjunctive(a, b), c)
        right = combine_conjunctive(a, combine_conjunctive(b, c))
        assert masses_close(left, right, 1e-12)

    @given(masses(with_conflict=True), masses(with_conflict=True))
    def test_normalization_closure(self, a, b):
        m = combine_conjunctive(a, b)
        assert abs(m.ac + m.nac + m.omega + m.empty - 1.0) <= 1e-9
        assert min(m.ac, m.nac, m.omega, m.empty) >= -1e-12

    @given(masses(with_conflict=True))
    def test_vacuous_identity(self, m):
        assert masses_close(combine_conjunctive(m, vacuous()), m, 1e-12)

    @given(masses(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_omega_monotone_in_delta(self, m, d1, d2):
        lo, hi = sorted((d1, d2))
        # more discounting (smaller delta) never shrinks the ignorance mass
        assert discount(m, lo).omega >= discount(m, hi).omega - 1e-12

    @given(masses(with_conflict=True))
    @example(MassFunction(0.0, 0.0, 9.99999999e-10, 0.9999999989999999))
    def test_pignistic_bounds_and_complement(self, m):
        if m.empty >= 1 - 1e-9:
            return
        p = pignistic(m)
        assert -1e-12 <= p <= 1 + 1e-12
        q = (m.nac + m.omega / 2) / (m.ac + m.nac + m.omega)
        assert math.isclose(p + q, 1.0, abs_tol=1e-9)

    @given(masses(with_conflict=True), masses(with_conflict=True))
    def test_matches_bruteforce_enumeration(self, a, b):
        got = combine_conjunctive(a, b)
        ref = combine_bruteforce(to_setmap(a.ac, a.nac, a.omega, a.empty),
                                 to_setmap(b.ac, b.nac, b.omega, b.empty))
        assert abs(got.ac - ref[AC]) <= 1e-12
        assert abs(got.nac - ref[NAC]) <= 1e-12
        assert abs(got.omega - ref[OMEGA]) <= 1e-12
        assert abs(got.empty - ref[EMPTY]) <= 1e-12


# The three builders skip MassFunction's checks on their results. The
# references below are their arithmetic as it was when each result went
# through MassFunction(...), checks included.
def checked_make_mass(ac, nac, omega):
    ac, nac, omega = max(ac, 0.0), max(nac, 0.0), max(omega, 0.0)
    s = ac + nac + omega
    return MassFunction(ac / s, nac / s, omega / s, 0.0)


def checked_discount(m, delta):
    return MassFunction(delta * m.ac, delta * m.nac,
                        1.0 - delta * (1.0 - m.omega), 0.0)


def checked_combine(a, b):
    ac = a.ac * b.ac + a.ac * b.omega + a.omega * b.ac
    nac = a.nac * b.nac + a.nac * b.omega + a.omega * b.nac
    omega = a.omega * b.omega
    empty = (a.ac * b.nac + a.nac * b.ac
             + a.empty * (b.ac + b.nac + b.omega + b.empty)
             + b.empty * (a.ac + a.nac + a.omega))
    total = ac + nac + omega + empty
    return MassFunction(ac / total, nac / total, omega / total, empty / total)


TINY = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-17,
                        2 ** -53])
UNIT = st.one_of(TINY, st.sampled_from([1.0, 1 - 2 ** -53]),
                 st.floats(0.0, 1.0))


@st.composite
def triples(draw):
    """make_mass inputs: a non-negative triple scaled to sum 1, one part
    moved by drift inside the tolerances (below 0 by at most 1e-12)."""
    raw = [draw(UNIT) for _ in range(3)]
    s = sum(raw)
    t = [v / s for v in raw] if s > 0 else [0.0, 0.0, 1.0]
    t[draw(st.integers(0, 2))] += draw(st.one_of(
        st.just(0.0), st.floats(-1e-12, 5e-10)))
    return t


@st.composite
def near_certain(draw):
    """A source all but certain of one singleton, so that two of them that
    disagree fuse to almost total conflict."""
    eps = draw(st.one_of(TINY, st.floats(0.0, 1e-9)))
    t = [1.0 - eps, eps, 0.0]
    if draw(st.booleans()):
        t[0], t[1] = t[1], t[0]
    return make_mass(*t)


CONFLICT_FREE = st.one_of(triples().map(lambda t: make_mass(*t)),
                          near_certain())
ANY_MASS = st.one_of(
    CONFLICT_FREE, masses(with_conflict=True),
    st.tuples(CONFLICT_FREE, CONFLICT_FREE).map(
        lambda ab: combine_conjunctive(*ab)))


def same_bits(got, want):
    return type(got) is MassFunction and \
        struct.pack("<4d", *got) == struct.pack("<4d", *want)


class TestResultsCheckedOnce:
    @given(triples())
    @example([1.0, 0.0, 0.0])
    @example([5e-324, 0.0, 1.0])
    @example([-1e-12, 0.5, 0.5 + 5e-10])
    def test_make_mass(self, t):
        got = make_mass(*t)
        assert same_bits(got, checked_make_mass(*t))
        assert MassFunction(*got) == got

    @given(CONFLICT_FREE, UNIT)
    def test_discount(self, m, delta):
        got = discount(m, delta)
        assert same_bits(got, checked_discount(m, delta))
        assert MassFunction(*got) == got

    @given(st.one_of(st.tuples(ANY_MASS, ANY_MASS),
                     st.tuples(near_certain(), near_certain()),
                     st.tuples(near_certain(), CONFLICT_FREE)
                     .map(lambda ab: (combine_conjunctive(*ab), ab[0]))))
    @example((make_mass(1.0, 0.0, 0.0), make_mass(0.0, 1.0, 0.0)))
    @example((make_mass(1 - 5e-324, 5e-324, 0.0),
              make_mass(5e-324, 1 - 5e-324, 0.0)))
    def test_combine_conjunctive(self, pair):
        got = combine_conjunctive(*pair)
        assert same_bits(got, checked_combine(*pair))
        assert MassFunction(*got) == got
