import copy
import json
import pickle
import re
import warnings

import pytest
from hypothesis import example, given, strategies as st

from a11yfuse.belief import MassFunction, vacuous
from a11yfuse.errors import (
    CountInconsistency,
    IndicatorError,
    InvalidMass,
    SchemaError,
)
from a11yfuse.reports import (
    FIXTURE_KINDS,
    AssessorProfile,
    AssessorReport,
    CriterionObservation,
    generate_fixture,
    parse_report,
    serialize_report,
)
from a11yfuse.engine import score_page
from a11yfuse.wcag import GLOBAL, CriterionSpec, WeightConfig, load_config


def report_doc(observations, total=None, **assessor_overrides):
    assessor = {"name": "tool-a", "beta_err": 1.0, "beta_likely": 0.5,
                "beta_potential": 1.0, "delta": 1.0, **assessor_overrides}
    doc = {"assessor": assessor, "url": "https://example.test/",
           "observations": observations}
    if total is not None:
        doc["total_tests"] = total
    return doc


def obs(cid="1.1.1", **kwargs):
    base = {"criterion": cid, "n_err": 0, "n_ok": 0, "n_likely": 0,
            "n_potential": 0, "t_err": 0, "t_likely": 0, "t_potential": 0}
    base.update(kwargs)
    return base


class TestParse:
    def test_single_observation_total(self):
        r = parse_report(report_doc([obs(n_err=2, n_ok=8, n_likely=1,
                                         t_err=4, t_likely=2)]))
        assert r.total_tests == 11

    def test_count_inconsistency(self):
        with pytest.raises(CountInconsistency):
            parse_report(report_doc([obs(n_err=5, t_err=4)]))

    def test_two_observation_total(self):
        r = parse_report(report_doc([
            obs("1.1.1", n_err=2, n_ok=8, n_likely=1, t_err=4, t_likely=2),
            obs("1.3.1", n_ok=4, n_potential=2, t_potential=3),
        ]))
        assert r.total_tests == 17

    def test_accepts_json_text(self):
        text = json.dumps(report_doc([obs(n_ok=3)]))
        assert parse_report(text).total_tests == 3

    def test_stored_total_must_match(self):
        with pytest.raises(CountInconsistency):
            parse_report(report_doc([obs(n_ok=3)], total=99))

    def test_stored_total_accepted_when_right(self):
        assert parse_report(report_doc([obs(n_ok=3)], total=3)).total_tests == 3

    def test_missing_fields(self):
        with pytest.raises(SchemaError):
            parse_report({"url": "x"})

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            parse_report("{not json")

    def test_non_integer_count(self):
        with pytest.raises(SchemaError):
            parse_report(report_doc([obs(n_ok=1.5)]))

    def test_count_bound_is_2_pow_53(self):
        # the largest integer a float holds exactly; counts become floats
        r = parse_report(report_doc([obs(n_ok=2 ** 53)]))
        assert r.total_tests == 2 ** 53
        with pytest.raises(SchemaError, match="n_ok is above 2\\*\\*53"):
            parse_report(report_doc([obs(n_ok=2 ** 53 + 1)]))

    def test_duplicate_criterion(self):
        with pytest.raises(SchemaError):
            parse_report(report_doc([obs("1.1.1"), obs("1.1.1")]))

    def test_bad_coefficient(self):
        with pytest.raises(SchemaError):
            parse_report(report_doc([obs()], beta_err=1.5))

    def test_omitted_coefficients_take_weight_config_defaults(self):
        doc = report_doc([obs()])
        doc["assessor"] = {"name": "t"}
        p = parse_report(doc).profile
        w = WeightConfig()
        assert (p.beta_err, p.beta_likely, p.beta_potential, p.delta) == \
            (w.beta_err, w.beta_likely, w.beta_potential, w.delta)

    def test_non_utf8_bytes(self):
        with pytest.raises(SchemaError):
            parse_report(b"\xff\xfe{}")

    @pytest.mark.parametrize("document", [str, str.encode])
    def test_deep_nesting_is_a_schema_error(self, document):
        # json.loads raises RecursionError, once an uncaught traceback
        text = '{"observations": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(SchemaError, match="^report is not valid UTF-8 "
                                              "JSON: maximum recursion"):
            parse_report(document(text))

    @pytest.mark.parametrize("stored", [True, 3.0, "3", [3]])
    def test_stored_total_must_be_an_integer(self, stored):
        # True == 1 and 3.0 == 3, so an equality check alone accepted them
        doc = report_doc([obs(n_ok=1 if stored is True else 3)], stored)
        with pytest.raises(SchemaError, match="total_tests must be an "
                                              "integer, got"):
            parse_report(doc)

    def test_criterion_missing_from_catalog_is_skipped(self):
        # the report keeps every entry; scoring skips the ones the catalog
        # lacks, as if the document had left them out
        catalog, w = load_config()
        doc = report_doc([obs("9.9.9", n_ok=5), obs("1.1.1", n_ok=2)])
        r = parse_report(doc)
        assert list(r.observations) == ["9.9.9", "1.1.1"]
        assert [c for c in r.observations if c not in catalog] == ["9.9.9"]
        alone = parse_report(report_doc([obs("1.1.1", n_ok=2)]))
        assert score_page([r], catalog, w) == score_page([alone], catalog, w)

    def test_skipping_warns_nothing(self):
        # the CLI prints the ids the catalog lacks; the library is quiet
        catalog, w = load_config([
            {"id": "1.1.1", "level": "A", "frames": ["visual"]}])
        doc = report_doc([obs("1.4.3", n_ok=1), obs("1.1.1", n_ok=2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = parse_report(doc)
            score_page([r], catalog, w)
        assert [c for c in r.observations if c not in catalog] == ["1.4.3"]

    @pytest.mark.parametrize("label, name, url", [
        ("url", "t", "https://x.test/\ud800"),
        ("assessor name", "t\udc80", "https://x.test/"),
        ("url", "t\udc80", "\ude00https://x.test/\ud83d")])
    @pytest.mark.parametrize("document", [dict, json.dumps])
    def test_lone_surrogate_is_a_schema_error(self, label, name, url,
                                              document):
        # JSON's \u escapes spell lone surrogates, which no output can encode
        doc = report_doc([obs(n_ok=3)], name=name)
        doc["url"] = url
        with pytest.raises(SchemaError, match=f"^{label} is not Unicode "
                                              f"text: "):
            parse_report(document(doc))

    def test_stored_total_covers_skipped_criteria(self):
        # the catalog's criterion runs 2 tests, the one it lacks 5: the
        # report's total covers both, e_ac's denominator only the first
        catalog, w = load_config()
        entries = [obs("9.9.9", n_ok=5), obs("1.1.1", n_ok=2)]
        r = parse_report(report_doc(entries, total=7))
        assert r.total_tests == 7
        (source,) = score_page([r], catalog, w)[GLOBAL].sources
        assert source.parts.den_ac == 2.0
        for wrong in (2, 8):
            with pytest.raises(CountInconsistency, match="sum 7"):
                parse_report(report_doc(entries, total=wrong))

    def test_skipped_criterion_counts_are_validated(self):
        with pytest.raises(CountInconsistency, match="criterion '9.9.9'"):
            parse_report(report_doc([obs("9.9.9", n_err=3, t_err=1)]))
        with pytest.raises(SchemaError, match="duplicate"):
            parse_report(report_doc([obs("9.9.9"), obs("9.9.9")]))


class TestUnknownKeys:
    def test_misspelled_observation_key(self):
        doc = report_doc([{"criterion": "1.1.1", "n_errs": 5, "t_err": 5,
                           "n_ok": 1}])
        with pytest.raises(SchemaError, match="criterion '1.1.1': .*'n_errs'"):
            parse_report(doc)

    def test_observation_key_rejected_even_when_criterion_skipped(self):
        with pytest.raises(SchemaError, match="'t_errr'"):
            parse_report(report_doc([obs("9.9.9", t_errr=1)]))

    def test_unknown_top_level_key(self):
        # a misspelled stored total once bypassed the total_tests guard
        doc = report_doc([obs(n_ok=3)])
        doc["total_test"] = 99
        with pytest.raises(SchemaError, match="^report: .*'total_test'$"):
            parse_report(doc)

    def test_unknown_assessor_key(self):
        with pytest.raises(SchemaError, match="assessor block: .*'beta_eror'"):
            parse_report(report_doc([obs()], beta_eror=0.1))

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_coefficient_must_be_a_number(self, value):
        with pytest.raises(SchemaError, match="delta=.* is not a number"):
            parse_report(report_doc([obs()], delta=value))

    def test_integer_coefficient_is_a_float(self):
        p = parse_report(report_doc([obs()], delta=1, beta_err=0)).profile
        assert (p.delta, p.beta_err) == (1.0, 0.0)
        assert type(p.delta) is float and type(p.beta_err) is float

    @pytest.mark.parametrize("assessor", [["t"], "t", {"delta": 1.0}])
    def test_assessor_block_needs_a_name(self, assessor):
        doc = report_doc([obs()])
        doc["assessor"] = assessor
        with pytest.raises(SchemaError, match="bad assessor block"):
            parse_report(doc)


def with_url(doc, url):
    doc["url"] = url
    return doc


# Documents with two faults each, and the fault reported: the url before
# the assessor block, the assessor block before the entries, an entry's
# keys before its counts, its counts before a duplicate id, and every
# entry before the stored total_tests.
TWO_FAULTS = {
    "url-and-name": (with_url(report_doc([obs(n_ok=1)], name=5), ""),
                     SchemaError, "url must be a non-empty string, got ''"),
    "url-and-count": (with_url(report_doc([obs(n_ok=-1)]), None),
                      SchemaError, "url must be a non-empty string, got None"),
    "name-and-count": (report_doc([obs(n_ok=-1)], name=""), SchemaError,
                       "assessor name must be a non-empty string, got ''"),
    "entry-key-and-count": (
        report_doc([obs(n_err=3, t_err=1, n_errs=1)]), SchemaError,
        "criterion '1.1.1': unknown key(s) 'n_errs'"),
    "count-then-duplicate": (
        report_doc([obs(n_err=3, t_err=1), obs(n_ok=1)]), CountInconsistency,
        "criterion '1.1.1': 3 errors observed but only 1 applicable tests"),
    "duplicate-with-count": (
        report_doc([obs(n_ok=1), obs(n_ok=-1)]), SchemaError,
        "criterion '1.1.1': n_ok must be a non-negative integer, got -1"),
    "duplicate-and-total": (
        report_doc([obs(n_ok=1), obs(n_ok=1)], total=99), SchemaError,
        "duplicate observation for criterion '1.1.1'"),
}


@pytest.mark.parametrize("name", TWO_FAULTS)
@pytest.mark.parametrize("document", [dict, json.dumps])
def test_which_fault_wins(name, document):
    doc, error, message = TWO_FAULTS[name]
    with pytest.raises(error) as caught:
        parse_report(document(doc))
    assert type(caught.value) is error and str(caught.value) == message


class TestNamesAndIdsAreStrings:
    # each was once passed through str(): null scored as assessor "None",
    # and a criterion 1.1 matched catalog id "1.1"
    @pytest.mark.parametrize("name", [
        None, ["tool"], 7, True, 0, False, [], ""], ids=[
        "null", "list", "int", "true", "zero", "false", "empty-list",
        "empty-str"])
    def test_assessor_name(self, name):
        # one wording, whether the value is falsy or not a str
        message = f"assessor name must be a non-empty string, got {name!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_report(report_doc([obs()], name=name))
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            AssessorProfile(name)

    @pytest.mark.parametrize("cid", [1.1, 7, None, ["1.1.1"], True])
    def test_criterion(self, cid):
        with pytest.raises(SchemaError, match=re.escape(
                f"criterion must be a string, got {cid!r}")):
            parse_report(report_doc([obs(cid)]))


OBS_KEYS = ("n_err", "n_ok", "n_likely", "n_potential", "t_err", "t_likely",
            "t_potential")
ODD_COUNTS = (0, 2 ** 53, 2 ** 53 + 1, -1, True, 1.0, None, "3")


@st.composite
def count_entries(draw):
    """The counts of one observation entry: some left out, small ints that
    often give n > t, and up to two counts set to edge or wrong values."""
    keys = draw(st.lists(st.sampled_from(OBS_KEYS), unique=True))
    counts = {key: draw(st.integers(0, 6)) for key in keys}
    for key in draw(st.lists(st.sampled_from(OBS_KEYS), max_size=2)):
        counts[key] = draw(st.sampled_from(ODD_COUNTS))
    return counts


def count_fault(cid, counts):
    """The first fault of an entry's counts, as (error type, message), by
    a plain scan in the order the schema checks them; None if valid."""
    full = [counts.get(key, 0) for key in OBS_KEYS]
    for key, v in zip(OBS_KEYS, full):
        if type(v) is not int or v < 0:
            return SchemaError, (f"criterion {cid!r}: {key} must be a "
                                 f"non-negative integer, got {v!r}")
        if v > 2 ** 53:
            return SchemaError, (f"criterion {cid!r}: {key} is above 2**53, "
                                 f"the largest exact float count")
    n_err, _, n_likely, n_potential, t_err, t_likely, t_potential = full
    for n, t, label in ((n_err, t_err, "errors"),
                        (n_likely, t_likely, "likely problems"),
                        (n_potential, t_potential, "potential problems")):
        if n > t:
            return CountInconsistency, (f"criterion {cid!r}: {n} {label} "
                                        f"observed but only {t} applicable "
                                        f"tests")
    return None


class TestOnePassMatchesConstructor:
    """parse_report builds each entry through CriterionObservation; its
    report or error must be the one the constructor gives entry by entry,
    and the constructor must agree with a plain scan of the counts."""

    @staticmethod
    def outcome(make):
        try:
            return make()
        except IndicatorError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("cid", ["1.1.1", "9.9.9"])
    def test_each_count_alone(self, cid):
        for key in OBS_KEYS:
            for value in ODD_COUNTS:
                self.check([(cid, {key: value})])
                self.check([(cid, {**dict.fromkeys(OBS_KEYS, 2 ** 53),
                                   key: value})])

    @given(st.lists(st.tuples(st.sampled_from(["1.1.1", "1.4.3", "9.9.9",
                                               "8.8.8"]), count_entries()),
                    max_size=4, unique_by=lambda e: e[0]))
    @example([("1.1.1", {"n_err": 2 ** 53, "t_err": 2 ** 53,
                         "n_ok": 2 ** 53})])
    @example([("9.9.9", {"n_err": 2, "t_err": 1}), ("1.1.1", {"n_ok": -1})])
    def test_same_error_or_same_observations(self, entries):
        self.check(entries)

    def check(self, entries):
        # the constructor is the reference: the first entry it rejects
        # decides the error; otherwise its observations are the report
        want = [self.outcome(lambda: CriterionObservation(cid, **counts))
                for cid, counts in entries]
        for w, (cid, counts) in zip(want, entries):
            assert w == (count_fault(cid, counts) or
                         CriterionObservation(cid, **counts))
        doc = report_doc([{"criterion": cid, **counts}
                          for cid, counts in entries])
        got = self.outcome(lambda: parse_report(doc))
        errors = [w for w in want if type(w) is tuple]
        if errors:
            assert got == errors[0]
            return
        kept = {o.criterion_id: o for o in want}
        assert list(got.observations.items()) == list(kept.items())
        assert all(type(o) is CriterionObservation
                   for o in got.observations.values())
        assert got.total_tests == sum(o.tests_run for o in want)
        assert got == AssessorReport(got.profile, got.url, kept)
        doc["total_tests"] = got.total_tests
        assert parse_report(doc) == got


class TestTotalTests:
    def test_empty(self):
        r = AssessorReport(AssessorProfile("t"), "u", {})
        assert r.total_tests == 0

    def test_all_zero(self):
        r = AssessorReport(AssessorProfile("t"), "u",
                           {"1.1.1": CriterionObservation("1.1.1")})
        assert r.total_tests == 0


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
COPIERS = pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy] + [
    lambda v, p=p: pickle.loads(pickle.dumps(v, p)) for p in PROTOCOLS],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in PROTOCOLS])


class TestValueTypes:
    @COPIERS
    @pytest.mark.parametrize("value", [
        AssessorReport(AssessorProfile("t", delta=0.5), "u", {
            "1.1.1": CriterionObservation("1.1.1", n_err=1, n_ok=2, t_err=3),
            "2.1.1": CriterionObservation("2.1.1", n_ok=4)}),
        AssessorProfile("t", 0.25, 0.5, 0.75, 1),
        CriterionObservation("1.1.1", 1, 2, 3, 4, 5, 6, 7),
        MassFunction(0.25, 0.25, 0.5), WeightConfig(s1=0.5),
        CriterionSpec("1.1.1", "A", ["visual", "cognitive"])],
        ids=lambda v: type(v).__name__)
    def test_copies_and_pickles(self, copier, value):
        got = copier(value)
        assert type(got) is type(value) and got == value

    @pytest.mark.parametrize("value, change, error, message", [
        (CriterionObservation("1.1.1", n_err=1, t_err=1), dict(n_err=5),
         CountInconsistency, "5 errors observed but only 1 applicable tests"),
        # the constructor's fault order: a negative count before the excess
        (CriterionObservation("1.1.1", n_err=1, t_err=1),
         dict(n_err=5, n_ok=-3), SchemaError, "n_ok must be a non-negative"),
        (vacuous(), dict(ac=-1.0), InvalidMass, "ac=-1.0 outside"),
        (AssessorProfile("t"), dict(delta=2.0), SchemaError, "delta=2.0"),
        (WeightConfig(), dict(s1=0.95), SchemaError, "thresholds must"),
        (CriterionSpec("c1", "A", ["visual"]), dict(frames=[]), SchemaError,
         "belongs to no frame"),
        (AssessorReport(AssessorProfile("t"), "u"), dict(url=""), SchemaError,
         "url must be a non-empty string")],
        ids=["CriterionObservation-excess", "CriterionObservation-negative",
             "MassFunction", "AssessorProfile", "WeightConfig",
             "CriterionSpec", "AssessorReport"])
    def test_replace_runs_the_checks(self, value, change, error, message):
        with pytest.raises(error, match=re.escape(message)):
            value._replace(**change)
        with pytest.raises(error, match=re.escape(message)):
            type(value)._make({**value._asdict(), **change}.values())

    @COPIERS
    @pytest.mark.parametrize("cls, fields, error", [
        (AssessorReport, (AssessorProfile("t"), "", {}), SchemaError),
        (AssessorProfile, ("t", 0.5, 0.5, 0.5, 2.0), SchemaError),
        (CriterionObservation, ("1.1.1", 5, 0, 0, 0, 1, 0, 0),
         CountInconsistency),
        (MassFunction, (-5.0, 0.25, 0.5, 0.0), InvalidMass),
        (WeightConfig, (1.0, 0.8, 0.6, 0.95, 0.7, 0.8, 0.9), SchemaError),
        (CriterionSpec, ("c1", "A", frozenset()), SchemaError)],
        ids=["AssessorReport", "AssessorProfile", "CriterionObservation",
             "MassFunction", "WeightConfig", "CriterionSpec"])
    def test_copies_run_the_checks(self, copier, cls, fields, error):
        # a value built past its checks, as tuple.__new__ builds one
        with pytest.raises(error):
            copier(tuple.__new__(cls, fields))

    @pytest.mark.parametrize("cls, fields", [
        (AssessorProfile, ("t", 0.5)), (CriterionObservation, ("1.1.1",)),
        (MassFunction, (0.0, 0.0, 1.0)), (WeightConfig, (0.5,)),
        (CriterionSpec, ("c1", "A", ["visual"], None)),
        (AssessorReport, (AssessorProfile("t"), "u"))],
        ids=["AssessorProfile", "CriterionObservation", "MassFunction",
             "WeightConfig", "CriterionSpec", "AssessorReport"])
    def test_make_takes_every_field(self, cls, fields):
        # as a named tuple's _make does, though the constructor has defaults
        with pytest.raises(TypeError, match=r"^Expected \d+ arguments, got "
                                            rf"{len(fields)}$"):
            cls._make(fields)


def canonical_json(report):
    """The canonical form's definition, which serialize_report must match
    byte for byte."""
    doc = {**report._asdict(), "total_tests": report.total_tests}
    doc["assessor"] = doc.pop("profile")._asdict()
    doc["observations"] = [
        {"criterion" if k == "criterion_id" else k: v
         for k, v in o._asdict().items()}
        for o in doc["observations"].values()]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


AWKWARD = st.sampled_from('"\\/\x00\n\t\x1f\x7f\u2028\u2029\xe9\U0001f600'
                         '\ud800\udfff')
# a criterion id may hold a lone surrogate (category Cs); a url or an
# assessor name may not, as test_lone_surrogate_is_a_schema_error pins.
# Nor may an id hold a high surrogate then a low one, a split pair, which
# JSON reads back as one character.
TEXT = st.text(st.one_of(st.characters(), AWKWARD), min_size=1)
SURROGATE = re.compile("[\ud800-\udfff]")
SPLIT_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
COEFFICIENT = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2]),
                        st.floats(0.0, 1.0))
COUNT = st.integers(0, 2 ** 53)


@st.composite
def counts(draw):
    t_err, t_likely, t_potential = draw(COUNT), draw(COUNT), draw(COUNT)
    return dict(n_err=draw(st.integers(0, t_err)), n_ok=draw(COUNT),
                n_likely=draw(st.integers(0, t_likely)),
                n_potential=draw(st.integers(0, t_potential)), t_err=t_err,
                t_likely=t_likely, t_potential=t_potential)


@st.composite
def reports(draw):
    """A report's arguments: the profile's, the url, and the counts of each
    criterion id."""
    cids = draw(st.lists(TEXT, max_size=40, unique=True))
    return ((draw(TEXT), *[draw(COEFFICIENT) for _ in range(4)]), draw(TEXT),
            {cid: draw(counts()) for cid in cids})


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_parse_serialize_roundtrip(self, seed, kind):
        r = parse_report(generate_fixture(seed, kind))
        assert parse_report(serialize_report(r)) == r

    @given(reports())
    @example((("t",), "u", {}))
    @example((('\u2028"\\\n\xe9', 0, 1, 5e-324, 0.1 + 0.2), "https://\u00e9/",
              {}))
    @example((("\x00\u2029",), "https://x.test/\U0001f600\t\n", {}))
    @example((("t",), "https://x.test/\ud800", {}))
    @example((("t\udc80",), "u", {}))
    @example((("t",), "u", {"\ud800": {}, "\udfff\ud800": {}}))
    @example((("t",), "u", {"\ud800\udfff": {}}))
    def test_serialize_matches_json_dumps(self, args):
        # a url or name with a lone surrogate, and an id with a split pair,
        # are refused when they are built, so every report that builds
        # round-trips
        profile, url, entries = args

        def build():
            return AssessorReport(AssessorProfile(*profile), url, {
                cid: CriterionObservation(cid, **kw)
                for cid, kw in entries.items()})
        if SURROGATE.search(profile[0] + url) or \
                any(map(SPLIT_PAIR.search, entries)):
            with pytest.raises(SchemaError, match=" is not Unicode text: | "
                                                  "split surrogate pair$"):
                build()
            return
        report = build()
        text = serialize_report(report)
        assert text == canonical_json(report)
        assert parse_report(text) == report

    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_fixtures_match_json_dumps(self, kind):
        for seed in range(1000):
            text = generate_fixture(seed, kind)
            assert text == canonical_json(parse_report(text)), seed


class TestFixtures:
    def test_deterministic(self):
        assert generate_fixture(42, "balanced") == generate_fixture(42, "balanced")

    def test_potential_heavy_constant_t_potential(self):
        doc = json.loads(generate_fixture(7, "potential-heavy"))
        t_values = {o["t_potential"] for o in doc["observations"]}
        assert len(t_values) == 1

    def test_error_heavy_has_no_likely_problems(self):
        doc = json.loads(generate_fixture(3, "error-heavy"))
        assert all(o["n_likely"] == 0 for o in doc["observations"])

    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_generated_reports_validate(self, kind):
        # fixtures draw only catalog criteria, so none is skipped
        catalog, _ = load_config()
        for seed in range(5):
            r = parse_report(generate_fixture(seed, kind))
            assert r.total_tests > 0
            assert all(c in catalog for c in r.observations)

    def test_same_seed_shares_url_across_kinds(self):
        a = json.loads(generate_fixture(7, "error-heavy"))
        b = json.loads(generate_fixture(7, "potential-heavy"))
        assert a["url"] == b["url"]
        assert a["assessor"]["name"] != b["assessor"]["name"]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            generate_fixture(1, "chaotic")
