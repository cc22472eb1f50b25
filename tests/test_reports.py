import json

import pytest

from a11yfuse.errors import (
    CountInconsistency,
    SchemaError,
    UnknownCriterion,
)
from a11yfuse.reports import (
    FIXTURE_KINDS,
    AssessorProfile,
    AssessorReport,
    CriterionObservation,
    generate_fixture,
    parse_report,
    serialize_report,
    total_tests,
)
from a11yfuse.wcag import WeightConfig, default_catalog


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

    def test_unknown_criterion_skipped_with_warning(self):
        catalog, _ = default_catalog()
        doc = report_doc([obs("9.9.9", n_ok=5), obs("1.1.1", n_ok=2)])
        with pytest.warns(UserWarning, match="9.9.9"):
            r = parse_report(doc, catalog)
        assert list(r.observations) == ["1.1.1"]

    def test_unknown_criterion_rejected_on_request(self):
        catalog, _ = default_catalog()
        with pytest.raises(UnknownCriterion):
            parse_report(report_doc([obs("9.9.9")]), catalog,
                         unknown_criterion="reject")


class TestUnknownKeys:
    def test_misspelled_observation_key(self):
        doc = report_doc([{"criterion": "1.1.1", "n_errs": 5, "t_err": 5,
                           "n_ok": 1}])
        with pytest.raises(SchemaError, match="criterion 1.1.1: .*'n_errs'"):
            parse_report(doc)

    def test_observation_key_rejected_even_when_criterion_skipped(self):
        catalog, _ = default_catalog()
        with pytest.raises(SchemaError, match="'t_errr'"):
            parse_report(report_doc([obs("9.9.9", t_errr=1)]), catalog)

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


class TestTotalTests:
    def test_empty(self):
        r = AssessorReport(AssessorProfile("t"), "u", {})
        assert total_tests(r) == 0

    def test_all_zero(self):
        r = AssessorReport(AssessorProfile("t"), "u",
                           {"1.1.1": CriterionObservation("1.1.1")})
        assert total_tests(r) == 0


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_parse_serialize_roundtrip(self, seed, kind):
        r = parse_report(generate_fixture(seed, kind))
        assert parse_report(serialize_report(r)) == r


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
        catalog, _ = default_catalog()
        for seed in range(5):
            r = parse_report(generate_fixture(seed, kind), catalog,
                             unknown_criterion="reject")
            assert r.total_tests > 0

    def test_same_seed_shares_url_across_kinds(self):
        a = json.loads(generate_fixture(7, "error-heavy"))
        b = json.loads(generate_fixture(7, "potential-heavy"))
        assert a["url"] == b["url"]
        assert a["assessor"]["name"] != b["assessor"]["name"]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            generate_fixture(1, "chaotic")
