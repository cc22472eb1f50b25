import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

from a11yfuse.belief import MassFunction, make_mass, pignistic, vacuous
from a11yfuse.engine import (
    AccessLevel,
    EstimationParts,
    EstimationTriple,
    discretize,
    estimate_parts,
    masses_from_estimates,
    score_frame,
    score_page,
)
from a11yfuse.errors import EmptySourceSet, MixedUrls, OutOfRange
from a11yfuse.reports import FIXTURE_KINDS, generate_fixture, parse_report
from a11yfuse.wcag import (
    GLOBAL,
    DeficiencyFrame,
    WeightConfig,
    default_catalog,
    default_weights,
    load_catalog,
)

from oracle import AC, EMPTY, NAC, OMEGA, pipeline_oracle


def one_criterion_catalog(weights=None):
    catalog, w = load_catalog(
        [{"id": "c1", "level": "A", "frames": ["visual"]}], weights)
    return catalog, w


def report_for(n_ok=0, n_err=0, n_likely=0, n_potential=0,
               t_err=0, t_likely=0, t_potential=0, name="tool-a",
               url="https://example.test/", delta=1.0):
    doc = {
        "assessor": {"name": name, "beta_err": 1.0, "beta_likely": 0.5,
                     "beta_potential": 1.0, "delta": delta},
        "url": url,
        "observations": [{
            "criterion": "c1", "n_err": n_err, "n_ok": n_ok,
            "n_likely": n_likely, "n_potential": n_potential,
            "t_err": t_err, "t_likely": t_likely,
            "t_potential": t_potential}],
    }
    return parse_report(doc)


class TestEstimate:
    def test_worked_single_criterion(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, n_likely=1,
                       t_err=4, t_likely=2)
        e = estimate_parts(r, DeficiencyFrame.VISUAL, catalog).triple()
        # total tests = 8 + 2 + 1 = 11
        assert math.isclose(e.e_ac, 8 / 11, abs_tol=1e-12)
        assert math.isclose(e.e_nac, 2 / 4, abs_tol=1e-12)
        assert math.isclose(e.e_omega, 1 * 0.5 / 2, abs_tol=1e-12)

    def test_zero_denominators_contribute_zero(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=5)
        e = estimate_parts(r, DeficiencyFrame.VISUAL, catalog).triple()
        assert (e.e_nac, e.e_omega) == (0.0, 0.0)
        assert e.e_ac == 1.0

    def test_frame_without_criteria_is_all_zero(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=5, n_err=1, t_err=2)
        e = estimate_parts(r, DeficiencyFrame.HEARING, catalog).triple()
        assert e.total == 0.0

    def test_correct_count_normalized_by_all_frames(self):
        # c2 sits outside the visual frame but inflates the test total
        catalog, w = load_catalog([
            {"id": "c1", "level": "A", "frames": ["visual"]},
            {"id": "c2", "level": "A", "frames": ["hearing"]},
        ])
        doc = {
            "assessor": {"name": "t", "beta_err": 1.0, "beta_likely": 0.5,
                         "beta_potential": 1.0, "delta": 1.0},
            "url": "u",
            "observations": [
                {"criterion": "c1", "n_ok": 4, "n_err": 0, "n_likely": 0,
                 "n_potential": 0, "t_err": 0, "t_likely": 0,
                 "t_potential": 0},
                {"criterion": "c2", "n_ok": 6, "n_err": 0, "n_likely": 0,
                 "n_potential": 0, "t_err": 0, "t_likely": 0,
                 "t_potential": 0},
            ],
        }
        r = parse_report(doc)
        e = estimate_parts(r, DeficiencyFrame.VISUAL, catalog).triple()
        assert math.isclose(e.e_ac, 4 / 10, abs_tol=1e-12)


class TestMassesFromEstimates:
    def test_worked_normalization(self):
        m = masses_from_estimates(EstimationTriple(0.8, 0.5, 0.25))
        assert math.isclose(m.ac, 0.8 / 1.55, abs_tol=1e-9)
        assert math.isclose(m.nac, 0.5 / 1.55, abs_tol=1e-9)
        assert math.isclose(m.omega, 0.25 / 1.55, abs_tol=1e-9)

    def test_no_evidence_is_vacuous(self):
        assert masses_from_estimates(EstimationTriple(0, 0, 0)) == vacuous()

    def test_already_normalized(self):
        m = masses_from_estimates(EstimationTriple(1, 0, 0))
        assert m == MassFunction(1, 0, 0, 0)


class TestDiscretize:
    # decision values and arrows from the published per-site results
    @pytest.mark.parametrize("value, level", [
        (0.972, AccessLevel.VERY_GOOD),
        (0.686, AccessLevel.BAD),
        (0.769, AccessLevel.MODERATE),
        (0.630, AccessLevel.BAD),
    ])
    def test_published_examples(self, value, level):
        assert discretize(value, default_weights()) is level

    @pytest.mark.parametrize("value, level", [
        (0.0, AccessLevel.VERY_BAD),
        (0.6, AccessLevel.BAD),
        (0.7, AccessLevel.MODERATE),
        (0.8, AccessLevel.GOOD),
        (0.9, AccessLevel.VERY_GOOD),
        (1.0, AccessLevel.VERY_GOOD),
    ])
    def test_threshold_boundaries_take_better_level(self, value, level):
        assert discretize(value, default_weights()) is level

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            discretize(1.1, default_weights())
        with pytest.raises(OutOfRange):
            discretize(-0.01, default_weights())

    def test_glyphs(self):
        assert [lvl.glyph for lvl in AccessLevel] == ["↓", "↘", "→", "↗", "↑"]
        assert [lvl.ascii_glyph for lvl in AccessLevel] == ["v", "\\", "-", "/", "^"]


class TestScoreFrame:
    def test_single_source_decision(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, n_likely=1, t_err=4, t_likely=2)
        d = score_frame([r], DeficiencyFrame.VISUAL, catalog, w)
        assert math.isclose(d.decision, pignistic(d.fused), abs_tol=1e-15)
        assert d.level is discretize(d.decision, w)
        assert set(d.per_source) == {"tool-a"}

    def test_two_identical_confident_sources_strengthen(self):
        # m = (0.9, 0, 0.1) twice: fused m(Ac) = 0.81 + 0.09 + 0.09 = 0.99
        a = make_mass(0.9, 0.0, 0.1)
        from a11yfuse.belief import combine_conjunctive
        fused = combine_conjunctive(a, a)
        assert math.isclose(fused.ac, 0.99, abs_tol=1e-12)
        assert math.isclose(pignistic(fused), 0.995, abs_tol=1e-12)
        assert discretize(0.995, default_weights()) is AccessLevel.VERY_GOOD

    def test_vacuous_source_does_not_move_decision(self):
        catalog, w = one_criterion_catalog()
        informative = report_for(n_ok=8, n_err=2, t_err=4, name="tool-a")
        silent = report_for(name="tool-b")  # no tests at all
        alone = score_frame([informative], DeficiencyFrame.VISUAL, catalog, w)
        both = score_frame([informative, silent],
                           DeficiencyFrame.VISUAL, catalog, w)
        assert math.isclose(both.decision, alone.decision, abs_tol=1e-12)
        assert both.per_source["tool-b"] == vacuous()

    def test_source_order_invariance(self):
        catalog, w = default_catalog()
        reports = [parse_report(generate_fixture(11, kind), catalog)
                   for kind in ("balanced", "error-heavy", "potential-heavy")]
        decisions = [
            score_frame(list(p), GLOBAL, catalog, w).decision
            for p in itertools.permutations(reports)]
        for d in decisions[1:]:
            assert abs(d - decisions[0]) <= 1e-12

    def test_empty_sources(self):
        catalog, w = one_criterion_catalog()
        with pytest.raises(EmptySourceSet):
            score_frame([], DeficiencyFrame.VISUAL, catalog, w)

    def test_mixed_urls(self):
        catalog, w = one_criterion_catalog()
        with pytest.raises(MixedUrls):
            score_frame([report_for(n_ok=1, url="a"),
                         report_for(n_ok=1, url="b", name="tool-b")],
                        DeficiencyFrame.VISUAL, catalog, w)

    def test_discounted_source_commits_less(self):
        catalog, w = one_criterion_catalog()
        full = report_for(n_ok=8, n_err=2, t_err=4, delta=1.0)
        weak = report_for(n_ok=8, n_err=2, t_err=4, delta=0.5)
        d_full = score_frame([full], DeficiencyFrame.VISUAL, catalog, w)
        d_weak = score_frame([weak], DeficiencyFrame.VISUAL, catalog, w)
        assert d_weak.per_source["tool-a"].omega > d_full.per_source["tool-a"].omega

    def test_trace_matches_the_pipeline_steps(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, n_likely=1, t_err=4, t_likely=2,
                       delta=0.8)
        d = score_frame([r], DeficiencyFrame.VISUAL, catalog, w)
        (src,) = d.sources
        assert (src.name, src.delta) == ("tool-a", 0.8)
        assert src.parts == estimate_parts(r, DeficiencyFrame.VISUAL, catalog)
        assert src.mass == masses_from_estimates(src.parts.triple())
        assert src.discounted.isclose(MassFunction(
            0.8 * src.mass.ac, 0.8 * src.mass.nac,
            1 - 0.8 * (1 - src.mass.omega)), 1e-15)
        assert d.fused == src.discounted

    def test_duplicate_names_made_unique(self):
        catalog, w = one_criterion_catalog()
        reports = [report_for(n_ok=8, n_err=2, t_err=4),
                   report_for(n_ok=1, n_err=3, t_err=4)]
        d = score_frame(reports, DeficiencyFrame.VISUAL, catalog, w)
        assert [s.name for s in d.sources] == ["tool-a", "tool-a#1"]
        assert list(d.per_source) == ["tool-a", "tool-a#1"]

    def test_total_conflict_has_no_decision(self):
        catalog, w = one_criterion_catalog()
        certain_ok = report_for(n_ok=5, name="optimist")
        certain_bad = report_for(n_err=5, t_err=5, name="pessimist")
        d = score_frame([certain_ok, certain_bad], DeficiencyFrame.VISUAL,
                        catalog, w)
        assert d.fused.empty == 1.0
        assert (d.decision, d.level) == (None, None)


class TestScorePage:
    def test_five_entries(self):
        catalog, w = default_catalog()
        r = parse_report(generate_fixture(1, "balanced"), catalog)
        result = score_page([r], catalog, w)
        assert len(result) == 5
        assert GLOBAL in result

    def test_untouched_frames_fall_back_to_ignorance(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, t_err=4)
        result = score_page([r], catalog, w)
        for frame in (DeficiencyFrame.HEARING, DeficiencyFrame.MOTOR,
                      DeficiencyFrame.COGNITIVE):
            assert result[frame].decision == 0.5
            assert result[frame].level is AccessLevel.VERY_BAD

    def test_fixture_pair_matches_pipeline_oracle(self):
        catalog, w = default_catalog()
        docs = [json.loads(generate_fixture(7, "error-heavy")),
                json.loads(generate_fixture(7, "potential-heavy"))]
        reports = [parse_report(d, catalog) for d in docs]
        entries = {c.id: (c.alpha, {f.value for f in c.frames})
                   for c in catalog.values()}
        for frame_name, frame_key in [("visual", DeficiencyFrame.VISUAL),
                                      ("global", GLOBAL)]:
            expected_d, expected_level, expected_fused = pipeline_oracle(
                docs, entries, frame_name)
            got = score_page(reports, catalog, w)[frame_key]
            assert abs(got.decision - expected_d) <= 1e-9
            assert got.level.value == expected_level
            assert abs(got.fused.empty - expected_fused[EMPTY]) <= 1e-9


class TestFixturePages:
    def test_seed_148_certain_source_decides_within_range(self):
        # one source commits fully to "accessible" in the hearing frame;
        # the pignistic value used to come out at 1.0000000000000002
        catalog, w = default_catalog()
        reports = [parse_report(generate_fixture(148, kind), catalog)
                   for kind in ("error-heavy", "potential-heavy")]
        hearing = score_page(reports, catalog, w)[DeficiencyFrame.HEARING]
        assert hearing.decision == 1.0
        assert hearing.level is AccessLevel.VERY_GOOD

    @given(st.integers(0, 10**6), st.sampled_from(FIXTURE_KINDS),
           st.sampled_from(FIXTURE_KINDS))
    def test_score_page_never_raises_on_fixture_pairs(self, seed, k1, k2):
        catalog, w = default_catalog()
        reports = [parse_report(generate_fixture(seed, k), catalog)
                   for k in (k1, k2)]
        for d in score_page(reports, catalog, w).values():
            assert d.decision is None or 0.0 <= d.decision <= 1.0


class TestMonotonicity:
    def test_more_errors_lower_the_decision(self):
        catalog, w = one_criterion_catalog()
        decisions = []
        for n_err in range(5):
            r = report_for(n_ok=10, n_err=n_err, t_err=10)
            decisions.append(score_frame([r], DeficiencyFrame.VISUAL,
                                         catalog, w).decision)
        assert all(a > b for a, b in zip(decisions, decisions[1:]))

    @given(st.floats(0.01, 1.0), st.floats(0.0, 1.0),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_decision_moves_against_counter_evidence(self, e_ac, e_om,
                                                     lo, hi):
        e_lo, e_hi = sorted((lo, hi))
        if e_hi - e_lo < 1e-9:
            return
        d_lo = pignistic(masses_from_estimates(
            EstimationTriple(e_ac, e_lo, e_om)))
        d_hi = pignistic(masses_from_estimates(
            EstimationTriple(e_ac, e_hi, e_om)))
        assert d_hi < d_lo

    @given(st.floats(0.0, 1.0), st.floats(0.01, 1.0),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_decision_moves_with_supporting_evidence(self, e_om, e_nac,
                                                     lo, hi):
        e_lo, e_hi = sorted((lo, hi))
        if e_hi - e_lo < 1e-9:
            return
        d_lo = pignistic(masses_from_estimates(
            EstimationTriple(e_lo, e_nac, e_om)))
        d_hi = pignistic(masses_from_estimates(
            EstimationTriple(e_hi, e_nac, e_om)))
        assert d_hi > d_lo


class TestWeightConsistency:
    def test_alpha_cancels_for_single_criterion_frames(self):
        # with unit certainty coefficients every estimate is proportional
        # to the criterion weight, so the normalized masses cannot move
        base = WeightConfig(beta_likely=1.0)
        small = WeightConfig(alpha_a=0.5, alpha_aa=0.4, alpha_aaa=0.3,
                             beta_likely=1.0)
        r = None
        masses = []
        for weights in (base, small):
            catalog, w = one_criterion_catalog(weights)
            doc = {
                "assessor": {"name": "t", "beta_err": 1.0, "beta_likely": 1.0,
                             "beta_potential": 1.0, "delta": 1.0},
                "url": "u",
                "observations": [{
                    "criterion": "c1", "n_ok": 8, "n_err": 2, "n_likely": 1,
                    "n_potential": 1, "t_err": 4, "t_likely": 2,
                    "t_potential": 2}],
            }
            r = parse_report(doc)
            masses.append(masses_from_estimates(
                estimate_parts(r, DeficiencyFrame.VISUAL, catalog).triple()))
        assert masses[0].isclose(masses[1], 1e-12)
