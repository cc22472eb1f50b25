import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from a11yfuse.belief import MassFunction, make_mass, pignistic, vacuous
from a11yfuse.engine import (
    AccessLevel,
    EstimationParts,
    discretize,
    estimate_parts,
    masses_from_estimates,
    score_page,
)
from a11yfuse.cli import main
from a11yfuse.errors import (EmptySourceSet, InvalidMass, MixedUrls,
                             OutOfRange, UnknownFrame)
from a11yfuse.reports import (
    FIXTURE_KINDS,
    AssessorProfile,
    AssessorReport,
    CriterionObservation,
    generate_fixture,
    parse_report,
)
from a11yfuse.wcag import (
    FRAMES,
    GLOBAL,
    DeficiencyFrame,
    WeightConfig,
    criteria_in_frame,
    load_config,
)

import reference as ref

ROOT = Path(__file__).resolve().parents[1]
# bench/reference.py's focal sets in MassFunction's field order
MASS_SETS = (ref.AC, ref.NAC, ref.OMEGA, ref.EMPTY)
VISUAL = DeficiencyFrame.VISUAL
ENTRIES = json.loads((ROOT / "src" / "a11yfuse" / "data" /
                      "wcag20_criteria.json").read_text(encoding="utf-8"))


def level_weights(weights=None):
    """The WeightConfig of level-weight overrides {"a", "aa", "aaa"}, as a
    weights file's "weights" object sets them."""
    weights = weights or {}
    return WeightConfig(**{f"alpha_{k}": v for k, v in weights.items()})


def one_criterion_catalog(weights=None):
    """(catalog, weights) of one level-A visual criterion; `weights` holds
    level-weight overrides {"a", "aa", "aaa"}."""
    return (load_config([{"id": "c1", "level": "A", "frames": ["visual"]}])[0],
            level_weights(weights))


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


def frames_against_reference(docs, entries, weights=None):
    """Score raw report documents with the package under the catalog
    `entries` and optional level weights {"a", "aa", "aaa"}, and with
    bench/reference.py under the same catalog. Returns a (FrameDecision,
    reference FrameRef) pair per frame, in FRAMES order."""
    catalog, w = load_config(entries)[0], level_weights(weights)
    alpha = ({level: weights[level.lower()] for level in ref.ALPHA}
             if weights else ref.ALPHA)
    reports = [parse_report(doc) for doc in docs]
    page = score_page(reports, catalog, w)
    ref_catalog = {e["id"]: (alpha[e["level"]], frozenset(e["frames"]))
                   for e in entries}
    return [(page[frame], ref.score_frame(docs, ref_catalog, name))
            for frame, name in zip(FRAMES, ref.FRAMES)]


def decides_like_reference(got, want, tol=1e-9):
    """Check one frame against the reference: every source's discounted
    mass, the fused mass, the decision and its level, each to within tol.
    A frame where either side keeps under 1e-9 of its mass off the empty
    set is the named total-conflict outcome, where the package's decision
    must be None or lie in [0, 1]. Returns whether the frame was decided."""
    assert len(got.sources) == len(want.sources)
    for source, want_source in zip(got.sources, want.sources):
        assert source.discounted == pytest.approx(
            [want_source.discounted[s] for s in MASS_SETS], abs=tol)
    assert got.fused == pytest.approx([want.fused[s] for s in MASS_SETS],
                                      abs=tol)
    committed = got.fused.ac + got.fused.nac + got.fused.omega
    if min(committed, 1.0 - want.fused[ref.EMPTY]) < 1e-9:
        assert got.decision is None or 0.0 <= got.decision <= 1.0
        return False
    # near total conflict each side divides by about `committed`, so a
    # rounding of 1e-16 in a mass near 1 (the reference's 1 - m(empty),
    # the discount's 1 - delta * (1 - omega)) moves a decision by about
    # 1e-16 / committed; NEAR_CONFLICT shows it
    tol += 1e-14 / committed
    assert abs(got.decision - want.decision) <= tol
    assert got.level.value in ref.levels_near(want.decision, tol)
    return True


COUNT = st.one_of(st.sampled_from((0, 1, 2 ** 53)), st.integers(0, 2 ** 53))
COEFFICIENT = st.one_of(st.sampled_from((0, 1, 0.0, 1.0)),
                        st.floats(0.0, 1.0))


@st.composite
def observation_doc(draw, cid):
    t_err, t_likely, t_potential = draw(COUNT), draw(COUNT), draw(COUNT)
    # min() keeps n <= t, and gives n = t whenever the draw reaches t
    return {"criterion": cid, "n_err": min(t_err, draw(COUNT)),
            "n_ok": draw(COUNT), "n_likely": min(t_likely, draw(COUNT)),
            "n_potential": min(t_potential, draw(COUNT)),
            "t_err": t_err, "t_likely": t_likely, "t_potential": t_potential}


@st.composite
def report_doc(draw):
    """A report with every key present, observing any packaged criteria;
    all assessors share one name, which the package makes unique."""
    cids = draw(st.lists(st.sampled_from([e["id"] for e in ENTRIES]),
                         unique=True))
    observations = [draw(observation_doc(cid)) for cid in cids]
    assessor = {key: draw(COEFFICIENT) for key in
                ("beta_err", "beta_likely", "beta_potential", "delta")}
    return {"assessor": {"name": "tool", **assessor},
            "url": "https://example.test/", "observations": observations,
            "total_tests": sum(o["n_err"] + o["n_ok"] + o["n_likely"]
                               + o["n_potential"] for o in observations)}


REPORT_DOC = report_doc()


def contradicting_docs(n_potential):
    """Two certain sources, one all correct and one all errors, that each
    also found n_potential of 10**9 potential problems."""
    def doc(n_ok, n_err):
        observation = {"criterion": ENTRIES[0]["id"], "n_err": n_err,
                       "n_ok": n_ok, "n_likely": 0,
                       "n_potential": n_potential, "t_err": n_err,
                       "t_likely": 0, "t_potential": 10 ** 9}
        return {"assessor": {"name": "tool", "beta_err": 1,
                             "beta_likely": 1, "beta_potential": 1,
                             "delta": 1},
                "url": "https://example.test/",
                "observations": [observation],
                "total_tests": n_ok + n_err + n_potential}
    return [doc(1, 0), doc(0, 1)]


# 3e-9 of the fused mass is off the empty set, and the package's decision
# and the reference's differ by 1.3e-8
NEAR_CONFLICT = contradicting_docs(1)


class TestEstimate:
    def test_worked_single_criterion(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, n_likely=1,
                       t_err=4, t_likely=2)
        e_ac, e_nac, e_omega = estimate_parts(
            r, DeficiencyFrame.VISUAL, catalog, w).triple()
        # total tests = 8 + 2 + 1 = 11
        assert math.isclose(e_ac, 8 / 11, abs_tol=1e-12)
        assert math.isclose(e_nac, 2 / 4, abs_tol=1e-12)
        assert math.isclose(e_omega, 1 * 0.5 / 2, abs_tol=1e-12)

    def test_zero_denominators_contribute_zero(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=5)
        e_ac, e_nac, e_omega = estimate_parts(
            r, DeficiencyFrame.VISUAL, catalog, w).triple()
        assert (e_nac, e_omega) == (0.0, 0.0)
        assert e_ac == 1.0

    def test_frame_without_criteria_is_all_zero(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=5, n_err=1, t_err=2)
        e = estimate_parts(r, DeficiencyFrame.HEARING, catalog, w).triple()
        assert e == (0.0, 0.0, 0.0)

    def test_correct_count_normalized_by_all_frames(self):
        # c2 sits outside the visual frame but inflates the test total
        catalog, w = load_config([
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
        e_ac, _, _ = estimate_parts(
            r, DeficiencyFrame.VISUAL, catalog, w).triple()
        assert math.isclose(e_ac, 4 / 10, abs_tol=1e-12)

    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_parts_are_the_pipeline_parts(self, kind):
        # under the first 40 packaged criteria a fixture holds entries the
        # catalog lacks, and e_ac's denominator leaves their tests out
        catalog, w = load_config(ENTRIES[:40])
        for seed in range(20):
            r = parse_report(generate_fixture(seed, kind))
            tested = sum(o.tests_run for cid, o in r.observations.items()
                         if cid in catalog)
            assert tested < r.total_tests
            page = score_page([r], catalog, w)
            for frame in FRAMES:
                parts = estimate_parts(r, frame, catalog, w)
                assert parts == page[frame].sources[0].parts
                assert parts.den_ac == tested

    def test_uniform_page_decisions_order_by_frame_size(self):
        # 1 error and 9 correct of 10 tests on every packaged criterion:
        # e_ac divides by the tests of all 61 criteria, e_nac by the frame's
        # own, so the fewer criteria a frame holds the lower its decision
        catalog, w = load_config()
        doc = {"assessor": {"name": "t"}, "url": "u", "observations": [
            {"criterion": cid, "n_err": 1, "n_ok": 9, "t_err": 10}
            for cid in catalog]}
        page = score_page([parse_report(doc)], catalog, w)
        got = sorted((len(criteria_in_frame(catalog, f)),
                      f"{page[f].decision:.3f}") for f in FRAMES)
        assert got == [(9, "0.570"), (15, "0.689"), (38, "0.849"),
                       (49, "0.878"), (61, "0.900")]
        assert [page[f].level.value for f in FRAMES] == \
            ["good", "very bad", "bad", "good", "good"]


class TestMassesFromEstimates:
    def test_worked_normalization(self):
        m = masses_from_estimates((0.8, 0.5, 0.25))
        assert math.isclose(m.ac, 0.8 / 1.55, abs_tol=1e-9)
        assert math.isclose(m.nac, 0.5 / 1.55, abs_tol=1e-9)
        assert math.isclose(m.omega, 0.25 / 1.55, abs_tol=1e-9)

    def test_no_evidence_is_vacuous(self):
        assert masses_from_estimates((0, 0, 0)) == vacuous()

    def test_already_normalized(self):
        m = masses_from_estimates((1, 0, 0))
        assert m == MassFunction(1, 0, 0, 0)

    def test_infinite_estimate_rejected(self):
        # inf / inf is NaN, which make_mass rejects
        with pytest.raises(InvalidMass, match=r"^mass component ac=nan "
                                              r"outside \[0, 1\]$"):
            masses_from_estimates((math.inf, 0.1, 0.1))


class TestDiscretize:
    # ids=str ids a level as AccessLevel.<NAME>; by default pytest would
    # id a str enum by its value
    # decision values and arrows from the published per-site results
    @pytest.mark.parametrize("value, level", [
        (0.972, AccessLevel.VERY_GOOD),
        (0.686, AccessLevel.BAD),
        (0.769, AccessLevel.MODERATE),
        (0.630, AccessLevel.BAD),
    ], ids=str)
    def test_published_examples(self, value, level):
        assert discretize(value, WeightConfig()) is level

    @pytest.mark.parametrize("value, level", [
        (0.0, AccessLevel.VERY_BAD),
        (0.6, AccessLevel.BAD),
        (0.7, AccessLevel.MODERATE),
        (0.8, AccessLevel.GOOD),
        (0.9, AccessLevel.VERY_GOOD),
        (1.0, AccessLevel.VERY_GOOD),
    ], ids=str)
    def test_threshold_boundaries_take_better_level(self, value, level):
        assert discretize(value, WeightConfig()) is level

    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=4, max_size=4, unique=True).map(sorted),
           st.floats(0.0, 1.0))
    def test_level_counts_thresholds_at_or_below(self, thresholds, d):
        w = WeightConfig(1.0, 0.8, 0.6, *thresholds)
        for value in (0.0, 1.0, d, *thresholds,
                      *(math.nextafter(t, 0.0) for t in thresholds)):
            assert discretize(value, w) is list(AccessLevel)[
                sum(t <= value for t in thresholds)]

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            discretize(1.1, WeightConfig())
        with pytest.raises(OutOfRange):
            discretize(-0.01, WeightConfig())

    def test_glyphs(self):
        assert [lvl.glyph for lvl in AccessLevel] == ["↓", "↘", "→", "↗", "↑"]
        assert [lvl.ascii_glyph for lvl in AccessLevel] == ["v", "\\", "-", "/", "^"]


class TestScoreFrame:
    def test_single_source_decision(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, n_likely=1, t_err=4, t_likely=2)
        d = score_page([r], catalog, w, (VISUAL,))[VISUAL]
        assert math.isclose(d.decision, pignistic(d.fused), abs_tol=1e-15)
        assert d.level is discretize(d.decision, w)
        assert [s.name for s in d.sources] == ["tool-a"]

    def test_two_identical_confident_sources_strengthen(self):
        # m = (0.9, 0, 0.1) twice: fused m(Ac) = 0.81 + 0.09 + 0.09 = 0.99
        a = make_mass(0.9, 0.0, 0.1)
        from a11yfuse.belief import combine_conjunctive
        fused = combine_conjunctive(a, a)
        assert math.isclose(fused.ac, 0.99, abs_tol=1e-12)
        assert math.isclose(pignistic(fused), 0.995, abs_tol=1e-12)
        assert discretize(0.995, WeightConfig()) is AccessLevel.VERY_GOOD

    def test_vacuous_source_does_not_move_decision(self):
        catalog, w = one_criterion_catalog()
        informative = report_for(n_ok=8, n_err=2, t_err=4, name="tool-a")
        silent = report_for(name="tool-b")  # no tests at all
        alone = score_page([informative], catalog, w, (VISUAL,))[VISUAL]
        both = score_page([informative, silent], catalog, w,
                          (VISUAL,))[VISUAL]
        assert math.isclose(both.decision, alone.decision, abs_tol=1e-12)
        assert both.sources[1].discounted == vacuous()
        # an empty report, first or last, beside a fixture pair: the fused
        # bits may move in the last place, the printed cell may not
        catalog, w = load_config()
        for seed in range(20):
            pair = [parse_report(generate_fixture(seed, kind))
                    for kind in ("error-heavy", "potential-heavy")]
            empty = AssessorReport(AssessorProfile("silent"), pair[0].url)
            want = score_page(pair, catalog, w)
            for reports, at in (([empty, *pair], 0), ([*pair, empty], -1)):
                page = score_page(reports, catalog, w)
                for frame in FRAMES:
                    got = page[frame]
                    assert (f"{got.decision:.3f}", got.level) == (
                        f"{want[frame].decision:.3f}", want[frame].level)
                    assert got.fused == pytest.approx(want[frame].fused,
                                                      abs=1e-12)
                    assert got.sources[at].discounted == vacuous()

    def test_source_order_invariance(self):
        # a float fold may differ in the last bits with the report order;
        # the printed cell may not
        catalog, w = load_config()
        for seed in range(20):
            reports = [parse_report(generate_fixture(seed, kind))
                       for kind in FIXTURE_KINDS]
            first, *others = [score_page(list(p), catalog, w)
                              for p in itertools.permutations(reports)]
            for page in others:
                for frame in FRAMES:
                    got, want = page[frame], first[frame]
                    assert got.fused == pytest.approx(want.fused, abs=1e-12)
                    assert got.decision == pytest.approx(want.decision,
                                                         abs=1e-12)
                    assert (f"{got.decision:.3f}", got.level) == (
                        f"{want.decision:.3f}", want.level)

    def test_empty_sources(self):
        catalog, w = one_criterion_catalog()
        with pytest.raises(EmptySourceSet):
            score_page([], catalog, w, (VISUAL,))

    def test_mixed_urls(self):
        catalog, w = one_criterion_catalog()
        with pytest.raises(MixedUrls):
            score_page([report_for(n_ok=1, url="a"),
                        report_for(n_ok=1, url="b", name="tool-b")],
                       catalog, w, (VISUAL,))

    def test_report_parsed_without_the_catalog(self, capsys, tmp_path):
        # a report holds every entry and the engine applies the catalog, so
        # the library decides as the CLI does: visual 0.612 "bad" and
        # global 0.631; counting the entries the catalog lacks in e_ac's
        # denominator would give visual 0.520 "very bad"
        catalog, w = load_config(ENTRIES[:40])
        texts = [generate_fixture(3, kind)
                 for kind in ("error-heavy", "potential-heavy")]
        page = score_page([parse_report(t) for t in texts], catalog, w)
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"r{i}.json")
            paths[-1].write_text(text, encoding="utf-8")
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(ENTRIES[:40]), encoding="utf-8")
        assert main(["score", "--format", "json", "--catalog",
                     str(catalog_path), "--page", *map(str, paths)]) == 0
        frames = json.loads(capsys.readouterr().out)["frames"]
        assert {name: (f["decision"], f["level"])
                for name, f in frames.items()} == {
            frame.value: (round(d.decision, 3), d.level.value)
            for frame, d in page.items()}
        assert (frames["visual"]["decision"], frames["visual"]["level"],
                frames["global"]["decision"]) == (0.612, "bad", 0.631)

    def test_discounted_source_commits_less(self):
        catalog, w = one_criterion_catalog()
        full = report_for(n_ok=8, n_err=2, t_err=4, delta=1.0)
        weak = report_for(n_ok=8, n_err=2, t_err=4, delta=0.5)
        d_full = score_page([full], catalog, w, (VISUAL,))[VISUAL]
        d_weak = score_page([weak], catalog, w, (VISUAL,))[VISUAL]
        assert (d_weak.sources[0].discounted.omega
                > d_full.sources[0].discounted.omega)

    def test_trace_matches_the_pipeline_steps(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, n_likely=1, t_err=4, t_likely=2,
                       delta=0.8)
        d = score_page([r], catalog, w, (VISUAL,))[VISUAL]
        (src,) = d.sources
        assert (src.name, src.delta) == ("tool-a", 0.8)
        assert src.parts == estimate_parts(r, VISUAL, catalog, w)
        assert src.mass == masses_from_estimates(src.parts.triple())
        assert src.discounted == pytest.approx(MassFunction(
            0.8 * src.mass.ac, 0.8 * src.mass.nac,
            1 - 0.8 * (1 - src.mass.omega)), abs=1e-15)
        assert d.fused == src.discounted

    def test_duplicate_names_made_unique(self):
        catalog, w = one_criterion_catalog()
        reports = [report_for(n_ok=8, n_err=2, t_err=4),
                   report_for(n_ok=1, n_err=3, t_err=4)]
        d = score_page(reports, catalog, w, (VISUAL,))[VISUAL]
        assert [s.name for s in d.sources] == ["tool-a", "tool-a#1"]

    def test_total_conflict_has_no_decision(self):
        catalog, w = one_criterion_catalog()
        certain_ok = report_for(n_ok=5, name="optimist")
        certain_bad = report_for(n_err=5, t_err=5, name="pessimist")
        d = score_page([certain_ok, certain_bad], catalog, w,
                       (VISUAL,))[VISUAL]
        assert d.fused.empty == 1.0
        assert (d.decision, d.level) == (None, None)


class TestScorePage:
    def test_five_entries(self):
        catalog, w = load_config()
        r = parse_report(generate_fixture(1, "balanced"))
        result = score_page([r], catalog, w)
        assert len(result) == 5
        assert GLOBAL in result

    def test_results_index_by_name_or_member(self):
        catalog, w = load_config()
        r = parse_report(generate_fixture(1, "balanced"))
        result = score_page([r], catalog, w)
        for frame in FRAMES:
            assert result[frame.value] is result[frame]
        assert AccessLevel.GOOD == "good"
        assert [level.value for level in AccessLevel] == \
            ["very bad", "bad", "moderate", "good", "very good"]

    def test_chosen_frames_score_as_all_frames(self):
        catalog, w = load_config()
        for seed in range(50):
            reports = [parse_report(generate_fixture(seed, kind))
                       for kind in FIXTURE_KINDS]
            page = score_page(reports, catalog, w)
            for frame in FRAMES:
                # named-tuple equality: every float of the trace is equal
                assert score_page(reports, catalog, w,
                                  (frame,))[frame] == page[frame]

    def test_frame_names_resolve_in_the_order_given(self):
        catalog, w = load_config()
        r = parse_report(generate_fixture(1, "balanced"))
        page = score_page([r], catalog, w,
                          ("Global", "visual", DeficiencyFrame.MOTOR))
        assert list(page) == [GLOBAL, VISUAL, DeficiencyFrame.MOTOR]
        assert [d.frame for d in page.values()] == list(page)
        full = score_page([r], catalog, w)
        assert all(d == full[frame] for frame, d in page.items())

    def test_page_checks_for_any_frames(self):
        catalog, w = one_criterion_catalog()
        mixed = [report_for(n_ok=1, url="a"),
                 report_for(n_ok=1, url="b", name="tool-b")]
        for frames in (FRAMES, ("hearing", GLOBAL)):
            with pytest.raises(EmptySourceSet):
                score_page([], catalog, w, frames)
            with pytest.raises(MixedUrls):
                score_page(mixed, catalog, w, frames)
        # the frames are resolved before the reports are looked at
        for reports in ([], mixed, [report_for(n_ok=1)]):
            with pytest.raises(UnknownFrame):
                score_page(reports, catalog, w, (VISUAL, "smell"))

    def test_untouched_frames_fall_back_to_ignorance(self):
        catalog, w = one_criterion_catalog()
        r = report_for(n_ok=8, n_err=2, t_err=4)
        result = score_page([r], catalog, w)
        for frame in (DeficiencyFrame.HEARING, DeficiencyFrame.MOTOR,
                      DeficiencyFrame.COGNITIVE):
            assert result[frame].decision == 0.5
            assert result[frame].level is AccessLevel.VERY_BAD

    def test_fixture_pair_matches_reference(self):
        docs = [json.loads(generate_fixture(7, kind))
                for kind in ("error-heavy", "potential-heavy")]
        for got, want in frames_against_reference(docs, ENTRIES):
            assert decides_like_reference(got, want)

    def test_subset_catalog_counts_only_kept_tests(self):
        # e_ac's denominator sums the tests of the observations the catalog
        # keeps; counting each report's 6 skipped entries as well would give
        # visual 0.520 and global 0.534, both "very bad"
        docs = [json.loads(generate_fixture(3, kind))
                for kind in ("error-heavy", "potential-heavy")]
        frames = dict(zip(ref.FRAMES,
                          frames_against_reference(docs, ENTRIES[:40])))
        for name, decision in (("visual", "0.612"), ("global", "0.631")):
            want = frames[name][1]
            assert f"{want.decision:.3f}" == decision
            assert ref.levels_near(want.decision, 0.0) == {"bad"}
        for got, want in frames.values():
            assert decides_like_reference(got, want)

    def test_one_parse_scores_under_each_catalog(self):
        # the same reports, parsed once, score as the reference does under
        # the packaged catalog and under a catalog lacking some criteria
        docs = [json.loads(generate_fixture(3, kind))
                for kind in ("error-heavy", "potential-heavy")]
        reports = [parse_report(doc) for doc in docs]
        for entries in (ENTRIES, ENTRIES[:40]):
            catalog, w = load_config(entries)
            page = score_page(reports, catalog, w)
            for frame, (got, want) in zip(
                    FRAMES, frames_against_reference(docs, entries)):
                assert page[frame] == got
                assert decides_like_reference(page[frame], want)

    def test_scoring_rebinds_no_module_state(self):
        # the frame sets live on each catalog, so scoring under one catalog
        # and then another leaves every module attribute bound as it was
        reports = [parse_report(generate_fixture(3, kind))
                   for kind in ("error-heavy", "potential-heavy")]
        configs = [load_config(), load_config(ENTRIES[:40])]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == "a11yfuse"]
        before = [{k: id(v) for k, v in vars(m).items()} for m in modules]
        for catalog, w in configs:
            score_page(reports, catalog, w)
        assert [{k: id(v) for k, v in vars(m).items()}
                for m in modules] == before

    def test_level_weights_given_equal_a_weights_file(self, tmp_path):
        # the seed-5 pair: global 0.637966 under the default weights and
        # 0.666430 under these, whether they are passed or loaded
        reports = [parse_report(generate_fixture(5, kind))
                   for kind in ("error-heavy", "potential-heavy")]
        catalog, default = load_config()
        w = WeightConfig(alpha_a=0.9, alpha_aa=0.5, alpha_aaa=0.1)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": {"a": 0.9, "aa": 0.5,
                                                "aaa": 0.1}}))
        page = score_page(reports, catalog, w)
        # named-tuple equality: every float of the trace is equal
        assert page == score_page(reports, *load_config(None, path))
        assert f"{page[GLOBAL].decision:.6f}" == "0.666430"
        before = score_page(reports, catalog, default)[GLOBAL].decision
        assert f"{before:.6f}" == "0.637966"

    def test_one_catalog_scores_under_each_weight_config(self):
        docs = [json.loads(generate_fixture(3, kind))
                for kind in ("error-heavy", "potential-heavy")]
        reports = [parse_report(doc) for doc in docs]
        catalog = load_config(ENTRIES)[0]
        globals_ = set()
        for weights in ({}, {"a": 0.9, "aa": 0.5, "aaa": 0.1}):
            w = level_weights(weights)
            page = score_page(reports, catalog, w)
            for frame, (got, want) in zip(
                    FRAMES, frames_against_reference(docs, ENTRIES, weights)):
                assert page[frame] == got
                assert decides_like_reference(page[frame], want)
            globals_.add(page[GLOBAL].decision)
        assert len(globals_) == 2

    @given(st.lists(REPORT_DOC, min_size=1, max_size=4),
           st.sets(st.integers(0, len(ENTRIES) - 1), min_size=1),
           st.lists(st.floats(0.0, 1.0, exclude_min=True),
                    min_size=3, max_size=3))
    @example(NEAR_CONFLICT, {0}, [1.0, 1.0, 1.0])
    @example(contradicting_docs(0), {0}, [1.0, 1.0, 1.0])
    def test_arbitrary_documents_match_reference(self, docs, kept, weights):
        entries = [ENTRIES[i] for i in sorted(kept)]
        level_weights = dict(zip(("a", "aa", "aaa"),
                                 sorted(weights, reverse=True)))
        for got, want in frames_against_reference(docs, entries,
                                                  level_weights):
            decides_like_reference(got, want)


def test_reference_imports_nothing_from_the_package():
    # the tests above check the engine against bench/reference.py, which
    # must not check the package against itself; src/ is on the child's
    # path, so an import of a11yfuse would succeed and show
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import reference; "
            "print(reference.__file__); print(' '.join(m for m in "
            "sys.modules if m.partition('.')[0] == 'a11yfuse'))")
    proc = subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "bench"), str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    path, loaded = proc.stdout.split("\n")[:2]
    assert Path(path).resolve().parent == ROOT / "bench"
    assert loaded == ""


class TestFixturePages:
    def test_seed_148_certain_source_decides_within_range(self):
        # one source commits fully to "accessible" in the hearing frame;
        # the pignistic value used to come out at 1.0000000000000002
        catalog, w = load_config()
        reports = [parse_report(generate_fixture(148, kind))
                   for kind in ("error-heavy", "potential-heavy")]
        hearing = score_page(reports, catalog, w)[DeficiencyFrame.HEARING]
        assert hearing.decision == 1.0
        assert hearing.level is AccessLevel.VERY_GOOD

    @given(st.integers(0, 10**6), st.sampled_from(FIXTURE_KINDS),
           st.sampled_from(FIXTURE_KINDS))
    def test_score_page_never_raises_on_fixture_pairs(self, seed, k1, k2):
        catalog, w = load_config()
        reports = [parse_report(generate_fixture(seed, k))
                   for k in (k1, k2)]
        for d in score_page(reports, catalog, w).values():
            assert d.decision is None or 0.0 <= d.decision <= 1.0


class TestMonotonicity:
    def test_more_errors_lower_the_decision(self):
        catalog, w = one_criterion_catalog()
        decisions = []
        for n_err in range(5):
            r = report_for(n_ok=10, n_err=n_err, t_err=10)
            decisions.append(
                score_page([r], catalog, w, (VISUAL,))[VISUAL].decision)
        assert all(a > b for a, b in zip(decisions, decisions[1:]))

    @given(st.floats(0.01, 1.0), st.floats(0.0, 1.0),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_decision_moves_against_counter_evidence(self, e_ac, e_om,
                                                     lo, hi):
        e_lo, e_hi = sorted((lo, hi))
        if e_hi - e_lo < 1e-9:
            return
        d_lo = pignistic(masses_from_estimates((e_ac, e_lo, e_om)))
        d_hi = pignistic(masses_from_estimates((e_ac, e_hi, e_om)))
        assert d_hi < d_lo

    @given(st.floats(0.0, 1.0), st.floats(0.01, 1.0),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_decision_moves_with_supporting_evidence(self, e_om, e_nac,
                                                     lo, hi):
        e_lo, e_hi = sorted((lo, hi))
        if e_hi - e_lo < 1e-9:
            return
        d_lo = pignistic(masses_from_estimates((e_lo, e_nac, e_om)))
        d_hi = pignistic(masses_from_estimates((e_hi, e_nac, e_om)))
        assert d_hi > d_lo

    # Three properties today's estimator lacks (README, "Library"). Each
    # test pins one fixture report's decision before and after a bump.
    def test_one_more_error_can_raise_the_decision(self):
        """An error on an AAA criterion, weighted below the frame's error
        rate, lowers e_nac: num_nac is weighted and den_nac is not.
        ROADMAP item 5, one rule for the estimator's denominators, would
        change this."""
        assert bumped_decisions(
            58, "error-heavy", DeficiencyFrame.HEARING, "1.2.6",
            n_err=1, t_err=1) == pytest.approx((0.151382, 0.177004), abs=1e-6)

    def test_one_more_correct_check_can_lower_the_decision(self):
        """A correct check on an AAA criterion adds 0.6 to num_ac and 1 to
        `tested`, so it lowers e_ac when e_ac is above 0.6. ROADMAP item 5,
        one rule for the estimator's denominators, would change this."""
        assert bumped_decisions(
            257, "potential-heavy", GLOBAL, "1.2.7",
            n_ok=1) == pytest.approx((0.732429, 0.732408), abs=1e-6)

    def test_checks_outside_the_frame_move_its_decision(self):
        """1.2.2 is a hearing criterion only; its tests still count in
        `tested`, e_ac's denominator in every frame. ROADMAP item 5,
        one rule for the estimator's denominators, would change this."""
        assert "1.2.2" not in criteria_in_frame(load_config()[0], VISUAL)
        assert bumped_decisions(
            0, "error-heavy", VISUAL, "1.2.2",
            n_ok=3) == pytest.approx((0.458129, 0.456453), abs=1e-6)


def bumped_decisions(seed, kind, frame, cid, **more):
    """The one-report decision in `frame` of fixture `seed` of `kind`,
    under the packaged catalog, before and after `more` is added to the
    counts of criterion `cid` (an empty observation if it has none)."""
    catalog, w = load_config()
    report = parse_report(generate_fixture(seed, kind))
    observations = dict(report.observations)
    counts = observations.get(cid, CriterionObservation(cid))._asdict()
    for key, n in more.items():
        counts[key] += n
    observations[cid] = CriterionObservation(**counts)
    bumped = AssessorReport(report.profile, report.url, observations)
    return tuple(score_page([r], catalog, w, (frame,))[frame].decision
                 for r in (report, bumped))


class TestWeightConsistency:
    def test_alpha_cancels_for_single_criterion_frames(self):
        # with unit certainty coefficients every estimate is proportional
        # to the criterion weight, so the normalized masses cannot move
        base = {}
        small = {"a": 0.5, "aa": 0.4, "aaa": 0.3}
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
                estimate_parts(r, VISUAL, catalog, w).triple()))
        assert masses[0] == pytest.approx(masses[1], abs=1e-12)


def test_readme_library_example_runs(tmp_path, capsys):
    # the first python block of README.md, run as written with `paths`
    # bound to one fixture pair, prints the page's global decision
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    paths = []
    for kind in ("error-heavy", "potential-heavy"):
        path = tmp_path / f"{kind}.json"
        path.write_text(generate_fixture(7, kind), encoding="utf-8")
        paths.append(str(path))
    exec(compile(code, "README.md", "exec"), {"paths": paths})
    catalog, w = load_config()
    d = score_page([parse_report(Path(p).read_bytes()) for p in paths],
                   catalog, w)[GLOBAL]
    assert capsys.readouterr().out == f"{d.decision} {d.level.glyph}\n"
