"""One scoring call per page: `score` and `explain` each score a page with
one engine.score_page call, counted with the spans of bench/tracing.py."""

import contextlib
import io
from collections import Counter

import pytest

import tracing
from a11yfuse import belief, cli, engine, reports, wcag
from a11yfuse.reports import generate_fixture

SEEDS = (3, 148, 359)


@pytest.fixture
def pages(tmp_path):
    args = []
    for seed in SEEDS:
        args.append("--page")
        for kind in ("error-heavy", "potential-heavy"):
            p = tmp_path / f"{kind}-{seed}.json"
            p.write_text(generate_fixture(seed, kind), encoding="utf-8")
            args.append(str(p))
    return args


def calls_per_page(argv):
    """Run the CLI under tracing; returns the criteria_in_frame spans below
    each engine.score_page span, in call order."""
    rec = tracing.Recorder()
    with tracing.installed(rec, (wcag, reports, engine, belief, cli)), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    label = [rec.labels[i] for i in rec.name]
    page_of = []  # the score_page span each span lies at or below, or -1
    for i, p in enumerate(rec.parent):
        page_of.append(i if label[i] == "engine.score_page"
                       else page_of[p] if p >= 0 else -1)
    frame_sets = Counter(page_of[i] for i in range(len(rec))
                         if label[i] == "wcag.criteria_in_frame")
    assert frame_sets[-1] == 0  # none outside a scoring call
    return [frame_sets[i] for i in range(len(rec))
            if label[i] == "engine.score_page"]


def test_score_calls_score_page_once_per_page(pages):
    # two reports in five frames
    assert calls_per_page(["score", "--format", "json", *pages]) == [10] * 3


def test_explain_calls_score_page_once_per_page(pages):
    # two reports in one frame
    assert calls_per_page(["explain", "--frame", "hearing", *pages]) == \
        [2] * 3


def test_one_scoring_function():
    assert not hasattr(engine, "score_frame")
