import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import a11yfuse
from a11yfuse.cli import (_USAGE, _parse_args, cmd_explain, cmd_fixtures,
                          cmd_score, main)
from a11yfuse.engine import AccessLevel
from a11yfuse.reports import FIXTURE_KINDS, generate_fixture
from a11yfuse.wcag import DeficiencyFrame


@pytest.fixture
def fixture_pair(tmp_path):
    paths = []
    for kind in ("error-heavy", "potential-heavy"):
        p = tmp_path / f"{kind}.json"
        p.write_text(generate_fixture(7, kind), encoding="utf-8")
        paths.append(str(p))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


ONE_CRITERION = {"id": "1.1.1", "level": "A", "frames": ["visual"]}


@pytest.fixture
def conflict_pair(tmp_path):
    """Two one-criterion reports on 1.1.1 (visual and cognitive) that
    contradict each other with certainty."""
    base = {"n_ok": 0, "n_err": 0, "n_likely": 0, "n_potential": 0,
            "t_err": 5, "t_likely": 0, "t_potential": 0}
    return [write_json(tmp_path / f"{name}.json",
                       {"assessor": {"name": name}, "url": "u",
                        "observations": [{"criterion": "1.1.1",
                                          **{**base, key: 5}}]})
            for name, key in (("optimist", "n_ok"), ("pessimist", "n_err"))]


class TestScore:
    def test_table_layout(self, capsys, fixture_pair):
        code, out, _ = run(capsys, "score", "--page", *fixture_pair)
        assert code == 0
        header, row = out.splitlines()[:2]
        for col in ("URL", "Visual", "Hearing", "Motor", "Cognitive", "Global"):
            assert col in header
        assert "https://example.test/page-7" in row

    def test_json_matches_table_to_three_decimals(self, capsys, fixture_pair):
        code, table_out, _ = run(capsys, "score", "--page", *fixture_pair)
        assert code == 0
        code, json_out, _ = run(capsys, "score", "--format", "json",
                                "--page", *fixture_pair)
        assert code == 0
        doc = json.loads(json_out)
        rendered = [f"{doc['frames'][f]['decision']:.3f}"
                    for f in ("visual", "hearing", "motor",
                              "cognitive", "global")]
        row = table_out.splitlines()[1]
        for value in rendered:
            assert value in row

    def test_json_shape(self, capsys, fixture_pair):
        _, out, _ = run(capsys, "score", "--format", "json",
                        "--page", *fixture_pair)
        doc = json.loads(out)
        visual = doc["frames"]["visual"]
        assert set(visual) == {"decision", "level", "glyph", "mass",
                               "per_source"}
        assert set(visual["mass"]) == {"ac", "nac", "omega", "empty"}
        assert set(visual["per_source"]) == {"error-heavy-assessor",
                                             "potential-heavy-assessor"}

    def test_tsv(self, capsys, fixture_pair):
        code, out, _ = run(capsys, "score", "--format", "tsv",
                           "--page", *fixture_pair)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["URL", "Visual", "Hearing", "Motor",
                                        "Cognitive", "Global"]
        assert len(lines[1].split("\t")) == 6

    def test_ascii_glyphs(self, capsys, fixture_pair):
        _, out, _ = run(capsys, "score", "--ascii", "--page", *fixture_pair)
        assert not any(g in out for g in "↓↘→↗↑")

    def test_multiple_pages_in_input_order(self, capsys, tmp_path):
        paths = []
        for seed in (3, 1, 2):
            p = tmp_path / f"r{seed}.json"
            p.write_text(generate_fixture(seed, "balanced"), encoding="utf-8")
            paths.append(str(p))
        args = ["score"]
        for p in paths:
            args += ["--page", p]
        code, out, _ = run(capsys, *args)
        assert code == 0
        rows = out.splitlines()[1:]
        assert [r.split()[0] for r in rows] == [
            "https://example.test/page-3",
            "https://example.test/page-1",
            "https://example.test/page-2"]

    def test_deterministic_output(self, capsys, fixture_pair):
        _, first, _ = run(capsys, "score", "--page", *fixture_pair)
        _, second, _ = run(capsys, "score", "--page", *fixture_pair)
        assert first == second

    def test_mixed_urls_exit_1(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(generate_fixture(1, "balanced"), encoding="utf-8")
        b.write_text(generate_fixture(2, "balanced"), encoding="utf-8")
        code, _, err = run(capsys, "score", "--page", str(a), str(b))
        assert code == 1
        assert "error" in err

    def test_bad_report_exit_1(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "score", "--page", str(p))
        assert code == 1
        assert "error" in err

    def test_count_inconsistency_exit_1(self, capsys, tmp_path):
        doc = {"assessor": {"name": "t"}, "url": "u",
               "observations": [{"criterion": "1.1.1", "n_err": 5,
                                 "t_err": 2, "n_ok": 0, "n_likely": 0,
                                 "n_potential": 0, "t_likely": 0,
                                 "t_potential": 0}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "score", "--page", str(p))
        assert code == 1

    def test_bad_flag_exit_2(self, fixture_pair):
        assert main(["score", "--format", "xml", "--page", *fixture_pair]) == 2

    def test_weight_overrides(self, capsys, tmp_path, fixture_pair):
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps(
            {"thresholds": [0.05, 0.1, 0.15, 0.2]}), encoding="utf-8")
        _, strict, _ = run(capsys, "score", "--page", *fixture_pair)
        _, lax, _ = run(capsys, "score", "--weights", str(wpath),
                        "--page", *fixture_pair)
        # same decision values, friendlier levels
        assert strict.splitlines()[1].split()[1] == lax.splitlines()[1].split()[1]
        assert "↑" in lax

    def test_custom_catalog(self, capsys, tmp_path):
        catalog = [{"id": "c1", "level": "A", "frames": ["visual"]}]
        cpath = tmp_path / "catalog.json"
        cpath.write_text(json.dumps(catalog), encoding="utf-8")
        doc = {"assessor": {"name": "t"}, "url": "u",
               "observations": [{"criterion": "c1", "n_ok": 4, "n_err": 0,
                                 "n_likely": 0, "n_potential": 0, "t_err": 0,
                                 "t_likely": 0, "t_potential": 0}]}
        p = tmp_path / "r.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "score", "--catalog", str(cpath),
                           "--page", str(p))
        assert code == 0
        assert "1.000 ↑" in out


def write_pages(directory, seeds):
    """One --page group per seed: its error-heavy and potential-heavy
    fixture reports."""
    groups = []
    for seed in seeds:
        group = []
        for kind in ("error-heavy", "potential-heavy"):
            path = directory / f"report-{kind}-{seed}.json"
            path.write_text(generate_fixture(seed, kind), encoding="utf-8")
            group.append(str(path))
        groups.append(group)
    return groups


def page_args(groups):
    return [arg for group in groups for arg in ("--page", *group)]


class TestPageByPage:
    """Each --page group is read, scored and written before the next one;
    a group that fails prints nothing on stdout and hides no other page."""

    @pytest.fixture
    def batch(self, tmp_path):
        good = write_pages(tmp_path, (3, 1, 2))
        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + '{"url": "u"}'.encode("utf-16-le"))
        mixed = [good[0][0], good[1][1]]
        missing = tmp_path / "missing.json"
        array = write_json(tmp_path / "array.json", [])
        by_id = write_json(tmp_path / "by-id.json", {
            "assessor": {"name": "t"}, "url": "u", "observations": {}})
        groups = [[str(broken)], good[0], [good[2][0], str(utf16)], good[1],
                  mixed, [str(missing)], [array], [good[1][0], by_id],
                  good[2]]
        errors = [f"error: {broken}: report is not valid UTF-8 JSON",
                  f"error: {utf16}: report is not valid UTF-8 JSON",
                  f"error: {mixed[0]}: reports refer to different pages",
                  f"error: {missing}: No such file or directory",
                  f"error: {array}: report must be a JSON object",
                  f"error: {by_id}: observations must be an array"]
        return good, groups, errors

    @pytest.mark.parametrize("argv", [
        ("score",), ("score", "--format", "tsv"),
        ("score", "--format", "json"), ("score", "--ascii"),
        ("explain", "--frame", "visual"), ("explain", "--frame", "global")])
    def test_bad_groups_hide_no_good_page(self, capsys, batch, argv):
        good, groups, errors = batch
        code, expected, _ = run(capsys, *argv, *page_args(good))
        assert code == 0
        code, out, err = run(capsys, *argv, *page_args(groups))
        assert (code, out) == (1, expected)
        lines = err.splitlines()
        assert len(lines) == len(errors)
        for line, start in zip(lines, errors):
            assert line.startswith(start)

    @pytest.mark.parametrize("argv", [
        ("score",), ("score", "--format", "tsv"),
        ("score", "--format", "json"), ("explain", "--frame", "visual")])
    def test_no_good_page_prints_nothing(self, capsys, batch, argv):
        good, groups, errors = batch
        bad = [g for g in groups if g not in good]
        code, out, err = run(capsys, *argv, *page_args(bad))
        assert (code, out, len(err.splitlines())) == (1, "", len(errors))

    def test_conflict_lines_follow_page_errors(self, capsys, batch,
                                               conflict_pair):
        good, groups, errors = batch
        code, _, err = run(capsys, "score", "--page", *conflict_pair,
                           *page_args(groups[:1]))
        assert code == 1
        lines = err.splitlines()
        assert lines[0].startswith(errors[0])
        assert lines[1:] == ["error: total conflict: u visual",
                             "error: total conflict: u cognitive",
                             "error: total conflict: u global"]

    @pytest.mark.parametrize("argv", [("score",),
                                      ("explain", "--frame", "global")])
    def test_deep_report_hides_no_good_page(self, capsys, tmp_path, argv):
        # json.loads raised RecursionError: a traceback, and no page printed
        good = write_pages(tmp_path, (3, 1))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        _, expected, _ = run(capsys, *argv, *page_args(good))
        code, out, err = run(capsys, *argv, *page_args(
            [good[0], [str(deep)], good[1]]))
        assert (code, out) == (1, expected)
        assert err.startswith(f"error: {deep}: report is not valid UTF-8 "
                              f"JSON: maximum recursion")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("score",), ("score", "--format", "tsv", "--ascii"),
        ("score", "--format", "json"), ("explain", "--frame", "visual")])
    @pytest.mark.parametrize("name, url, error", [
        ("t\udc80", "https://x.test/\ud800",
         "url is not Unicode text: 'https://x.test/\\ud800'"),
        ("t\udc80", "https://x.test/",
         "assessor name is not Unicode text: 't\\udc80'")],
        ids=["url", "name"])
    def test_lone_surrogate_hides_no_good_page(self, capsys, tmp_path, argv,
                                               name, url, error):
        # writing such text to stdout raised UnicodeEncodeError: a
        # traceback, and the later pages lost
        good = write_pages(tmp_path, (3, 1))
        bad = write_json(tmp_path / "surrogate.json", {
            "assessor": {"name": name}, "url": url,
            "observations": [{"criterion": "1.1.1", "n_ok": 3}]})
        _, expected, _ = run(capsys, *argv, *page_args(good))
        code, out, err = run(capsys, *argv, *page_args(
            [good[0], [bad], good[1]]))
        assert (code, out, err) == (1, expected, f"error: {bad}: {error}\n")

    @pytest.mark.parametrize("argv", [("score",),
                                      ("explain", "--frame", "visual")])
    @pytest.mark.parametrize("path, error", [
        ("a\x00b", "error: a\\x00b: embedded null byte\n"),
        ("\ud800", "error: \\ud800: ")], ids=["nul", "surrogate"])
    def test_path_the_os_cannot_open_hides_no_good_page(
            self, capsys, tmp_path, argv, path, error):
        # open raises ValueError, not OSError, for these: a traceback, or
        # for the surrogate "cannot write output", and the later pages lost
        # (a command line cannot carry either path; a library caller can)
        good = write_pages(tmp_path, (3, 1))
        _, expected, _ = run(capsys, *argv, *page_args(good))
        code, out, err = run(capsys, *argv, *page_args(
            [good[0], [path], good[1]]))
        assert (code, out) == (1, expected)
        assert err.startswith(error) and len(err.splitlines()) == 1

    @staticmethod
    def _peak(argv):
        """The least traced peak of three runs after a warm-up run. A
        one-off allocation elsewhere in the process, such as a shared table
        growing, lands in one run only."""
        peaks = []
        with open(os.devnull, "w", encoding="utf-8") as devnull, \
                contextlib.redirect_stdout(devnull):
            main(argv)
            for _ in range(3):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        return min(peaks)

    @pytest.mark.parametrize("command", [("score", "--format", "json"),
                                         ("explain", "--frame", "global")])
    def test_peak_memory_holds_one_page(self, tmp_path, command):
        groups = write_pages(tmp_path, range(40))
        few = self._peak([*command, *page_args(groups[:4])])
        many = self._peak([*command, *page_args(groups)])
        assert many < 1.5 * few, (few, many)


class TestSubsetCatalog:
    """A catalog that lacks some of a report's criteria skips them with one
    warning line each and scores the rest; a report that fails prints only
    its error line."""

    def test_skipped_entries_count_in_stored_total(self, capsys, tmp_path,
                                                   fixture_pair):
        packaged = json.loads((Path(a11yfuse.__file__).parent / "data"
                               / "wcag20_criteria.json").read_text(
                                   encoding="utf-8"))
        subset = packaged[:40]
        kept = {c["id"] for c in subset}
        catalog = write_json(tmp_path / "subset.json", subset)
        stripped, warnings = [], []
        for path in fixture_pair:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            assert "total_tests" in doc
            warnings += [f"warning: {path}: skipping unknown criterion "
                         f"{o['criterion']}" for o in doc["observations"]
                         if o["criterion"] not in kept]
            doc["observations"] = [o for o in doc["observations"]
                                   if o["criterion"] in kept]
            del doc["total_tests"]
            stripped.append(write_json(tmp_path / f"s-{Path(path).name}",
                                       doc))
        assert warnings
        code, out, err = run(capsys, "score", "--catalog", catalog,
                             "--page", *fixture_pair)
        assert (code, err.splitlines()) == (0, warnings)
        assert (0, out, "") == run(capsys, "score", "--catalog", catalog,
                                   "--page", *stripped)

    def test_skipped_ids_keep_document_order(self, capsys, tmp_path):
        path = write_json(tmp_path / "r.json", {
            "assessor": {"name": "t"}, "url": "u",
            "observations": [{"criterion": cid, "n_ok": 1}
                             for cid in ("9.9.9", "1.1.1", "8.8.8")]})
        code, _, err = run(capsys, "score", "--page", path)
        assert (code, err.splitlines()) == (0, [
            f"warning: {path}: skipping unknown criterion 9.9.9",
            f"warning: {path}: skipping unknown criterion 8.8.8"])

    @pytest.mark.parametrize("argv", [("score",),
                                      ("explain", "--frame", "global")])
    def test_report_that_fails_prints_only_its_error(self, capsys, tmp_path,
                                                     fixture_pair, argv):
        # it scores nothing, so the criteria it skipped before failing are
        # not reported
        bad = write_json(tmp_path / "bad.json", {
            "assessor": {"name": "t"}, "url": "u", "total_tests": 9,
            "observations": [{"criterion": "9.9.9", "n_ok": 1},
                             {"criterion": "8.8.8", "n_ok": 1}]})
        _, expected, _ = run(capsys, *argv, "--page", *fixture_pair)
        code, out, err = run(capsys, *argv, "--page", bad,
                             "--page", *fixture_pair)
        assert (code, out, err) == (1, expected, (
            f"error: {bad}: stored total_tests=9 does not match the "
            f"recomputed sum 2\n"))


class TestTotalConflict:
    def test_table_marks_cell_and_keeps_other_pages(self, capsys,
                                                    conflict_pair,
                                                    fixture_pair):
        code, out, err = run(capsys, "score", "--page", *conflict_pair,
                             "--page", *fixture_pair)
        assert code == 1
        header, conflicted, other = out.splitlines()
        assert conflicted.split() == ["u", "conflict", "0.500", "↓",
                                      "0.500", "↓", "conflict", "conflict"]
        assert other.startswith("https://example.test/page-7")
        assert err.splitlines() == ["error: total conflict: u visual",
                                    "error: total conflict: u cognitive",
                                    "error: total conflict: u global"]

    def test_tsv_cell(self, capsys, conflict_pair):
        code, out, _ = run(capsys, "score", "--format", "tsv",
                           "--page", *conflict_pair)
        assert code == 1
        assert out.splitlines()[1].split("\t")[1] == "conflict"

    def test_json_nulls_keep_keys(self, capsys, conflict_pair, fixture_pair):
        code, out, _ = run(capsys, "score", "--format", "json",
                           "--page", *conflict_pair, "--page", *fixture_pair)
        assert code == 1
        docs = [json.loads(line) for line in out.splitlines()]
        visual = docs[0]["frames"]["visual"]
        assert set(visual) == {"decision", "level", "glyph", "mass",
                               "per_source"}
        assert (visual["decision"], visual["level"], visual["glyph"]) == \
            (None, None, None)
        assert visual["mass"]["empty"] == 1.0
        assert docs[0]["frames"]["hearing"]["decision"] == 0.5
        assert docs[1]["frames"]["visual"]["decision"] is not None


LEVEL_ORDER = ("level weights must satisfy "
               "0 < alpha_aaa <= alpha_aa <= alpha_a <= 1")
THRESHOLD_ORDER = "thresholds must satisfy 0 < s1 < s2 < s3 < s4 < 1"
BAD_WEIGHTS = [
    ({"weights": {"a": "high"}},
     "weights and thresholds must be numbers, got 'high'"),
    ([1, 2], "weights file must be a JSON object"),
    ({"weights": {"beta_err": 0.1}}, "weights: unknown key(s) 'beta_err'"),
    ({"weights": {"beta_likely": 0.1}},
     "weights: unknown key(s) 'beta_likely'"),
    ({"weights": {"beta_potential": 0.1}},
     "weights: unknown key(s) 'beta_potential'"),
    ({"weights": [1]}, "weights must be a JSON object"),
    ({"thresholds": [0.1, "x", 0.3, 0.4]},
     "weights and thresholds must be numbers, got 'x'"),
    ({"beta_err": 0.1}, "weights file: unknown key(s) 'beta_err'"),
    ({"criteria": []}, "weights file: unknown key(s) 'criteria'"),
    ({"weights": {"a": 0.5, "aa": 0.9}}, LEVEL_ORDER),
    ({"thresholds": [0.9, 0.8, 0.7, 0.6]}, THRESHOLD_ORDER),
    # once an OverflowError traceback
    ({"weights": {"a": 10 ** 400}}, LEVEL_ORDER),
    ({"thresholds": [0.6, 0.7, 0.8, 10 ** 400]}, THRESHOLD_ORDER),
    ({"thresold": [0.6, 0.7, 0.8, 0.9]},
     "weights file: unknown key(s) 'thresold'"),
    ({"weights": {"a": 1.0, "b": 0.5}}, "weights: unknown key(s) 'b'"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("doc, message", BAD_WEIGHTS,
                             ids=[f"doc{i}" for i in range(len(BAD_WEIGHTS))])
    def test_bad_weights_file_exit_1(self, capsys, tmp_path, fixture_pair,
                                     doc, message):
        wpath = write_json(tmp_path / "w.json", doc)
        code, out, err = run(capsys, "score", "--weights", wpath,
                             "--page", *fixture_pair)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--weights"])  # only it sets weights
    @pytest.mark.parametrize("doc", [
        {"weights": {"aa": "0.7"}},
        {"thresholds": ["0.5", "0.6", "0.7", "0.8"]},
        {"weights": {"a": True}},
    ])
    def test_weights_must_be_json_numbers_exit_1(self, capsys, tmp_path,
                                                 fixture_pair, flag, doc):
        path = write_json(tmp_path / "config.json", doc)
        code, out, err = run(capsys, "score", flag, path,
                             "--page", *fixture_pair)
        assert (code, out) == (1, "")
        assert err.startswith("error: weights and thresholds must be numbers")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("doc, message", [
        ([{**ONE_CRITERION, "alpha": 0.01}],
         "criterion '1.1.1': unknown key(s) 'alpha'"),
    ], ids=["criterion"])
    def test_unknown_catalog_key_exit_1(self, capsys, tmp_path, fixture_pair,
                                        doc, message):
        path = write_json(tmp_path / "catalog.json", doc)
        code, out, err = run(capsys, "score", "--catalog", path,
                             "--page", *fixture_pair)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [("score",),
                                      ("explain", "--frame", "visual")])
    @pytest.mark.parametrize("weights", [None, {"weights": {"aa": 0.7}}],
                             ids=["no-weights-file", "weights-file"])
    @pytest.mark.parametrize("extra", [
        {}, {"weights": {"aa": 0.7}},
        {"thresholds": [0.5, 0.6, 0.7, 0.8]}, {"threshold": 1}],
        ids=["criteria", "weights", "thresholds", "unknown-key"])
    def test_object_catalog_exit_1(self, capsys, tmp_path, fixture_pair,
                                   argv, weights, extra):
        # a catalog file holds criteria only: the object form that also
        # set weights and thresholds is gone, and says where they go now
        catalog = write_json(tmp_path / "catalog.json",
                             {"criteria": [ONE_CRITERION], **extra})
        options = ["--catalog", catalog]
        if weights:
            options += ["--weights", write_json(tmp_path / "w.json", weights)]
        code, out, err = run(capsys, *argv, *options, "--page", *fixture_pair)
        assert (code, out, err) == (
            1, "", "error: catalog must be a JSON array of criteria; weights "
                   "and thresholds go in a weights file\n")

    @pytest.mark.parametrize("flag", ["--catalog", "--weights"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "nul",
                                      "surrogate"])
    def test_config_file_fault_names_the_path_exit_1(
            self, capsys, tmp_path, fixture_pair, flag, kind):
        # once `error: [Errno 2] ...: '<path>'`, a ValueError traceback for
        # the NUL, and `cannot write output` for the surrogate, which names
        # stdout (a command line cannot carry the last two; a library can)
        path, line = {
            "missing": (str(tmp_path / "nope.json"),
                        f"error: {tmp_path / 'nope.json'}: "
                        f"No such file or directory\n"),
            "directory": (str(tmp_path),
                          f"error: {tmp_path}: Is a directory\n"),
            "nul": ("a\x00b", "error: a\\x00b: embedded null byte\n"),
            "surrogate": ("\ud800", "error: \\ud800: "),
        }[kind]
        code, out, err = run(capsys, "score", flag, path,
                             "--page", *fixture_pair)
        assert (code, out) == (1, "")
        assert err.startswith(line) and len(err.splitlines()) == 1
        if kind == "surrogate":
            assert "codec can't encode character '\\ud800'" in err
        else:
            assert err == line

    @pytest.mark.parametrize("entry", [
        "1.1.1", None, 5, ["id"], {"id": "1.1.1", "level": "A"}],
        ids=["str", "null", "int", "list", "no-frames"])
    def test_bad_catalog_entry_exit_1(self, capsys, tmp_path, fixture_pair,
                                      entry):
        # a string entry once printed Python's "string indices must be
        # integers"
        catalog = write_json(tmp_path / "catalog.json", [entry])
        code, out, err = run(capsys, "score", "--catalog", catalog,
                             "--page", *fixture_pair)
        assert (code, out, err) == \
            (1, "", f"error: bad catalog entry: {entry!r}\n")

    @pytest.mark.parametrize("frames", [["global"], ["visual", "global"]])
    def test_catalog_may_not_list_global_exit_1(self, capsys, tmp_path,
                                                fixture_pair, frames):
        catalog = write_json(tmp_path / "catalog.json",
                             [{"id": "c1", "level": "A", "frames": frames}])
        code, out, err = run(capsys, "score", "--catalog", catalog,
                             "--page", *fixture_pair)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "c1" in err

    @pytest.mark.parametrize("cid", [7, 1.1, None, True, ["1.1.1"]])
    def test_catalog_id_must_be_a_string_exit_1(self, capsys, tmp_path, cid):
        # {"id": 7} once matched a report's {"criterion": 7} and scored
        catalog = write_json(tmp_path / "catalog.json",
                             [{**ONE_CRITERION, "id": cid}])
        report = write_json(tmp_path / "r.json", {
            "assessor": {"name": "t"}, "url": "u",
            "observations": [{"criterion": cid, "n_ok": 1}]})
        code, out, err = run(capsys, "score", "--catalog", catalog,
                             "--page", report)
        assert (code, out, err) == \
            (1, "", f"error: catalog id must be a string, got {cid!r}\n")

    def test_catalog_frames_must_be_an_array_exit_1(self, capsys, tmp_path,
                                                    fixture_pair):
        catalog = write_json(tmp_path / "catalog.json",
                             [{**ONE_CRITERION, "frames": "visual"}])
        code, out, err = run(capsys, "score", "--catalog", catalog,
                             "--page", *fixture_pair)
        assert (code, out, err) == (1, "", "error: criterion '1.1.1': frames "
                                           "must be an array, got 'visual'\n")

    @pytest.mark.parametrize("name, cid, message", [
        (None, "1.1.1", "assessor name must be a non-empty string, got None"),
        (["tool"], "1.1.1",
         "assessor name must be a non-empty string, got ['tool']"),
        ("t", 1.1, "criterion must be a string, got 1.1"),
        ("t", 7, "criterion must be a string, got 7"),
    ], ids=["name-null", "name-list", "id-float", "id-int"])
    def test_report_names_and_ids_must_be_strings_exit_1(
            self, capsys, tmp_path, fixture_pair, name, cid, message):
        # a null name once scored as assessor "None", and 1.1 as "1.1"
        path = write_json(tmp_path / "r.json", {
            "assessor": {"name": name}, "url": "u",
            "observations": [{"criterion": cid, "n_ok": 1}]})
        code, out, err = run(capsys, "score", "--format", "tsv",
                             "--page", path, "--page", *fixture_pair)
        assert code == 1
        assert err == f"error: {path}: {message}\n"
        assert len(out.splitlines()) == 2  # the header and the good page

    def test_misspelled_report_key_exit_1(self, capsys, tmp_path):
        # five errors under a misspelled key once scored as "very good"
        path = write_json(tmp_path / "r.json", {
            "assessor": {"name": "t", "beta_error": 0.1, "delta": True},
            "url": "u",
            "observations": [{"criterion": "1.1.1", "n_errs": 5, "t_err": 5,
                              "n_ok": 1}]})
        code, out, err = run(capsys, "explain", "--frame", "visual",
                             "--page", path)
        assert (code, out) == (1, "")
        assert err == \
            f"error: {path}: assessor block: unknown key(s) 'beta_error'\n"

    def test_misspelled_top_level_key_exit_1(self, capsys, tmp_path):
        path = write_json(tmp_path / "r.json", {
            "assessor": {"name": "t"}, "url": "u", "total_test": 99,
            "observations": [{"criterion": "1.1.1", "n_ok": 3}]})
        code, out, err = run(capsys, "score", "--page", path)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: report: unknown key(s) 'total_test'\n"

    def test_count_too_large_for_a_float_exit_1(self, capsys, tmp_path):
        # 10**400 once ended in an OverflowError traceback while scoring
        path = write_json(tmp_path / "r.json", {
            "assessor": {"name": "t"}, "url": "u",
            "observations": [{"criterion": "1.1.1", "n_ok": 10 ** 400}]})
        code, out, err = run(capsys, "score", "--page", path)
        assert (code, out) == (1, "")
        assert err.startswith(
            f"error: {path}: criterion '1.1.1': n_ok is above 2**53")
        assert len(err.splitlines()) == 1

    def test_non_utf8_report_exit_1(self, capsys, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + '{"url": "u"}'.encode("utf-16-le"))
        code, _, err = run(capsys, "score", "--page", str(p))
        assert code == 1
        assert err.startswith(f"error: {p}: report is not valid UTF-8 JSON")

    def test_non_utf8_weights_file_exit_1(self, capsys, tmp_path,
                                          fixture_pair):
        p = tmp_path / "w.json"
        p.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "score", "--weights", str(p),
                           "--page", *fixture_pair)
        assert code == 1
        assert err.startswith("error: weights file is not valid UTF-8 JSON")

    @pytest.mark.parametrize("flag, what", [("--weights", "weights file"),
                                            ("--catalog", "catalog")])
    def test_deep_config_file_exit_1(self, capsys, tmp_path, fixture_pair,
                                     flag, what):
        p = tmp_path / "config.json"
        p.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "score", flag, str(p),
                             "--page", *fixture_pair)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {what} is not valid UTF-8 JSON: "
                              f"maximum recursion")
        assert len(err.splitlines()) == 1


# a character that must not reach text output as itself, and its escape
AWKWARD = [("\t", "\\x09"), ("\n", "\\x0a"), ("\x1b", "\\x1b"),
           ("\u2028", "\\u2028"), ("\u202e", "\\u202e"), ("\\", "\\\\")]


class TestTextEscaping:
    """Table, tsv and explain output escape a report's url and assessor
    names, so each page keeps one row and no terminal control is written;
    JSON output keeps the text as it is."""

    @staticmethod
    def awkward_page(directory, char):
        """The seed-3 fixture pair, with `char` in its url and names."""
        paths = []
        for kind in ("error-heavy", "potential-heavy"):
            doc = json.loads(generate_fixture(3, kind))
            doc["url"] = f"https://x.test/a{char}b"
            doc["assessor"]["name"] = f"{kind}{char}tool"
            paths.append(write_json(directory / f"{kind}-{ord(char)}.json",
                                    doc))
        return paths

    @pytest.fixture
    def pages(self, tmp_path):
        return [self.awkward_page(tmp_path, char) for char, _ in AWKWARD]

    @pytest.mark.parametrize("argv", [("score", "--format", "tsv"),
                                      ("score",), ("score", "--ascii")])
    def test_one_row_per_page(self, capsys, pages, argv):
        code, out, err = run(capsys, *argv, *page_args(pages))
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]  # splitlines also breaks at U+2028
        assert len(rows) == len(AWKWARD)
        sep = "\t" if "tsv" in argv else None
        for row, (_, escaped) in zip(rows, AWKWARD):
            fields = row.split(sep)
            assert fields[0] == f"https://x.test/a{escaped}b"
            assert len(fields) == (6 if sep else 11)

    @pytest.mark.parametrize("char, escaped", AWKWARD)
    def test_explain_escapes_url_and_names(self, capsys, tmp_path, char,
                                           escaped):
        page = self.awkward_page(tmp_path, char)
        code, out, _ = run(capsys, "explain", "--frame", "visual",
                           "--page", *page)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert lines[0] == f"page https://x.test/a{escaped}b  [frame: visual]"
        assert [line.split()[1] for line in lines
                if line.startswith("  assessor ")] == \
            [f"error-heavy{escaped}tool", f"potential-heavy{escaped}tool"]

    @pytest.mark.parametrize("char, escaped", AWKWARD)
    def test_conflict_line_escapes_url(self, capsys, tmp_path, conflict_pair,
                                       char, escaped):
        for path in conflict_pair:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            doc["url"] = f"a{char}b"
            write_json(Path(path), doc)
        code, _, err = run(capsys, "score", "--page", *conflict_pair)
        assert code == 1
        assert err.splitlines() == [
            f"error: total conflict: a{escaped}b {frame}"
            for frame in ("visual", "cognitive", "global")]

    def test_json_keeps_the_text(self, capsys, pages):
        code, out, _ = run(capsys, "score", "--format", "json",
                           *page_args(pages))
        docs = [json.loads(line) for line in out.split("\n")[:-1]]
        assert code == 0 and len(docs) == len(AWKWARD)
        for doc, (char, _) in zip(docs, AWKWARD):
            assert doc["url"] == f"https://x.test/a{char}b"
            assert list(doc["frames"]["visual"]["per_source"]) == \
                [f"error-heavy{char}tool", f"potential-heavy{char}tool"]

    def test_printable_text_is_unchanged(self, capsys, tmp_path):
        page = self.awkward_page(tmp_path, "\u00e9")
        _, out, _ = run(capsys, "score", "--format", "tsv", "--page", *page)
        assert out.splitlines()[1].startswith("https://x.test/a\u00e9b\t")


RAW, SHOWN = "\n\x1b[31m", "\\x0a\\x1b[31m"


def stderr_lines(err):
    """stderr's lines, none of which may hold a character below 0x20."""
    assert err.endswith("\n")
    lines = err[:-1].split("\n")
    assert all(c >= " " for line in lines for c in line), err
    return lines


class TestStderrLines:
    """warning: and error: lines escape the text they quote from outside
    (a report path, a criterion id, a message naming one), so each stays
    one line and no terminal control reaches stderr."""

    @staticmethod
    def report(directory, name, criterion, **counts):
        directory.mkdir(exist_ok=True)
        return write_json(directory / name, {
            "assessor": {"name": "t"}, "url": "u",
            "observations": [{"criterion": criterion, **counts}]})

    @pytest.mark.parametrize("dirname", ["plain", f"a{RAW}b"],
                             ids=["plain-path", "raw-path"])
    def test_unknown_criterion_warning(self, capsys, tmp_path, dirname):
        path = self.report(tmp_path / dirname, "warn.json", f"x{RAW}y",
                           n_ok=1)
        code, _, err = run(capsys, "score", "--page", path)
        assert code == 0
        assert stderr_lines(err) == [
            f"warning: {path.replace(RAW, SHOWN)}: skipping unknown "
            f"criterion x{SHOWN}y"]

    @pytest.mark.parametrize("dirname", ["plain", f"a{RAW}b"],
                             ids=["plain-path", "raw-path"])
    def test_count_fault_error(self, capsys, tmp_path, dirname):
        path = self.report(tmp_path / dirname, "bad.json", f"1.1.1{RAW}X",
                           n_err=5, t_err=2)
        code, out, err = run(capsys, "score", "--page", path)
        assert (code, out) == (1, "")
        [line] = stderr_lines(err)
        # the id is quoted through repr(), whose escapes are printable
        assert line.startswith(f"error: {path.replace(RAW, SHOWN)}: "
                               f"criterion {f'1.1.1{RAW}X'!r}: ")

    def test_ids_that_print_alike_stay_apart(self, capsys, tmp_path):
        # the 10 characters 1.1.1\x0aX and an id holding a newline once
        # gave the same error line
        lines = []
        for name, cid in (("escape.json", "1.1.1\\x0aX"),
                          ("newline.json", "1.1.1\nX")):
            path = self.report(tmp_path, name, cid, n_err=5, t_err=2)
            code, out, err = run(capsys, "score", "--page", path)
            assert (code, out) == (1, "")
            lines += stderr_lines(err)
        assert lines == [
            f"error: {tmp_path / name}: criterion {cid}: 5 errors observed "
            f"but only 2 applicable tests"
            for name, cid in (("escape.json", "'1.1.1\\\\x0aX'"),
                              ("newline.json", "'1.1.1\\nX'"))]

    def test_missing_report_error(self, capsys, tmp_path):
        path = str(tmp_path / f"a{RAW}b" / "missing.json")
        code, out, err = run(capsys, "score", "--page", path)
        assert (code, out) == (1, "")
        assert stderr_lines(err) == [
            f"error: {path.replace(RAW, SHOWN)}: No such file or directory"]

    def test_catalog_error(self, capsys, tmp_path, fixture_pair):
        catalog = write_json(tmp_path / "catalog.json", [
            {"id": f"c1{RAW}X", "level": "A", "frames": []}])
        code, out, err = run(capsys, "score", "--catalog", catalog,
                             "--page", *fixture_pair)
        assert (code, out) == (1, "")
        assert stderr_lines(err) == [
            f"error: criterion {f'c1{RAW}X'!r} belongs to no frame"]

    def test_fixtures_error(self, capsys, tmp_path):
        blocker = tmp_path / f"a{RAW}b"
        blocker.write_text("x", encoding="utf-8")
        code, out, err = run(capsys, "fixtures", "--seed", "1",
                             "--out", str(blocker / "fx"))
        assert (code, out) == (1, "")
        [line] = stderr_lines(err)
        assert line.startswith("error: cannot write fixtures: ")


class TestMembersAreNeverFormatted:
    """Every renderer writes a frame's or a level's .value: format() and
    str() of a member give "DeficiencyFrame.VISUAL" on Python 3.11 and
    later, so here they raise."""

    @pytest.fixture(autouse=True)
    def unformattable(self, monkeypatch):
        def refuse(member, *args):
            raise AssertionError(f"{type(member).__name__} member formatted")

        for cls in (DeficiencyFrame, AccessLevel):
            monkeypatch.setattr(cls, "__format__", refuse)
            monkeypatch.setattr(cls, "__str__", refuse)

    @pytest.mark.parametrize("argv", [
        ("score", "--format", "json"), ("score",),
        ("score", "--format", "tsv", "--ascii"),
        *(("explain", "--frame", frame) for frame in
          ("visual", "hearing", "motor", "cognitive", "global"))])
    def test_renderings(self, capsys, fixture_pair, argv):
        code, out, err = run(capsys, *argv, "--page", *fixture_pair)
        assert (code, err) == (0, "") and out

    def test_conflict_line(self, capsys, conflict_pair):
        code, _, err = run(capsys, "score", "--page", *conflict_pair)
        assert code == 1
        assert err.splitlines() == [f"error: total conflict: u {frame}"
                                    for frame in ("visual", "cognitive",
                                                  "global")]

    def test_the_patch_bites(self):
        with pytest.raises(AssertionError):
            f"{DeficiencyFrame.VISUAL}"
        with pytest.raises(AssertionError):
            str(AccessLevel.GOOD)


class TestExplain:
    def test_trace_contents(self, capsys, fixture_pair):
        code, out, _ = run(capsys, "explain", "--frame", "visual",
                           "--page", *fixture_pair)
        assert code == 0
        assert "estimates:" in out
        assert "masses:" in out
        assert "discounted:" in out
        assert "fused:" in out
        assert "conflict=" in out
        assert "decision:" in out

    def test_vacuous_only_input(self, capsys, tmp_path):
        doc = {"assessor": {"name": "t"}, "url": "u", "observations": []}
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "explain", "--frame", "global",
                           "--page", str(p))
        assert code == 0
        assert "omega=1.0000" in out
        assert "decision: 0.500" in out

    def test_total_conflict_diagnostic(self, capsys, tmp_path):
        base = {"n_ok": 0, "n_err": 0, "n_likely": 0, "n_potential": 0,
                "t_err": 5, "t_likely": 0, "t_potential": 0}
        certain_ok = {"assessor": {"name": "optimist"}, "url": "u",
                      "observations": [{"criterion": "1.1.1",
                                        **{**base, "n_ok": 5}}]}
        certain_bad = {"assessor": {"name": "pessimist"}, "url": "u",
                       "observations": [{"criterion": "1.1.1",
                                         **{**base, "n_err": 5}}]}
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text(json.dumps(certain_ok), encoding="utf-8")
        pb.write_text(json.dumps(certain_bad), encoding="utf-8")
        code, out, _ = run(capsys, "explain", "--frame", "visual",
                           "--page", str(pa), str(pb))
        assert code == 0
        assert "conflict=1.0000" in out
        assert "TOTAL CONFLICT" in out

    def test_mixed_urls_error_matches_score(self, capsys, tmp_path):
        paths = []
        for seed, kind in ((7, "error-heavy"), (8, "potential-heavy")):
            p = tmp_path / f"report-{kind}-{seed}.json"
            p.write_text(generate_fixture(seed, kind), encoding="utf-8")
            paths.append(str(p))
        code, _, explain_err = run(capsys, "explain", "--frame", "visual",
                                   "--page", *paths)
        assert code == 1
        _, _, score_err = run(capsys, "score", "--page", *paths)
        assert explain_err == score_err
        assert "refer to different pages" in explain_err

    def test_duplicate_assessor_names_match_score_json(self, capsys,
                                                       tmp_path):
        paths = []
        for kind in ("error-heavy", "potential-heavy"):
            doc = json.loads(generate_fixture(7, kind))
            doc["assessor"]["name"] = "same-tool"
            paths.append(write_json(tmp_path / f"{kind}.json", doc))
        _, out, _ = run(capsys, "explain", "--frame", "visual",
                        "--page", *paths)
        labels = [line.split()[1] for line in out.splitlines()
                  if line.startswith("  assessor ")]
        _, json_out, _ = run(capsys, "score", "--format", "json",
                             "--page", *paths)
        per_source = json.loads(json_out)["frames"]["visual"]["per_source"]
        assert labels == list(per_source) == ["same-tool", "same-tool#1"]

    def test_made_up_name_collides_with_no_given_one(self, capsys, tmp_path):
        # the third `a` once became `a#2`, the second report's own name, and
        # JSON per_source kept one of the two sources
        paths = []
        for i, (name, kind) in enumerate((("a", "error-heavy"),
                                          ("a#2", "potential-heavy"),
                                          ("a", "balanced"))):
            doc = json.loads(generate_fixture(7, kind))
            doc["assessor"]["name"] = name
            doc["url"] = "https://x.test/"
            paths.append(write_json(tmp_path / f"{i}.json", doc))
        _, out, _ = run(capsys, "explain", "--frame", "visual",
                        "--page", *paths)
        labels = [line.split()[1] for line in out.splitlines()
                  if line.startswith("  assessor ")]
        _, json_out, _ = run(capsys, "score", "--format", "json",
                             "--page", *paths)
        for frame in json.loads(json_out)["frames"].values():
            assert list(frame["per_source"]) == ["a", "a#2", "a#2#2"]
        assert labels == ["a", "a#2", "a#2#2"]

    def test_unknown_frame_exit_1(self, capsys, fixture_pair):
        assert run(capsys, "explain", "--frame", "auditory",
                   "--page", *fixture_pair) == (
            1, "", "error: unknown frame 'auditory'; expected one of visual, "
                   "hearing, motor, cognitive, global\n")

    def test_config_error_comes_before_frame_and_pages(self, capsys, tmp_path,
                                                       fixture_pair):
        # the config is loaded, then the frame resolved, then pages read:
        # one error line, and no page read (the missing one would add one)
        catalog, page = tmp_path / "nope.json", tmp_path / "gone.json"
        assert run(capsys, "explain", "--frame", "auditory",
                   "--catalog", str(catalog), "--page", *fixture_pair,
                   "--page", str(page)) == (
            1, "", f"error: {catalog}: No such file or directory\n")

    def test_frame_name_ignores_case(self, capsys, fixture_pair):
        lower = run(capsys, "explain", "--frame", "global",
                    "--page", *fixture_pair)
        assert lower[0] == 0
        assert run(capsys, "explain", "--frame", "GLOBAL",
                   "--page", *fixture_pair) == lower

    def test_worked_example_trace(self, capsys, tmp_path):
        catalog = [{"id": "c1", "level": "A", "frames": ["visual"]}]
        cpath = tmp_path / "catalog.json"
        cpath.write_text(json.dumps(catalog), encoding="utf-8")
        doc = {"assessor": {"name": "t"}, "url": "u",
               "observations": [{"criterion": "c1", "n_ok": 8, "n_err": 2,
                                 "n_likely": 1, "n_potential": 0, "t_err": 4,
                                 "t_likely": 2, "t_potential": 0}]}
        p = tmp_path / "r.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "explain", "--frame", "visual",
                           "--catalog", str(cpath), "--page", str(p))
        assert code == 0
        assert "not-accessible 2.0000/4 = 0.5000" in out
        assert "uncertain 0.5000/2 = 0.2500" in out


class TestFixturesCommand:
    def test_writes_count_files_deterministically(self, capsys, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            code = main(["fixtures", "--seed", "42", "--kind", "balanced",
                         "--count", "3", "--out", str(out)])
            assert code == 0
        names = sorted(p.name for p in out1.iterdir())
        assert len(names) == 3
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_generated_files_score(self, capsys, tmp_path):
        out = tmp_path / "fx"
        main(["fixtures", "--seed", "7", "--kind", "potential-heavy",
              "--count", "1", "--out", str(out)])
        path = next(out.iterdir())
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert len({o["t_potential"] for o in doc["observations"]}) == 1
        code, _, _ = run(capsys, "score", "--page", str(path))
        assert code == 0

    def test_unwritable_out_exit_1(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        assert run(capsys, "fixtures", "--seed", "1", "--kind", "balanced",
                   "--count", "1", "--out", str(blocker)) == (
            1, "", f"error: cannot write fixtures: [Errno 17] File exists: "
                   f"'{blocker}'\n")

    def test_empty_out_exit_1(self, capsys, tmp_path, monkeypatch):
        # an empty --out names no directory; it is not the working one
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "fixtures", "--seed", "1", "--out", "") == (
            1, "", "error: cannot write fixtures: [Errno 2] No such file or "
                   "directory: ''\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_parents_are_made(self, capsys, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert run(capsys, "fixtures", "--seed", "3", "--count", "2",
                   "--out", str(out)) == (0, "", "")
        assert sorted(p.name for p in out.iterdir()) == \
            ["report-balanced-3.json", "report-balanced-4.json"]
        assert (out / "report-balanced-3.json").read_text(
            encoding="utf-8") == generate_fixture(3, "balanced")

    def test_negative_count_exit_2(self, capsys, tmp_path):
        out = tmp_path / "fx"
        assert main(["fixtures", "--seed", "1", "--count", "-3",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "argument --count: must be 0 or more, got -3" in captured.err
        assert captured.out == "" and not out.exists()

    def test_zero_count_writes_nothing(self, tmp_path):
        out = tmp_path / "fx"
        assert main(["fixtures", "--seed", "1", "--count", "0",
                     "--out", str(out)]) == 0
        assert list(out.iterdir()) == []


def non_negative_int(text):
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def reference_parser():
    """argparse's reading of the CLI grammar: the reference for the fields
    of the lines that _parse_args reads."""
    parser = argparse.ArgumentParser(prog="a11yfuse")
    sub = parser.add_subparsers(dest="command", required=True)
    pages = {}
    for name, func in (("score", cmd_score), ("explain", cmd_explain)):
        pages[name] = p = sub.add_parser(name)
        p.add_argument("--catalog")
        p.add_argument("--weights")
        p.add_argument("--ascii", action="store_true")
        p.add_argument("--page", nargs="+", action="append", required=True)
        p.set_defaults(func=func)
    pages["score"].add_argument("--format", choices=("table", "json", "tsv"),
                                default="table")
    pages["explain"].add_argument("--frame", required=True)
    p = sub.add_parser("fixtures")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kind", choices=FIXTURE_KINDS, default=FIXTURE_KINDS[0])
    p.add_argument("--count", type=non_negative_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixtures)
    return parser


def reference_args(argv):
    """What argparse reads from argv, without `command`, or None where it
    exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(reference_parser().parse_args(argv))
        except SystemExit:
            return None
    del args["command"]
    return args


PLAIN_VALUES = st.sampled_from(["r.json", "a b.json", "", "json", "score",
                                "\u00e9.json"])
ODD_TOKENS = st.sampled_from(["-h", "--help", "--", "--form", "--page=x",
                              "--format=json", "--ascii=1", "", "-x", "-1",
                              "-", "-x y", "--seed"])
COMMON_OPTIONS = st.one_of(
    st.lists(PLAIN_VALUES, max_size=3).map(lambda paths: ["--page", *paths]),
    st.just(["--ascii"]),
    st.tuples(st.sampled_from(["--catalog", "--weights"]), PLAIN_VALUES))
OPTIONS = {
    "score": st.one_of(COMMON_OPTIONS, st.tuples(
        st.just("--format"), st.sampled_from(["table", "json", "tsv"] * 3 +
                                             ["xml", "--frame"]))),
    "explain": st.one_of(COMMON_OPTIONS, st.tuples(
        st.just("--frame"), st.sampled_from(["global", "visual", "x",
                                             "--format"]))),
    "fixtures": st.one_of(
        st.tuples(st.just("--seed"), st.sampled_from(["3", "-2", "x"])),
        st.tuples(st.just("--count"), st.sampled_from(["0", "2", "-3", "x"])),
        st.tuples(st.just("--kind"), st.sampled_from([*FIXTURE_KINDS,
                                                      "bogus"])),
        st.tuples(st.just("--out"), st.sampled_from(["fx", "a b", "-o"])),
        st.just(["--page", "r.json"]))}
REQUIRED = {"score": [["--page", "r.json"]],
            "explain": [["--page", "r.json"], ["--frame", "global"]],
            "fixtures": [["--seed", "1"], ["--out", "fx"]]}


@st.composite
def argv_lines(draw):
    """Mostly lines written in full, with repeated options and options
    between groups; some lack a required option or hold a token that only
    argparse reads."""
    command = draw(st.sampled_from(["score", "explain"] * 4 +
                                   ["fixtures"] * 2 + ["-h", ""]))
    options = draw(st.lists(OPTIONS.get(command, COMMON_OPTIONS),
                            max_size=5))
    for option in REQUIRED.get(command, []):
        if draw(st.sampled_from([True] * 4 + [False])):
            options.insert(draw(st.integers(0, len(options))), option)
    argv = [command, *(token for option in options for token in option)]
    if draw(st.sampled_from([True, False, False])):
        argv.insert(draw(st.integers(1, len(argv))), draw(ODD_TOKENS))
    return argv


FULL_OPTIONS = {"--page", "--format", "--frame", "--catalog", "--weights",
                "--ascii", "--seed", "--out", "--kind", "--count"}
READ_DEFAULTS = {
    "score": {"func": cmd_score, "catalog": None, "weights": None,
              "ascii": False, "format": "table"},
    "explain": {"func": cmd_explain, "catalog": None, "weights": None,
                "ascii": False},
    "fixtures": {"func": cmd_fixtures, "kind": "balanced", "count": 1}}
REJECTED = [
    (["score", "--page"], "argument --page: expected at least one argument"),
    (["score"], "the following arguments are required: --page"),
    (["score", "--format", "json"],
     "the following arguments are required: --page"),
    (["score", "--page", "-r.json"],
     "argument --page: expected at least one argument"),
    (["score", "--page", "a", "-r.json"], "unrecognized argument: '-r.json'"),
    (["score", "--format", "xml", "--page", "a"],
     "argument --format: invalid choice: 'xml' (choose from table, json, "
     "tsv)"),
    (["explain", "--page", "a"],
     "the following arguments are required: --frame"),
    # --frame's value is the next argument, so `a` is left over
    (["explain", "--frame", "--page", "a"], "unrecognized argument: 'a'"),
    (["score", "--page", "a", "--", "b"], "unrecognized argument: '--'"),
    (["score", "--form", "json", "--page", "a"],
     "unrecognized argument: '--form'"),
    (["fixtures", "--seed", "1", "--out", "o", "--count", "-3"],
     "argument --count: must be 0 or more, got -3"),
    (["score", "--page=x"], "unrecognized argument: '--page=x'"),
    (["fixtures", "--seed", "x", "--out", "o"],
     "argument --seed: invalid literal for int() with base 10: 'x'"),
    (["fixtures", "--seed", "1", "--out", "o", "--kind", "bogus"],
     "argument --kind: invalid choice: 'bogus' (choose from balanced, "
     "error-heavy, potential-heavy)"),
    ([], "the command must be score, explain or fixtures"),
    (["bogus", "--page", "a"], "the command must be score, explain or "
                               "fixtures"),
    (["fixtures"], "the following arguments are required: --seed, --out"),
    (["fixtures", "--seed", "1", "--out", "o", "--page", "a"],
     "unrecognized argument: '--page'"),
    (["score", "--page", "a", "--catalog"],
     "argument --catalog: expected one argument"),
    (["score", "--page", "a", "-x\ny"], "unrecognized argument: '-x\\ny'"),
]


class TestParseArgs:
    """_parse_args, the CLI's one argument reader: options written in
    full, each value the next argument, a --page group up to the next
    argument that starts with `-`; every other line is a usage error."""

    @pytest.mark.parametrize("argv, fields", [
        (["score", "--page", "a.json"], {"page": [["a.json"]]}),
        (["score", "--ascii", "--page", "a", "b", "--format", "json",
          "--page", "c"],
         {"ascii": True, "page": [["a", "b"], ["c"]], "format": "json"}),
        (["score", "--format", "tsv", "--catalog", "c1", "--page", "a",
          "--catalog", "c2", "--format", "json", "--weights", "w"],
         {"page": [["a"]], "catalog": "c2", "format": "json",
          "weights": "w"}),
        (["explain", "--page", "a", "--frame", "visual", "--frame", "global"],
         {"page": [["a"]], "frame": "global"}),
        (["explain", "--frame", "motor", "--page", "", "a b.json"],
         {"page": [["", "a b.json"]], "frame": "motor"}),
        (["score", "--catalog", "-c.json", "--page", "a"],
         {"page": [["a"]], "catalog": "-c.json"}),
        (["fixtures", "--seed", "7", "--out", "o"], {"seed": 7, "out": "o"}),
        (["fixtures", "--out", "o", "--count", "0", "--seed", "-2", "--kind",
          "error-heavy", "--count", "3", "--kind", "potential-heavy"],
         {"seed": -2, "out": "o", "count": 3, "kind": "potential-heavy"})])
    def test_accepted_lines(self, argv, fields):
        assert vars(_parse_args(argv)) == {**READ_DEFAULTS[argv[0]], **fields}

    def test_thousand_groups(self):
        argv = ["score", "--format", "json"]
        for i in range(1000):
            argv += ["--page", f"p{i}-a.json", f"p{i}-b.json"]
            if i == 500:
                argv.append("--ascii")
        args = _parse_args(argv)
        assert len(args.page) == 1000
        assert vars(args) == reference_args(argv)

    @pytest.mark.parametrize("argv, message", REJECTED,
                             ids=[f"argv{i}" for i in range(len(REJECTED))])
    def test_rejected_lines(self, capsys, argv, message):
        assert run(capsys, *argv) == \
            (2, "", f"{_USAGE}a11yfuse: error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["score", "-h"],
        ["fixtures", "--seed", "x", "--help"]])
    def test_help(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(_USAGE)
        for word in (*FULL_OPTIONS, *FIXTURE_KINDS,
                     *(f.value for f in DeficiencyFrame)):
            assert word in out

    def test_agrees_with_argparse(self, tmp_path, monkeypatch):
        """main returns 0, 1 or 2 on any line. Where argparse and the
        reader both read a line, they read the same fields. Where only one
        does, the line takes a value that starts with `-` (the reader reads
        it) or holds a dash word that is no option written in full
        (argparse reads it)."""
        monkeypatch.chdir(tmp_path)  # fixtures lines write here
        agreed = []

        @settings(max_examples=300, deadline=None)
        @given(argv_lines())
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            try:
                args = _parse_args(argv)
            except ValueError:
                assert code == 2 and out.getvalue() == ""
                assert err.getvalue().startswith(_USAGE)
                assert err.getvalue()[len(_USAGE):].count("\n") == 1
                if reference_args(argv) is not None:
                    assert any(t.startswith("-") and t not in FULL_OPTIONS
                               for t in argv)
                return
            if args is None:
                assert (code, err.getvalue()) == (0, "")
                return
            assert code in (0, 1)
            reference = reference_args(argv)
            if reference is None:
                assert any(a in FULL_OPTIONS - {"--page", "--ascii"}
                           and b.startswith("-")
                           for a, b in zip(argv, argv[1:]))
            else:
                assert vars(args) == reference
                agreed.append(argv)

        check()
        assert len(agreed) >= 30  # the generator reaches lines both read


class TestOutputEncoding:
    """An output encoding that cannot hold a character gives one error:
    line and exit 1, not a traceback."""

    def cli(self, *argv):
        env = {**os.environ, "PYTHONIOENCODING": "ascii",
               "PYTHONPATH": str(Path(a11yfuse.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "a11yfuse.cli", *argv],
                              capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("url, argv, code", [
        ("https://x.test/", [], 1),                     # the arrow glyphs
        ("https://x.test/\u00e9", ["--ascii"], 1),
        ("https://x.test/\u00e9", ["--format", "json"], 0),
        ("https://x.test/", ["--ascii"], 0)])
    def test_one_error_line(self, tmp_path, url, argv, code):
        doc = json.loads(generate_fixture(7, "balanced"))
        report = write_json(tmp_path / "r.json", {**doc, "url": url})
        proc = self.cli("score", *argv, "--page", report)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
            return
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: cannot write output: 'ascii' codec "
                               "can't encode character")


# JSON values at the edges: too large for a float, not finite, lone
# surrogates, bools, empty and nested containers
ODD_VALUES = st.one_of(
    st.sampled_from([10 ** 400, -10 ** 400, float("nan"), float("inf"),
                     float("-inf"), "\ud800", "t\udc80", True, False, None,
                     0, -1, 1, 0.5, 2 ** 53 + 1, "", "A", "visual", "global",
                     "1.1.1", [], {}, ["visual", "global"], {"a": 1}]),
    st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3))
KEYS = st.sampled_from(["criterion", "n_ok", "n_err", "t_err", "name",
                        "delta", "url", "observations", "total_tests", "id",
                        "level", "frames", "criteria", "weights",
                        "thresholds", "a", "aaa", "x"])
ARGV = st.sampled_from([
    ("score", "--format", "json"), ("score", "--format", "table"),
    ("score", "--format", "tsv", "--ascii"),
    *[("explain", "--frame", f.value) for f in DeficiencyFrame]])


def _edit(data, doc) -> None:
    """Set, delete or add one key or item of a container somewhere in
    doc."""
    node = doc
    while True:
        inner = [c for c in (node.values() if isinstance(node, dict)
                             else node) if isinstance(c, (dict, list))]
        if not inner or data.draw(st.integers(0, 2)) == 0:
            break
        node = data.draw(st.sampled_from(inner))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = data.draw(st.sampled_from(("set", "delete", "add") if keys
                                       else ("add",)))
    value = copy.deepcopy(data.draw(ODD_VALUES))  # the constants stay intact
    if action == "add" and isinstance(node, list):
        node.append(value)
    elif action == "add":
        node[data.draw(KEYS)] = value
    elif action == "set":
        node[data.draw(st.sampled_from(keys))] = value
    else:
        del node[data.draw(st.sampled_from(keys))]


def _damage(data, text: bytes) -> bytes:
    """text as it is, truncated, or with bytes that are not UTF-8."""
    how = data.draw(st.sampled_from(("keep",) * 4 +
                                    ("truncate", "not-utf8")))
    if how == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if how == "not-utf8":
        i = data.draw(st.integers(0, len(text)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        return text[:i] + bad + text[i:]
    return text


# phrases of Python's own TypeError and AttributeError messages, which no
# error: line may relay
PYTHON_WORDING = ("not subscriptable", "indices must be integers",
                  "unhashable type", "has no attribute", "positional argument",
                  "not supported between instances")


class TestNoTraceback:
    """Whatever a report, catalog or weights file holds, the CLI exits 0
    or 1 with one printable `error:` or `warning:` line per fault, and a
    group that fails writes nothing on stdout."""

    def test_mutated_input(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("mutated")
        good = write_pages(directory, (7,))[0]
        sources = {
            "report": json.loads(Path(good[0]).read_text(encoding="utf-8")),
            "catalog": json.loads((Path(a11yfuse.__file__).parent / "data" /
                                   "wcag20_criteria.json").read_text(
                                       encoding="utf-8")),
            "weights": {"weights": {"a": 1.0, "aa": 0.8, "aaa": 0.6},
                        "thresholds": [0.6, 0.7, 0.8, 0.9]}}
        bad = directory / "bad.json"
        alone = {}  # argv: the output of the good page by itself

        def cli(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(list(argv))
            return code, out.getvalue(), err.getvalue()

        @settings(max_examples=120, deadline=None)
        @given(st.sampled_from(sorted(sources)), ARGV, st.data())
        def check(target, argv, data):
            doc = copy.deepcopy(sources[target])
            for _ in range(data.draw(st.integers(1, 3))):
                _edit(data, doc)
            bad.write_bytes(_damage(data, json.dumps(doc).encode()))
            if target == "report":  # the bad group, then the good page
                code, out, err = cli(*argv, "--page", str(bad), good[1],
                                     "--page", *good)
            else:
                code, out, err = cli(*argv, f"--{target}", str(bad),
                                     "--page", *good)
            assert code in (0, 1)
            lines = err.split("\n")
            assert lines.pop() == ""
            for line in lines:
                assert line.isprintable()
                assert line.startswith(("error: ", "warning: "))
                assert not any(words in line for words in PYTHON_WORDING)
            failed = [line for line in lines if line.startswith("error: ")
                      and not line.startswith("error: total conflict: ")]
            if target != "report":
                assert not failed or out == ""
            elif any(line.startswith(f"error: {bad}: ") for line in failed):
                if argv not in alone:
                    alone[argv] = cli(*argv, "--page", *good)[1]
                assert out == alone[argv]

        check()
