import json

import pytest

from a11yfuse.cli import main
from a11yfuse.reports import generate_fixture


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
        with pytest.raises(SystemExit) as exc:
            main(["score", "--format", "xml", "--page", *fixture_pair])
        assert exc.value.code == 2

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


class TestConfigErrors:
    @pytest.mark.parametrize("doc", [
        {"weights": {"a": "high"}},
        [1, 2],
        {"weights": {"beta_err": 0.1}},
        {"weights": {"beta_likely": 0.1}},
        {"weights": {"beta_potential": 0.1}},
        {"weights": [1]},
        {"thresholds": [0.1, "x", 0.3, 0.4]},
        {"beta_err": 0.1},
        {"criteria": []},
        {"weights": {"a": 0.5, "aa": 0.9}},
        {"thresholds": [0.9, 0.8, 0.7, 0.6]},
    ])
    def test_bad_weights_file_exit_1(self, capsys, tmp_path, fixture_pair,
                                     doc):
        wpath = write_json(tmp_path / "w.json", doc)
        code, out, err = run(capsys, "score", "--weights", wpath,
                             "--page", *fixture_pair)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

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
        assert err == "error: assessor block: unknown key(s) 'beta_error'\n"

    def test_non_utf8_report_exit_1(self, capsys, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + '{"url": "u"}'.encode("utf-16-le"))
        code, _, err = run(capsys, "score", "--page", str(p))
        assert code == 1
        assert err.startswith("error: report is not valid UTF-8 JSON")

    def test_non_utf8_weights_file_exit_1(self, capsys, tmp_path,
                                          fixture_pair):
        p = tmp_path / "w.json"
        p.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "score", "--weights", str(p),
                           "--page", *fixture_pair)
        assert code == 1
        assert err.startswith("error: weights file is not valid UTF-8 JSON")


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

    def test_unknown_frame_exit_1(self, capsys, fixture_pair):
        code, _, err = run(capsys, "explain", "--frame", "auditory",
                           "--page", *fixture_pair)
        assert code == 1
        assert "unknown frame" in err

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
        code = main(["fixtures", "--seed", "1", "--kind", "balanced",
                     "--count", "1", "--out", str(blocker)])
        assert code == 1
