"""Self-test of the benchmark's reference check and span arithmetic.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracing  # noqa: E402

SRC = HERE.parent / "src"
CATALOG = ref.load_catalog(SRC / "a11yfuse" / "data" / "wcag20_criteria.json")


def _report(name, counts):
    obs = [{"criterion": cid, **dict(zip(ref.COUNT_KEYS, c))}
           for cid, c in counts.items()]
    return {"assessor": {"name": name, "beta_err": 1.0, "beta_likely": 0.5,
                         "beta_potential": 1.0, "delta": 0.9},
            "url": "https://example.test/page-x", "observations": obs,
            "total_tests": sum(c[0] + c[1] + c[2] + c[3]
                               for c in counts.values())}


# counts: n_err, n_ok, n_likely, n_potential, t_err, t_likely, t_potential
DOCS = [_report("first", {"1.1.1": (2, 7, 0, 1, 4, 1, 3),
                          "1.2.2": (0, 5, 0, 2, 2, 0, 4),
                          "2.1.1": (3, 2, 0, 0, 5, 0, 2),
                          "3.1.1": (1, 6, 0, 3, 2, 1, 5)}),
        _report("second", {"1.1.1": (1, 8, 2, 3, 3, 4, 5),
                           "1.4.3": (0, 9, 1, 5, 1, 2, 5),
                           "2.4.4": (2, 3, 1, 5, 3, 1, 5)})]
PAGE = ref.score_page(0, DOCS, CATALOG)


def _level(d):
    return next(name for low, name, _ in ref.LEVELS if d >= low)


def _json_line(page, shift=0.0, glyph=None):
    """A `score --format json` line built from the reference."""
    frames = {}
    for f in ref.FRAMES:
        r = page.frames[f]
        mass = {k: r.fused[s] for k, s in (("ac", ref.AC), ("nac", ref.NAC),
                                           ("omega", ref.OMEGA),
                                           ("empty", ref.EMPTY))}
        level = _level(r.decision)
        frames[f] = {
            "decision": round(r.decision, 3) + shift, "level": level,
            "glyph": glyph or ref.GLYPH[level], "mass": mass,
            "per_source": {s.name: {"ac": s.discounted[ref.AC],
                                    "nac": s.discounted[ref.NAC],
                                    "omega": s.discounted[ref.OMEGA],
                                    "empty": 0.0} for s in r.sources}}
    return json.dumps({"url": page.url, "frames": frames}) + "\n"


def _table(page, shift=0.0, glyph=None):
    cells = [f"{round(page.frames[f].decision, 3) + shift:.3f} "
             f"{glyph or ref.GLYPH[_level(page.frames[f].decision)]}"
             for f in ref.FRAMES]
    return ("URL  " + "  ".join(ref.LABELS) + "\n"
            + page.url + "  " + "  ".join(cells) + "\n")


class ReferenceCheck(unittest.TestCase):
    def test_accepts_reference_output(self):
        self.assertEqual(ref.check_json(_json_line(PAGE), [PAGE]), (1, []))
        self.assertEqual(ref.check_table(_table(PAGE), [PAGE]), (1, []))

    def test_rejects_decision_off_by_a_thousandth(self):
        for shift in (0.001, -0.001):
            ok, errs = ref.check_json(_json_line(PAGE, shift), [PAGE])
            self.assertEqual(ok, 0)
            self.assertTrue(any("decision" in e for e in errs), errs)
            ok, errs = ref.check_table(_table(PAGE, shift), [PAGE])
            self.assertEqual(ok, 0)

    def test_rejects_wrong_glyph(self):
        ok, errs = ref.check_json(_json_line(PAGE, glyph="?"), [PAGE])
        self.assertEqual(ok, 0)
        self.assertTrue(any("glyph" in e for e in errs), errs)
        ok, _ = ref.check_table(_table(PAGE, glyph="↑"), [PAGE])
        self.assertEqual(ok, 0)

    def test_rejects_corpus_faults(self):
        bad = json.loads(json.dumps(DOCS[0]))
        bad["observations"][0]["n_err"] = 9          # more than t_err
        self.assertTrue(ref.check_report(bad, CATALOG))
        bad = json.loads(json.dumps(DOCS[0]))
        bad["total_tests"] += 1
        self.assertTrue(ref.check_report(bad, CATALOG))
        self.assertEqual(ref.check_report(DOCS[0], CATALOG), [])


@unittest.skipUnless((SRC / "a11yfuse").is_dir(), "program source absent")
class AgainstProgram(unittest.TestCase):
    """The program's own output passes the reference check, also with the
    tracing wrappers installed."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        from a11yfuse import belief, cli, engine, reports, wcag
        cls.cli, cls.modules = cli, (wcag, reports, engine, belief, cli)

    def _run(self, args):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, doc in enumerate(DOCS):
                paths.append(Path(tmp) / f"r{i}.json")
                paths[-1].write_text(json.dumps(doc), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main([*args, "--page", *map(str, paths)])
        self.assertEqual(code, 0)
        return out.getvalue()

    def test_program_output_passes(self):
        self.assertEqual(ref.check_json(
            self._run(["score", "--format", "json"]), [PAGE]), (1, []))
        self.assertEqual(ref.check_table(self._run(["score"]), [PAGE]),
                         (1, []))
        for frame in ref.FRAMES:
            self.assertEqual(ref.check_explain(
                self._run(["explain", "--frame", frame]), [PAGE], frame),
                (1, 1, []))

    def test_wrappers_record_and_restore(self):
        original = self.cli.engine.score_page
        rec = tracing.Recorder()
        with tracing.installed(rec, self.modules):
            self.assertIsNot(self.cli.engine.score_page, original)
            self._run(["score", "--format", "json"])
        self.assertIs(self.cli.engine.score_page, original)
        self.assertEqual(len(tracing.durations_ns(rec, "engine.score_page")),
                         1)
        self.assertEqual(
            len(tracing.durations_ns(rec, "wcag.criteria_in_frame")), 10)
        self.assertEqual(tracing.durations_ns(rec, "reports.generate_fixture"),
                         [])


class SelfTime(unittest.TestCase):
    def test_nested_trace(self):
        rec = tracing.Recorder()
        main = rec.add("cli.main", 0, 100)
        parse = rec.add("reports.parse_report", 10, 30, main)
        rec.add("reports.total_tests", 12, 18, parse)
        score = rec.add("engine.score_page", 40, 90, main)
        rec.add("wcag.criteria_in_frame", 45, 55, score)
        fuse = rec.add("belief.combine_all", 60, 80, score)
        rec.add("belief.combine_conjunctive", 65, 70, fuse)
        selfs = tracing.self_times(rec)
        self.assertEqual(list(selfs), [30, 14, 6, 20, 10, 15, 5])
        self.assertEqual(tracing.layer_self_ns(rec, selfs, "belief"), 20)
        self.assertEqual(tracing.layer_self_ns(
            rec, selfs, "reports", "reports.parse_report"), 20)
        self.assertEqual(tracing.layer_self_ns(
            rec, selfs, "engine", "engine.score_page"), 20)
        self.assertEqual(tracing.layer_self_ns(
            rec, selfs, "wcag", "reports.parse_report"), 0)
        self.assertEqual(tracing.count_under(
            rec, "belief.combine_conjunctive", "engine.score_page"), 1)

    def test_overlapping_children_count_once(self):
        rec = tracing.Recorder()
        root = rec.add("a.f", 0, 100)
        rec.add("b.g", 10, 50, root)
        rec.add("b.h", 30, 60, root)
        rec.add("b.k", 95, 120, root)     # runs past its parent's end
        self.assertEqual(list(tracing.self_times(rec)), [45, 40, 30, 25])


if __name__ == "__main__":
    unittest.main()
