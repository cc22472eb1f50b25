"""Command-line front end: score pages, trace intermediate values, and
generate synthetic fixture reports."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from . import engine
from .engine import FrameDecision
from .errors import IndicatorError
from .reports import (FIXTURE_KINDS, AssessorReport, generate_fixture,
                      parse_report)
from .wcag import FRAMES, GLOBAL, load_config, resolve_frame

Row = Tuple[str, Dict[object, FrameDecision]]


def _read_pages(page_groups: List[List[str]],
                catalog: Mapping) -> List[List[AssessorReport]]:
    return [[parse_report(Path(p).read_bytes(), catalog) for p in group]
            for group in page_groups]


def _frame_key(frame) -> str:
    return frame.value if frame != GLOBAL else GLOBAL


_HEADER = ("URL", *(_frame_key(f).capitalize() for f in FRAMES))


def _glyph(d: FrameDecision, ascii_mode: bool) -> Optional[str]:
    if d.level is None:
        return None
    return d.level.ascii_glyph if ascii_mode else d.level.glyph


def _cell(d: FrameDecision, ascii_mode: bool) -> str:
    if d.level is None:
        return "conflict"
    return f"{d.decision:.3f} {_glyph(d, ascii_mode)}"


def _render_table(rows: List[Row], ascii_mode: bool) -> str:
    table = [_HEADER]
    for url, decisions in rows:
        table.append([url] + [_cell(decisions[k], ascii_mode) for k in FRAMES])
    widths = [max(len(r[i]) for r in table) for i in range(len(_HEADER))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


def _render_tsv(rows: List[Row], ascii_mode: bool) -> str:
    lines = ["\t".join(_HEADER)]
    for url, decisions in rows:
        lines.append("\t".join(
            [url] + [_cell(decisions[k], ascii_mode) for k in FRAMES]))
    return "\n".join(lines) + "\n"


def _render_json(rows: List[Row], ascii_mode: bool) -> str:
    out = []
    for url, decisions in rows:
        frames = {}
        for key in FRAMES:
            d = decisions[key]
            frames[_frame_key(key)] = {
                "decision": None if d.level is None else round(d.decision, 3),
                "level": None if d.level is None else d.level.value,
                "glyph": _glyph(d, ascii_mode),
                "mass": d.fused._asdict(),
                "per_source": {name: m._asdict()
                               for name, m in d.per_source.items()},
            }
        out.append(json.dumps({"url": url, "frames": frames}))
    return "\n".join(out) + "\n"


def _render_explain(url: str, d: FrameDecision, ascii_mode: bool) -> str:
    lines = [f"page {url}  [frame: {_frame_key(d.frame)}]"]
    for s in d.sources:
        p, e, m, md = s.parts, s.parts.triple(), s.mass, s.discounted
        lines += [
            f"  assessor {s.name} (delta={s.delta})",
            f"    estimates: accessible {p.num_ac:.4f}/{p.den_ac:.0f} = "
            f"{e.e_ac:.4f}, not-accessible {p.num_nac:.4f}/{p.den_nac:.0f} = "
            f"{e.e_nac:.4f}, uncertain {p.num_omega:.4f}/{p.den_omega:.0f} = "
            f"{e.e_omega:.4f}",
            f"    masses:     ac={m.ac:.4f} nac={m.nac:.4f} "
            f"omega={m.omega:.4f}",
            f"    discounted: ac={md.ac:.4f} nac={md.nac:.4f} "
            f"omega={md.omega:.4f}"]
    f = d.fused
    lines.append(f"  fused: ac={f.ac:.4f} nac={f.nac:.4f} omega={f.omega:.4f} "
                 f"conflict={f.empty:.4f}")
    if d.level is None:
        lines.append("  decision: TOTAL CONFLICT - sources fully contradict "
                     "each other; no decision value")
    else:
        lines.append(f"  decision: {_cell(d, ascii_mode)} ({d.level.value})")
    return "\n".join(lines) + "\n"


def cmd_score(args) -> int:
    catalog, w = load_config(args.catalog, args.weights)
    rows = [(reports[0].url, engine.score_page(reports, catalog, w))
            for reports in _read_pages(args.page, catalog)]
    renderer = {"table": _render_table, "tsv": _render_tsv,
                "json": _render_json}[args.format]
    sys.stdout.write(renderer(rows, args.ascii))
    conflicts = [f"{url} {_frame_key(k)}" for url, decisions in rows
                 for k in FRAMES if decisions[k].level is None]
    for where in conflicts:
        print(f"error: total conflict: {where}", file=sys.stderr)
    return 1 if conflicts else 0


def cmd_explain(args) -> int:
    catalog, w = load_config(args.catalog, args.weights)
    frame = resolve_frame(args.frame)
    for reports in _read_pages(args.page, catalog):
        d = engine.score_frame(reports, frame, catalog, w)
        sys.stdout.write(_render_explain(reports[0].url, d, args.ascii))
    return 0


def cmd_fixtures(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            text = generate_fixture(args.seed + i, args.kind)
            (out_dir / f"report-{args.kind}-{args.seed + i}.json").write_text(
                text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write fixtures: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a11yfuse",
        description="Fuse automatic accessibility-assessor reports into "
                    "per-deficiency-frame indicators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--catalog", metavar="PATH",
                       help="criterion catalog JSON (default: packaged "
                            "WCAG 2.0 catalog)")
        p.add_argument("--weights", metavar="PATH",
                       help="weight/threshold overrides JSON")
        p.add_argument("--ascii", action="store_true",
                       help="render levels as ASCII glyphs")
        p.add_argument("--page", metavar="REPORT", nargs="+",
                       action="append", required=True,
                       help="report files for one page; repeat per page")

    p_score = sub.add_parser("score", help="score pages from report files")
    add_common(p_score)
    p_score.add_argument("--format", choices=("table", "json", "tsv"),
                         default="table")
    p_score.set_defaults(func=cmd_score)

    p_explain = sub.add_parser(
        "explain", help="trace estimates, masses and fusion for one frame")
    add_common(p_explain)
    p_explain.add_argument("--frame", required=True,
                           help="|".join(map(_frame_key, FRAMES)))
    p_explain.set_defaults(func=cmd_explain)

    p_fix = sub.add_parser("fixtures", help="generate synthetic reports")
    p_fix.add_argument("--seed", type=int, required=True)
    p_fix.add_argument("--kind", choices=FIXTURE_KINDS, default="balanced")
    p_fix.add_argument("--count", type=int, default=1)
    p_fix.add_argument("--out", required=True, metavar="DIR")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IndicatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
