"""Command-line front end: score pages, trace intermediate values, and
generate synthetic fixture reports.

A `score` or `explain` line written in full (exact option names, each
value its own token that does not start with `-`) is read by
`_plain_args` in one pass, without importing argparse. Every other line
(`fixtures`, help, an abbreviated option, `--opt=value`, a value that
starts with `-`, `--`, or a mistake) goes to `build_parser`, so help
text and usage errors are argparse's own, with exit 2."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from . import engine
from .engine import FrameDecision
from .errors import IndicatorError
from .reports import (FIXTURE_KINDS, AssessorReport, generate_fixture,
                      parse_report)
from .wcag import (FRAMES, Catalog, DeficiencyFrame, WeightConfig,
                   _file_bytes, load_config, resolve_frame)

Decisions = Dict[DeficiencyFrame, FrameDecision]
_FORMATS = ("table", "json", "tsv")  # score --format; the first is the default
_HEADER = ("URL", *(f.value.capitalize() for f in FRAMES))


def _glyph(d: FrameDecision, ascii_mode: bool) -> Optional[str]:
    if d.level is None:
        return None
    return d.level.ascii_glyph if ascii_mode else d.level.glyph


def _cell(d: FrameDecision, ascii_mode: bool) -> str:
    if d.level is None:
        return "conflict"
    return f"{d.decision:.3f} {_glyph(d, ascii_mode)}"


def _escape(c: str) -> str:
    n = ord(c)
    if n < 0x100:
        return f"\\x{n:02x}"
    return f"\\u{n:04x}" if n < 0x10000 else f"\\U{n:08x}"


def _message(exc) -> str:
    """An error's text for one stderr line: unchanged if printable, else
    with each non-printable character written as a \\xNN, \\uNNNN or
    \\UNNNNNNNN escape, so that no tab, newline or terminal control
    reaches the line. Backslashes are kept: messages quote values through
    repr(), whose escapes hold them."""
    text = str(exc)
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else _escape(c) for c in text)


def _shown(text: str) -> str:
    """Report text as text output writes it: as _message writes it, with
    each backslash doubled first, so that an escape cannot be mistaken
    for report text."""
    return _message(text.replace("\\", "\\\\"))


def _text_row(url: str, decisions: Decisions, ascii_mode: bool) -> tuple:
    return (_shown(url), *(_cell(decisions[k], ascii_mode) for k in FRAMES))


def _render_table(table: List[tuple]) -> str:
    """The header and the text rows, each column padded to its widest
    cell."""
    table = [_HEADER, *table]
    widths = [max(len(r[i]) for r in table) for i in range(len(_HEADER))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


def _render_json(url: str, decisions: Decisions, ascii_mode: bool) -> str:
    frames = {}
    for key in FRAMES:
        d = decisions[key]
        frames[key.value] = {
            "decision": None if d.level is None else round(d.decision, 3),
            "level": None if d.level is None else d.level.value,
            "glyph": _glyph(d, ascii_mode),
            "mass": d.fused._asdict(),
            "per_source": {s.name: s.discounted._asdict() for s in d.sources},
        }
    return json.dumps({"url": url, "frames": frames}) + "\n"


def _render_explain(url: str, d: FrameDecision, ascii_mode: bool) -> str:
    lines = [f"page {_shown(url)}  [frame: {d.frame.value}]"]
    for s in d.sources:
        p, m, md = s.parts, s.mass, s.discounted
        e_ac, e_nac, e_omega = p.triple()
        lines += [
            f"  assessor {_shown(s.name)} (delta={s.delta})",
            f"    estimates: accessible {p.num_ac:.4f}/{p.den_ac:.0f} = "
            f"{e_ac:.4f}, not-accessible {p.num_nac:.4f}/{p.den_nac:.0f} = "
            f"{e_nac:.4f}, uncertain {p.num_omega:.4f}/{p.den_omega:.0f} = "
            f"{e_omega:.4f}",
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


def _path_error(path: str, exc) -> None:
    """Write `error: <path>: <message>` to stderr; an OSError's message is
    its strerror, because its own text repeats the path."""
    message = _message(getattr(exc, "strerror", None) or exc)
    print(f"error: {_shown(path)}: {message}", file=sys.stderr)


def _read_report(path: str, catalog: Catalog) -> AssessorReport:
    report = parse_report(_file_bytes(path))
    for cid in report.observations:  # not a set: keep document order
        if cid not in catalog:
            print(f"warning: {_shown(path)}: skipping unknown criterion "
                  f"{_shown(cid)}", file=sys.stderr)
    return report


def _each_page(groups: List[List[str]], catalog: Catalog, w: WeightConfig,
               frames: tuple, emit: Callable) -> bool:
    """Read, parse and score one --page group at a time in `frames`, and
    pass its URL and decisions to emit before the next group is read, so
    memory holds one page. A group that fails writes
    `error: <path>: <message>`, naming the failing report or, for an error
    while scoring, the group's first one; it emits nothing and the other
    groups go on. Returns whether every group scored."""
    ok = True
    for group in groups:
        try:
            reports = []
            for path in group:  # names the failing report in the error
                reports.append(_read_report(path, catalog))
            path = group[0]
            decisions = engine.score_page(reports, catalog, w, frames)
        except (IndicatorError, OSError) as exc:
            _path_error(path, exc)
            ok = False
            continue
        emit(reports[0].url, decisions)
    return ok


def cmd_score(args) -> int:
    catalog, w = load_config(args.catalog, args.weights)
    table, conflicts = [], []
    tsv_header = "\t".join(_HEADER) + "\n"

    def emit(url: str, decisions: Decisions) -> None:
        nonlocal tsv_header
        if args.format == "json":
            sys.stdout.write(_render_json(url, decisions, args.ascii))
        elif args.format == "table":  # the column widths need every row
            table.append(_text_row(url, decisions, args.ascii))
        else:
            sys.stdout.write(tsv_header + "\t".join(
                _text_row(url, decisions, args.ascii)) + "\n")
            tsv_header = ""
        conflicts.extend(f"{_shown(url)} {k.value}" for k in FRAMES
                         if decisions[k].level is None)

    ok = _each_page(args.page, catalog, w, FRAMES, emit)
    if table:
        sys.stdout.write(_render_table(table))
    for where in conflicts:
        print(f"error: total conflict: {where}", file=sys.stderr)
    return 0 if ok and not conflicts else 1


def cmd_explain(args) -> int:
    catalog, w = load_config(args.catalog, args.weights)
    frame = resolve_frame(args.frame)
    ok = _each_page(args.page, catalog, w, (frame,), lambda url, decisions:
                    sys.stdout.write(_render_explain(url, decisions[frame],
                                                     args.ascii)))
    return 0 if ok else 1


def cmd_fixtures(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            text = generate_fixture(args.seed + i, args.kind)
            (out_dir / f"report-{args.kind}-{args.seed + i}.json").write_text(
                text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write fixtures: {_message(exc)}",
              file=sys.stderr)
        return 1
    return 0


def non_negative_int(text: str) -> int:
    import argparse  # kept off the start-up path: see build_parser
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def build_parser():
    """The argparse parser for every command. argparse is imported here,
    not at the top, so that a line `_plain_args` reads never loads it."""
    import argparse
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
    p_score.add_argument("--format", choices=_FORMATS, default=_FORMATS[0])
    p_score.set_defaults(func=cmd_score)

    p_explain = sub.add_parser(
        "explain", help="trace estimates, masses and fusion for one frame")
    add_common(p_explain)
    p_explain.add_argument("--frame", required=True,
                           help="|".join(f.value for f in FRAMES))
    p_explain.set_defaults(func=cmd_explain)

    p_fix = sub.add_parser("fixtures", help="generate synthetic reports")
    p_fix.add_argument("--seed", type=int, required=True)
    p_fix.add_argument("--kind", choices=FIXTURE_KINDS,
                       default=FIXTURE_KINDS[0])
    p_fix.add_argument("--count", type=non_negative_int, default=1)
    p_fix.add_argument("--out", required=True, metavar="DIR")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def _plain_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The arguments of a `score` or `explain` line written in full, read
    in one pass, with the fields that build_parser().parse_args(argv)
    sets; or None for any other line, which argparse must read. Only the
    exact option names are known, and each value is the next token, which
    must not start with `-`. A --page group runs to the next token that
    does."""
    command = argv[0] if argv else None
    if command == "score":
        own, args = "--format", {"format": _FORMATS[0], "func": cmd_score}
    elif command == "explain":
        own, args = "--frame", {"frame": None, "func": cmd_explain}
    else:
        return None
    args.update(command=command, catalog=None, weights=None, ascii=False,
                page=[])
    i, n = 1, len(argv)
    while i < n:
        option = argv[i]
        if option == "--ascii":
            args["ascii"] = True
            i += 1
        elif option == "--page":
            end = i + 1
            while end < n and not argv[end].startswith("-"):
                end += 1
            if end == i + 1:
                return None
            args["page"].append(argv[i + 1:end])
            i = end
        elif (option in ("--catalog", "--weights", own) and i + 1 < n
              and not argv[i + 1].startswith("-")
              and (option != "--format" or argv[i + 1] in _FORMATS)):
            args[option[2:]] = argv[i + 1]
            i += 2
        else:
            return None
    # --page is required, and so is explain's --frame
    if not args["page"] or args.get("frame", "") is None:
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IndicatorError, OSError) as exc:
        if getattr(exc, "filename", None) is None:
            print(f"error: {_message(exc)}", file=sys.stderr)
        else:  # a --catalog or --weights file
            _path_error(exc.filename, exc)
        return 1
    except UnicodeEncodeError as exc:  # stdout's encoding lacks a character
        print(f"error: cannot write output: {_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
