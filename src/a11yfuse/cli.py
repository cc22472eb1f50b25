"""Command-line front end: score pages, trace intermediate values, and
generate synthetic fixture reports.

`_parse_args` reads every command line in one pass. A line it cannot read
is a usage error: `main` writes the usage synopsis and one `error:` line to
stderr and returns 2. `score` and `explain` are each one loop over
`_scored_pages`, which scores one --page group at a time."""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from types import SimpleNamespace

from . import engine
from .engine import FrameDecision
from .errors import IndicatorError
from .reports import FIXTURE_KINDS, generate_fixture, parse_report
from .wcag import (FRAMES, Catalog, DeficiencyFrame, WeightConfig,
                   _file_bytes, load_config, resolve_frame)

Decisions = dict[DeficiencyFrame, FrameDecision]
_FORMATS = ("table", "json", "tsv")  # score --format; the first is the default
_HEADER = ("URL", *(f.value.capitalize() for f in FRAMES))


def _glyph(d: FrameDecision, ascii_mode: bool) -> str | None:
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


def _render_table(table: list[tuple]) -> str:
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


def _scored_pages(groups: list[list[str]], catalog: Catalog, w: WeightConfig,
                  frames: tuple) -> Iterator[tuple[str, Decisions]]:
    """Yield the URL and decisions in `frames` of each --page group that
    scores, one group at a time: a group is read, parsed and scored only
    once the caller has written the page before it, so memory holds one
    page. A group that fails writes `error: <path>: <message>`, naming the
    failing report or, for an error while scoring, the group's first one;
    it yields nothing and the other groups go on, so a command exits 1
    when it gets fewer pages than groups."""
    for group in groups:
        try:
            reports = []
            for path in group:  # names the failing report in the error
                reports.append(parse_report(_file_bytes(path)))
                for cid in reports[-1].observations:  # document order
                    if cid not in catalog:
                        print(f"warning: {_shown(path)}: skipping unknown "
                              f"criterion {_shown(cid)}", file=sys.stderr)
            path = group[0]
            decisions = engine.score_page(reports, catalog, w, frames)
        except (IndicatorError, OSError) as exc:
            _path_error(path, exc)
            continue
        yield reports[0].url, decisions


def cmd_score(args) -> int:
    catalog, w = load_config(args.catalog, args.weights)
    table, conflicts, scored = [], [], 0
    tsv_header = "\t".join(_HEADER) + "\n"
    for url, decisions in _scored_pages(args.page, catalog, w, FRAMES):
        scored += 1
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
    if table:
        sys.stdout.write(_render_table(table))
    for where in conflicts:
        print(f"error: total conflict: {where}", file=sys.stderr)
    return 0 if scored == len(args.page) and not conflicts else 1


def cmd_explain(args) -> int:
    catalog, w = load_config(args.catalog, args.weights)
    frame = resolve_frame(args.frame)
    scored = 0
    for url, decisions in _scored_pages(args.page, catalog, w, (frame,)):
        scored += 1
        sys.stdout.write(_render_explain(url, decisions[frame], args.ascii))
    return 0 if scored == len(args.page) else 1


def cmd_fixtures(args) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
        for i in range(args.count):
            name = f"report-{args.kind}-{args.seed + i}.json"
            with open(os.path.join(args.out, name), "w",
                      encoding="utf-8") as f:
                f.write(generate_fixture(args.seed + i, args.kind))
    except OSError as exc:
        print(f"error: cannot write fixtures: {_message(exc)}",
              file=sys.stderr)
        return 1
    return 0


_USAGE = """\
usage: a11yfuse {score [--format FORMAT] | explain --frame FRAME}
                --page REPORT... [--page REPORT...]...
                [--catalog PATH] [--weights PATH] [--ascii]
       a11yfuse fixtures --seed N --out DIR [--kind KIND] [--count N]
"""
_HELP = f"""
score scores pages from assessor reports; explain traces one frame's
estimates, masses and fusion; fixtures writes synthetic reports.
  --page REPORT...  report files for one page; repeat per page
  --format FORMAT   {", ".join(_FORMATS)}; default {_FORMATS[0]}
  --frame FRAME     {", ".join(f.value for f in FRAMES)}
  --catalog PATH    criterion catalog JSON; default the packaged WCAG 2.0 one
  --weights PATH    weight and threshold overrides JSON
  --ascii           write levels as ASCII glyphs
  --seed N          the first seed
  --out DIR         the directory for report-KIND-SEED.json files
  --kind KIND       {", ".join(FIXTURE_KINDS)}; default {FIXTURE_KINDS[0]}
  --count N         how many seeds from --seed on, 0 or more; default 1
  -h, --help        write this help
"""
_REQUIRED = object()  # the default of an option that a line must give


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a command line, with `func` the command's function,
    or None if it holds -h or --help. One pass reads it: options are written
    in full, each value is the next argument, and a --page group runs to the
    next argument that starts with `-`. Any other line raises ValueError."""
    if "-h" in argv or "--help" in argv:
        return None
    common = {"--page": _REQUIRED, "--catalog": None, "--weights": None,
              "--ascii": False}
    commands = {  # built per call: a wrapper put over cmd_* is the one run
        "score": (cmd_score, {**common, "--format": _FORMATS[0]}),
        "explain": (cmd_explain, {**common, "--frame": _REQUIRED}),
        "fixtures": (cmd_fixtures, {"--seed": _REQUIRED, "--out": _REQUIRED,
                                    "--kind": FIXTURE_KINDS[0], "--count": 1})}
    choices = {"--format": _FORMATS, "--kind": FIXTURE_KINDS}
    if not argv or argv[0] not in commands:
        raise ValueError("the command must be score, explain or fixtures")
    func, args = commands[argv[0]]
    pages, i, n = [], 1, len(argv)
    while i < n:
        option, i = argv[i], i + 1
        if option not in args:
            raise ValueError(f"unrecognized argument: {option!r}")
        try:
            if option == "--ascii":
                args[option] = True
            elif option == "--page":
                end = i
                while end < n and not argv[end].startswith("-"):
                    end += 1
                if end == i:
                    raise ValueError("expected at least one argument")
                pages.append(argv[i:end])
                args[option], i = pages, end
            elif i == n:
                raise ValueError("expected one argument")
            else:
                value, i = argv[i], i + 1
                if option in ("--seed", "--count"):
                    value = int(value)
                if option == "--count" and value < 0:
                    raise ValueError(f"must be 0 or more, got {value}")
                if option in choices and value not in choices[option]:
                    raise ValueError(f"invalid choice: {value!r} (choose "
                                     f"from {', '.join(choices[option])})")
                args[option] = value
        except ValueError as exc:
            raise ValueError(f"argument {option}: {exc}") from None
    missing = ", ".join(o for o, v in args.items() if v is _REQUIRED)
    if missing:
        raise ValueError(f"the following arguments are required: {missing}")
    return SimpleNamespace(func=func, **{o[2:]: v for o, v in args.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except ValueError as exc:  # a line _parse_args cannot read
        sys.stderr.write(f"{_USAGE}a11yfuse: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(_USAGE + _HELP)
        return 0
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
