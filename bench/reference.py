"""Independent reference for the benchmark's output checks.

Nothing here imports ``a11yfuse``. The catalog is read from the packaged
JSON file, the constants are the documented ones (alpha = 1, 0.8, 0.6 for
levels A, AA, AAA; beta and delta from each report; thresholds 0.6, 0.7,
0.8, 0.9) and the fusion enumerates focal-set intersections by brute force.
Every check returns a list of problems; an empty list means the output
agrees with the reference.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

FRAMES = ("visual", "hearing", "motor", "cognitive", "global")
LABELS = ("Visual", "Hearing", "Motor", "Cognitive", "Global")
ALPHA = {"A": 1.0, "AA": 0.8, "AAA": 0.6}
THRESHOLDS = (0.6, 0.7, 0.8, 0.9)
# Best level first: (lower bound, name, glyph).
LEVELS = ((THRESHOLDS[3], "very good", "↑"), (THRESHOLDS[2], "good", "↗"),
          (THRESHOLDS[1], "moderate", "→"), (THRESHOLDS[0], "bad", "↘"),
          (float("-inf"), "very bad", "↓"))
GLYPH = {name: glyph for _, name, glyph in LEVELS}
COUNT_KEYS = ("n_err", "n_ok", "n_likely", "n_potential",
              "t_err", "t_likely", "t_potential")
KINDS = ("error-heavy", "potential-heavy")

MASS_TOL = 1e-9          # full-precision JSON masses
DECISION_TOL = 5e-4 + 1e-9   # a decision printed with 3 decimals
TRACE_TOL = 5e-5 + 1e-9      # explain values printed with 4 decimals

AC, NAC = frozenset({"ac"}), frozenset({"nac"})
OMEGA, EMPTY = AC | NAC, frozenset()
FOCAL = (EMPTY, AC, NAC, OMEGA)


def load_catalog(path: Path) -> Dict[str, Tuple[float, frozenset]]:
    """criterion id -> (alpha, frame names), from the catalog JSON array."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {e["id"]: (ALPHA[e["level"]], frozenset(e["frames"])) for e in doc}


def fixture_path(corpus: Path, kind: str, seed: int) -> Path:
    return corpus / f"report-{kind}-{seed}.json"


def levels_near(d: float, tol: float) -> set:
    """Level names of every value within tol of d."""
    def level(x):
        return next(name for low, name, _ in LEVELS if x >= low)
    return {level(d - tol), level(d), level(d + tol)}


@dataclass(frozen=True)
class SourceRef:
    name: str
    delta: float
    num: Tuple[float, float, float]   # accessible, not accessible, uncertain
    den: Tuple[int, int, int]
    estimates: Tuple[float, float, float]
    mass: Dict[frozenset, float]
    discounted: Dict[frozenset, float]


@dataclass(frozen=True)
class FrameRef:
    sources: Tuple[SourceRef, ...]
    fused: Dict[frozenset, float]
    decision: Optional[float]   # None under total conflict
    # A source commits all its mass to "accessible": the pignistic value is
    # exactly 1 in exact arithmetic, the case the program is known to fail.
    committed: bool


@dataclass(frozen=True)
class PageRef:
    seed: int
    url: str
    frames: Dict[str, FrameRef]


def _combine(a: Dict[frozenset, float], b: Dict[frozenset, float]):
    out = dict.fromkeys(FOCAL, 0.0)
    for x, y in product(FOCAL, FOCAL):
        out[x & y] += a[x] * b[y]
    return out


def _source(doc: dict, catalog, frame: str) -> SourceRef:
    prof = doc["assessor"]
    obs = [o for o in doc["observations"] if o["criterion"] in catalog]
    total = sum(o["n_err"] + o["n_ok"] + o["n_likely"] + o["n_potential"]
                for o in obs)
    n_ac = n_nac = n_om = 0.0
    d_nac = d_om = 0
    for o in obs:
        alpha, frames = catalog[o["criterion"]]
        if frame != "global" and frame not in frames:
            continue
        n_ac += o["n_ok"] * alpha
        n_nac += o["n_err"] * alpha * prof["beta_err"]
        d_nac += o["t_err"]
        n_om += (o["n_likely"] * alpha * prof["beta_likely"]
                 + o["n_potential"] * alpha * prof["beta_potential"])
        d_om += o["t_likely"] + o["t_potential"]
    est = tuple(n / d if d else 0.0
                for n, d in ((n_ac, total), (n_nac, d_nac), (n_om, d_om)))
    s = sum(est)
    ac, nac, om = (e / s for e in est) if s > 0 else (0.0, 0.0, 1.0)
    delta = prof["delta"]
    return SourceRef(
        name=prof["name"], delta=delta, num=(n_ac, n_nac, n_om),
        den=(total, d_nac, d_om), estimates=est,
        mass={EMPTY: 0.0, AC: ac, NAC: nac, OMEGA: om},
        discounted={EMPTY: 0.0, AC: delta * ac, NAC: delta * nac,
                    OMEGA: 1.0 - delta * (1.0 - om)})


def score_frame(docs: Sequence[dict], catalog, frame: str) -> FrameRef:
    sources = tuple(_source(d, catalog, frame) for d in docs)
    fused = sources[0].discounted
    for s in sources[1:]:
        fused = _combine(fused, s.discounted)
    decision = None
    if fused[EMPTY] < 1.0 - 1e-12:
        # pignistic: each focal set's mass split evenly over its elements
        bet = sum(m / len(x) for x, m in fused.items() if x and "ac" in x)
        decision = bet / (1.0 - fused[EMPTY])
    committed = any(s.discounted[AC] > 0 and s.discounted[NAC] == 0
                    and s.discounted[OMEGA] == 0 for s in sources)
    return FrameRef(sources, fused, decision, committed)


def score_page(seed: int, docs: Sequence[dict], catalog) -> PageRef:
    return PageRef(seed, docs[0]["url"],
                   {f: score_frame(docs, catalog, f) for f in FRAMES})


def load_pages(corpus: Path, seeds, catalog) -> Dict[int, PageRef]:
    pages = {}
    for seed in seeds:
        docs = [json.loads(fixture_path(corpus, k, seed).read_text("utf-8"))
                for k in KINDS]
        pages[seed] = score_page(seed, docs, catalog)
    return pages


# ---------------------------------------------------------------- corpus


def check_report(doc, catalog) -> List[str]:
    """Schema of one canonical report, with n <= t for every count."""
    errs = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    prof, url = doc.get("assessor"), doc.get("url")
    obs = doc.get("observations")
    if not isinstance(prof, dict) or not isinstance(prof.get("name"), str) \
            or not prof["name"]:
        errs.append("assessor block lacks a name")
    else:
        for key in ("beta_err", "beta_likely", "beta_potential", "delta"):
            v = prof.get(key)
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                errs.append(f"assessor {key}={v!r} outside [0, 1]")
    if not isinstance(url, str) or not url:
        errs.append("url is not a non-empty string")
    if not isinstance(obs, list):
        return errs + ["observations is not an array"]
    seen = set()
    for o in obs:
        cid = o.get("criterion") if isinstance(o, dict) else None
        if cid not in catalog or cid in seen:
            errs.append(f"unknown or repeated criterion {cid!r}")
            continue
        seen.add(cid)
        for key in COUNT_KEYS:
            v = o.get(key)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                errs.append(f"{cid}: {key}={v!r} is not a count")
                break
        else:
            for n, t in (("n_err", "t_err"), ("n_likely", "t_likely"),
                         ("n_potential", "t_potential")):
                if o[n] > o[t]:
                    errs.append(f"{cid}: {n}={o[n]} > {t}={o[t]}")
    if not errs:
        total = sum(o["n_err"] + o["n_ok"] + o["n_likely"] + o["n_potential"]
                    for o in obs)
        if doc.get("total_tests") != total:
            errs.append(f"total_tests={doc.get('total_tests')!r}, "
                        f"recomputed {total}")
    return errs


def check_corpus(corpus: Path, seeds, catalog) -> List[str]:
    """The properties generate_fixture documents, on every report."""
    errs = []
    for seed in seeds:
        docs = {}
        for kind in KINDS:
            path = fixture_path(corpus, kind, seed)
            try:
                docs[kind] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                errs.append(f"{path.name}: {exc}")
                continue
            errs += [f"{path.name}: {e}" for e in check_report(docs[kind],
                                                              catalog)]
        if len(docs) != len(KINDS) or errs:
            continue
        if len({d["url"] for d in docs.values()}) != 1:
            errs.append(f"seed {seed}: kinds disagree on the URL")
        if any(o["n_likely"] for o in docs["error-heavy"]["observations"]):
            errs.append(f"seed {seed}: error-heavy report has likely problems")
        if len({o["t_potential"]
                for o in docs["potential-heavy"]["observations"]}) > 1:
            errs.append(f"seed {seed}: potential-heavy t_potential varies")
    return errs


# ---------------------------------------------------------------- outputs


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_decision(where: str, decision: float, level: str, glyph: str,
                   ref: FrameRef, tol: float) -> List[str]:
    """A printed decision, level and glyph against the reference and the
    method's properties (decision in [0, 1], level within its band)."""
    errs = []
    if ref.decision is None:
        return [f"{where}: reference is total conflict, got {decision}"]
    if not _close(decision, ref.decision, tol):
        errs.append(f"{where}: decision {decision} != {ref.decision:.6f}")
    if not 0.0 <= decision <= 1.0:
        errs.append(f"{where}: decision {decision} outside [0, 1]")
    if level not in levels_near(ref.decision, MASS_TOL) \
            or level not in levels_near(decision, tol):
        errs.append(f"{where}: level {level!r} inconsistent with thresholds")
    if GLYPH.get(level) != glyph:
        errs.append(f"{where}: glyph {glyph!r} does not show {level!r}")
    return errs


def _check_mass(where: str, got: dict, want: Dict[frozenset, float],
                tol: float) -> List[str]:
    keys = (("ac", AC), ("nac", NAC), ("omega", OMEGA), ("empty", EMPTY))
    try:
        bad = [k for k, s in keys if not _close(got[k], want[s], tol)]
        total = sum(got[k] for k, _ in keys)
    except (KeyError, TypeError):
        return [f"{where}: malformed mass {got!r}"]
    errs = [f"{where}: mass {k}={got[k]} != {want[s]}"
            for k, s in keys if k in bad]
    if not _close(total, 1.0, 4 * tol):
        errs.append(f"{where}: mass sums to {total}")
    return errs


def check_json(text: str, pages: Sequence[PageRef]) -> Tuple[int, List[str]]:
    """`score --format json`: one document per page, in page order.
    Returns (pages verified, problems)."""
    lines = text.splitlines()
    if len(lines) != len(pages):
        return 0, [f"json: {len(lines)} lines for {len(pages)} pages"]
    errs = []
    for line, page in zip(lines, pages):
        try:
            doc = json.loads(line)
            url, frames = doc["url"], doc["frames"]
        except (ValueError, KeyError, TypeError) as exc:
            errs.append(f"page {page.seed}: bad json document: {exc}")
            continue
        if url != page.url or list(frames) != list(FRAMES):
            errs.append(f"page {page.seed}: url or frame keys differ")
            continue
        for frame in FRAMES:
            got, ref = frames[frame], page.frames[frame]
            where = f"page {page.seed} {frame}"
            try:
                errs += check_decision(where, got["decision"], got["level"],
                                       got["glyph"], ref, DECISION_TOL)
                errs += _check_mass(where, got["mass"], ref.fused, MASS_TOL)
                names = [s.name for s in ref.sources]
                if list(got["per_source"]) != names:
                    errs.append(f"{where}: sources {list(got['per_source'])}")
                    continue
                for src in ref.sources:
                    errs += _check_mass(f"{where} {src.name}",
                                        got["per_source"][src.name],
                                        src.discounted, MASS_TOL)
            except (KeyError, TypeError) as exc:
                errs.append(f"{where}: missing field {exc}")
    return (0 if errs else len(pages)), errs


def check_table(text: str, pages: Sequence[PageRef]) -> Tuple[int, List[str]]:
    """`score` default table: header, then one row of five cells per page."""
    lines = text.splitlines()
    if len(lines) != len(pages) + 1 or lines[0].split() != ["URL", *LABELS]:
        return 0, [f"table: unexpected header or {len(lines)} lines"]
    errs = []
    for line, page in zip(lines[1:], pages):
        cells = line.split()
        if len(cells) != 1 + 2 * len(FRAMES) or cells[0] != page.url:
            errs.append(f"page {page.seed}: bad table row {line!r}")
            continue
        for i, frame in enumerate(FRAMES):
            value, glyph = cells[1 + 2 * i], cells[2 + 2 * i]
            level = next((n for n, g in GLYPH.items() if g == glyph), "?")
            if not re.fullmatch(r"\d\.\d{3}", value):
                errs.append(f"page {page.seed} {frame}: cell {value!r}")
                continue
            errs += check_decision(f"page {page.seed} {frame}", float(value),
                                   level, glyph, page.frames[frame],
                                   DECISION_TOL)
    return (0 if errs else len(pages)), errs


_NUM = r"(-?\d+\.\d+)"
_EXPLAIN_SOURCE = re.compile(
    r"  assessor (\S+) \(delta=(\S+)\)\n"
    rf"    estimates: accessible {_NUM}/(\d+) = {_NUM}, "
    rf"not-accessible {_NUM}/(\d+) = {_NUM}, uncertain {_NUM}/(\d+) = {_NUM}\n"
    rf"    masses:     ac={_NUM} nac={_NUM} omega={_NUM}\n"
    rf"    discounted: ac={_NUM} nac={_NUM} omega={_NUM}\n")
_EXPLAIN_FUSED = re.compile(
    rf"  fused: ac={_NUM} nac={_NUM} omega={_NUM} conflict={_NUM}\n")
_EXPLAIN_DECISION = re.compile(r"  decision: (\d\.\d{3}) (\S) \(([a-z ]+)\)\n")
_EXPLAIN_CONFLICT = "  decision: TOTAL CONFLICT"


def _check_explain_block(block: str, page: PageRef,
                         frame: str) -> Tuple[bool, List[str]]:
    """One page of `explain`. Returns (complete, problems); an incomplete
    block is one the program stopped writing."""
    ref = page.frames[frame]
    where = f"page {page.seed} explain {frame}"
    head = f"page {page.url}  [frame: {frame}]\n"
    if not block.startswith(head):
        return False, [f"{where}: block starts {block[:60]!r}"]
    pos, errs = len(head), []
    for src in ref.sources:
        m = _EXPLAIN_SOURCE.match(block, pos)
        if not m:
            return False, errs
        pos = m.end()
        g = m.groups()
        if g[0] != src.name or float(g[1]) != src.delta:
            errs.append(f"{where}: assessor {g[0]} (delta={g[1]})")
        nums = [float(x) for x in g[2:]]
        want = []
        for i in range(3):
            want += [src.num[i], src.den[i], src.estimates[i]]
        want += [src.mass[s] for s in (AC, NAC, OMEGA)]
        want += [src.discounted[s] for s in (AC, NAC, OMEGA)]
        for k, (got, w) in enumerate(zip(nums, want)):
            exact_int = k in (1, 4, 7)
            if (got != w) if exact_int else not _close(got, w, TRACE_TOL):
                errs.append(f"{where} {src.name}: value #{k} {got} != {w}")
    m = _EXPLAIN_FUSED.match(block, pos)
    if not m:
        return False, errs
    pos = m.end()
    fused = dict(zip(("ac", "nac", "omega", "empty"),
                     (float(x) for x in m.groups())))
    errs += _check_mass(where, fused, ref.fused, TRACE_TOL)
    if block.startswith(_EXPLAIN_CONFLICT, pos):
        if ref.decision is not None:
            errs.append(f"{where}: total conflict reported, reference "
                        f"decides {ref.decision}")
        return True, errs
    m = _EXPLAIN_DECISION.match(block, pos)
    if not m:
        return False, errs
    if m.end() != len(block):
        errs.append(f"{where}: trailing text {block[m.end():]!r}")
    errs += check_decision(where, float(m.group(1)), m.group(3), m.group(2),
                           ref, DECISION_TOL)
    return True, errs


def check_explain(text: str, pages: Sequence[PageRef],
                  frame: str) -> Tuple[int, int, List[str]]:
    """`explain --frame`: one block per page, in page order. Returns
    (pages verified, index of the first page without a complete block,
    problems). Pages from that index on are the ones the program lost."""
    blocks = [b for b in re.split(r"(?m)^(?=page )", text) if b]
    if len(blocks) > len(pages):
        return 0, 0, [f"explain: {len(blocks)} blocks for {len(pages)} pages"]
    errs, done = [], 0
    for block, page in zip(blocks, pages):
        complete, block_errs = _check_explain_block(block, page, frame)
        errs += block_errs
        if not complete:
            break
        done += 1
    if done < len(blocks) - 1:
        errs.append(f"explain: incomplete block for page {pages[done].seed} "
                    f"followed by more output")
    return (0 if errs else done), done, errs
