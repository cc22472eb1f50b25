"""Benchmark of the a11yfuse command line on a fixed fixture corpus.

    python3 bench/run.py --workload batch-score --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is always this checkout's
`src/`. Set-up generates 1,000 two-assessor pages (fixture seeds 0-999, one
error-heavy and one potential-heavy report each) with `a11yfuse fixtures`,
three times, and checks the corpus. The workload then runs whole rounds of
CLI invocations, one child process at a time, for about --seconds, and
checks every page against the independent reference in reference.py.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 the workload runs in-process under
tracing wrappers instead and the object holds the per-layer metrics. See
README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import reference as ref
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
CATALOG_JSON = SRC / "a11yfuse" / "data" / "wcag20_criteria.json"

CORPUS_SEEDS = range(1000)
CHUNK = 50                # pages per batch invocation
PER_PAGE_SAMPLE = 100     # one-page processes per per-page-cli round
# Pages the program fails to score (OutOfRange in the hearing frame). They
# are in every per-page-cli round instead of being left to the seed's draw,
# so that every run fails the same share of its pages.
KNOWN_FAULT_SEEDS = (148, 359, 987)
SETUP_REPS = 3
MIN_LATENCY_SAMPLES = 100   # enough for a p90 with ten samples beyond it
CALIBRATION_REPS = 10
FAULT_MESSAGE = re.compile(r"error: decision value \S+ outside \[0, 1\]\n")
MODULES = ("wcag", "reports", "engine", "belief", "cli")


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the command and the corpus seeds of its pages."""

    command: str            # "score-json", "score-table" or "explain"
    seeds: Tuple[int, ...]
    frame: str = ""

    def argv(self, corpus: Path) -> List[str]:
        if self.command == "explain":
            args = ["explain", "--frame", self.frame]
        elif self.command == "score-json":
            args = ["score", "--format", "json"]
        else:
            args = ["score"]
        for seed in self.seeds:
            args += ["--page", *(str(ref.fixture_path(corpus, k, seed))
                                 for k in ref.KINDS)]
        return args


@dataclass(frozen=True)
class Result:
    wall: float       # seconds
    cpu: float        # seconds, user + system
    rss_kib: int
    code: int
    out: str
    err: str


def _chunks() -> List[Tuple[int, ...]]:
    return [tuple(range(i, i + CHUNK)) for i in range(0, len(CORPUS_SEEDS),
                                                       CHUNK)]


def ops_batch_score(rng: random.Random) -> List[Op]:
    """Every page once, in fixed chunks; the seed orders the chunks and the
    pages within each."""
    chunks = [list(c) for c in _chunks()]
    for c in chunks:
        rng.shuffle(c)
    rng.shuffle(chunks)
    return [Op("score-json", tuple(c)) for c in chunks]


def ops_per_page(rng: random.Random) -> List[Op]:
    """One page per process: a seeded draw plus the known-fault pages."""
    pool = [s for s in CORPUS_SEEDS if s not in KNOWN_FAULT_SEEDS]
    seeds = rng.sample(pool, PER_PAGE_SAMPLE - len(KNOWN_FAULT_SEEDS))
    seeds += KNOWN_FAULT_SEEDS
    rng.shuffle(seeds)
    return [Op("score-table", (s,)) for s in seeds]


def ops_batch_explain(rng: random.Random) -> List[Op]:
    """Every page in every frame once: the frame cycles from chunk to chunk
    and shifts by one on each of five passes. Page order within a chunk is
    fixed, because explain stops at a failing page; the seed orders the
    invocations."""
    n = len(ref.FRAMES)
    ops = [Op("explain", chunk, ref.FRAMES[(k + p) % n])
           for p in range(n) for k, chunk in enumerate(_chunks())]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"batch-score": ops_batch_score, "per-page-cli": ops_per_page,
             "batch-explain": ops_batch_explain}


class Children:
    """Runs `python -m a11yfuse.cli` children on this checkout's src/, one
    at a time, through spawner.py, with their wall time and resource
    usage."""

    def __init__(self, work: Path):
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "PYTHONIOENCODING": "utf-8"}
        self._out, self._err = work / "child-stdout", work / "child-stderr"
        self._spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    def close(self):
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def python(self, args: Sequence[str]) -> Result:
        request = {"argv": [sys.executable, *args], "out": str(self._out),
                   "err": str(self._err)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py ended unexpectedly")
        reply = json.loads(line)
        return Result(reply["wall"], reply["cpu"], reply["rss_kib"],
                      reply["code"],
                      self._out.read_text("utf-8", errors="replace"),
                      self._err.read_text("utf-8", errors="replace"))

    def cli(self, args: Sequence[str]) -> Result:
        return self.python(["-m", "a11yfuse.cli", *args])


def check_import(children: Children) -> None:
    want = (SRC / "a11yfuse" / "__init__.py").resolve()
    if not want.is_file():
        raise Refused(f"no a11yfuse package under {SRC}")
    r = children.python(["-c", "import a11yfuse, a11yfuse.cli; "
                               "print(a11yfuse.__file__)"])
    if r.code != 0 or Path(r.out.strip()).resolve() != want:
        raise Refused(f"import a11yfuse resolves to {r.out.strip()!r} "
                      f"(exit {r.code}), not {want}: {r.err.strip()}")


def set_up(work: Path, children: Children) -> Tuple[Path, List[float],
                                                     List[str]]:
    """Generate the corpus SETUP_REPS times; returns the first copy, the
    time of each and any byte difference between the copies."""
    times, dirs = [], []
    for rep in range(SETUP_REPS):
        out = work / f"corpus{rep}"
        t0 = time.perf_counter()
        for kind in ref.KINDS:
            r = children.cli(["fixtures", "--seed", str(CORPUS_SEEDS[0]),
                              "--count", str(len(CORPUS_SEEDS)),
                              "--kind", kind, "--out", str(out)])
            if r.code != 0:
                raise Refused(f"fixtures failed: {r.err.strip()}")
        times.append(time.perf_counter() - t0)
        dirs.append(out)
    problems = []
    names = sorted(p.name for p in dirs[0].iterdir())
    for other in dirs[1:]:
        if sorted(p.name for p in other.iterdir()) != names:
            problems.append(f"{other.name}: different file set")
        problems += [f"{other.name}/{n}: bytes differ" for n in names
                     if (dirs[0] / n).read_bytes() != (other / n).read_bytes()]
        shutil.rmtree(other)
    if len(names) != len(ref.KINDS) * len(CORPUS_SEEDS):
        problems.append(f"corpus holds {len(names)} files")
    return dirs[0], times, problems


def _fault(err: str, pages: Sequence[ref.PageRef], frames) -> List[str]:
    """A failure is the known OutOfRange fault when the message is that
    fault's and a source commits fully to "accessible" on one of the pages
    in one of the frames the invocation computes."""
    if not FAULT_MESSAGE.fullmatch(err):
        return [f"unexpected failure: {err.strip()[-300:]!r}"]
    if not any(p.frames[f].committed for p in pages for f in frames):
        return ["out-of-range decision on pages the reference scores: "
                + ", ".join(str(p.seed) for p in pages)]
    return []


def verify(op: Op, refs: Dict[int, ref.PageRef],
           r: Result) -> Tuple[int, int, List[str]]:
    """(pages verified, pages failed, problems) for one invocation."""
    pages = [refs[s] for s in op.seeds]
    if op.command == "explain":
        ok, done, errs = ref.check_explain(r.out, pages, op.frame)
        if r.code != 0:
            errs += _fault(r.err, pages[done:done + 1], [op.frame])
        elif done != len(pages) or r.err:
            errs.append(f"explain exit 0 after {done} pages: {r.err!r}")
        return ok, len(pages) - done, errs
    if r.code != 0:
        errs = [f"output {r.out[:80]!r} from a failed run"] if r.out else []
        return 0, len(pages), errs + _fault(r.err, pages, ref.FRAMES)
    check = ref.check_json if op.command == "score-json" else ref.check_table
    ok, errs = check(r.out, pages)
    if r.err:
        errs.append(f"stderr: {r.err.strip()[:300]!r}")
    return ok, 0, errs


def verify_all(ops: Sequence[Op], refs, runs: Sequence[Tuple[int, Result]]):
    """Check every invocation; a repeat that printed the same bytes as an
    earlier run of the same op shares its verdict."""
    verdicts, verified, failed, problems = {}, 0, 0, []
    for i, r in runs:
        key = (i, r.code, r.out, r.err)
        if key not in verdicts:
            verdicts[key] = verify(ops[i], refs, r)
            problems += verdicts[key][2]
        verified += verdicts[key][0]
        failed += verdicts[key][1]
    return verified, failed, problems


def _pct(values: Sequence[float], q: int) -> float:
    """The q-th percentile, q in 10, 20, ..., 90; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def measure(ops, refs, children: Children, corpus: Path, seconds: float):
    """End-to-end run: whole rounds of child processes while another round
    is expected to end within `seconds`, and until enough successful
    invocations back a p90."""
    runs: List[Tuple[int, Result]] = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            runs.append((i, children.cli(op.argv(corpus))))
        rounds += 1
        wall = time.perf_counter() - t0
        latencies = [r.wall * 1e3 for _, r in runs if r.code == 0]
        if wall * (rounds + 1) / rounds > seconds \
                and len(latencies) >= MIN_LATENCY_SAMPLES:
            break
    attempted = sum(len(ops[i].seeds) for i, _ in runs)
    verified, failed, problems = verify_all(ops, refs, runs)
    metrics = {
        "pages_per_s": (verified / wall, "pages/s"),
        "cpu_ms_per_page": (sum(r.cpu for _, r in runs) * 1e3 / attempted,
                            "ms"),
        "latency_ms_p90": (_pct(latencies, 90), "ms"),
        "max_rss_mb": (max(r.rss_kib for _, r in runs) / 1024, "MiB"),
    }
    return attempted, failed, problems, metrics


def _import_program():
    """Import the program's modules from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    mods = [importlib.import_module(f"a11yfuse.{m}") for m in MODULES]
    want = (SRC / "a11yfuse").resolve()
    for m in mods:
        if Path(m.__file__).resolve().parent != want:
            raise Refused(f"{m.__name__} imported from {m.__file__}")
    return mods


def in_process(main, argv: Sequence[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return Result(time.perf_counter() - t0, 0.0, 0, code, out.getvalue(),
                  err.getvalue())


def traced(ops, refs, children: Children, corpus: Path, seconds: float,
           work: Path, trace_file: Path, rng: random.Random):
    """Per-layer run: the workload's invocations call cli.main in-process,
    in pairs of an untraced and a traced round, until `seconds` pass."""
    mods = _import_program()
    cli = mods[MODULES.index("cli")]
    problems: List[str] = []

    # Fixture generation under tracing, against the corpus bytes.
    fx = tracing.Recorder()
    fx_dir, fx_count = work / "traced-fixtures", 50
    with tracing.installed(fx, mods):
        for kind in ref.KINDS:
            r = in_process(cli.main, ["fixtures", "--seed", "0", "--count",
                                      str(fx_count), "--kind", kind,
                                      "--out", str(fx_dir)])
            if r.code != 0:
                problems.append(f"in-process fixtures failed: {r.err!r}")
    for kind in ref.KINDS:
        for seed in range(fx_count):
            a = ref.fixture_path(fx_dir, kind, seed)
            if not a.is_file() or \
                    a.read_bytes() != ref.fixture_path(corpus, kind,
                                                       seed).read_bytes():
                problems.append(f"{a.name}: in-process bytes differ")

    rec = tracing.Recorder()
    runs, times = [], {False: [], True: []}
    t0 = time.perf_counter()
    while True:
        for on in (False, True):
            ctx = tracing.installed(rec, mods) if on else \
                contextlib.nullcontext()
            t = time.perf_counter()
            with ctx:
                for i, op in enumerate(ops):
                    runs.append((i, in_process(cli.main, op.argv(corpus))))
            times[on].append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if elapsed * (len(times[True]) + 1) / len(times[True]) > seconds:
            break
    round_pages = sum(len(op.seeds) for op in ops)
    attempted = round_pages * len(runs) // len(ops)
    _, failed, errs = verify_all(ops, refs, runs)
    problems += errs

    # Process cost around one page: interpreter and import, then a whole
    # one-page process against the same page in-process.
    pool = [s for s in CORPUS_SEEDS if s not in KNOWN_FAULT_SEEDS]
    bare, imported, proc, inproc = [], [], [], []
    for seed in rng.sample(pool, CALIBRATION_REPS):
        bare.append(children.python(["-c", "pass"]).wall)
        imported.append(children.python(["-c", "import a11yfuse.cli"]).wall)
        op = Op("score-table", (seed,))
        for sink, r in ((proc, children.cli(op.argv(corpus))),
                        (inproc, in_process(cli.main, op.argv(corpus)))):
            problems += verify(op, refs, r)[2]
            sink.append(r.wall)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracing.write(trace_file, {"fixtures": fx, "rounds": rec})
    pages = round_pages * len(times[True])
    metrics = layer_metrics(rec, fx, pages)
    metrics.update({
        "cli.import_ms": ((statistics.median(imported)
                           - statistics.median(bare)) * 1e3, "ms"),
        "cli.process_overhead_ms": ((statistics.median(proc)
                                     - statistics.median(inproc)) * 1e3,
                                    "ms"),
        "trace.overhead_us_per_page": (
            (statistics.median(times[True]) - statistics.median(times[False]))
            * 1e6 / round_pages, "us"),
    })
    return attempted, failed, problems, metrics


def layer_metrics(rec: tracing.Recorder, fx: tracing.Recorder, pages: int):
    """Per-layer figures from the traced rounds (per traced page) and from
    the traced fixture generation. A function never called reads 0."""
    selfs = tracing.self_times(rec)

    def us(ns):
        return [v / 1e3 for v in ns]

    def per_page(n):
        return n / pages

    def calls(label):
        return per_page(len(tracing.durations_ns(rec, label))), "calls/page"

    def self_us(layer, under=""):
        ns = tracing.layer_self_ns(rec, selfs, layer, under)
        return per_page(ns) / 1e3, "us"

    score = us(tracing.durations_ns(rec, "engine.score_page"))
    fixtures = tracing.durations_ns(fx, "reports.generate_fixture")
    return {
        "wcag.default_catalog.us_p50": (_pct(us(tracing.durations_ns(
            rec, "wcag.default_catalog")), 50), "us"),
        "wcag.criteria_in_frame.calls_per_page": calls(
            "wcag.criteria_in_frame"),
        "wcag.criteria_in_frame.self_us_per_page": self_us(
            "wcag", "wcag.criteria_in_frame"),
        "reports.parse_report.us_p50": (_pct(us(tracing.durations_ns(
            rec, "reports.parse_report")), 50), "us"),
        "reports.parse_report.self_us_per_page": self_us(
            "reports", "reports.parse_report"),
        "reports.total_tests.calls_per_page": calls("reports.total_tests"),
        "reports.generate_fixture.us_p50": (_pct(us(fixtures), 50), "us"),
        "reports.generate_fixture.catalog_loads_per_report": (
            tracing.count_under(fx, "wcag.default_catalog",
                                "reports.generate_fixture")
            / max(1, len(fixtures)), "loads/report"),
        "engine.score_page.us_p50": (_pct(score, 50), "us"),
        "engine.score_page.us_p90": (_pct(score, 90), "us"),
        "engine.score_page.self_us_per_page": self_us(
            "engine", "engine.score_page"),
        "engine.estimate_parts.calls_per_page": calls(
            "engine.estimate_parts"),
        "engine.estimate_parts.self_us_per_page": self_us(
            "engine", "engine.estimate_parts"),
        "belief.combine_conjunctive.calls_per_page": calls(
            "belief.combine_conjunctive"),
        "belief.self_us_per_page": self_us("belief"),
        "cli.main.self_us_per_page": self_us("cli", "cli.main"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let `finally` stop the spawner and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    children = None
    try:
        work.mkdir(parents=True)
        children = Children(work)
        check_import(children)
        corpus, setup_times, problems = set_up(work, children)
        catalog = ref.load_catalog(CATALOG_JSON)
        problems += ref.check_corpus(corpus, CORPUS_SEEDS, catalog)
        refs = ref.load_pages(corpus, CORPUS_SEEDS, catalog)
        rng = random.Random(args.seed)
        ops = WORKLOADS[args.workload](rng)
        if args.trace:
            trace_file = (WORK / "traces"
                          / f"{args.workload}-seed{args.seed}.tsv.gz")
            attempted, failed, errs, metrics = traced(
                ops, refs, children, corpus, args.seconds, work, trace_file,
                rng)
        else:
            attempted, failed, errs, metrics = measure(
                ops, refs, children, corpus, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        problems += errs
    except Refused as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    finally:
        if children is not None:
            children.close()
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"pages attempted {attempted}, failed {failed}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
