"""Start-up cost and the immutable value types that keep it low.

The value types are named tuples validated in __new__ and the catalog is a
read-only mapping, so importing the package needs neither dataclasses nor
importlib.resources and what those pull in. Annotations use builtin
generics and paths are plain strings joined by os.path, so it needs neither
typing nor pathlib, nor the urllib.parse that pathlib pulls in. The source
parses at the oldest Python that pyproject.toml's requires-python admits.
"""

import ast
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from a11yfuse.belief import MassFunction, discount, make_mass, vacuous
from a11yfuse.engine import (
    EstimationParts,
    FrameDecision,
    SourceResult,
)
from a11yfuse.errors import (
    CountInconsistency,
    InvalidMass,
    OutOfRange,
    SchemaError,
)
from a11yfuse.reports import (
    AssessorProfile,
    AssessorReport,
    CriterionObservation,
    generate_fixture,
    parse_report,
)
from a11yfuse.wcag import (
    Catalog,
    ConformanceLevel,
    CriterionSpec,
    DeficiencyFrame,
    WeightConfig,
    load_config,
)

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                 "importlib.resources", "tempfile", "shutil", "argparse",
                 "gettext", "locale", "typing", "pathlib", "urllib.parse",
                 "random")


def test_cli_import_skips_heavy_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import a11yfuse.cli; "
            "print(a11yfuse.cli.__file__); "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC),
                           *HEAVY_MODULES],
                          capture_output=True, text=True, check=True)
    path, loaded = proc.stdout.split("\n")[:2]
    assert Path(path).resolve().parent == SRC / "a11yfuse"
    assert loaded == ""


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    # every module a score, explain and fixtures run leaves loaded, by
    # top-level name; python -S keeps site-packages off the path. No run
    # loads argparse, gettext, locale, typing, pathlib or urllib.parse;
    # score and explain do not load the fixture generator's random either
    page = tmp_path / "report-balanced-7.json"
    page.write_text(generate_fixture(7, "balanced"), encoding="utf-8")
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        from a11yfuse.cli import main
        page = sys.argv[2] + "/report-balanced-7.json"
        codes = [main(["score", "--format", "json", "--page", page]),
                 main(["score", "--page", page]),
                 main(["explain", "--frame", "global", "--page", page])]
        print([m for m in sys.argv[3:] if m in sys.modules])
        codes.append(main(["fixtures", "--seed", "7", "--out", sys.argv[2]]))
        own = sys.stdlib_module_names | {"a11yfuse", "__main__"}
        print(codes, [m for m in sys.argv[3:-1] if m in sys.modules],
              sorted(m for m in sys.modules
                     if m.partition(".")[0] not in own))
    """
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC),
                           str(tmp_path), "argparse", "gettext", "locale",
                           "typing", "pathlib", "urllib.parse", "random"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-2:] == ["[]", "[0, 0, 0, 0] [] []"]
    assert proc.stderr == ""


def test_source_parses_at_the_python_floor():
    # ast.parse rejects syntax newer than feature_version, such as except*
    # below 3.11; library calls newer than the floor it cannot see
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)
    sources = sorted((SRC / "a11yfuse").glob("*.py"))
    assert floor and sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, int(floor[1])))


def _obs():
    return CriterionObservation("1.1.1", n_err=1, n_ok=2, t_err=1)


SPEC = CriterionSpec("1.1.1", ConformanceLevel.A,
                     frozenset({DeficiencyFrame.VISUAL}))

INSTANCES = [
    MassFunction(0.2, 0.3, 0.5),
    WeightConfig(),
    SPEC,
    AssessorProfile("tool"),
    _obs(),
    AssessorReport(AssessorProfile("tool"), "u", {"1.1.1": _obs()}),
    EstimationParts(1.0, 2.0, 1.0, 2.0, 1.0, 2.0),
    SourceResult("tool", 1.0, EstimationParts(0, 1, 0, 1, 0, 1),
                 MassFunction(0, 0, 1), MassFunction(0, 0, 1)),
    FrameDecision(DeficiencyFrame.VISUAL, (), MassFunction(0, 0, 1), 0.5,
                  None),
]


@pytest.mark.parametrize("value", INSTANCES,
                         ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1


INVALID = [
    (lambda: MassFunction(-0.1, 0.6, 0.5), InvalidMass),
    (lambda: MassFunction(0.2, 0.2, 0.2), InvalidMass),
    (lambda: discount(vacuous(), 1.5), OutOfRange),
    (lambda: WeightConfig(alpha_a=0.5, alpha_aa=0.9), SchemaError),
    (lambda: WeightConfig(s1=0.9, s4=0.6), SchemaError),
    (lambda: WeightConfig(beta_likely=-0.1), TypeError),
    (lambda: WeightConfig(delta=1.5), TypeError),
    (lambda: CriterionSpec("1.1.1", ConformanceLevel.A, frozenset()),
     SchemaError),
    (lambda: CriterionSpec("1.1.1", "B", frozenset({DeficiencyFrame.VISUAL})),
     SchemaError),
    (lambda: AssessorProfile(""), SchemaError),
    (lambda: AssessorProfile("tool", delta=1.5), SchemaError),
    (lambda: CriterionObservation("1.1.1", n_ok=-1), SchemaError),
    (lambda: CriterionObservation("1.1.1", n_ok=True), SchemaError),
    (lambda: CriterionObservation("1.1.1", n_ok=1.0), SchemaError),
    (lambda: CriterionObservation("1.1.1", n_err=2, t_err=1),
     CountInconsistency),
    (lambda: AssessorReport(AssessorProfile("tool"), "u", {"1.1.2": _obs()}),
     SchemaError),
    (lambda: EstimationParts(1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0), TypeError),
    (lambda: SourceResult("tool", 1.0), TypeError),
    (lambda: FrameDecision(DeficiencyFrame.VISUAL, level=None), TypeError),
    (lambda: AssessorReport(AssessorProfile("tool"), "u", {}, 3), TypeError),
    (lambda: AssessorReport("tool", "u"), SchemaError),
    (lambda: AssessorReport(AssessorProfile("tool"), "u",
                            {"1.1.1": tuple(_obs())}), SchemaError),
    (lambda: AssessorReport(AssessorProfile("tool"), "u", [_obs()]),
     SchemaError),
]


@pytest.mark.parametrize("build, error", INVALID,
                         ids=[f"{i}-{e.__name__}"
                              for i, (_, e) in enumerate(INVALID)])
def test_invalid_fields_raise(build, error):
    with pytest.raises(error):
        build()


def _report(name="t", url="u", criterion="1.1.1"):
    return {"assessor": {"name": name}, "url": url,
            "observations": [{"criterion": criterion, "n_ok": 1}]}


def load_weights(doc) -> WeightConfig:
    """The WeightConfig that load_config reads from a weights file holding
    the JSON document doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_config([], path)[1]


VISUAL = frozenset({DeficiencyFrame.VISUAL})
# each constructor call, and the document its loader reads the same value
# from: both must raise the same SchemaError
SAME_AS_LOADER = {
    "url-surrogate": (
        lambda: AssessorReport(AssessorProfile("t"), "https://x.test/\ud800"),
        lambda: parse_report(_report(url="https://x.test/\ud800"))),
    "url-empty": (lambda: AssessorReport(AssessorProfile("t"), ""),
                  lambda: parse_report(_report(url=""))),
    "url-int": (lambda: AssessorReport(AssessorProfile("t"), 5),
                lambda: parse_report(_report(url=5))),
    "name-surrogate": (lambda: AssessorProfile("t\udc80"),
                       lambda: parse_report(_report(name="t\udc80"))),
    "id-int": (lambda: CriterionObservation(5, n_ok=1),
               lambda: parse_report(_report(criterion=5))),
    "id-list": (lambda: CriterionObservation(["1.1.1"], n_ok=1),
                lambda: parse_report(_report(criterion=["1.1.1"]))),
    "id-split-pair": (  # JSON would read the pair back as one character
        lambda: CriterionObservation("\ud800\udfff", n_ok=1),
        lambda: parse_report(_report(criterion="\ud800\udfff"))),
    "threshold-str": (
        lambda: WeightConfig(s1="0.5"),
        lambda: load_weights({"thresholds": ["0.5", 0.7, 0.8, 0.9]})),
    "weight-bool": (lambda: WeightConfig(alpha_a=True),
                    lambda: load_weights({"weights": {"a": True}})),
    "weight-huge": (lambda: WeightConfig(alpha_a=10 ** 400),
                    lambda: load_weights({"weights": {"a": 10 ** 400}})),
    "catalog-id-int": (
        lambda: CriterionSpec(5, ConformanceLevel.A, VISUAL),
        lambda: load_config([{"id": 5, "level": "A",
                              "frames": ["visual"]}])),
    "catalog-frames-object": (  # would iterate as its keys
        lambda: CriterionSpec("1.1.1", "A", {"visual": True}),
        lambda: load_config([{"id": "1.1.1", "level": "A",
                              "frames": {"visual": True}}])),
    "catalog-level-bad": (
        lambda: CriterionSpec("1.1.1", "B", VISUAL),
        lambda: load_config([{"id": "1.1.1", "level": "B",
                              "frames": ["visual"]}])),
    "catalog-frame-case": (
        lambda: CriterionSpec("1.1.1", "A", ["Visual"]),
        lambda: load_config([{"id": "1.1.1", "level": "A",
                              "frames": ["Visual"]}])),
}


@pytest.mark.parametrize("build, load", SAME_AS_LOADER.values(),
                         ids=SAME_AS_LOADER.keys())
def test_constructor_rejects_what_its_loader_rejects(build, load):
    with pytest.raises(SchemaError) as loaded:
        load()
    with pytest.raises(SchemaError) as built:
        build()
    assert str(built.value) == str(loaded.value)


def test_weights_are_stored_as_floats():
    ints = {"alpha_a": 1, "alpha_aa": 1, "alpha_aaa": 1}
    w = load_weights({"weights": {"a": 1, "aa": 1, "aaa": 1},
                      "thresholds": [0.1, 0.2, 0.3, 0.4]})
    assert w == WeightConfig(**ints, s1=0.1, s2=0.2, s3=0.3, s4=0.4) == \
        (1.0, 1.0, 1.0, 0.1, 0.2, 0.3, 0.4)
    for built in (w, WeightConfig(**ints)):
        assert {type(v) for v in built} == {float}


def test_keyword_construction_keeps_defaults():
    w = WeightConfig(**{**WeightConfig()._asdict(), "alpha_aaa": 0.5})
    assert w.alpha_aaa == 0.5
    assert (w.s1, w.s2, w.s3, w.s4) == (0.6, 0.7, 0.8, 0.9)
    p = AssessorProfile("tool")
    assert p[1:] == tuple(getattr(WeightConfig, k)
                          for k in AssessorProfile._fields[1:])
    assert MassFunction(0.2, 0.3, 0.5) == (0.2, 0.3, 0.5, 0.0)
    assert make_mass(0.2, 0.3, 0.5)._asdict() == \
        {"ac": 0.2, "nac": 0.3, "omega": 0.5, "empty": 0.0}


def test_empty_defaults_are_not_shared():
    assert AssessorReport(AssessorProfile("a"), "u").observations is not \
        AssessorReport(AssessorProfile("a"), "u").observations


def test_catalog_equality_and_read_only():
    catalog = load_config()[0]
    path = SRC / "a11yfuse" / "data" / "wcag20_criteria.json"
    entries = [{"id": "1.1.1", "level": "A", "frames": ["visual"]}]
    by_path = [load_config(p)[0] for p in (str(path), path)]
    assert catalog == load_config()[0] == load_config("")[0] == by_path[0]
    assert catalog != load_config([])[0]
    for loaded in (catalog, load_config([])[0], *by_path,
                   load_config(entries)[0]):
        assert type(loaded) is Catalog
        with pytest.raises(TypeError):
            loaded["1.1.1"] = SPEC
