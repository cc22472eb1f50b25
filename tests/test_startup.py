"""Start-up cost and the immutable value types that keep it low.

The value types are named tuples validated in __new__ and the catalog is a
read-only mapping, so importing the package needs neither dataclasses nor
importlib.resources and what those pull in.
"""

import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from a11yfuse.belief import MassFunction, discount, make_mass, vacuous
from a11yfuse.engine import (
    EstimationParts,
    FrameDecision,
    SourceResult,
)
from a11yfuse.errors import (
    CountInconsistency,
    NegativeMass,
    NotNormalized,
    OutOfRange,
    SchemaError,
)
from a11yfuse.reports import (
    AssessorProfile,
    AssessorReport,
    CriterionObservation,
)
from a11yfuse.wcag import (
    ConformanceLevel,
    CriterionSpec,
    DeficiencyFrame,
    WeightConfig,
    load_config,
)

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                 "importlib.resources", "tempfile", "shutil")


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


def _obs():
    return CriterionObservation("1.1.1", n_err=1, n_ok=2, t_err=1)


SPEC = CriterionSpec("1.1.1", ConformanceLevel.A,
                     frozenset({DeficiencyFrame.VISUAL}), 1.0)

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
    (lambda: MassFunction(-0.1, 0.6, 0.5), NegativeMass),
    (lambda: MassFunction(0.2, 0.2, 0.2), NotNormalized),
    (lambda: discount(vacuous(), 1.5), OutOfRange),
    (lambda: WeightConfig(alpha_a=0.5, alpha_aa=0.9), SchemaError),
    (lambda: WeightConfig(s1=0.9, s4=0.6), SchemaError),
    (lambda: WeightConfig(beta_likely=-0.1), TypeError),
    (lambda: WeightConfig(delta=1.5), TypeError),
    (lambda: CriterionSpec("1.1.1", ConformanceLevel.A, frozenset(), 1.0),
     SchemaError),
    (lambda: CriterionSpec("1.1.1", ConformanceLevel.A,
                           frozenset({DeficiencyFrame.VISUAL}), 0.0),
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
]


@pytest.mark.parametrize("build, error", INVALID,
                         ids=[f"{i}-{e.__name__}"
                              for i, (_, e) in enumerate(INVALID)])
def test_invalid_fields_raise(build, error):
    with pytest.raises(error):
        build()


def test_keyword_construction_keeps_defaults():
    w = WeightConfig(**{**WeightConfig()._asdict(), "alpha_aaa": 0.5})
    assert w.alpha_aaa == 0.5 and w.thresholds == (0.6, 0.7, 0.8, 0.9)
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
    assert catalog == load_config()[0] == load_config("")[0]
    assert catalog != load_config([])[0]
    for loaded in (catalog, load_config([])[0]):
        assert type(loaded) is MappingProxyType
        with pytest.raises(TypeError):
            loaded["1.1.1"] = SPEC
