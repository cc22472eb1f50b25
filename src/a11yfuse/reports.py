"""Canonical assessor-report schema: parsing, validation, serialization
and a deterministic fixture generator.

A report is one assessor's evaluation of one page: the assessor profile
(certainty weakening coefficients and reliability), per-criterion defect
counts at three certainty levels, and the derived total test count.
"""

from __future__ import annotations

import functools
import json
import random
import warnings
from collections import namedtuple
from typing import Dict, Mapping, Optional

from .errors import CountInconsistency, SchemaError, UnknownCriterion
from .wcag import WeightConfig, default_catalog

FIXTURE_KINDS = ("balanced", "error-heavy", "potential-heavy")
_DEFAULTS = WeightConfig._field_defaults


class AssessorProfile(namedtuple(
        "AssessorProfile", "name beta_err beta_likely beta_potential delta")):
    """Identity and trust parameters of one automatic assessor; omitted
    parameters take WeightConfig's defaults. Each parameter must be an int
    or float (not a bool) in [0, 1], and is stored as a float."""

    __slots__ = ()

    def __new__(cls, name: str, beta_err: float = _DEFAULTS["beta_err"],
                beta_likely: float = _DEFAULTS["beta_likely"],
                beta_potential: float = _DEFAULTS["beta_potential"],
                delta: float = _DEFAULTS["delta"]):
        if not name:
            raise SchemaError("assessor name must be non-empty")
        values = (beta_err, beta_likely, beta_potential, delta)
        for label, v in zip(_PROFILE_KEYS, values):
            if type(v) not in (int, float) or not 0.0 <= v <= 1.0:
                raise SchemaError(f"{label}={v!r} is not a number in [0, 1]")
        return tuple.__new__(cls, (name, *map(float, values)))


_PROFILE_KEYS = AssessorProfile._fields[1:]


class CriterionObservation(namedtuple(
        "CriterionObservation", "criterion_id n_err n_ok n_likely "
        "n_potential t_err t_likely t_potential")):
    """One assessor's counts for one criterion. Every count must be a
    non-negative int (not a bool)."""

    __slots__ = ()

    def __new__(cls, criterion_id: str, n_err: int = 0, n_ok: int = 0,
                n_likely: int = 0, n_potential: int = 0, t_err: int = 0,
                t_likely: int = 0, t_potential: int = 0):
        self = tuple.__new__(cls, (criterion_id, n_err, n_ok, n_likely,
                                   n_potential, t_err, t_likely, t_potential))
        for key, v in zip(_OBS_KEYS, self[1:]):
            if type(v) is not int or v < 0:
                raise SchemaError(f"criterion {criterion_id}: {key} must be "
                                  f"a non-negative integer, got {v!r}")
        for n, t, label in ((n_err, t_err, "errors"),
                            (n_likely, t_likely, "likely problems"),
                            (n_potential, t_potential, "potential problems")):
            if n > t:
                raise CountInconsistency(
                    f"criterion {criterion_id}: {n} {label} observed "
                    f"but only {t} applicable tests")
        return self

    @property
    def tests_run(self) -> int:
        return self.n_err + self.n_likely + self.n_potential + self.n_ok


_OBS_KEYS = CriterionObservation._fields[1:]
_ENTRY_KEYS = frozenset(("criterion", *_OBS_KEYS))
_ASSESSOR_KEYS = frozenset(("name", *_PROFILE_KEYS))


class AssessorReport(namedtuple("AssessorReport", "profile url observations")):
    """One assessor's validated evaluation of one page."""

    __slots__ = ()

    def __new__(cls, profile: AssessorProfile, url: str,
                observations: Optional[Dict[str, CriterionObservation]] = None):
        if observations is None:
            observations = {}
        for cid, obs in observations.items():
            if cid != obs.criterion_id:
                raise SchemaError(f"observation keyed {cid} carries "
                                  f"criterion id {obs.criterion_id}")
        return tuple.__new__(cls, (profile, url, observations))

    @property
    def total_tests(self) -> int:
        return total_tests(self)


def total_tests(report: AssessorReport) -> int:
    """Total tests run by the assessor, summed over all observations."""
    return sum(o.tests_run for o in report.observations.values())


def _unknown_keys(where: str, doc: dict, allowed: frozenset) -> SchemaError:
    extra = ", ".join(sorted(map(repr, doc.keys() - allowed)))
    return SchemaError(f"{where}: unknown key(s) {extra}")


def parse_report(document, catalog: Optional[Mapping] = None,
                 unknown_criterion: str = "skip") -> AssessorReport:
    """Parse and validate a canonical report (JSON text, UTF-8 bytes or
    parsed dict). Any key beyond "name" and the four coefficients in the
    assessor block, or beyond "criterion" and the seven counts in an
    observation, is a SchemaError.

    Criteria missing from the catalog are skipped with a warning by default;
    pass unknown_criterion="reject" to fail instead. A stored total_tests
    field must match the recomputed sum (corruption guard) or be absent.
    """
    if unknown_criterion not in ("skip", "reject"):
        raise ValueError("unknown_criterion must be 'skip' or 'reject'")
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document.decode("utf-8")
                                  if isinstance(document, bytes) else document)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise SchemaError(f"report is not valid UTF-8 JSON: {exc}") \
                from exc
    if not isinstance(document, dict):
        raise SchemaError("report must be a JSON object")

    try:
        assessor = document["assessor"]
        url = document["url"]
        raw_obs = document["observations"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"report lacks required field: {exc}") from exc
    if not isinstance(url, str) or not url:
        raise SchemaError("url must be a non-empty string")
    if not isinstance(raw_obs, list):
        raise SchemaError("observations must be an array")

    if not isinstance(assessor, dict) or "name" not in assessor:
        raise SchemaError(f"bad assessor block: {assessor!r}")
    if not _ASSESSOR_KEYS.issuperset(assessor):
        raise _unknown_keys("assessor block", assessor, _ASSESSOR_KEYS)
    profile = AssessorProfile(**{**assessor, "name": str(assessor["name"])})

    observations: Dict[str, CriterionObservation] = {}
    for entry in raw_obs:
        if not isinstance(entry, dict) or "criterion" not in entry:
            raise SchemaError(f"bad observation entry: {entry!r}")
        cid = str(entry["criterion"])
        if not _ENTRY_KEYS.issuperset(entry):
            raise _unknown_keys(f"criterion {cid}", entry, _ENTRY_KEYS)
        if cid in observations:
            raise SchemaError(f"duplicate observation for criterion {cid}")
        if catalog is not None and cid not in catalog:
            if unknown_criterion == "reject":
                raise UnknownCriterion(f"criterion {cid} not in catalog")
            warnings.warn(f"skipping unknown criterion {cid}", stacklevel=2)
            continue
        observations[cid] = CriterionObservation(
            cid, *[entry.get(key, 0) for key in _OBS_KEYS])

    report = AssessorReport(profile=profile, url=url, observations=observations)
    if "total_tests" in document:
        stored = document["total_tests"]
        if stored != report.total_tests:
            raise CountInconsistency(
                f"stored total_tests={stored} does not match the "
                f"recomputed sum {report.total_tests}")
    return report


def serialize_report(report: AssessorReport) -> str:
    """Canonical JSON rendering; parse_report round-trips it exactly."""
    observations = []
    for o in report.observations.values():
        entry = o._asdict()
        entry["criterion"] = entry.pop("criterion_id")
        observations.append(entry)
    doc = {"assessor": report.profile._asdict(), "url": report.url,
           "observations": observations, "total_tests": report.total_tests}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=1)
def _packaged_ids() -> tuple:
    """Sorted criterion ids of the packaged catalog, read once."""
    return tuple(sorted(default_catalog()[0]))


def generate_fixture(seed: int, profile_kind: str = "balanced") -> str:
    """Deterministic pseudo-random report, valid under the schema.

    Kinds mimic the statistical signatures of real tools: "error-heavy"
    emits near-zero likely problems, "potential-heavy" emits a constant
    potential-test count across criteria, "balanced" mixes everything.
    Two fixtures with the same seed share a URL regardless of kind, so they
    can be grouped as two assessments of one page.
    """
    if profile_kind not in FIXTURE_KINDS:
        raise ValueError(f"profile_kind must be one of {FIXTURE_KINDS}")
    rng = random.Random(f"{profile_kind}:{seed}")
    chosen = sorted(rng.sample(_packaged_ids(), k=rng.randint(18, 32)))

    constant_t_potential = rng.randint(3, 7)
    observations = {}
    for cid in chosen:
        t_err = rng.randint(1, 10)
        if profile_kind == "error-heavy":
            n_err = rng.randint(0, t_err)
            t_likely = rng.randint(0, 2)
            n_likely = 0
            t_potential = rng.randint(0, 6)
        elif profile_kind == "potential-heavy":
            n_err = rng.randint(0, max(1, t_err // 2))
            t_likely = rng.randint(0, 5)
            n_likely = rng.randint(0, t_likely)
            t_potential = constant_t_potential
        else:
            n_err = rng.randint(0, max(1, t_err // 2))
            t_likely = rng.randint(0, 5)
            n_likely = rng.randint(0, t_likely)
            t_potential = rng.randint(0, 6)
        n_potential = rng.randint(0, t_potential)
        n_ok = rng.randint(t_err - n_err, t_err - n_err + 8)
        observations[cid] = CriterionObservation(
            cid, n_err=n_err, n_ok=n_ok, n_likely=n_likely,
            n_potential=n_potential, t_err=t_err, t_likely=t_likely,
            t_potential=t_potential)
    return serialize_report(AssessorReport(
        AssessorProfile(f"{profile_kind}-assessor"),
        f"https://example.test/page-{seed}", observations))
