"""Canonical assessor-report schema: parsing, validation, serialization
and a deterministic fixture generator.

A report is one assessor's evaluation of one page: the assessor profile
(certainty weakening coefficients and reliability) and per-criterion defect
counts at three certainty levels, from which the total test count derives.
"""

from __future__ import annotations

import functools
import json

from .errors import CountInconsistency, SchemaError, checked_tuple
from .wcag import WeightConfig, _decode_json, _unknown_keys, load_config

FIXTURE_KINDS = ("balanced", "error-heavy", "potential-heavy")


class AssessorProfile(checked_tuple(
        "AssessorProfile", "name beta_err beta_likely beta_potential delta")):
    """Identity and trust parameters of one automatic assessor; omitted
    parameters take WeightConfig's class constants. The name is UTF-8 text;
    each parameter an int or float (not a bool) in [0, 1], stored as float."""

    __slots__ = ()

    def __new__(cls, name: str, beta_err: float = WeightConfig.beta_err,
                beta_likely: float = WeightConfig.beta_likely,
                beta_potential: float = WeightConfig.beta_potential,
                delta: float = WeightConfig.delta):
        _check_text("assessor name", name)
        values = (beta_err, beta_likely, beta_potential, delta)
        for label, v in zip(_PROFILE_KEYS, values):
            if type(v) not in (int, float) or not 0.0 <= v <= 1.0:
                raise SchemaError(f"{label}={v!r} is not a number in [0, 1]")
        return tuple.__new__(cls, (name, *map(float, values)))


_PROFILE_KEYS = AssessorProfile._fields[1:]


def _check_text(label: str, text: str) -> None:
    """Raise unless text is a non-empty str that encodes as UTF-8."""
    if not isinstance(text, str) or not text:
        raise SchemaError(f"{label} must be a non-empty string, got {text!r}")
    try:  # a lone surrogate, which JSON's \u escapes can spell
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{label} is not Unicode text: {text!r}") from None


class CriterionObservation(checked_tuple(
        "CriterionObservation", "criterion_id n_err n_ok n_likely "
        "n_potential t_err t_likely t_potential")):
    """One assessor's counts for one criterion; the id a str that survives
    JSON, each count an int (not a bool) in [0, 2**53], exact as a float."""

    __slots__ = ()

    def __new__(cls, criterion_id: str, n_err: int = 0, n_ok: int = 0,
                n_likely: int = 0, n_potential: int = 0, t_err: int = 0,
                t_likely: int = 0, t_potential: int = 0):
        self = tuple.__new__(cls, (criterion_id, n_err, n_ok, n_likely,
                                   n_potential, t_err, t_likely, t_potential))
        if (type(criterion_id) is str and criterion_id.isascii()
                and type(n_err) is type(n_ok) is type(n_likely)
                is type(n_potential) is type(t_err) is type(t_likely)
                is type(t_potential) is int
                and 0 <= n_ok <= 2 ** 53 and 0 <= n_err <= t_err <= 2 ** 53
                and 0 <= n_likely <= t_likely <= 2 ** 53
                and 0 <= n_potential <= t_potential <= 2 ** 53):
            return self
        # the id's fault first, then the counts' first in field order
        if not isinstance(criterion_id, str):
            raise SchemaError(f"criterion must be a string, got "
                              f"{criterion_id!r}")
        where = f"criterion {criterion_id!r}"
        if json.loads(json.dumps(criterion_id)) != criterion_id:
            raise SchemaError(f"{where}: split surrogate pair")
        for key, v in zip(_OBS_KEYS, self[1:]):
            if type(v) is not int or v < 0:
                raise SchemaError(f"{where}: {key} must be a non-negative "
                                  f"integer, got {v!r}")
            if v > 2 ** 53:
                raise SchemaError(f"{where}: {key} is above 2**53, the "
                                  f"largest exact float count")
        for n, t, label in ((n_err, t_err, "errors"),
                            (n_likely, t_likely, "likely problems"),
                            (n_potential, t_potential, "potential problems")):
            if n > t:
                raise CountInconsistency(f"{where}: {n} {label} observed but "
                                         f"only {t} applicable tests")
        return self

    @property
    def tests_run(self) -> int:
        return self.n_err + self.n_likely + self.n_potential + self.n_ok


_OBS_KEYS = CriterionObservation._fields[1:]


_ENTRY_KEYS = frozenset(("criterion", *_OBS_KEYS))
_ASSESSOR_KEYS = frozenset(("name", *_PROFILE_KEYS))
_REPORT_KEYS = frozenset(("assessor", "url", "observations", "total_tests"))


class AssessorReport(checked_tuple(
        "AssessorReport", "profile url observations")):
    """One assessor's evaluation of one page: an AssessorProfile, a url of
    non-empty UTF-8 text and a dict from criterion id to its
    CriterionObservation."""

    __slots__ = ()

    def __new__(cls, profile: AssessorProfile, url: str,
                observations: dict[str, CriterionObservation] | None = None):
        if not isinstance(profile, AssessorProfile):
            raise SchemaError(f"not an AssessorProfile: {profile!r}")
        _check_text("url", url)
        if observations is None:
            observations = {}
        if not isinstance(observations, dict):
            raise SchemaError(f"not a dict of observations: {observations!r}")
        for cid, obs in observations.items():
            if not isinstance(obs, CriterionObservation):
                raise SchemaError(f"not a CriterionObservation: {obs!r}")
            if cid != obs.criterion_id:
                raise SchemaError(f"observation keyed {cid!r} carries "
                                  f"criterion id {obs.criterion_id!r}")
        return tuple.__new__(cls, (profile, url, observations))

    @property
    def total_tests(self) -> int:
        """The tests run, summed over every observation."""
        return sum(obs.tests_run for obs in self.observations.values())


def parse_report(document) -> AssessorReport:
    """Parse and validate a canonical report (JSON text, UTF-8 bytes or
    parsed dict). Any top-level key beyond "assessor", "url",
    "observations" and "total_tests", any key beyond "name" and the four
    coefficients in the assessor block, or beyond "criterion" and the seven
    counts in an observation, is a SchemaError. The url is checked first,
    then each value is built through its constructor (AssessorProfile, a
    CriterionObservation per entry, then AssessorReport), which words a
    fault as a direct call does. A stored total_tests must equal the
    report's total_tests (a corruption guard), or be absent.
    """
    if isinstance(document, (str, bytes)):
        document = _decode_json(document, "report")
    if not isinstance(document, dict):
        raise SchemaError("report must be a JSON object")
    if not _REPORT_KEYS.issuperset(document):
        raise _unknown_keys("report", document, _REPORT_KEYS)

    try:
        assessor, url, raw_obs = (document["assessor"], document["url"],
                                  document["observations"])
    except KeyError as exc:
        raise SchemaError(f"report lacks required field: {exc}") from exc
    _check_text("url", url)
    if not isinstance(raw_obs, list):
        raise SchemaError("observations must be an array")

    if not isinstance(assessor, dict) or "name" not in assessor:
        raise SchemaError(f"bad assessor block: {assessor!r}")
    if not _ASSESSOR_KEYS.issuperset(assessor):
        raise _unknown_keys("assessor block", assessor, _ASSESSOR_KEYS)
    profile = AssessorProfile(**assessor)

    observations: dict[str, CriterionObservation] = {}
    for entry in raw_obs:
        if not isinstance(entry, dict) or "criterion" not in entry:
            raise SchemaError(f"bad observation entry: {entry!r}")
        cid = entry["criterion"]
        if not _ENTRY_KEYS.issuperset(entry):
            raise _unknown_keys(f"criterion {cid!r}", entry, _ENTRY_KEYS)
        get = entry.get
        obs = CriterionObservation(  # first: a non-str id may be unhashable
            cid, get("n_err", 0), get("n_ok", 0), get("n_likely", 0),
            get("n_potential", 0), get("t_err", 0), get("t_likely", 0),
            get("t_potential", 0))
        if cid in observations:
            raise SchemaError(f"duplicate observation for criterion {cid!r}")
        observations[cid] = obs

    report = AssessorReport(profile, url, observations)
    total = report.total_tests
    stored = document.get("total_tests", total)
    if type(stored) is not int:
        raise SchemaError(f"total_tests must be an integer, got {stored!r}")
    if stored != total:
        raise CountInconsistency(f"stored total_tests={stored} does not match "
                                 f"the recomputed sum {total}")
    return report


# The canonical form is json.dumps(doc, indent=2, sort_keys=True) plus a
# newline, written out as templates with the keys in sorted order: the
# indented json.dumps runs json's pure-Python encoder, and this schema is
# fixed. Floats render as float.__repr__ and strings through json.dumps,
# as the encoder does.
_REPORT_TEMPLATE = """{
  "assessor": {
    "beta_err": %r,
    "beta_likely": %r,
    "beta_potential": %r,
    "delta": %r,
    "name": %s
  },
  "observations": %s,
  "total_tests": %d,
  "url": %s
}
"""
_OBSERVATION_TEMPLATE = """    {
      "criterion": %s,
      "n_err": %d,
      "n_likely": %d,
      "n_ok": %d,
      "n_potential": %d,
      "t_err": %d,
      "t_likely": %d,
      "t_potential": %d
    }"""


def serialize_report(report: AssessorReport) -> str:
    """Canonical JSON rendering, ASCII and byte-equal to
    json.dumps(doc, indent=2, sort_keys=True) + "\\n"; parse_report
    round-trips it exactly."""
    entries = [_OBSERVATION_TEMPLATE % (
        json.dumps(cid), n_err, n_likely, n_ok, n_potential, t_err, t_likely,
        t_potential) for cid, n_err, n_ok, n_likely, n_potential, t_err,
        t_likely, t_potential in report.observations.values()]
    name, beta_err, beta_likely, beta_potential, delta = report.profile
    return _REPORT_TEMPLATE % (
        beta_err, beta_likely, beta_potential, delta, json.dumps(name),
        "[\n%s\n  ]" % ",\n".join(entries) if entries else "[]",
        report.total_tests, json.dumps(report.url))


@functools.lru_cache(maxsize=1)
def _packaged_ids() -> tuple:
    """Sorted criterion ids of the packaged catalog, read once."""
    return tuple(sorted(load_config()[0]))


def generate_fixture(seed: int, profile_kind: str = FIXTURE_KINDS[0]) -> str:
    """Deterministic pseudo-random report, valid under the schema.

    Kinds mimic the statistical signatures of real tools: "error-heavy"
    emits near-zero likely problems, "potential-heavy" emits a constant
    potential-test count across criteria, "balanced" mixes everything.
    Two fixtures with the same seed share a URL regardless of kind, so they
    can be grouped as two assessments of one page.
    """
    import random  # here, so that score and explain never load it
    if profile_kind not in FIXTURE_KINDS:
        raise ValueError(f"profile_kind must be one of {FIXTURE_KINDS}")
    rng = random.Random(f"{profile_kind}:{seed}")
    chosen = sorted(rng.sample(_packaged_ids(), k=rng.randint(18, 32)))

    fixed_t_potential = rng.randint(3, 7)
    observations = {}
    for cid in chosen:
        t_err = rng.randint(1, 10)
        if profile_kind == "error-heavy":
            n_err = rng.randint(0, t_err)
            t_likely = rng.randint(0, 2)
            n_likely = 0
        else:
            n_err = rng.randint(0, max(1, t_err // 2))
            t_likely = rng.randint(0, 5)
            n_likely = rng.randint(0, t_likely)
        t_potential = (fixed_t_potential if profile_kind == "potential-heavy"
                       else rng.randint(0, 6))
        n_potential = rng.randint(0, t_potential)
        n_ok = rng.randint(t_err - n_err, t_err - n_err + 8)
        observations[cid] = CriterionObservation(
            cid, n_err=n_err, n_ok=n_ok, n_likely=n_likely,
            n_potential=n_potential, t_err=t_err, t_likely=t_likely,
            t_potential=t_potential)
    return serialize_report(AssessorReport(
        AssessorProfile(f"{profile_kind}-assessor"),
        f"https://example.test/page-{seed}", observations))
