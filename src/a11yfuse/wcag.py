"""WCAG 2.0 success-criterion catalog, deficiency frames and weighting.

The shipped catalog tags each of the 61 WCAG 2.0 success criteria with the
deficiency categories it primarily serves; it is plain JSON data so users can
override the mapping, the conformance-level weights and the discretization
thresholds from a file.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Union

from .errors import SchemaError, UnknownFrame


class ConformanceLevel(Enum):
    A = "A"
    AA = "AA"
    AAA = "AAA"


class DeficiencyFrame(Enum):
    VISUAL = "visual"
    HEARING = "hearing"
    MOTOR = "motor"
    COGNITIVE = "cognitive"


#: Pseudo-frame meaning "all criteria", kept out of the DeficiencyFrame enum.
GLOBAL = "global"

FrameOrGlobal = Union[DeficiencyFrame, str]

#: The five scored frames in output order: the deficiency frames, then global.
FRAMES = (*DeficiencyFrame, GLOBAL)


def resolve_frame(name: FrameOrGlobal) -> FrameOrGlobal:
    """Map a frame name (or enum member) to its canonical form."""
    if isinstance(name, DeficiencyFrame) or name == GLOBAL:
        return name
    try:
        return DeficiencyFrame(str(name).lower())
    except ValueError:
        names = ", ".join(getattr(f, "value", f) for f in FRAMES)
        raise UnknownFrame(f"unknown frame {name!r}; expected one of "
                           f"{names}") from None


class WeightConfig(namedtuple(
        "WeightConfig", "alpha_a alpha_aa alpha_aaa beta_err beta_likely "
        "beta_potential delta s1 s2 s3 s4",
        defaults=(1.0, 0.8, 0.6, 1.0, 0.5, 1.0, 1.0, 0.6, 0.7, 0.8, 0.9))):
    """Conformance-level weights, the four discretization thresholds, and
    the certainty coefficients and reliability an assessor report falls
    back to when its assessor block omits them. The defaults are in
    WeightConfig._field_defaults."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.alpha_aaa <= self.alpha_aa <= self.alpha_a <= 1.0:
            raise SchemaError("level weights must satisfy "
                              "0 < alpha_aaa <= alpha_aa <= alpha_a <= 1")
        if not 0.0 < self.s1 < self.s2 < self.s3 < self.s4 < 1.0:
            raise SchemaError("thresholds must satisfy 0 < s1 < s2 < s3 < s4 < 1")
        for b in (self.beta_err, self.beta_likely, self.beta_potential,
                  self.delta):
            if not 0.0 <= b <= 1.0:
                raise SchemaError(f"certainty coefficient or reliability {b} "
                                  f"outside [0, 1]")
        return self

    @property
    def thresholds(self) -> tuple:
        return (self.s1, self.s2, self.s3, self.s4)


def default_weights() -> WeightConfig:
    """The stock constants: alpha=(1, 0.8, 0.6), beta=(1, 0.5, 1),
    delta=1, thresholds=(0.6, 0.7, 0.8, 0.9)."""
    return WeightConfig()


def alpha_for(level: ConformanceLevel, w: WeightConfig) -> float:
    """Weight attached to a criterion's conformance level."""
    return {ConformanceLevel.A: w.alpha_a,
            ConformanceLevel.AA: w.alpha_aa,
            ConformanceLevel.AAA: w.alpha_aaa}[level]


class CriterionSpec(namedtuple("CriterionSpec", "id level frames alpha")):
    """One WCAG success criterion and its frame memberships."""

    __slots__ = ()

    def __new__(cls, id: str, level: ConformanceLevel,
                frames: FrozenSet[DeficiencyFrame], alpha: float):
        if not frames:
            raise SchemaError(f"criterion {id} belongs to no frame")
        if not 0.0 < alpha <= 1.0:
            raise SchemaError(f"criterion {id} weight outside (0, 1]")
        return tuple.__new__(cls, (id, level, frames, alpha))


def criteria_in_frame(catalog: Mapping[str, CriterionSpec],
                      frame: FrameOrGlobal) -> set:
    """Criteria belonging to one deficiency frame, or all of them for the
    global pseudo-frame."""
    frame = resolve_frame(frame)
    if frame == GLOBAL:
        return set(catalog.values())
    return {c for c in catalog.values() if frame in c.frames}


def _build_catalog(entries: Iterable[dict], w: WeightConfig) -> Mapping:
    criteria: Dict[str, CriterionSpec] = {}
    for entry in entries:
        try:
            cid = str(entry["id"])
            level = ConformanceLevel(entry["level"])
            frames = frozenset(DeficiencyFrame(f) for f in entry["frames"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad catalog entry {entry!r}: {exc}") from exc
        if cid in criteria:
            raise SchemaError(f"duplicate criterion id {cid}")
        criteria[cid] = CriterionSpec(cid, level, frames, alpha_for(level, w))
    return MappingProxyType(criteria)


_WEIGHT_KEYS = {"a": "alpha_a", "aa": "alpha_aa", "aaa": "alpha_aaa"}


def _read_json(path: Union[str, Path], what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise SchemaError(f"{what} is not valid UTF-8 JSON: {exc}") from exc


def _weights_from_json(doc: dict, base: WeightConfig) -> WeightConfig:
    """Apply the level weights under "weights" and the "thresholds" list of
    a catalog object or weights file; any other weights key is rejected."""
    weights = doc.get("weights", {})
    if not isinstance(weights, dict) or not set(weights) <= set(_WEIGHT_KEYS):
        raise SchemaError(f"'weights' must be an object with keys among "
                          f"{sorted(_WEIGHT_KEYS)}, got {weights!r}")
    ts = doc.get("thresholds", ())
    if "thresholds" in doc and not (isinstance(ts, (list, tuple))
                                    and len(ts) == 4):
        raise SchemaError("thresholds must be a list of 4 values")
    try:
        kwargs = {attr: float(weights[key])
                  for key, attr in _WEIGHT_KEYS.items() if key in weights}
        kwargs.update(zip(("s1", "s2", "s3", "s4"), map(float, ts)))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"weights and thresholds must be numbers: {exc}") \
            from exc
    if not kwargs:
        return base
    return WeightConfig(**{**base._asdict(), **kwargs})


def _split_catalog(doc, base: WeightConfig):
    """(criterion entries, weights) of a parsed catalog document."""
    if isinstance(doc, list):
        return doc, base
    if isinstance(doc, dict):
        entries = doc.get("criteria")
        if not isinstance(entries, (list, tuple)):
            raise SchemaError("catalog object lacks a 'criteria' array")
        return entries, _weights_from_json(doc, base)
    raise SchemaError("catalog must be a JSON array or object")


def load_catalog(source: Union[str, Path, dict, list],
                 weights: Optional[WeightConfig] = None):
    """Load a catalog file (or already-parsed document).

    Accepts either a bare array of criterion entries or an object
    {"criteria": [...], "weights": {...}, "thresholds": [...]}.
    Returns (catalog, effective_weights); the catalog is a read-only
    mapping from criterion id to CriterionSpec.
    """
    if isinstance(source, (str, Path)):
        source = _read_json(source, "catalog")
    entries, w = _split_catalog(source, weights or default_weights())
    return _build_catalog(entries, w), w


def default_catalog(weights: Optional[WeightConfig] = None):
    """The packaged WCAG 2.0 catalog. Returns (catalog, weights)."""
    return load_catalog(Path(__file__).parent / "data" / "wcag20_criteria.json",
                        weights)


def load_config(catalog_path: Optional[Union[str, Path]] = None,
                weights_path: Optional[Union[str, Path]] = None):
    """Catalog and weights from optional files; the packaged catalog when
    no catalog path is given. A weights file holds only "weights" and
    "thresholds", and wins over overrides in the catalog file. Returns
    (catalog, weights); unreadable content raises SchemaError.
    """
    entries, w = None, default_weights()
    if catalog_path:
        entries, w = _split_catalog(_read_json(catalog_path, "catalog"), w)
    if weights_path:
        doc = _read_json(weights_path, "weights file")
        if not isinstance(doc, dict) or \
                not set(doc) <= {"weights", "thresholds"}:
            raise SchemaError("weights file must be an object with keys "
                              "among 'weights' and 'thresholds'")
        w = _weights_from_json(doc, w)
    if entries is None:
        return default_catalog(w)
    return _build_catalog(entries, w), w
