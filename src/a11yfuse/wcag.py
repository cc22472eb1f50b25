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


class DeficiencyFrame(str, Enum):
    """A scored frame, equal to its name; GLOBAL is every criterion."""

    VISUAL = "visual"
    HEARING = "hearing"
    MOTOR = "motor"
    COGNITIVE = "cognitive"
    GLOBAL = "global"


GLOBAL = DeficiencyFrame.GLOBAL

#: The five scored frames in output order: the deficiency frames, then global.
FRAMES = tuple(DeficiencyFrame)
_frame_sets = (None, {})  # last read-only catalog (held), its frame sets


def resolve_frame(name: str) -> DeficiencyFrame:
    """Map a frame name (or member), in any case, to its member."""
    if isinstance(name, DeficiencyFrame):
        return name
    try:
        return DeficiencyFrame(str(name).lower())
    except ValueError:
        names = ", ".join(f.value for f in FRAMES)
        raise UnknownFrame(f"unknown frame {name!r}; expected one of "
                           f"{names}") from None


class WeightConfig(namedtuple(
        "WeightConfig", "alpha_a alpha_aa alpha_aaa s1 s2 s3 s4",
        defaults=(1.0, 0.8, 0.6, 0.6, 0.7, 0.8, 0.9))):
    """Conformance-level weights and the four discretization thresholds.
    The class constants are the certainty coefficients and reliability an
    assessor report falls back to when its assessor block omits them."""

    __slots__ = ()
    beta_err, beta_likely, beta_potential, delta = 1.0, 0.5, 1.0, 1.0

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.alpha_aaa <= self.alpha_aa <= self.alpha_a <= 1.0:
            raise SchemaError("level weights must satisfy "
                              "0 < alpha_aaa <= alpha_aa <= alpha_a <= 1")
        if not 0.0 < self.s1 < self.s2 < self.s3 < self.s4 < 1.0:
            raise SchemaError("thresholds must satisfy 0 < s1 < s2 < s3 < s4 < 1")
        return self

    @property
    def thresholds(self) -> tuple:
        return (self.s1, self.s2, self.s3, self.s4)


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
            raise SchemaError(f"criterion {id!r} belongs to no frame")
        if GLOBAL in frames:
            raise SchemaError(f"criterion {id!r}: frames may not list global")
        if not 0.0 < alpha <= 1.0:
            raise SchemaError(f"criterion {id!r} weight outside (0, 1]")
        return tuple.__new__(cls, (id, level, frames, alpha))


def _ids_in_frame(catalog: Mapping, frame: DeficiencyFrame) -> frozenset:
    return frozenset(cid for cid, c in catalog.items()
                     if frame is GLOBAL or frame in c.frames)


def criteria_in_frame(catalog: Mapping[str, CriterionSpec],
                      frame: DeficiencyFrame) -> frozenset:
    """Ids of the criteria in one deficiency frame, or all of them for
    GLOBAL. The five sets of the last read-only catalog asked about (as
    load_config returns) are kept; any other mapping is scanned."""
    global _frame_sets
    frame = resolve_frame(frame)
    if type(catalog) is not MappingProxyType:
        return _ids_in_frame(catalog, frame)
    last, sets = _frame_sets  # one read, so another thread cannot mix them
    if last is not catalog:
        sets = {f: _ids_in_frame(catalog, f) for f in FRAMES}
        _frame_sets = catalog, sets
    return sets[frame]


def _unknown_keys(where: str, doc: dict, allowed: frozenset) -> SchemaError:
    extra = ", ".join(sorted(map(repr, doc.keys() - allowed)))
    return SchemaError(f"{where}: unknown key(s) {extra}")


_CATALOG_KEYS = frozenset(("criteria", "weights", "thresholds"))
_CRITERION_KEYS = frozenset(("id", "level", "frames"))
_WEIGHT_KEYS = {"a": "alpha_a", "aa": "alpha_aa", "aaa": "alpha_aaa"}
_PACKAGED = Path(__file__).parent / "data" / "wcag20_criteria.json"


def _build_catalog(entries: Iterable[dict], w: WeightConfig) -> Mapping:
    criteria: Dict[str, CriterionSpec] = {}
    for entry in entries:
        try:
            cid = entry["id"]
            if not isinstance(cid, str):
                raise SchemaError(f"catalog id must be a string, got {cid!r}")
            level = ConformanceLevel(entry["level"])
            frames = entry["frames"]
            if not isinstance(frames, (list, tuple)):
                raise SchemaError(f"criterion {cid!r}: frames must be an "
                                  f"array, got {frames!r}")
            frames = frozenset(DeficiencyFrame(f) for f in frames)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad catalog entry {entry!r}: {exc}") from exc
        if not _CRITERION_KEYS.issuperset(entry):
            raise _unknown_keys(f"criterion {cid!r}", entry, _CRITERION_KEYS)
        if cid in criteria:
            raise SchemaError(f"duplicate criterion id {cid!r}")
        criteria[cid] = CriterionSpec(cid, level, frames, alpha_for(level, w))
    return MappingProxyType(criteria)


def _read_json(path: Union[str, Path], what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad, too deep, not UTF-8
        raise SchemaError(f"{what} is not valid UTF-8 JSON: {exc}") from exc


def _weights_from_json(doc: dict, base: WeightConfig) -> WeightConfig:
    """Apply the level weights under "weights" and the "thresholds" list of
    a catalog object or weights file; any other weights key, and any value
    that is not an int or float (a bool is not), is rejected."""
    weights = doc.get("weights", {})
    if not isinstance(weights, dict) or not set(weights) <= set(_WEIGHT_KEYS):
        raise SchemaError(f"'weights' must be an object with keys among "
                          f"{sorted(_WEIGHT_KEYS)}, got {weights!r}")
    ts = doc.get("thresholds", ())
    if "thresholds" in doc and not (isinstance(ts, (list, tuple))
                                    and len(ts) == 4):
        raise SchemaError("thresholds must be a list of 4 values")
    kwargs = {attr: weights[key]
              for key, attr in _WEIGHT_KEYS.items() if key in weights}
    kwargs.update(zip(("s1", "s2", "s3", "s4"), ts))
    for v in kwargs.values():
        if type(v) not in (int, float):
            raise SchemaError(f"weights and thresholds must be numbers, "
                              f"got {v!r}")
    if not kwargs:
        return base
    return WeightConfig(**{**base._asdict(),
                           **{k: float(v) for k, v in kwargs.items()}})


def load_config(catalog: Union[str, Path, dict, list, None] = None,
                weights: Optional[Union[str, Path]] = None):
    """The criterion catalog and the weights and thresholds, which default
    to WeightConfig().

    `catalog` is a file path, an already-parsed document, or None (or an
    empty path) for the packaged catalog. A document is either a bare array
    of {"id", "level", "frames"} entries or an object {"criteria": [...],
    "weights": {...}, "thresholds": [...]}. `weights` names a file holding
    only "weights" and "thresholds", which win over overrides in the
    catalog. Returns (catalog, weights), the catalog a read-only mapping
    from criterion id to CriterionSpec; bad content raises SchemaError.
    """
    if catalog is None or isinstance(catalog, (str, Path)):
        catalog = _read_json(catalog or _PACKAGED, "catalog")
    w = WeightConfig()
    if isinstance(catalog, dict):
        if not _CATALOG_KEYS.issuperset(catalog):
            raise _unknown_keys("catalog", catalog, _CATALOG_KEYS)
        entries = catalog.get("criteria")
        if not isinstance(entries, (list, tuple)):
            raise SchemaError("catalog object lacks a 'criteria' array")
        w = _weights_from_json(catalog, w)
    elif isinstance(catalog, list):
        entries = catalog
    else:
        raise SchemaError("catalog must be a JSON array or object")
    if weights:
        doc = _read_json(weights, "weights file")
        if not isinstance(doc, dict) or \
                not set(doc) <= {"weights", "thresholds"}:
            raise SchemaError("weights file must be an object with keys "
                              "among 'weights' and 'thresholds'")
        w = _weights_from_json(doc, w)
    return _build_catalog(entries, w), w
