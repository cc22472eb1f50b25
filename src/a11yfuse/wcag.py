"""WCAG 2.0 success-criterion catalog, deficiency frames and weighting.

The shipped catalog tags each of the 61 WCAG 2.0 success criteria with the
deficiency categories it primarily serves; it is plain JSON data so users can
replace the mapping from a file. The conformance-level weights and the
discretization thresholds are set apart from it, in a weights file.
"""

from __future__ import annotations

import json
import os
from collections.abc import Collection, Iterable, Mapping
from enum import Enum

from .errors import SchemaError, UnknownFrame, checked_tuple


class ConformanceLevel(str, Enum):
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


class WeightConfig(checked_tuple(
        "WeightConfig", "alpha_a alpha_aa alpha_aaa s1 s2 s3 s4",
        defaults=(1.0, 0.8, 0.6, 0.6, 0.7, 0.8, 0.9))):
    """Level weights and the four discretization thresholds, stored as floats.
    The class constants are the certainty coefficients and reliability an
    assessor report falls back to when its assessor block omits them."""

    __slots__ = ()
    beta_err, beta_likely, beta_potential, delta = 1.0, 0.5, 1.0, 1.0

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for v in self:
            if type(v) not in (int, float):
                raise SchemaError(f"weights and thresholds must be numbers, "
                                  f"got {v!r}")
        if not 0.0 < self.alpha_aaa <= self.alpha_aa <= self.alpha_a <= 1.0:
            raise SchemaError("level weights must satisfy "
                              "0 < alpha_aaa <= alpha_aa <= alpha_a <= 1")
        if not 0.0 < self.s1 < self.s2 < self.s3 < self.s4 < 1.0:
            raise SchemaError("thresholds must satisfy 0 < s1 < s2 < s3 < s4 < 1")
        return tuple.__new__(cls, map(float, self))  # in range: no overflow


def alpha_for(w: WeightConfig) -> dict[str, float]:
    """The weight of each conformance level under w, keyed by the level,
    which a ConformanceLevel member indexes too."""
    return {"A": w.alpha_a, "AA": w.alpha_aa, "AAA": w.alpha_aaa}


class CriterionSpec(checked_tuple("CriterionSpec", "id level frames")):
    """One WCAG success criterion: its conformance level and the collection
    of deficiency frames it serves, each given as a member or its name."""

    __slots__ = ()

    def __new__(cls, id: str, level: str, frames: Collection[str]):
        if not isinstance(id, str):
            raise SchemaError(f"catalog id must be a string, got {id!r}")
        if not isinstance(frames, (list, tuple, set, frozenset)):
            raise SchemaError(f"criterion {id!r}: frames must be an "
                              f"array, got {frames!r}")
        try:
            level = ConformanceLevel(level)
            frames = frozenset(map(DeficiencyFrame, frames))
        except ValueError as exc:
            raise SchemaError(f"criterion {id!r}: {exc}") from exc
        if not frames:
            raise SchemaError(f"criterion {id!r} belongs to no frame")
        if GLOBAL in frames:
            raise SchemaError(f"criterion {id!r}: frames may not list global")
        return tuple.__new__(cls, (id, level, frames))


class Catalog(dict):
    """Catalog(mapping): a read-only, copyable and picklable mapping from
    criterion id to CriterionSpec. `frame_ids` maps each of FRAMES to its
    ids, built once: every mutator raises TypeError, so none goes stale."""

    __slots__ = ("frame_ids",)

    def __init__(self, criteria: Mapping[str, CriterionSpec]):
        super().__init__(criteria)
        self.frame_ids = {f: frozenset(cid for cid, c in self.items()
                                       if f is GLOBAL or f in c.frames)
                          for f in FRAMES}

    def __reduce__(self):
        return Catalog, (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Catalog is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def criteria_in_frame(catalog: Catalog, frame: DeficiencyFrame) -> frozenset:
    """Ids of the criteria in one deficiency frame, or all of them for
    GLOBAL: the Catalog's own set, looked up, never rebuilt."""
    return catalog.frame_ids[resolve_frame(frame)]


def _unknown_keys(where: str, doc: dict, allowed: frozenset) -> SchemaError:
    extra = ", ".join(sorted(map(repr, doc.keys() - allowed)))
    return SchemaError(f"{where}: unknown key(s) {extra}")


_WEIGHTS_FILE_KEYS = frozenset(("weights", "thresholds"))
_CRITERION_KEYS = frozenset(("id", "level", "frames"))
_WEIGHT_KEYS = {"a": "alpha_a", "aa": "alpha_aa", "aaa": "alpha_aaa"}
_PACKAGED = os.path.join(os.path.dirname(__file__), "data",
                         "wcag20_criteria.json")


def _build_catalog(entries: Iterable[dict]) -> Catalog:
    criteria: dict[str, CriterionSpec] = {}
    for entry in entries:
        if not isinstance(entry, dict) or not _CRITERION_KEYS.issubset(entry):
            raise SchemaError(f"bad catalog entry: {entry!r}")
        cid = entry["id"]
        if not _CRITERION_KEYS.issuperset(entry):
            raise _unknown_keys(f"criterion {cid!r}", entry, _CRITERION_KEYS)
        spec = CriterionSpec(cid, entry["level"], entry["frames"])
        if criteria.setdefault(cid, spec) is not spec:
            raise SchemaError(f"duplicate criterion id {cid!r}")
    return Catalog(criteria)


def _decode_json(document: str | bytes, what: str):
    """Parse JSON text or UTF-8 bytes; a fault raises SchemaError."""
    try:
        return json.loads(document.decode("utf-8")
                          if isinstance(document, bytes) else document)
    except (ValueError, RecursionError) as exc:  # bad, too deep, not UTF-8
        raise SchemaError(f"{what} is not valid UTF-8 JSON: {exc}") from exc


def _file_bytes(path: str | os.PathLike) -> bytes:
    """The file's bytes. A path that open rejects raises OSError with path
    as filename, also for a NUL or a character the OS cannot encode."""
    try:
        f = open(path, "rb")
    except ValueError as exc:
        raise OSError(None, str(exc), os.fspath(path)) from None
    with f:
        return f.read()


def _weights_from_json(doc) -> WeightConfig:
    """WeightConfig() with a weights file's level weights under "weights"
    and its "thresholds" list applied; any other key is rejected, and
    WeightConfig checks the values."""
    if not isinstance(doc, dict):
        raise SchemaError("weights file must be a JSON object")
    if not _WEIGHTS_FILE_KEYS.issuperset(doc):
        raise _unknown_keys("weights file", doc, _WEIGHTS_FILE_KEYS)
    weights = doc.get("weights", {})
    if not isinstance(weights, dict):
        raise SchemaError("weights must be a JSON object")
    if not weights.keys() <= _WEIGHT_KEYS.keys():
        raise _unknown_keys("weights", weights, _WEIGHT_KEYS.keys())
    ts = doc.get("thresholds", ())
    if "thresholds" in doc and not (isinstance(ts, (list, tuple))
                                    and len(ts) == 4):
        raise SchemaError("thresholds must be a list of 4 values")
    kwargs = {attr: weights[key]
              for key, attr in _WEIGHT_KEYS.items() if key in weights}
    kwargs.update(zip(("s1", "s2", "s3", "s4"), ts))
    return WeightConfig(**kwargs)


def load_config(catalog: str | os.PathLike | list | None = None,
                weights: str | os.PathLike | None = None):
    """(catalog, weights): a read-only Catalog from criterion id to
    CriterionSpec, and the WeightConfig of level weights and thresholds.

    `catalog` is a file path (str or os.PathLike), a parsed document, or
    None for the packaged catalog; a document is a JSON array of {"id",
    "level", "frames"} entries. `weights` names a file of "weights" and
    "thresholds", the one place to set them; without it they are
    WeightConfig(). Bad content raises SchemaError; a file that cannot be
    opened raises OSError with its path as filename."""
    doc = _PACKAGED if catalog is None else catalog  # a path or document
    if isinstance(doc, (str, os.PathLike)):
        doc = _decode_json(_file_bytes(doc), "catalog")
    if not isinstance(doc, list):
        raise SchemaError("catalog must be a JSON array of criteria; weights "
                          "and thresholds go in a weights file")
    w = (_weights_from_json(_decode_json(_file_bytes(weights), "weights file"))
         if weights is not None else WeightConfig())
    return _build_catalog(doc), w
