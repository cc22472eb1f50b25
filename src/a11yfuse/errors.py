"""Exception hierarchy for the accessibility fusion pipeline."""


class IndicatorError(Exception):
    """Base class for all library errors."""


class InvalidMass(IndicatorError):
    """Mass components outside [0, 1] or not summing to 1 within tolerance."""


class ConflictPresent(IndicatorError):
    """Discounting applied to a mass that already carries conflict."""


class EmptySourceSet(IndicatorError):
    """Fusion requested over zero sources."""


class TotalConflict(IndicatorError):
    """All mass sits on the empty set; no decision can be taken."""


class OutOfRange(IndicatorError):
    """A scalar argument lies outside its admissible interval."""


class SchemaError(IndicatorError):
    """A report, catalog or weights document, or a value, breaks its schema."""


class CountInconsistency(IndicatorError):
    """Observed defect counts exceed the number of applicable tests."""


class MixedUrls(IndicatorError):
    """Reports grouped as one page refer to different URLs."""


class UnknownFrame(IndicatorError):
    """A frame name does not match any DeficiencyFrame member."""
