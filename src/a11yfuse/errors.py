"""Exception hierarchy for the accessibility fusion pipeline, and the
named-tuple base of the value types that check their fields."""

from collections import namedtuple


def checked_tuple(typename: str, field_names: str, **kwargs) -> type:
    """A named-tuple base for a subclass whose constructor checks every
    field: _make (which _replace calls), copies and pickles build through
    that constructor, after the named tuple's own field-count check."""
    base = namedtuple(typename, field_names, **kwargs)

    class Checked(base):
        __slots__ = ()

        @classmethod
        def _make(cls, fields):
            return cls(*base._make(fields))

        def __reduce__(self):
            return type(self), tuple(self)

    return Checked


class IndicatorError(Exception):
    """Base class for all library errors."""


class InvalidMass(IndicatorError):
    """Mass components outside [0, 1] or not summing to 1 within tolerance."""


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
