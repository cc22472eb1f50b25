"""Belief-function fusion of automatic web-accessibility assessor reports
into per-deficiency-frame indicators."""

from .belief import (
    MassFunction,
    combine_all,
    combine_conjunctive,
    discount,
    make_mass,
    pignistic,
    vacuous,
)
from .engine import (
    AccessLevel,
    FrameDecision,
    SourceResult,
    discretize,
    masses_from_estimates,
    score_page,
)
from .errors import IndicatorError
from .reports import (
    AssessorProfile,
    AssessorReport,
    CriterionObservation,
    generate_fixture,
    parse_report,
    serialize_report,
)
from .wcag import (
    FRAMES,
    GLOBAL,
    ConformanceLevel,
    CriterionSpec,
    DeficiencyFrame,
    WeightConfig,
    alpha_for,
    criteria_in_frame,
    load_config,
)

__version__ = "0.1.0"
