"""Belief-function fusion of automatic web-accessibility assessor reports
into per-deficiency-frame indicators."""

from .belief import (
    MassFunction,
    Reliability,
    combine_all,
    combine_conjunctive,
    discount,
    make_mass,
    pignistic,
    vacuous,
)
from .engine import (
    AccessLevel,
    EstimationTriple,
    FrameDecision,
    SourceResult,
    discretize,
    masses_from_estimates,
    score_frame,
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
    total_tests,
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
    default_catalog,
    default_weights,
    load_catalog,
    load_config,
)

__version__ = "0.1.0"
