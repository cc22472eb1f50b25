"""Per-frame scoring pipeline.

For each assessor: estimate accessibility / non-accessibility / uncertainty
from the criterion counts of one deficiency frame, normalize the estimates
into a mass function, discount by the assessor's reliability; then fuse all
assessors conjunctively, take the pignistic decision and discretize it into
five levels rendered as arrow glyphs.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Dict, Iterable, Mapping

from . import belief
from .belief import MassFunction
from .errors import EmptySourceSet, MixedUrls, OutOfRange, TotalConflict
from .reports import AssessorReport
from .wcag import (
    FRAMES,
    FrameOrGlobal,
    WeightConfig,
    criteria_in_frame,
    resolve_frame,
)


class EstimationTriple(namedtuple("EstimationTriple", "e_ac e_nac e_omega")):
    """Raw (unnormalized) evidence estimates for one assessor and frame."""

    __slots__ = ()

    @property
    def total(self) -> float:
        return self.e_ac + self.e_nac + self.e_omega


class EstimationParts(namedtuple(
        "EstimationParts",
        "num_ac den_ac num_nac den_nac num_omega den_omega")):
    """Numerators and denominators behind an EstimationTriple, kept for
    explain-style traces."""

    __slots__ = ()

    def triple(self) -> EstimationTriple:
        return EstimationTriple(
            e_ac=self.num_ac / self.den_ac if self.den_ac > 0 else 0.0,
            e_nac=self.num_nac / self.den_nac if self.den_nac > 0 else 0.0,
            e_omega=(self.num_omega / self.den_omega
                     if self.den_omega > 0 else 0.0))


class AccessLevel(Enum):
    VERY_BAD = "very bad"
    BAD = "bad"
    MODERATE = "moderate"
    GOOD = "good"
    VERY_GOOD = "very good"

    @property
    def glyph(self) -> str:
        return _GLYPHS[self]

    @property
    def ascii_glyph(self) -> str:
        return _ASCII_GLYPHS[self]


# in AccessLevel order, very bad to very good: down, down-right, right,
# up-right, up
_GLYPHS = dict(zip(AccessLevel, "↓↘→↗↑"))
_ASCII_GLYPHS = dict(zip(AccessLevel, "v\\-/^"))


class SourceResult(namedtuple(
        "SourceResult", "name delta parts mass discounted")):
    """One assessor's evidence for one frame, under a name unique within
    the page: estimation parts (EstimationParts), normalized mass and
    discounted mass (MassFunction), and the reliability delta used."""

    __slots__ = ()


class FrameDecision(namedtuple(
        "FrameDecision", "frame sources fused decision level")):
    """The whole scoring trace of one frame: the frame, a SourceResult per
    report, the fused MassFunction, the decision value and its AccessLevel.
    Under total conflict decision and level are None."""

    __slots__ = ()

    @property
    def per_source(self) -> Dict[str, MassFunction]:
        return {s.name: s.discounted for s in self.sources}


def estimate_parts(report: AssessorReport, frame: FrameOrGlobal,
                   catalog: Mapping) -> EstimationParts:
    """Evidence sums for one frame, with numerators and denominators split
    out; .triple() divides them, a zero denominator giving a zero term.

    Correct checkpoints are normalized by the assessor's total test count
    over ALL frames; errors and uncertain problems are normalized by the
    frame-restricted test totals. Criteria absent from the report contribute
    nothing.
    """
    frame_ids = {c.id for c in criteria_in_frame(catalog, frame)}
    p = report.profile
    num_ac = num_nac = num_omega = 0.0
    den_nac = den_omega = 0
    for cid, obs in report.observations.items():
        if cid not in frame_ids:
            continue
        alpha = catalog[cid].alpha
        num_ac += obs.n_ok * alpha
        num_nac += obs.n_err * alpha * p.beta_err
        den_nac += obs.t_err
        num_omega += (obs.n_likely * alpha * p.beta_likely
                      + obs.n_potential * alpha * p.beta_potential)
        den_omega += obs.t_likely + obs.t_potential
    return EstimationParts(num_ac=num_ac, den_ac=float(report.total_tests),
                           num_nac=num_nac, den_nac=float(den_nac),
                           num_omega=num_omega, den_omega=float(den_omega))


def masses_from_estimates(e: EstimationTriple) -> MassFunction:
    """Normalize the estimate triple into a mass function.

    With no evidence at all (all three estimates zero) the source commits
    to nothing: the result is vacuous.
    """
    s = e.total
    if s <= 0.0:
        return belief.vacuous()
    return belief.make_mass(e.e_ac / s, e.e_nac / s, e.e_omega / s)


def discretize(d: float, w: WeightConfig) -> AccessLevel:
    """Map a decision value onto the five-level scale.

    Bands are lower-bound inclusive, so an exact threshold value gets the
    better level.
    """
    if not 0.0 <= d <= 1.0:
        raise OutOfRange(f"decision value {d} outside [0, 1]")
    if d >= w.s4:
        return AccessLevel.VERY_GOOD
    if d >= w.s3:
        return AccessLevel.GOOD
    if d >= w.s2:
        return AccessLevel.MODERATE
    if d >= w.s1:
        return AccessLevel.BAD
    return AccessLevel.VERY_BAD


def score_frame(reports: Iterable[AssessorReport], frame: FrameOrGlobal,
                catalog: Mapping, w: WeightConfig) -> FrameDecision:
    """Fuse all assessors' evidence for one frame and decide. A repeated
    assessor name is made unique by appending #<index in the page>."""
    frame = resolve_frame(frame)
    report_list = list(reports)
    if not report_list:
        raise EmptySourceSet("no reports to score")
    urls = {r.url for r in report_list}
    if len(urls) > 1:
        raise MixedUrls(f"reports refer to different pages: {sorted(urls)}")

    sources = []
    names = set()
    for idx, report in enumerate(report_list):
        name = report.profile.name
        if name in names:
            name = f"{name}#{idx}"
        names.add(name)
        parts = estimate_parts(report, frame, catalog)
        m = masses_from_estimates(parts.triple())
        sources.append(SourceResult(name, report.profile.delta, parts, m,
                                    belief.discount(m, report.profile.delta)))

    fused = belief.combine_all(s.discounted for s in sources)
    try:
        decision = belief.pignistic(fused)
    except TotalConflict:
        return FrameDecision(frame, tuple(sources), fused, None, None)
    return FrameDecision(frame, tuple(sources), fused, decision,
                         discretize(decision, w))


def score_page(reports: Iterable[AssessorReport], catalog: Mapping,
               w: WeightConfig) -> Dict[FrameOrGlobal, FrameDecision]:
    """Decisions for the four deficiency frames plus the global view, keyed
    in FRAMES order."""
    report_list = list(reports)
    return {frame: score_frame(report_list, frame, catalog, w)
            for frame in FRAMES}
