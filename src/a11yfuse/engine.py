"""Per-frame scoring pipeline.

For each assessor: estimate accessibility / non-accessibility / uncertainty
from the criterion counts of one deficiency frame, normalize the estimates
into a mass function, discount by the assessor's reliability; then fuse all
assessors conjunctively, take the pignistic decision and discretize it into
five levels rendered as arrow glyphs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum

from . import belief
from .belief import MassFunction
from .errors import EmptySourceSet, MixedUrls, OutOfRange, TotalConflict
from .reports import AssessorReport
from .wcag import (
    FRAMES,
    Catalog,
    DeficiencyFrame,
    WeightConfig,
    alpha_for,
    criteria_in_frame,
    resolve_frame,
)


class EstimationParts(namedtuple(
        "EstimationParts",
        "num_ac den_ac num_nac den_nac num_omega den_omega")):
    """Numerators and denominators of one assessor's evidence estimates
    for one frame, kept for explain-style traces."""

    __slots__ = ()

    def triple(self) -> tuple:
        """The raw (unnormalized) estimates (e_ac, e_nac, e_omega)."""
        num_ac, den_ac, num_nac, den_nac, num_omega, den_omega = self
        return (
            num_ac / den_ac if den_ac > 0 else 0.0,
            num_nac / den_nac if den_nac > 0 else 0.0,
            num_omega / den_omega if den_omega > 0 else 0.0)


class AccessLevel(str, Enum):
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


# very bad to very good, indexed by discretize's count of thresholds at or
# below the decision; the glyphs are down, down-right, right, up-right, up
_LEVELS = tuple(AccessLevel)
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


def estimate_parts(report: AssessorReport, frame: DeficiencyFrame,
                   catalog: Catalog, w: WeightConfig) -> EstimationParts:
    """Evidence sums for one frame, with numerators and denominators split
    out; .triple() divides them, a zero denominator giving a zero term.
    Each criterion's counts are weighed by w's weight for its level.

    e_ac's denominator counts the tests run over every observation the
    catalog holds, in all frames. Every other sum counts only the
    observations whose ids criteria_in_frame returns.
    """
    frame_ids = criteria_in_frame(catalog, frame)
    alphas = alpha_for(w)
    _, beta_err, beta_likely, beta_potential, _ = report.profile
    num_ac = num_nac = num_omega = 0.0
    tested = den_nac = den_omega = 0
    # unpacking and indexing, not named-field reads, which Python 3.11 does
    # not specialise; the sums keep their order, so every float is unchanged
    get = catalog.get
    for cid, obs in report.observations.items():
        spec = get(cid)
        if spec is None:
            continue
        _, n_err, n_ok, n_likely, n_potential, t_err, t_likely, \
            t_potential = obs
        tested += n_err + n_ok + n_likely + n_potential
        if cid not in frame_ids:
            continue
        alpha = alphas[spec[1]]  # the weight of the criterion's level
        num_ac += n_ok * alpha
        num_nac += n_err * alpha * beta_err
        den_nac += t_err
        num_omega += (n_likely * alpha * beta_likely
                      + n_potential * alpha * beta_potential)
        den_omega += t_likely + t_potential
    return EstimationParts(num_ac, float(tested), num_nac,
                           float(den_nac), num_omega, float(den_omega))


def masses_from_estimates(e: tuple) -> MassFunction:
    """Normalize the estimates (e_ac, e_nac, e_omega) into a mass function.

    With no evidence at all (all three estimates zero) the source commits
    to nothing: the result is vacuous.
    """
    e_ac, e_nac, e_omega = e
    s = e_ac + e_nac + e_omega
    if s <= 0.0:
        return belief.vacuous()
    return belief.make_mass(e_ac / s, e_nac / s, e_omega / s)


def discretize(d: float, w: WeightConfig) -> AccessLevel:
    """Map a decision value onto the five-level scale.

    Bands are lower-bound inclusive, so an exact threshold value gets the
    better level.
    """
    if not 0.0 <= d <= 1.0:
        raise OutOfRange(f"decision value {d} outside [0, 1]")
    return _LEVELS[bisect_right((w.s1, w.s2, w.s3, w.s4), d)]


def score_page(reports: Iterable[AssessorReport], catalog: Catalog,
               w: WeightConfig, frames: Iterable[DeficiencyFrame] = FRAMES
               ) -> dict[DeficiencyFrame, FrameDecision]:
    """Fuse all assessors' evidence for each of `frames` and decide, keyed
    in the order given, each name resolved as resolve_frame does. Each
    assessor name is made unique: #<index in the page> is appended while
    an earlier one holds it. Only the criteria the catalog holds count."""
    frames = [resolve_frame(frame) for frame in frames]
    report_list = list(reports)
    if not report_list:
        raise EmptySourceSet("no reports to score")
    urls = {r.url for r in report_list}
    if len(urls) > 1:
        raise MixedUrls(f"reports refer to different pages: {sorted(urls)}")

    named = []
    names = set()
    for idx, report in enumerate(report_list):
        name, _, _, _, delta = report.profile
        while name in names:
            name = f"{name}#{idx}"
        names.add(name)
        named.append((name, delta, report))

    decisions = {}
    for frame in frames:
        sources = []
        for name, delta, report in named:
            parts = estimate_parts(report, frame, catalog, w)
            m = masses_from_estimates(parts.triple())
            sources.append(SourceResult(name, delta, parts, m,
                                        belief.discount(m, delta)))
        fused = belief.combine_all(s.discounted for s in sources)
        try:
            decision = belief.pignistic(fused)
            level = discretize(decision, w)
        except TotalConflict:
            decision = level = None
        decisions[frame] = FrameDecision(frame, tuple(sources), fused,
                                         decision, level)
    return decisions
