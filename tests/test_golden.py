"""Rendered bytes pinned by hash: every score format and every explain frame
over 53 two-assessor fixture pages, including the three seeds (148, 359,
987) whose hearing frame once overshot 1.0, and the generated fixture
reports of every kind for those seeds, score --format json under each
way of configuring the catalog and weights, and every rendering under a
catalog of the first 40 packaged criteria, whose skipped-criterion warning
lines are pinned too; and every rendering of six pages built value by
value, which between them print every level in both glyph sets, a
total-conflict cell, an empty report and a report whose every criterion the
packaged catalog skips. A refactor that keeps output byte-identical keeps
these hashes; a change that alters output on purpose records the new hashes
and says why."""

import hashlib
import json
import os
from pathlib import Path

import pytest

import a11yfuse
from a11yfuse.cli import main
from a11yfuse.reports import (AssessorProfile, AssessorReport,
                              CriterionObservation, generate_fixture,
                              serialize_report)

SEEDS = (*range(50), 148, 359, 987)
KINDS = ("error-heavy", "potential-heavy")

RENDERINGS = {
    "score-json": ("score", "--format", "json"),
    "score-table": ("score",),
    "score-tsv-ascii": ("score", "--format", "tsv", "--ascii"),
    **{f"explain-{frame}": ("explain", "--frame", frame)
       for frame in ("visual", "hearing", "motor", "cognitive", "global")},
}

# sha256 of stdout and of stderr, and the exit code, per rendering.
NOTHING = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
GOLDEN = {
    "score-json": (
        "219fe69fb7209d7d6d6bf66eb07ef34510cd2b0420861e3681d4134991179654",
        NOTHING, 0),
    "score-table": (
        "81a36655dc3fe3892ecf88bd0a64245b97369f45b4bf121e40cdf207ad25971f",
        NOTHING, 0),
    "score-tsv-ascii": (
        "64b8a38432cc4d59c003c3b742a6660aae6b88802b41feb8f77e344aa418bd62",
        NOTHING, 0),
    "explain-visual": (
        "5164d9af14f272651a59cdbd15d9296c3a3e0e80ee45ae7c47b09545be722ffa",
        NOTHING, 0),
    "explain-hearing": (
        "d244c637947a51811bb85ba0091cf5590603b3401ad88b6c7b7331dd146041bc",
        NOTHING, 0),
    "explain-motor": (
        "12de353a3e91374dcb69fa3122c99d79cfea77fa7136dd682013231048133e95",
        NOTHING, 0),
    "explain-cognitive": (
        "7d9e60ab9b74274fdbe2761453975fd58b880b48b4807fe86a3a22e6d7206101",
        NOTHING, 0),
    "explain-global": (
        "316dfc7dc4a9d9cd4232de8317f95ce49ac248d506f4f53827444be2a2b98736",
        NOTHING, 0),
}


# sha256 of the generate_fixture output for SEEDS, concatenated, per kind.
FIXTURE_GOLDEN = {
    "balanced":
        "35b9cb21ed71c29b4b5f20f866fa4c6e37ba6af579169e1037a83482f25311c6",
    "error-heavy":
        "f2cfb1e39ac552759c38815ba2a9074e6f04a473ab8cfadd38c1e3057ea40339",
    "potential-heavy":
        "0418843b3fa4882d1b6b74424a7c3453d8f0bbcd3f139a42f0cfc8e6cac6ca34",
}


# The config paths, each rendered as score --format json over the same pages.
# Every catalog lists every packaged criterion, so no criterion is skipped
# and stderr carries no warning text.
PACKAGED = json.loads((Path(a11yfuse.__file__).parent / "data"
                       / "wcag20_criteria.json").read_text(encoding="utf-8"))
CONFIG_DOCS = {
    # every criterion also counts for the cognitive frame
    "array.json": [{**c, "frames": sorted({*c["frames"], "cognitive"})}
                   for c in PACKAGED],
    "object.json": {"criteria": PACKAGED,
                    "weights": {"aa": 0.7, "aaa": 0.4},
                    "thresholds": [0.5, 0.65, 0.75, 0.85]},
    "weights.json": {"weights": {"a": 0.9, "aa": 0.75},
                     "thresholds": [0.55, 0.7, 0.8, 0.95]},
}
CONFIGS = {
    "catalog-object": ("--catalog", "object.json"),
    "catalog-array": ("--catalog", "array.json"),
    "weights": ("--weights", "weights.json"),
    "catalog-and-weights": ("--catalog", "object.json",
                            "--weights", "weights.json"),
}
CONFIG_GOLDEN = {
    "catalog-object": (
        "be7b66b28d71514427c9c12e3d76324c77bbb4bacefb13652c9c88c2631569d9",
        NOTHING, 0),
    "catalog-array": (
        "1344b996b49e1bfe9be6a2d01c47674d8d35342a3daeda49f894348dd7957d4a",
        NOTHING, 0),
    "weights": (
        "81628b8e3e1cb8c87c1a29f8d93e44c5eae449deb06c51f8959114e0cd79aed3",
        NOTHING, 0),
    "catalog-and-weights": (
        "7eb2112d4bce174face4aabc6c57d346f84e4f07bc7086952d3af4c474b346af",
        NOTHING, 0),
}


# sha256 of stdout and of stderr, and the exit code, per rendering under a
# catalog of the first 40 packaged criteria. stderr holds one warning line
# per skipped criterion, with the report directory cut from each path: the
# 879 lines are the same for every rendering.
SKIPPED = "3692ffd8ac3f51d56573af42a8639cb1245974f2f610cd282082e040344b8197"
SUBSET_GOLDEN = {
    "score-json": (
        "a2be82d2a19ce6531aa52a264eed9585bbccf9610412aab536fc74d8cf0c8966",
        SKIPPED, 0),
    "score-table": (
        "9214b039de5c47c7ded3bea8e373c31496ad8a46925be61215c9f15babd0e3ba",
        SKIPPED, 0),
    "score-tsv-ascii": (
        "8087b93fce8ad3d7412f06394aa2de02f12507723c905dcc6e81c08cfa472688",
        SKIPPED, 0),
    "explain-visual": (
        "fe7ba7c34ae19e286189b89c1dabec647b1b4e8fbf4ffcaf57b7ac9020cffdf6",
        SKIPPED, 0),
    "explain-hearing": (
        "4b2b68d7413590834c51b0d843db0368014ded0bdfcc3423ecde9ef6b9ee8c85",
        SKIPPED, 0),
    "explain-motor": (
        "e1cc47a299101fe300e6c2e61612cec43cfd36f2e7909793ac0c51a90798211d",
        SKIPPED, 0),
    "explain-cognitive": (
        "b9fdcc21042fb567de8a1acffcca196c71bd8d7ad4093a69fb8b1d082061b073",
        SKIPPED, 0),
    "explain-global": (
        "655602a265f190be3af230e1d6d075a28600ffa48c668a27ea12aab3e62c2e06",
        SKIPPED, 0),
}


@pytest.fixture(scope="module")
def page_args(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    args = []
    for seed in SEEDS:
        args.append("--page")
        for kind in KINDS:
            path = out / f"report-{kind}-{seed}.json"
            path.write_text(generate_fixture(seed, kind), encoding="utf-8")
            args.append(str(path))
    return args


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("rendering", RENDERINGS)
def test_rendered_bytes_unchanged(rendering, page_args, capsys):
    code = main([*RENDERINGS[rendering], *page_args])
    captured = capsys.readouterr()
    got = (_sha(captured.out), _sha(captured.err), code)
    assert got == GOLDEN[rendering], \
        f"{rendering}: rendered output differs from the pinned bytes"


@pytest.mark.parametrize("config", CONFIGS)
def test_config_paths_unchanged(config, page_args, tmp_path, capsys):
    for name, doc in CONFIG_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    flags = [str(tmp_path / a) if a.endswith(".json") else a
             for a in CONFIGS[config]]
    code = main(["score", "--format", "json", *flags, *page_args])
    captured = capsys.readouterr()
    got = (_sha(captured.out), _sha(captured.err), code)
    assert got == CONFIG_GOLDEN[config], \
        f"{config}: rendered output differs from the pinned bytes"


@pytest.mark.parametrize("rendering", RENDERINGS)
def test_subset_catalog_bytes_unchanged(rendering, page_args, tmp_path,
                                        capsys):
    catalog = tmp_path / "subset.json"
    catalog.write_text(json.dumps(PACKAGED[:40]), encoding="utf-8")
    code = main([*RENDERINGS[rendering], "--catalog", str(catalog),
                 *page_args])
    captured = capsys.readouterr()
    report_dir = os.path.dirname(page_args[1]) + os.sep
    got = (_sha(captured.out), _sha(captured.err.replace(report_dir, "")),
           code)
    assert got == SUBSET_GOLDEN[rendering], \
        f"{rendering}: rendered output differs from the pinned bytes"


@pytest.mark.parametrize("kind", FIXTURE_GOLDEN)
def test_fixture_bytes_unchanged(kind):
    got = _sha("".join(generate_fixture(seed, kind) for seed in SEEDS))
    assert got == FIXTURE_GOLDEN[kind], \
        f"{kind}: generated fixture reports differ from the pinned bytes"


# Pages built value by value, so that between them they print every level
# in both glyph sets, a total-conflict cell, an empty report and a report
# whose every criterion the packaged catalog skips. Each assessor is
# (name, criterion ids, counts), the same counts for each id, in the order
# n_err n_ok n_likely n_potential t_err t_likely t_potential.
ALL_IDS = [c["id"] for c in PACKAGED]
VISUAL_ONLY = [c["id"] for c in PACKAGED if c["frames"] == ["visual"]]
# Alone, visual to global: good, very bad, bad, good, good (global's exact
# 9/10 sits on s4 but rounds below it); and very good, moderate, good,
# very good, very good.
ONE_ERROR = (1, 9, 0, 0, 10, 0, 0)
ONE_POTENTIAL = (0, 9, 0, 1, 0, 0, 10)
OUTCOME_PAGES = {
    "errors": [("errors", ALL_IDS, ONE_ERROR)],
    "potential": [("potential", ALL_IDS, ONE_POTENTIAL)],
    "fused": [("errors", ALL_IDS, ONE_ERROR),
              ("potential", ALL_IDS, ONE_POTENTIAL)],
    # all correct against all wrong on visual-only criteria: the visual
    # and global cells conflict, the other frames keep the first assessor
    "conflict": [("correct", ALL_IDS, (0, 5, 0, 0, 0, 0, 0)),
                 ("wrong", VISUAL_ONLY, (5, 0, 0, 0, 5, 0, 0))],
    "empty": [("empty", [], ())],
    "skipped": [("unknown", ["0.0.1", "9.9.9"], (0, 3, 0, 0, 0, 0, 0))],
}

# sha256 of stdout and of stderr, and the exit code, per rendering of the
# outcome pages. stderr holds the two skipped-criterion warnings, with the
# report directory cut from each path, and for score the two total-conflict
# lines.
WARNED = "4dc1bb0165a6e71ec45b3af3d74afdeeb256c73441804d176d0cb2fc4bff10e2"
CONFLICTED = (
    "a446669ea0320d63507c09a5a345850e1647b9351961588c2b9fa20ae87568a8")
OUTCOME_GOLDEN = {
    "score-json": (
        "276503d8bc9ada825d1bee29c9b56fce2cc1b69efdc13b1c3e7999b24ecd32ea",
        CONFLICTED, 1),
    "score-table": (
        "2ff2ac94932c0f3d339910bc550371ae620aef72eabc13782eeabc590557c161",
        CONFLICTED, 1),
    "score-tsv-ascii": (
        "3acfa14177e01360125df3ee90ea89f997240324c671589b88266f80b541182a",
        CONFLICTED, 1),
    "explain-visual": (
        "20cda56077d3cc6faac050adc30f85a66d72d91412ee3a11c88aab0d5efac140",
        WARNED, 0),
    "explain-hearing": (
        "94bcb5e162ab01832339669810eb3e9919761dbb624fe12d4f790954097eddd0",
        WARNED, 0),
    "explain-motor": (
        "cdabab78968e8a7aaf787fc915066bd2c409c5aa92c248740057b1929b1c5518",
        WARNED, 0),
    "explain-cognitive": (
        "8cdf8685941974b7703a20b356aa201960dffc2c5776bd7f9b1e57e32c89ae21",
        WARNED, 0),
    "explain-global": (
        "5254afb3aae07b66d4d5ef5813cfd88eb9181dd1b797535baa292eedbbd98c1b",
        WARNED, 0),
}


@pytest.fixture(scope="module")
def outcome_args(tmp_path_factory):
    out = tmp_path_factory.mktemp("outcomes")
    args = []
    for page, assessors in OUTCOME_PAGES.items():
        args.append("--page")
        for name, ids, counts in assessors:
            report = AssessorReport(
                AssessorProfile(name), f"https://golden.test/{page}",
                {cid: CriterionObservation(cid, *counts) for cid in ids})
            path = out / f"{page}-{name}.json"
            path.write_text(serialize_report(report), encoding="utf-8")
            args.append(str(path))
    return args


@pytest.mark.parametrize("rendering", RENDERINGS)
def test_outcome_bytes_unchanged(rendering, outcome_args, capsys):
    code = main([*RENDERINGS[rendering], *outcome_args])
    captured = capsys.readouterr()
    report_dir = os.path.dirname(outcome_args[1]) + os.sep
    got = (_sha(captured.out), _sha(captured.err.replace(report_dir, "")),
           code)
    assert got == OUTCOME_GOLDEN[rendering], \
        f"{rendering}: rendered output differs from the pinned bytes"
