"""Rendered bytes pinned by hash: every score format and every explain frame
over 53 two-assessor fixture pages, including the three seeds (148, 359,
987) whose hearing frame once overshot 1.0. A refactor that keeps output
byte-identical keeps these hashes; a change that alters output on purpose
records the new hashes and says why."""

import hashlib

import pytest

from a11yfuse.cli import main
from a11yfuse.reports import generate_fixture

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
