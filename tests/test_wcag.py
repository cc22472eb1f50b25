import json
import sys
import threading

import pytest

from a11yfuse.errors import SchemaError, UnknownFrame
from a11yfuse.wcag import (
    FRAMES,
    GLOBAL,
    ConformanceLevel,
    CriterionSpec,
    DeficiencyFrame,
    WeightConfig,
    alpha_for,
    criteria_in_frame,
    load_config,
    resolve_frame,
)


class TestDefaults:
    def test_level_weights(self):
        w = WeightConfig()
        assert (w.alpha_a, w.alpha_aa, w.alpha_aaa) == (1.0, 0.8, 0.6)

    def test_thresholds(self):
        assert WeightConfig().thresholds == (0.6, 0.7, 0.8, 0.9)

    def test_certainty_and_reliability(self):
        w = WeightConfig()
        assert (w.beta_err, w.beta_likely, w.beta_potential) == (1.0, 0.5, 1.0)
        assert w.delta == 1.0

    def test_invariants_hold(self):
        w = WeightConfig()
        assert 0 < w.alpha_aaa <= w.alpha_aa <= w.alpha_a <= 1
        assert 0 < w.s1 < w.s2 < w.s3 < w.s4 < 1


class TestAlphaFor:
    def test_level_a(self):
        assert alpha_for(ConformanceLevel.A, WeightConfig()) == 1.0

    def test_level_aaa(self):
        assert alpha_for(ConformanceLevel.AAA, WeightConfig()) == 0.6

    def test_custom_config(self):
        w = WeightConfig(alpha_a=1.0, alpha_aa=0.9, alpha_aaa=0.5)
        assert alpha_for(ConformanceLevel.AA, w) == 0.9

    def test_monotone_non_increasing(self):
        for w in (WeightConfig(),
                  WeightConfig(alpha_a=0.7, alpha_aa=0.7, alpha_aaa=0.1)):
            assert (alpha_for(ConformanceLevel.A, w)
                    >= alpha_for(ConformanceLevel.AA, w)
                    >= alpha_for(ConformanceLevel.AAA, w))


def small_catalog():
    doc = [
        {"id": "c1", "level": "A", "frames": ["visual", "cognitive"]},
        {"id": "c2", "level": "AA", "frames": ["hearing"]},
    ]
    catalog, _ = load_config(doc)
    return catalog


class TestCriteriaInFrame:
    def test_concrete_frame(self):
        got = criteria_in_frame(small_catalog(), DeficiencyFrame.VISUAL)
        assert got == {"c1"}

    def test_global_returns_all(self):
        got = criteria_in_frame(small_catalog(), GLOBAL)
        assert got == {"c1", "c2"}

    def test_empty_catalog(self):
        assert criteria_in_frame({}, DeficiencyFrame.MOTOR) == set()

    def test_frame_names_resolve(self):
        assert resolve_frame("Visual") is DeficiencyFrame.VISUAL
        assert resolve_frame("global") == GLOBAL
        assert resolve_frame("Global") == GLOBAL
        with pytest.raises(UnknownFrame):
            resolve_frame("auditory")

    def test_frames_equal_their_names(self):
        assert GLOBAL == "global" and isinstance(GLOBAL, DeficiencyFrame)
        assert FRAMES == tuple(DeficiencyFrame)
        assert FRAMES == ("visual", "hearing", "motor", "cognitive", "global")
        for frame in FRAMES:
            assert resolve_frame(frame.value) is frame
            assert {frame.value: 1}[frame] == 1


def scanned_ids(catalog, frame):
    """criteria_in_frame as it was before it kept sets: a scan per call."""
    frame = resolve_frame(frame)
    if frame == GLOBAL:
        return set(catalog)
    return {cid for cid, c in catalog.items() if frame in c.frames}


class TestFrameSetsBuiltOnce:
    @pytest.mark.parametrize("make", [lambda: load_config()[0],
                                      small_catalog, lambda: {}])
    def test_every_frame_as_a_scan(self, make):
        catalog = make()
        for frame in FRAMES:
            got = criteria_in_frame(catalog, frame)
            assert type(got) is frozenset
            assert got == scanned_ids(catalog, frame)
            name = frame.value
            assert criteria_in_frame(catalog, name) == got

    def test_read_only_catalog_keeps_its_sets(self):
        catalog = small_catalog()
        first = criteria_in_frame(catalog, DeficiencyFrame.VISUAL)
        assert criteria_in_frame(catalog, "visual") is first

    def test_two_catalogs_alternately(self):
        packaged, small = load_config()[0], small_catalog()
        for _ in range(3):
            for catalog in (packaged, small, dict(small)):
                for frame in FRAMES:
                    assert criteria_in_frame(catalog, frame) == \
                        scanned_ids(catalog, frame)

    def test_threads_alternating_catalogs(self):
        # threads that keep replacing the kept catalog each still get the
        # sets of the catalog they pass
        catalogs = [load_config()[0], small_catalog(), load_config(
            [{"id": "c9", "level": "AAA", "frames": ["motor"]}])[0]]
        want = [{f: scanned_ids(c, f) for f in FRAMES} for c in catalogs]
        wrong = []

        def work(k):
            for i in range(300):
                j = (i + k) % len(catalogs)
                for f in FRAMES:
                    if criteria_in_frame(catalogs[j], f) != want[j][f]:
                        wrong.append((j, f))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_plain_dict_changed_between_calls(self):
        catalog = dict(small_catalog())
        assert criteria_in_frame(catalog, "hearing") == {"c2"}
        catalog["c3"] = CriterionSpec("c3", ConformanceLevel.A,
                                      frozenset({DeficiencyFrame.HEARING}),
                                      1.0)
        assert criteria_in_frame(catalog, "hearing") == {"c2", "c3"}
        del catalog["c2"]
        assert criteria_in_frame(catalog, "hearing") == {"c3"}
        assert criteria_in_frame(catalog, GLOBAL) == {"c1", "c3"}


class TestDefaultCatalog:
    def test_sixty_one_criteria(self):
        catalog, _ = load_config()
        assert len(catalog) == 61

    def test_union_of_frames_is_global(self):
        catalog, _ = load_config()
        union = set()
        for frame in set(DeficiencyFrame) - {GLOBAL}:
            union |= criteria_in_frame(catalog, frame)
        assert union == criteria_in_frame(catalog, GLOBAL)

    def test_every_criterion_has_a_frame(self):
        catalog, _ = load_config()
        assert all(c.frames for c in catalog.values())

    def test_visual_dominates(self):
        # most checkpoints concern visual deficiencies
        catalog, _ = load_config()
        visual = criteria_in_frame(catalog, DeficiencyFrame.VISUAL)
        assert len(visual) / len(catalog) >= 0.7

    def test_alphas_follow_levels(self):
        catalog, w = load_config()
        for c in catalog.values():
            assert c.alpha == alpha_for(c.level, w)


class TestLoading:
    def test_object_with_overrides(self, tmp_path):
        doc = {
            "criteria": [{"id": "c1", "level": "A", "frames": ["motor"]}],
            "weights": {"a": 1.0, "aa": 0.7, "aaa": 0.4},
            "thresholds": [0.5, 0.6, 0.7, 0.8],
        }
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        catalog, w = load_config(path)
        assert w.alpha_aa == 0.7
        assert w.thresholds == (0.5, 0.6, 0.7, 0.8)
        assert catalog.get("c1").alpha == 1.0

    def test_duplicate_id_rejected(self):
        doc = [{"id": "c1", "level": "A", "frames": ["visual"]},
               {"id": "c1", "level": "AA", "frames": ["motor"]}]
        with pytest.raises(SchemaError):
            load_config(doc)

    def test_bad_level_rejected(self):
        with pytest.raises(SchemaError):
            load_config([{"id": "c1", "level": "B", "frames": ["visual"]}])

    def test_empty_frames_rejected(self):
        with pytest.raises(SchemaError):
            load_config([{"id": "c1", "level": "A", "frames": []}])

    @pytest.mark.parametrize("frames", [["global"], ["visual", "global"]])
    def test_global_frame_rejected(self, frames):
        # GLOBAL is every criterion, so no entry may list it
        with pytest.raises(SchemaError, match=r"\bc1\b"):
            load_config([{"id": "c1", "level": "A", "frames": frames}])

    def test_bad_thresholds_rejected(self):
        with pytest.raises(SchemaError):
            load_config({"criteria": [], "thresholds": [0.9, 0.8, 0.7, 0.6]})

    @pytest.mark.parametrize("frames", [
        {"visual": True, "motor": False}, "visual", None, 7])
    def test_frames_must_be_an_array(self, frames):
        # an object once loaded as its keys, so 1.1.1 sat in the motor
        # frame, and a string failed on its first letter
        with pytest.raises(SchemaError, match=(
                "^criterion '1.1.1': frames must be an array, got ")):
            load_config([{"id": "1.1.1", "level": "A", "frames": frames}])

    def test_frames_as_a_tuple_in_a_parsed_document(self):
        catalog = load_config([{"id": "1.1.1", "level": "A",
                                "frames": ("visual", "motor")}])[0]
        assert catalog["1.1.1"].frames == {DeficiencyFrame.VISUAL,
                                           DeficiencyFrame.MOTOR}

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            load_config(path)


class TestLoadConfig:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_no_files_is_the_packaged_catalog(self):
        catalog, w = load_config(None, None)
        assert len(catalog) == 61 and w == WeightConfig()

    def test_weights_file_alone(self, tmp_path):
        wpath = self.write(tmp_path, "w.json", {"weights": {"aa": 0.7}})
        catalog, w = load_config(None, wpath)
        assert w.alpha_aa == 0.7
        assert catalog.get("1.4.3").alpha == 0.7

    def test_weights_file_wins_over_catalog_overrides(self, tmp_path):
        cpath = self.write(tmp_path, "c.json", {
            "criteria": [{"id": "c1", "level": "AA", "frames": ["motor"]}],
            "weights": {"aa": 0.7}, "thresholds": [0.5, 0.6, 0.7, 0.8]})
        wpath = self.write(tmp_path, "w.json", {"weights": {"aa": 0.65}})
        catalog, w = load_config(cpath, wpath)
        assert catalog.get("c1").alpha == w.alpha_aa == 0.65
        assert w.thresholds == (0.5, 0.6, 0.7, 0.8)

    def test_catalog_criteria_must_be_an_array(self, tmp_path):
        cpath = self.write(tmp_path, "c.json", {"criteria": 5})
        with pytest.raises(SchemaError):
            load_config(cpath, None)

    def test_not_utf8(self, tmp_path):
        cpath = tmp_path / "c.json"
        cpath.write_bytes(b"\xff\xfe[]")
        with pytest.raises(SchemaError):
            load_config(cpath, None)


class TestCriterionSpec:
    def test_requires_frames(self):
        with pytest.raises(SchemaError):
            CriterionSpec("c1", ConformanceLevel.A, frozenset(), 1.0)

    def test_global_is_no_catalog_frame(self):
        for frames in ({GLOBAL}, {DeficiencyFrame.VISUAL, GLOBAL}):
            with pytest.raises(SchemaError, match="^criterion 'c1': "):
                CriterionSpec("c1", ConformanceLevel.A, frozenset(frames),
                              1.0)
        with pytest.raises(SchemaError,
                           match="^criterion 'c1' belongs to no frame$"):
            CriterionSpec("c1", ConformanceLevel.A, frozenset(), 1.0)

    def test_weight_range(self):
        with pytest.raises(SchemaError):
            CriterionSpec("c1", ConformanceLevel.A,
                          frozenset({DeficiencyFrame.VISUAL}), 0.0)
