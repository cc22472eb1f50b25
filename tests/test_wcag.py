import copy
import json
import pickle
import re
import sys
import threading

import pytest

from a11yfuse.errors import SchemaError, UnknownFrame
from a11yfuse.wcag import (
    FRAMES,
    GLOBAL,
    Catalog,
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
        w = WeightConfig()
        assert (w.s1, w.s2, w.s3, w.s4) == (0.6, 0.7, 0.8, 0.9)

    def test_certainty_and_reliability(self):
        w = WeightConfig()
        assert (w.beta_err, w.beta_likely, w.beta_potential) == (1.0, 0.5, 1.0)
        assert w.delta == 1.0

    def test_invariants_hold(self):
        w = WeightConfig()
        assert 0 < w.alpha_aaa <= w.alpha_aa <= w.alpha_a <= 1
        assert 0 < w.s1 < w.s2 < w.s3 < w.s4 < 1

    @pytest.mark.parametrize("weights", [
        {"alpha_aaa": 0.0}, {"alpha_a": 1.5}, {"alpha_aaa": 0.9}])
    def test_level_weight_range(self, weights):
        # (0, 1], and never above a higher level's weight
        with pytest.raises(SchemaError, match="^level weights must satisfy "):
            WeightConfig(**weights)


class TestAlphaFor:
    def test_level_a(self):
        assert alpha_for(WeightConfig())[ConformanceLevel.A] == 1.0

    def test_level_aaa(self):
        assert alpha_for(WeightConfig())[ConformanceLevel.AAA] == 0.6

    def test_custom_config(self):
        w = WeightConfig(alpha_a=1.0, alpha_aa=0.9, alpha_aaa=0.5)
        assert alpha_for(w)[ConformanceLevel.AA] == 0.9

    def test_monotone_non_increasing(self):
        for w in (WeightConfig(),
                  WeightConfig(alpha_a=0.7, alpha_aa=0.7, alpha_aaa=0.1)):
            alphas = alpha_for(w)
            assert (alphas[ConformanceLevel.A] >= alphas[ConformanceLevel.AA]
                    >= alphas[ConformanceLevel.AAA])


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
        assert criteria_in_frame(Catalog({}), DeficiencyFrame.MOTOR) == set()

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
    """The frame rule as a scan: the reference for Catalog.frame_ids."""
    frame = resolve_frame(frame)
    if frame == GLOBAL:
        return set(catalog)
    return {cid for cid, c in catalog.items() if frame in c.frames}


class TestFrameSetsBuiltOnce:
    @pytest.mark.parametrize("make", [lambda: load_config()[0],
                                      small_catalog, lambda: Catalog({})])
    def test_every_frame_as_a_scan(self, make):
        catalog = make()
        for frame in FRAMES:
            got = criteria_in_frame(catalog, frame)
            assert type(got) is frozenset
            assert got == scanned_ids(catalog, frame)
            name = frame.value
            assert criteria_in_frame(catalog, name) == got

    def test_read_only_catalog_keeps_its_sets(self):
        # a query on another catalog leaves the first catalog's sets alone
        catalog, other = small_catalog(), load_config()[0]
        first = criteria_in_frame(catalog, DeficiencyFrame.VISUAL)
        for frame in FRAMES:
            criteria_in_frame(other, frame)
        assert criteria_in_frame(catalog, "visual") is first
        for c in (catalog, other):
            for frame in FRAMES:
                assert criteria_in_frame(c, frame) is c.frame_ids[frame]

    @pytest.mark.parametrize("mutate", [
        lambda c: c.__setitem__("c3", c["c1"]),
        lambda c: c.__delitem__("c1"),
        lambda c: c.__ior__({"c3": c["c1"]}),
        lambda c: c.clear(),
        lambda c: c.pop("c1"),
        lambda c: c.popitem(),
        lambda c: c.setdefault("c3", c["c1"]),
        lambda c: c.update({"c3": c["c1"]}),
    ], ids=["setitem", "delitem", "ior", "clear", "pop", "popitem",
            "setdefault", "update"])
    def test_every_mutator_raises(self, mutate):
        catalog = small_catalog()
        items, sets = dict(catalog), dict(catalog.frame_ids)
        with pytest.raises(TypeError, match="^a Catalog is read-only$"):
            mutate(catalog)
        assert catalog == items
        assert catalog.frame_ids == sets
        assert all(catalog.frame_ids[f] is sets[f] for f in FRAMES)

    def test_two_catalogs_alternately(self):
        packaged, small = load_config()[0], small_catalog()
        for _ in range(3):
            for catalog in (packaged, small, Catalog(dict(small))):
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

    def test_a_plain_dict_is_not_a_catalog(self):
        catalog = small_catalog()
        for frame in FRAMES:
            with pytest.raises(AttributeError, match="frame_ids"):
                criteria_in_frame(dict(catalog), frame)
        assert Catalog(dict(catalog)).frame_ids == catalog.frame_ids

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy] + [
        lambda c, p=p: pickle.loads(pickle.dumps(c, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in
                                    range(pickle.HIGHEST_PROTOCOL + 1)])
    def test_copies_and_pickles(self, copier):
        catalog = load_config()[0]
        got = copier(catalog)
        assert type(got) is Catalog and got is not catalog
        assert got == catalog and list(got) == list(catalog)
        assert got.frame_ids == catalog.frame_ids
        with pytest.raises(TypeError, match="^a Catalog is read-only$"):
            got["1.1.1"] = catalog["1.1.1"]


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


class TestLoading:
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

    def test_bad_thresholds_rejected(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"thresholds": [0.9, 0.8, 0.7, 0.6]}))
        with pytest.raises(SchemaError, match="^thresholds must satisfy "):
            load_config(None, path)

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
        assert alpha_for(w)[catalog["1.4.3"].level] == 0.7

    def test_catalog_criteria_must_be_an_array(self, tmp_path):
        cpath = self.write(tmp_path, "c.json", {"criteria": 5})
        with pytest.raises(SchemaError, match="^catalog must be a JSON array"):
            load_config(cpath, None)

    @pytest.mark.parametrize("doc", [
        {"criteria": [{"id": "c1", "level": "A", "frames": ["motor"]}],
         "weights": {"aa": 0.7}}, 5, None], ids=["object", "number", "null"])
    def test_only_an_array_is_a_catalog(self, tmp_path, doc):
        # weights and thresholds are set in a weights file only, so a
        # catalog document that is not an array says where they go
        message = ("catalog must be a JSON array of criteria; weights and "
                   "thresholds go in a weights file")
        cpath = self.write(tmp_path, "c.json", doc)
        wpath = self.write(tmp_path, "w.json", {"weights": {"aa": 0.7}})
        calls = [(cpath,), (cpath, wpath)]
        if doc is not None:  # None as an argument is the packaged catalog
            calls.append((doc,))
        for args in calls:
            with pytest.raises(SchemaError) as raised:
                load_config(*args)
            assert str(raised.value) == message

    def test_not_utf8(self, tmp_path):
        cpath = tmp_path / "c.json"
        cpath.write_bytes(b"\xff\xfe[]")
        with pytest.raises(SchemaError):
            load_config(cpath, None)


class TestCriterionSpec:
    def test_requires_frames(self):
        with pytest.raises(SchemaError):
            CriterionSpec("c1", ConformanceLevel.A, frozenset())

    def test_global_is_no_catalog_frame(self):
        for frames in ({GLOBAL}, {DeficiencyFrame.VISUAL, GLOBAL}):
            with pytest.raises(SchemaError, match="^criterion 'c1': "):
                CriterionSpec("c1", ConformanceLevel.A, frozenset(frames))
        with pytest.raises(SchemaError,
                           match="^criterion 'c1' belongs to no frame$"):
            CriterionSpec("c1", ConformanceLevel.A, frozenset())

    def test_level_and_frames_given_by_name(self):
        spec = CriterionSpec("c1", "AA", ["visual", DeficiencyFrame.MOTOR])
        assert spec.level is ConformanceLevel.AA == "AA"
        assert spec.frames == {DeficiencyFrame.VISUAL, DeficiencyFrame.MOTOR}
        assert {type(f) for f in spec.frames} == {DeficiencyFrame}
        assert criteria_in_frame(Catalog({"c1": spec}), "visual") == {"c1"}

    @pytest.mark.parametrize("level, frames, fault", [
        ("B", ["visual"], "'B' is not a valid ConformanceLevel"),
        ("A", ["Visual"], "'Visual' is not a valid DeficiencyFrame"),
        ("A", ["visual", 5], "5 is not a valid DeficiencyFrame"),
    ])
    def test_bad_level_or_frame_rejected(self, level, frames, fault):
        # a frame name in the wrong case once dropped the criterion from
        # its frame, though global still counted it
        with pytest.raises(SchemaError,
                           match=f"^criterion 'c1': {re.escape(fault)}$"):
            CriterionSpec("c1", level, frames)
        entry = {"id": "c1", "level": level, "frames": frames}
        with pytest.raises(SchemaError) as loaded:
            load_config([entry])
        assert str(loaded.value) == f"criterion 'c1': {fault}"
