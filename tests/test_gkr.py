import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpshap import (
    DataError,
    ErasePlan,
    EraseRect,
    GkrConfig,
    Grouping,
    KeypointSchema,
    PersonAnnotation,
    apply_plan,
    bucket_for,
    default_scales,
    generator,
    occlusion_ratio,
    occlusion_stats,
    parse_annotations,
    plan_gkr,
    read_plans,
    write_plans,
)


def person_all_visible(schema, width=256, height=192, ann_id=1):
    kps = tuple(
        (width * (0.15 + 0.1 * (i % 8)), height * (0.2 + 0.25 * (i // 8)), 2)
        for i in range(schema.n)
    )
    return PersonAnnotation(1, ann_id, "p.ppm", width, height, kps)


def cfg_for(grouping, keep=0.5, scale=0.15, seed=0):
    return GkrConfig(keep, tuple(scale for _ in range(grouping.g)), seed)


# --- annotation parsing ----------------------------------------------------


def make_doc(schema, kps=None, width=64, height=48):
    if kps is None:
        kps = []
        for i in range(schema.n):
            kps += [10.0 + i, 12.0, 2]
    return {
        "images": [{"id": 5, "width": width, "height": height, "file_name": "x.ppm"}],
        "annotations": [{"id": 9, "image_id": 5, "keypoints": kps}],
    }


def test_parse_annotations_roundtrip(schema):
    persons = parse_annotations(make_doc(schema), schema)
    assert len(persons) == 1
    p = persons[0]
    assert (p.image_id, p.annotation_id, p.file_name) == (5, 9, "x.ppm")
    assert (p.width, p.height) == (64, 48)
    assert len(p.keypoints) == 17
    assert sum(v > 0 for _, _, v in p.keypoints) == 17


def test_parse_rejects_wrong_keypoint_length(schema):
    doc = make_doc(schema)
    doc["annotations"][0]["keypoints"] = [1.0, 2.0, 2]
    with pytest.raises(DataError):
        parse_annotations(doc, schema)


def test_parse_rejects_bad_visibility(schema):
    doc = make_doc(schema)
    doc["annotations"][0]["keypoints"][2] = 3
    with pytest.raises(DataError):
        parse_annotations(doc, schema)


def test_parse_rejects_dangling_image(schema):
    doc = make_doc(schema)
    doc["annotations"][0]["image_id"] = 404
    with pytest.raises(DataError) as exc:
        parse_annotations(doc, schema)
    assert exc.value.code == "dangling-image"


def test_parse_rejects_duplicate_image_id(schema):
    doc = make_doc(schema)
    doc["images"].append({"id": 5, "width": 8, "height": 8, "file_name": "y.ppm"})
    with pytest.raises(DataError, match="duplicate image id 5") as exc:
        parse_annotations(doc, schema)
    assert exc.value.code == "duplicate-image"


def test_parse_rejects_image_ids_equal_as_str(schema):
    # stats are keyed by str(id), where 5 and "5" would collide
    doc = make_doc(schema)
    doc["images"].append({"id": "5", "width": 8, "height": 8, "file_name": "y.ppm"})
    with pytest.raises(DataError, match="duplicate image id '5'") as exc:
        parse_annotations(doc, schema)
    assert exc.value.code == "duplicate-image"


def test_parse_rejects_labeled_out_of_bounds(schema):
    doc = make_doc(schema)
    doc["annotations"][0]["keypoints"][0] = 1000.0
    with pytest.raises(DataError) as exc:
        parse_annotations(doc, schema)
    assert exc.value.code == "out-of-bounds"


def test_unlabeled_out_of_bounds_is_fine(schema):
    doc = make_doc(schema)
    doc["annotations"][0]["keypoints"][0] = 1000.0
    doc["annotations"][0]["keypoints"][2] = 0  # v = 0: coordinates ignored
    keypoints = parse_annotations(doc, schema)[0].keypoints
    assert sum(v > 0 for _, _, v in keypoints) == 16


@pytest.mark.parametrize("size", [(10**400, 10), (10, 2**31)], ids=["width", "height"])
def test_person_refuses_an_image_side_beyond_png(schema, expected_grouping, size):
    # built directly, not read by parse_annotations: the same PNG limit holds,
    # so plan_gkr never meets a side that overflows its float arithmetic
    kps = tuple((1.0, 1.0, 2) for _ in range(schema.n))
    with pytest.raises(DataError, match=r"^image 0 has a side above 2\^31-1 pixels"):
        PersonAnnotation(0, 1, "a.png", *size, kps)
    side = 2**31 - 1  # the limit itself plans
    person = person_all_visible(schema, side, side)
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=0.0))
    assert len(plan.rects) == expected_grouping.g


# --- plan_gkr ---------------------------------------------------------------


def test_plan_keep_prob_one_erases_nothing(schema, expected_grouping):
    person = person_all_visible(schema)
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=1.0))
    assert plan.rects == ()


def test_plan_keep_prob_zero_erases_every_group(schema, expected_grouping):
    person = person_all_visible(schema)
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=0.0))
    assert len(plan.rects) == expected_grouping.g
    assert [r.group for r in plan.rects] == list(range(expected_grouping.g))


def test_plan_at_most_one_rect_per_group_and_member_pick(schema, expected_grouping):
    person = person_all_visible(schema)
    for seed in range(50):
        plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, seed=seed))
        groups = [r.group for r in plan.rects]
        assert len(groups) == len(set(groups))
        for r in plan.rects:
            assert r.keypoint in expected_grouping.groups[r.group]
            x0, y0, x1, y1 = r.rect
            assert 0 <= x0 < x1 <= person.width
            assert 0 <= y0 < y1 <= person.height


def test_plan_rect_dims_frozen(schema, expected_grouping):
    # 256 * 0.15 = 38.4 -> 38 wide; 192 * 0.15 = 28.8 -> 29 tall
    person = person_all_visible(schema, width=256, height=192)
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=0.0))
    for r in plan.rects:
        x, y, _ = person.keypoints[r.keypoint]
        if 19 <= x <= 237 and 15 <= y <= 177:  # rect not clipped by a border
            x0, y0, x1, y1 = r.rect
            assert (x1 - x0, y1 - y0) == (38, 29)


def test_plan_is_deterministic(schema, expected_grouping):
    person = person_all_visible(schema)
    cfg = cfg_for(expected_grouping, seed=123)
    assert plan_gkr(person, expected_grouping, cfg) == plan_gkr(person, expected_grouping, cfg)


def test_plan_skips_group_without_labeled_members(schema, expected_grouping):
    kps = list(person_all_visible(schema).keypoints)
    for i in expected_grouping.groups[1]:  # hide the whole left arm
        x, y, _ = kps[i]
        kps[i] = (x, y, 0)
    person = PersonAnnotation(1, 1, "p.ppm", 256, 192, tuple(kps))
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=0.0))
    assert len(plan.rects) == expected_grouping.g - 1
    assert all(r.group != 1 for r in plan.rects)


def test_survival_draws_independent_of_visibility(schema, expected_grouping):
    # hiding one group's labels must not change which other groups erase
    full = person_all_visible(schema)
    kps = list(full.keypoints)
    for i in expected_grouping.groups[0]:
        x, y, _ = kps[i]
        kps[i] = (x, y, 0)
    partial = PersonAnnotation(1, 1, "p.ppm", 256, 192, tuple(kps))
    for seed in range(30):
        cfg = cfg_for(expected_grouping, seed=seed)
        groups_full = {r.group for r in plan_gkr(full, expected_grouping, cfg).rects}
        groups_partial = {r.group for r in plan_gkr(partial, expected_grouping, cfg).rects}
        assert groups_partial == groups_full - {0}


def test_plan_scale_count_must_match_groups(schema, expected_grouping):
    person = person_all_visible(schema)
    with pytest.raises(DataError):
        plan_gkr(person, expected_grouping, GkrConfig(0.5, (0.15, 0.15), 0))


def test_config_validation():
    with pytest.raises(DataError):
        GkrConfig(1.5, (0.15,))
    with pytest.raises(DataError):
        GkrConfig(0.5, ())
    with pytest.raises(DataError):
        GkrConfig(0.5, (0.0,))


def test_default_scales_shrink_face_group(schema, expected_grouping):
    scales = default_scales(expected_grouping, schema)
    assert len(scales) == 5
    assert scales[0] == 0.05  # the group holding the nose
    assert set(scales[1:]) == {0.15}


def test_default_scales_without_a_nose_are_all_large():
    schema = KeypointSchema(("a", "b", "c"))
    grouping = Grouping.from_sets([[0, 2], [1]], schema.n)
    assert default_scales(grouping, schema) == (0.15, 0.15)


def test_random_erasing_baseline(schema):
    # the grouping-blind baseline is GKR over the one group of all keypoints
    person = person_all_visible(schema)
    one_group = Grouping.from_sets([range(schema.n)], schema.n)
    erased = 0
    for seed in range(40):
        plan = plan_gkr(person, one_group, GkrConfig(0.5, (0.15,), seed))
        assert len(plan.rects) <= 1
        if plan.rects:
            erased += 1
            assert plan.rects[0].group == 0
    assert 5 < erased < 35


# --- apply_plan --------------------------------------------------------------


def test_apply_touches_only_planned_pixels(schema, expected_grouping):
    person = person_all_visible(schema, width=64, height=48)
    plan = plan_gkr(
        person, expected_grouping, cfg_for(expected_grouping, keep=0.0, scale=0.2, seed=4)
    )
    img = np.random.default_rng(0).integers(0, 256, size=(48, 64, 3), dtype=np.uint8)
    out = apply_plan(img, plan)
    assert out is not img
    mask = np.zeros((48, 64), dtype=bool)
    for r in plan.rects:
        x0, y0, x1, y1 = r.rect
        mask[y0:y1, x0:x1] = True
    assert np.array_equal(out[~mask], img[~mask])
    assert plan.rects  # keep_prob 0 with everything visible must erase


def test_apply_fill_is_seeded_uniform_bytes():
    # full-frame rect with a pinned fill seed: bytes equal the named stream
    plan = ErasePlan(1, 1, "x.ppm", 64, 64, (EraseRect(0, 0, (0, 0, 64, 64), 12345),))
    img = np.zeros((64, 64, 3), dtype=np.uint8)
    out = apply_plan(img, plan)
    expected = generator("gkr-fill", 12345).integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    assert np.array_equal(out, expected)
    # uniform byte noise leaves no pixel untouched on a zero canvas here
    assert int((out != 0).any(axis=2).sum()) == 64 * 64


def test_apply_rejects_dim_mismatch(schema, expected_grouping):
    person = person_all_visible(schema, width=64, height=48)
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=0.0))
    img = np.zeros((99, 99, 3), dtype=np.uint8)
    with pytest.raises(DataError):
        apply_plan(img, plan)


def test_apply_is_deterministic(schema, expected_grouping):
    person = person_all_visible(schema, width=64, height=48)
    plan = plan_gkr(person, expected_grouping, cfg_for(expected_grouping, keep=0.0, seed=9))
    img = np.random.default_rng(1).integers(0, 256, size=(48, 64, 3), dtype=np.uint8)
    assert np.array_equal(apply_plan(img, plan), apply_plan(img, plan))


# --- plan JSONL ---------------------------------------------------------------


def test_plans_jsonl_roundtrip(tmp_path, schema, expected_grouping):
    person = person_all_visible(schema)
    plans = [
        plan_gkr(person, expected_grouping, cfg_for(expected_grouping, seed=s))
        for s in range(5)
    ]
    path = tmp_path / "plans.jsonl"
    write_plans(path, plans)
    assert read_plans(path) == plans
    # one JSON object per line, stable key order
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line) for line in lines)
    p2 = tmp_path / "again.jsonl"
    write_plans(p2, plans)
    assert p2.read_bytes() == path.read_bytes()


def test_read_plans_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(DataError):
        read_plans(path)


# --- occlusion stats -----------------------------------------------------------


def test_occlusion_ratio_and_buckets(schema):
    full = person_all_visible(schema)
    assert occlusion_ratio([full]) == 0.0
    kps = list(full.keypoints)
    for i in range(8):
        x, y, _ = kps[i]
        kps[i] = (x, y, 0)
    half = PersonAnnotation(1, 2, "p.ppm", 256, 192, tuple(kps))
    assert occlusion_ratio([half]) == pytest.approx(8 / 17)
    assert bucket_for(0.0) == 0.0
    assert bucket_for(0.249) == 0.0
    assert bucket_for(0.25) == 0.25
    assert bucket_for(8 / 17) == 0.25
    assert bucket_for(0.5) == 0.5
    assert bucket_for(1.0) == 0.75
    with pytest.raises(DataError):
        bucket_for(1.7)


def test_occlusion_stats_aggregation(schema):
    full = person_all_visible(schema, ann_id=1)
    kps = tuple((x, y, 0) for x, y, _ in full.keypoints)
    hidden = PersonAnnotation(2, 3, "q.ppm", 256, 192, kps)
    stats = occlusion_stats([full, hidden])
    assert stats["images"] == 2
    assert stats["persons"] == 2
    assert stats["buckets"] == {"0": 1, "0.25": 0, "0.5": 0, "0.75": 1}


@given(st.floats(0.0, 1.0))
def test_bucket_is_lower_edge(ratio):
    edge = bucket_for(ratio)
    assert edge in (0.0, 0.25, 0.5, 0.75)
    assert edge <= ratio < edge + 0.25 or (edge == 0.75 and ratio == 1.0)
