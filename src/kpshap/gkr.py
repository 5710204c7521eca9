"""Group-based keypoint removal (GKR) augmentation plans.

Planning and pixel application are split so a plan is a reviewable,
replayable artifact: for each annotated person, each keypoint group
independently survives with probability ``keep_prob``; a group that does not
survive has one of its labeled keypoints erased under a noise rectangle
whose side scales with the image. Plans serialize to JSONL; applying a plan
touches only the planned rectangles, every other pixel byte stays identical.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    _json_document,
    _json_float,
    _json_int,
    _json_line,
    _json_str,
    _parse_json,
    _read_text,
    _write_bytes,
)
from .grouping import Grouping
from .images import _check_rgb
from .perturb import _centered_rect, _round_half_up
from .rng import generator, mix64
from .skeleton import KeypointSchema


def _check_image_size(image_id, width: int, height: int) -> None:
    """Refuse a side below 1 pixel or above 2^31 - 1, the largest a PNG
    header states (PNG 11.2.2); a larger one overflows the planner's floats."""
    if width < 1 or height < 1:
        raise DataError(f"bad image size {width}x{height}")
    if max(width, height) > 2**31 - 1:
        raise DataError(f"image {image_id!r} has a side above 2^31-1 pixels, the PNG limit")


@dataclass(frozen=True)
class PersonAnnotation:
    """One annotated person: (x, y, visibility) per keypoint plus image info."""

    image_id: int
    annotation_id: int
    file_name: str
    width: int
    height: int
    keypoints: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        _check_image_size(self.image_id, self.width, self.height)
        for idx, (x, y, v) in enumerate(self.keypoints):
            if v not in (0, 1, 2):
                raise DataError(
                    f"annotation {self.annotation_id}: keypoint {idx} has "
                    f"visibility {v}, expected 0, 1 or 2"
                )
            if v > 0 and not (0 <= x < self.width and 0 <= y < self.height):
                raise DataError(
                    f"annotation {self.annotation_id}: labeled keypoint {idx} at "
                    f"({x}, {y}) outside {self.width}x{self.height}",
                    code="out-of-bounds",
                )


def parse_annotations(source, schema: KeypointSchema) -> list[PersonAnnotation]:
    """Read a COCO-style person keypoints document (path, JSON text or dict)."""
    doc = _json_document(source, "annotations")
    if not isinstance(doc, dict) or not all(
        isinstance(doc.get(key), list) for key in ("images", "annotations")
    ):
        raise DataError("annotations document must have 'images' and 'annotations' lists")
    images = {}
    keys = set()  # stats outputs are keyed by str(id), so it must be unique too
    for img in doc["images"]:
        try:
            image_id = img["id"]
            width, height = _json_int(img["width"], "width"), _json_int(img["height"], "height")
            entry = (_json_str(img["file_name"], "file_name"), width, height)
            duplicate = image_id in images or str(image_id) in keys
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as e:
            raise DataError(f"bad images entry {img!r}: {e}") from e
        if duplicate:
            raise DataError(f"duplicate image id {image_id!r}", code="duplicate-image")
        _check_image_size(image_id, width, height)
        images[image_id] = entry
        keys.add(str(image_id))
    persons = []
    n = schema.n
    for ann in doc["annotations"]:
        try:
            image_id = ann["image_id"]
            ann_id = ann["id"]
            flat = list(ann["keypoints"])
            known = image_id in images
        except (KeyError, TypeError) as e:
            raise DataError(f"bad annotation entry: {e}") from e
        if not known:
            raise DataError(
                f"annotation {ann_id} references unknown image_id {image_id}",
                code="dangling-image",
            )
        if len(flat) != 3 * n:
            raise DataError(
                f"annotation {ann_id}: keypoint array length {len(flat)}, expected {3 * n}"
            )
        file_name, width, height = images[image_id]
        try:
            kps = tuple(
                (_json_float(x, "x"), _json_float(y, "y"), _json_int(v, "visibility"))
                for x, y, v in zip(flat[0::3], flat[1::3], flat[2::3])
            )
        except DataError as e:
            raise DataError(f"annotation {ann_id}: bad keypoint value: {e}") from e
        persons.append(
            PersonAnnotation(image_id, ann_id, file_name, width, height, kps)
        )
    return persons


@dataclass(frozen=True)
class GkrConfig:
    """keep_prob is the SURVIVAL threshold: a group is erased when its
    uniform draw exceeds keep_prob, i.e. with probability 1 - keep_prob."""

    keep_prob: float
    scales: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.keep_prob <= 1.0:
            raise DataError(f"keep_prob must be in [0, 1], got {self.keep_prob}")
        if not self.scales:
            raise DataError("need at least one scale")
        for s in self.scales:
            if not 0.0 < s <= 1.0:
                raise DataError(f"scales must be in (0, 1], got {s}")


def default_scales(grouping: Grouping, schema: KeypointSchema) -> tuple[float, ...]:
    """Small rectangles (0.05) for the face group, larger (0.15) elsewhere."""
    try:
        nose_group = grouping.group_of(schema.index_of("nose"))
    except Exception:
        nose_group = -1
    return tuple(0.05 if k == nose_group else 0.15 for k in range(grouping.g))


@dataclass(frozen=True)
class EraseRect:
    """One planned rectangle, on keypoint ``keypoint`` of dropped group ``group``."""

    group: int
    keypoint: int
    rect: tuple[int, int, int, int]
    fill_seed: int


@dataclass(frozen=True)
class ErasePlan:
    image_id: int
    annotation_id: int
    file_name: str
    width: int
    height: int
    rects: tuple[EraseRect, ...]

    def to_json_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "annotation_id": self.annotation_id,
            "file_name": self.file_name,
            "width": self.width,
            "height": self.height,
            "rects": [
                {
                    "group": r.group,
                    "keypoint": r.keypoint,
                    "rect": list(r.rect),
                    "fill_seed": r.fill_seed,
                }
                for r in self.rects
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ErasePlan":
        try:
            rects = tuple(
                EraseRect(
                    _json_int(r["group"], "group"),
                    _json_int(r["keypoint"], "keypoint"),
                    tuple(_json_int(v, "rect") for v in r["rect"]),
                    _json_int(r["fill_seed"], "fill_seed"),
                )
                for r in doc["rects"]
            )
            for r in rects:
                if len(r.rect) != 4:
                    raise DataError(f"rect {list(r.rect)} is not four integers")
            return cls(
                doc["image_id"],
                doc["annotation_id"],
                _json_str(doc["file_name"], "file_name"),
                _json_int(doc["width"], "width"),
                _json_int(doc["height"], "height"),
                rects,
            )
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as e:
            raise DataError(f"bad erase plan record: {e}") from e


def plan_gkr(person: PersonAnnotation, grouping: Grouping, cfg: GkrConfig) -> ErasePlan:
    """One erase plan for one person.

    Survival draws are the first g uniforms of one stream keyed by cfg.seed,
    so which groups survive never depends on visibility; the keypoint pick
    inside an erased group uses its own per-group stream. The plan is a pure
    function of (person, grouping, cfg). Over the one-group grouping this is
    the grouping-blind random-erasing baseline: at most one rectangle, on a
    labeled keypoint picked uniformly.
    """
    n = len(person.keypoints)
    if grouping.n != n:
        raise DataError(f"grouping over n={grouping.n}, annotation has {n} keypoints")
    if len(cfg.scales) != grouping.g:
        raise DataError(
            f"{len(cfg.scales)} scales for {grouping.g} groups", code="bad-scales"
        )
    survival = generator("gkr-plan", cfg.seed).random(grouping.g)
    rects = []
    for k, members in enumerate(grouping.groups):
        if float(survival[k]) <= cfg.keep_prob:
            continue
        labeled = [j for j in members if person.keypoints[j][2] > 0]
        if not labeled:
            continue
        pick = labeled[int(generator("gkr-pick", cfg.seed, k).integers(len(labeled)))]
        x, y, _ = person.keypoints[pick]
        w = max(1, _round_half_up(person.width * cfg.scales[k]))
        h = max(1, _round_half_up(person.height * cfg.scales[k]))
        rect = _centered_rect(x, y, w, h, person.width, person.height)
        rects.append(EraseRect(k, pick, rect, mix64("gkr-fill-seed", cfg.seed, k)))
    return ErasePlan(
        person.image_id,
        person.annotation_id,
        person.file_name,
        person.width,
        person.height,
        tuple(rects),
    )


def apply_plan(image: np.ndarray, plan: ErasePlan) -> np.ndarray:
    """Fill the planned rectangles with seeded uniform byte noise."""
    arr = _check_rgb(image)
    h_img, w_img, _ = arr.shape
    if (w_img, h_img) != (plan.width, plan.height):
        raise DataError(
            f"image is {w_img}x{h_img}, plan expects {plan.width}x{plan.height}"
        )
    out = arr.copy()
    for r in plan.rects:
        x0, y0, x1, y1 = r.rect
        if not (0 <= x0 < x1 <= w_img and 0 <= y0 < y1 <= h_img):
            raise DataError(f"rect {r.rect} outside {w_img}x{h_img}", code="out-of-bounds")
        fill = generator("gkr-fill", r.fill_seed).integers(
            0, 256, size=(y1 - y0, x1 - x0, 3), dtype=np.uint8
        )
        out[y0:y1, x0:x1] = fill
    return out


def write_plans(path, plans) -> None:
    _write_bytes(path, "".join(_json_line(p.to_json_dict()) + "\n" for p in plans), "plans")


def read_plans(path) -> list[ErasePlan]:
    lines = io.StringIO(_read_text(path, "plans"), newline=None)
    return [
        ErasePlan.from_json_dict(_parse_json(line, f"{path}:{lineno}: line"))
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]


OCCLUSION_BUCKETS = (0.0, 0.25, 0.5, 0.75)


def occlusion_ratio(persons) -> float:
    """Share of invisible keypoints over all persons (of one image)."""
    persons = list(persons)
    if not persons:
        raise DataError("no annotations to rate")
    total = sum(len(p.keypoints) for p in persons)
    invisible = sum(
        sum(1 for _, _, v in p.keypoints if v == 0) for p in persons
    )
    return invisible / total


def bucket_for(ratio: float) -> float:
    """Lower edge of the occlusion bucket: [0,.25), [.25,.5), [.5,.75), [.75,1]."""
    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"occlusion ratio {ratio} outside [0, 1]")
    for edge in reversed(OCCLUSION_BUCKETS):
        if ratio >= edge:
            return edge
    return 0.0


def occlusion_stats(persons) -> dict:
    """Bucketed per-image occlusion summary; deterministic partition."""
    by_image: dict = {}
    for p in persons:
        by_image.setdefault(p.image_id, []).append(p)
    # numbers first, then any other id by its str(), which parse_annotations
    # keeps unique
    order = sorted(by_image, key=lambda i: (0, i) if isinstance(i, (int, float)) else (1, str(i)))
    ratios = {img: occlusion_ratio(by_image[img]) for img in order}
    buckets = {edge: 0 for edge in OCCLUSION_BUCKETS}
    for ratio in ratios.values():
        buckets[bucket_for(ratio)] += 1
    return {
        "images": len(ratios),
        "persons": sum(len(v) for v in by_image.values()),
        "buckets": {format(edge, "g"): buckets[edge] for edge in OCCLUSION_BUCKETS},
        "ratios": {str(img): ratios[img] for img in ratios},
    }
