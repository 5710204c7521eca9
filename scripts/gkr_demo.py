#!/usr/bin/env python3
"""Group-aware erasing end to end on a synthetic image.

Builds a toy all-visible person, plans group-based removal across a batch of
seeds, applies one plan to a noise image (before/after PPMs), and prints the
observed per-group erase frequency next to the configured keep probability.
"""

import argparse
from pathlib import Path

import numpy as np

from kpshap import (
    GkrConfig,
    Grouping,
    PersonAnnotation,
    apply_plan,
    default_scales,
    default_schema,
    plan_gkr,
    save_image,
    write_plans,
)
from kpshap.shapley import group_label

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", default=ROOT / "fixtures" / "expected_groups.json")
    ap.add_argument("--keep-prob", type=float, default=0.5)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--out-dir", default=ROOT / "out")
    ns = ap.parse_args()

    schema, _ = default_schema()
    grouping = Grouping.from_json(ns.groups, schema)
    person = PersonAnnotation(
        1,
        1,
        "demo.ppm",
        256,
        192,
        tuple(
            (256 * (0.15 + 0.1 * (i % 8)), 192 * (0.2 + 0.25 * (i // 8)), 2)
            for i in range(schema.n)
        ),
    )
    scales = default_scales(grouping, schema)

    counts = np.zeros(grouping.g)
    plans = []
    for seed in range(ns.trials):
        plan = plan_gkr(person, grouping, GkrConfig(ns.keep_prob, scales, seed))
        plans.append(plan)
        for rect in plan.rects:
            counts[rect.group] += 1

    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_plans(out_dir / "plans.jsonl", plans)

    image = np.random.default_rng(0).integers(0, 256, size=(192, 256, 3), dtype=np.uint8)
    save_image(out_dir / "before.ppm", image)
    save_image(out_dir / "after.ppm", apply_plan(image, plans[0]))

    expect = 1.0 - ns.keep_prob
    for k, freq in enumerate(counts / ns.trials):
        print(f"{group_label(k)}: erased {freq:.3f} of trials (expected {expect:.3f})")
    print(f"wrote {out_dir / 'plans.jsonl'}, {out_dir / 'before.ppm'}, {out_dir / 'after.ppm'}")


if __name__ == "__main__":
    main()
