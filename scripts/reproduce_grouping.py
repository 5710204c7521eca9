#!/usr/bin/env python3
"""Recover the five keypoint groups from the shipped drop-table fixture.

Reads fixtures/table2.csv, fuses perturbation influence with skeleton
connectivity, clusters at g=5, and writes grouping JSON plus an SVG heatmap
of the interdependency matrix.
"""

import argparse
import json
from pathlib import Path

from kpshap import (
    cluster,
    default_schema,
    interdependency,
    keypoint_connectivity,
    perturbation_influence,
    read_delta_csv,
    render_heatmap,
)
from kpshap.shapley import group_label

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", default=ROOT / "fixtures" / "table2.csv")
    ap.add_argument("--g", type=int, default=5)
    ap.add_argument("--out-dir", default=ROOT / "out")
    ns = ap.parse_args()

    schema, skeleton = default_schema()
    delta = read_delta_csv(ns.delta, schema)
    s = interdependency(
        perturbation_influence(delta), keypoint_connectivity(schema, skeleton)
    )
    grouping = cluster(s, g=ns.g)

    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grouping.json").write_text(
        json.dumps(grouping.to_json_dict(schema), sort_keys=True, indent=2) + "\n"
    )
    (out_dir / "interdependency.svg").write_text(render_heatmap(s, schema.names))

    for k, members in enumerate(grouping.groups):
        print(f"{group_label(k)}:", " ".join(schema.names[i] for i in members))
    print(f"wrote {out_dir / 'grouping.json'} and {out_dir / 'interdependency.svg'}")


if __name__ == "__main__":
    main()
