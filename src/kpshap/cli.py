"""Command-line pipeline front end.

Every artifact-producing subcommand writes a run manifest next to its
primary output (override with --manifest) recording argument snapshot,
seed, schema digest, oracle identity and sha256 of all inputs and outputs.
The inputs are the files the run reads, those named by --schema, --synthetic
and --oracle-table included, and every subcommand that reads a schema records
its digest, the built-in schema's when --schema is not given.
Exit codes: 0 ok, 2 usage, 3 schema/data error, 4 oracle error.

``main(argv)`` may be called many times in one process. Every call reuses
one parser, built on the first call, and looks up its subcommand's handler by
name at that moment, so nothing carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from pathlib import Path, PurePath

from . import __version__
from .analysis import (
    confidence_correlation,
    read_confidence_csv,
    read_matrix_csv,
    render_heatmap,
    write_matrix_csv,
)
from .errors import DataError, KpshapError, OracleError, _json_text, _stdout_writes, _write_bytes
from .gkr import (
    GkrConfig,
    apply_plan,
    default_scales,
    occlusion_stats,
    parse_annotations,
    plan_gkr,
    read_plans,
    write_plans,
)
from .grouping import DEFAULT_GROUPS, DEFAULT_LINKAGE, LINKAGES, Grouping
from .grouping import cluster as cluster_matrix
from .grouping import interdependency
from .images import load_image, save_image
from .manifest import build_manifest, write_manifest
from .oracle import (
    ExternalOracle,
    SyntheticModelConfig,
    SyntheticOracle,
    load_tabular_oracle,
    serve,
)
from .perturb import (
    delta_perf_matrix,
    gen_masks,
    perturbation_influence,
    read_delta_csv,
    write_delta_csv,
)
from .rng import mix64
from .shapley import (
    SPLIT_MODES,
    exact_query_count,
    exact_shapley,
    group_label,
    query_count,
    read_game_csv,
    run_group_attribution,
)
from .skeleton import default_schema, keypoint_connectivity, load_schema, schema_digest


def _load_schema_arg(path):
    """The (schema, skeleton) pair of --schema, or the built-in one."""
    return default_schema() if path is None else load_schema(path)


def _add_schema_flag(p):
    p.add_argument(
        "--schema",
        metavar="JSON",
        default=None,
        help="keypoint schema document (default: built-in 17-keypoint human schema)",
    )


def _add_oracle_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", metavar="CONFIG", help="synthetic oracle config JSON")
    src.add_argument("--oracle-table", metavar="CSV", help="precomputed coalition table")
    src.add_argument(
        "--oracle-cmd",
        metavar="CMD",
        help="external oracle child command (line-JSON protocol on stdin/stdout)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="longest wait for progress on the external oracle's pipes, in seconds (default 30)",
    )


def _open_oracle(ns, schema):
    if ns.synthetic:
        return SyntheticOracle(SyntheticModelConfig.from_json(ns.synthetic), schema)
    if ns.oracle_table:
        return load_tabular_oracle(ns.oracle_table, schema)
    return ExternalOracle(ns.oracle_cmd, schema, timeout=ns.timeout)


def _parse_instances(text):
    if text == "all":
        return "all"
    ids = tuple(s for s in text.split(",") if s)
    if not ids:
        raise DataError(f"empty instance list {text!r}")
    return ids


def _file_key(path):
    """Device and inode of an existing file, else its resolved path. Every
    name of one file has one key: a symlink, a hard link, or the same
    directory spelled twice."""
    if not os.path.exists(path):
        return os.path.realpath(path)
    st = os.stat(path)
    return st.st_dev, st.st_ino


def _claim_outputs(ns, inputs, outputs, schema_pair=None):
    """Called once by each artifact-producing handler, before its first write.
    Refuses an output on an input (the run would erase what it reads) or two
    outputs on one file; the inputs are the handler's own plus the files of
    --schema, --synthetic and --oracle-table. Returns ``emit(oracle=None)``,
    which writes the run manifest once the outputs exist and returns its path.
    """
    command = ns.func.removeprefix("cmd_").replace("_", " ")
    flagged = (getattr(ns, flag, None) for flag in ("synthetic", "oracle_table"))
    inputs = [p for p in (getattr(ns, "schema", None), *inputs, *flagged) if p]
    manifest_path = ns.manifest or str(outputs[0]) + ".manifest.json"
    read = {_file_key(path) for path in inputs}
    written = set()
    for path in [*outputs, manifest_path]:
        key = _file_key(path)
        if key in read:
            raise DataError(f"{command} would write over its input {path}")
        if key in written:
            raise DataError(f"{command} would write two outputs to {path}")
        written.add(key)

    def emit(oracle=None):
        manifest = build_manifest(
            __version__,
            command,
            {k: v for k, v in vars(ns).items() if k != "func"},
            seed=getattr(ns, "seed", None),
            schema_sha256=schema_digest(*schema_pair) if schema_pair else None,
            oracle=oracle,
            input_paths=inputs,
            output_paths=list(outputs),
        )
        write_manifest(manifest_path, manifest)
        return manifest_path

    return emit


def _write_out(ns, inputs, text, what, schema_pair=None):
    """Write ``text`` to --out and its run manifest, or without --out to
    standard output."""
    if ns.out:
        emit = _claim_outputs(ns, inputs, [ns.out], schema_pair)
        _write_bytes(ns.out, text, what)
        emit()
    else:
        sys.stdout.write(text)


def _warned(fn, *args):
    """fn(*args), with each warning it gives printed on stderr as one
    ``warning: <message>`` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return result


def cmd_interdep(ns) -> int:
    schema, skeleton = _load_schema_arg(ns.schema)
    instances = _parse_instances(ns.instances)
    oracle = _open_oracle(ns, schema)
    with oracle:
        emit = _claim_outputs(ns, [], [ns.out_delta, ns.out_pi], (schema, skeleton))
        identity = oracle.describe()
        delta = delta_perf_matrix(oracle, instances=instances, m=ns.trials, seed=ns.seed)
    write_delta_csv(ns.out_delta, delta)
    pi = _warned(perturbation_influence, delta)
    write_matrix_csv(ns.out_pi, list(delta.names), pi)
    path = emit(identity)
    print(f"wrote {ns.out_delta}, {ns.out_pi}, {path} ({schema.n} keypoints)")
    return 0


def cmd_cluster(ns) -> int:
    schema, skeleton = _load_schema_arg(ns.schema)
    delta = read_delta_csv(ns.delta, schema)
    pi = _warned(perturbation_influence, delta)
    s = interdependency(pi, keypoint_connectivity(schema, skeleton))
    grouping = cluster_matrix(s, g=ns.g, linkage=ns.linkage)
    emit = _claim_outputs(ns, [ns.delta], [ns.out], (schema, skeleton))
    _write_bytes(ns.out, _json_text(grouping.to_json_dict(schema)), "grouping")
    path = emit()
    for k, members in enumerate(grouping.groups):
        print(f"{group_label(k)}: " + " ".join(schema.names[i] for i in members))
    print(f"wrote {ns.out}, {path}")
    return 0


def cmd_shapley(ns) -> int:
    schema, skeleton = _load_schema_arg(ns.schema)
    grouping = Grouping.from_json(ns.groups, schema)
    instances = _parse_instances(ns.instances)
    oracle = _open_oracle(ns, schema)
    with oracle:
        emit = _claim_outputs(ns, [ns.groups], [ns.out], (schema, skeleton))
        identity = oracle.describe()
        report, budget = run_group_attribution(
            oracle,
            grouping,
            instances=instances,
            trial=ns.seed,
            split_mode=ns.split,
        )
    _write_bytes(ns.out, _json_text(report.to_json_dict()), "report")
    path = emit(identity)
    print(
        f"oracle calls {budget.oracle_calls}, distinct coalitions "
        f"{budget.distinct_coalitions}; wrote {ns.out}, {path}"
    )
    return 0


def cmd_exact(ns) -> int:
    table = exact_shapley(read_game_csv(ns.game))
    for name, phi in zip(table.players, table.phi):
        print(f"{name} {phi:.10g}")
    print(f"efficiency_gap {table.efficiency_gap():.3g}")
    if ns.out:
        _write_out(ns, [ns.game], _json_text(table.to_json_dict()), "result")
    return 0


def cmd_cost(ns) -> int:
    try:
        sizes = [int(s) for s in ns.groups.split(",") if s]
    except ValueError:
        raise DataError(f"bad group sizes {ns.groups!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise DataError(f"group sizes must be positive, got {ns.groups!r}")
    if sum(sizes) != ns.n:
        raise DataError(f"group sizes sum to {sum(sizes)}, but n is {ns.n}")
    start = 0
    blocks = []
    for s in sizes:
        blocks.append(range(start, start + s))
        start += s
    grouping = Grouping.from_sets(blocks, ns.n)
    gsv = query_count(grouping, trials=ns.trials)
    full = exact_query_count(ns.n, trials=ns.trials)
    print(f"gsv distinct_coalitions {gsv.distinct_coalitions}")
    print(f"gsv oracle_calls {gsv.oracle_calls}")
    print(f"exact distinct_coalitions {full.distinct_coalitions}")
    print(f"exact oracle_calls {full.oracle_calls}")
    return 0


def cmd_masks(ns) -> int:
    try:
        x, y = (float(v) for v in ns.keypoint.split(","))
    except ValueError:
        raise DataError(f"bad keypoint {ns.keypoint!r}, expected X,Y") from None
    specs = gen_masks((x, y), ns.count, ns.scale, (ns.width, ns.height), ns.seed)
    lines = ["mask_index,center_x,center_y,width,height,x0,y0,x1,y1,fill"]
    for i, spec in enumerate(specs):
        cx, cy = spec.center
        x0, y0, x1, y1 = spec.rect
        lines.append(
            f"{i},{cx:.10g},{cy:.10g},{spec.width},{spec.height},"
            f"{x0},{y0},{x1},{y1},noise"
        )
    _write_out(ns, [], "\n".join(lines) + "\n", "masks")
    return 0


def cmd_gkr_plan(ns) -> int:
    schema, skeleton = _load_schema_arg(ns.schema)
    grouping = Grouping.from_json(ns.groups, schema)
    persons = parse_annotations(ns.annotations, schema)
    if ns.scales:
        try:
            scales = tuple(float(s) for s in ns.scales.split(",") if s)
        except ValueError:
            raise DataError(f"bad scales {ns.scales!r}") from None
    else:
        scales = default_scales(grouping, schema)
    plans = []
    for person in persons:
        cfg = GkrConfig(
            keep_prob=ns.keep_prob,
            scales=scales,
            seed=mix64("gkr-person", ns.seed, person.annotation_id),
        )
        plans.append(plan_gkr(person, grouping, cfg))
    emit = _claim_outputs(ns, [ns.groups, ns.annotations], [ns.out], (schema, skeleton))
    write_plans(ns.out, plans)
    path = emit()
    rects = sum(len(p.rects) for p in plans)
    print(f"planned {len(plans)} persons, {rects} rectangles; wrote {ns.out}, {path}")
    return 0


def _plan_name(file_name: str) -> PurePath:
    """A plan's file name, normalized ("./a.png" and "a.png" name one image),
    refusing one that could leave the image and output directories."""
    name = PurePath(file_name)
    if name.is_absolute() or ".." in name.parts:
        raise DataError(f"plan file_name {file_name!r} must be relative and without '..'")
    return name


def cmd_gkr_apply(ns) -> int:
    plans = read_plans(ns.plans)
    images_dir = Path(ns.images)
    out_dir = Path(ns.out)
    by_file: dict[PurePath, list] = {}
    for plan in plans:
        by_file.setdefault(_plan_name(plan.file_name), []).append(plan)
    if not by_file:
        raise DataError(f"no plans in {ns.plans}")
    files = [(images_dir / name, out_dir / name, file_plans) for name, file_plans in by_file.items()]
    if ns.manifest is None:
        ns.manifest = str(out_dir / "gkr-apply.manifest.json")
    outputs = [str(dst) for _, dst, _ in files]
    emit = _claim_outputs(ns, [ns.plans, *(str(src) for src, _, _ in files)], outputs)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {out_dir}: {e}") from e
    for src, dst, file_plans in files:
        image = load_image(src)
        for plan in file_plans:
            image = apply_plan(image, plan)
        save_image(dst, image)
    path = emit()
    print(f"applied {len(plans)} plans to {len(outputs)} images; wrote {path}")
    return 0


def cmd_gkr_stats(ns) -> int:
    schema, skeleton = _load_schema_arg(ns.schema)
    stats = occlusion_stats(parse_annotations(ns.annotations, schema))
    _write_out(ns, [ns.annotations], _json_text(stats), "stats", (schema, skeleton))
    return 0


def cmd_corr(ns) -> int:
    table = read_confidence_csv(ns.table)
    result = _warned(confidence_correlation, table)
    emit = _claim_outputs(ns, [ns.table], [ns.out])
    write_matrix_csv(ns.out, list(table.names), result.matrix)
    path = emit()
    print(f"wrote {ns.out}, {path}")
    return 0


def cmd_render(ns) -> int:
    labels, matrix = read_matrix_csv(ns.matrix)
    emit = _claim_outputs(ns, [ns.matrix], [ns.out])
    _write_bytes(ns.out, render_heatmap(matrix, labels), "heatmap")
    path = emit()
    print(f"wrote {ns.out}, {path}")
    return 0


def cmd_oracle_serve_synthetic(ns) -> int:
    schema, _ = _load_schema_arg(ns.schema)
    config = SyntheticModelConfig.from_json(ns.config)
    serve(SyntheticOracle(config, schema), sys.stdin, sys.stdout)
    return 0


def _add_seed_jobs(p):
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and recorded in the manifest; evaluation is "
        "sequential, so it changes neither outputs nor speed (>= 1, default 1)",
    )


def _add_manifest(p):
    p.add_argument(
        "--manifest",
        default=None,
        help="run manifest path (default: <first output>.manifest.json)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kpshap parser, built on the first call and shared after it.

    Each subcommand stores its handler's name in ``func``, not the function:
    ``main`` looks the name up in this module on every call, so a handler
    rebound after the first build is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="kpshap",
        description="keypoint interdependency, group Shapley attribution, and "
        "group-aware erasing",
    )
    parser.add_argument("--version", action="version", version=f"kpshap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interdep", help="oracle -> performance-drop and influence CSVs")
    _add_oracle_flags(p)
    _add_schema_flag(p)
    p.add_argument("--instances", default="all", help='"all" or comma-separated ids')
    p.add_argument("-m", "--trials", type=int, default=1, help="perturbation trials per keypoint")
    _add_seed_jobs(p)
    p.add_argument("--out-delta", required=True, help="performance-drop CSV to write")
    p.add_argument("--out-pi", required=True, help="pairwise influence CSV to write")
    _add_manifest(p)
    p.set_defaults(func="cmd_interdep")

    p = sub.add_parser("cluster", help="drop CSV + skeleton -> keypoint grouping JSON")
    p.add_argument("--delta", required=True, help="performance-drop CSV")
    _add_schema_flag(p)
    p.add_argument("--g", type=int, default=DEFAULT_GROUPS, help="number of groups")
    p.add_argument("--linkage", choices=LINKAGES, default=DEFAULT_LINKAGE)
    p.add_argument("--out", required=True, help="grouping JSON to write")
    _add_manifest(p)
    p.set_defaults(func="cmd_cluster")

    p = sub.add_parser("shapley", help="oracle + grouping -> attribution report JSON")
    _add_oracle_flags(p)
    _add_schema_flag(p)
    p.add_argument("--groups", required=True, help="grouping JSON")
    p.add_argument("--split", choices=SPLIT_MODES, default="uniform")
    p.add_argument("--instances", default="all", help='"all" or comma-separated ids')
    _add_seed_jobs(p)
    p.add_argument("--out", required=True, help="attribution report JSON to write")
    _add_manifest(p)
    p.set_defaults(func="cmd_shapley")

    p = sub.add_parser("exact", help="brute-force Shapley of a scalar game table")
    p.add_argument("--game", required=True, help="coalition_hex,value CSV over all 2^n masks")
    p.add_argument("--out", default=None, help="optional result JSON")
    _add_manifest(p)
    p.set_defaults(func="cmd_exact")

    p = sub.add_parser("cost", help="query budget of grouped vs exhaustive pricing")
    p.add_argument("--groups", required=True, help="comma-separated group sizes, e.g. 5,3,3,3,3")
    p.add_argument("--n", type=int, required=True, help="total keypoint count")
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func="cmd_cost")

    p = sub.add_parser("masks", help="perturbation mask geometry for one keypoint")
    p.add_argument("--keypoint", required=True, help="X,Y center")
    p.add_argument("--count", type=int, default=8, help="masks to draw")
    p.add_argument("--scale", type=float, default=0.15, help="base side scale")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional CSV (default stdout)")
    _add_manifest(p)
    p.set_defaults(func="cmd_masks")

    p = sub.add_parser("gkr", help="group-based keypoint removal")
    gkr_sub = p.add_subparsers(dest="gkr_command", required=True)

    q = gkr_sub.add_parser("plan", help="annotations + grouping -> erase plans JSONL")
    q.add_argument("--annotations", required=True, help="person keypoints JSON")
    _add_schema_flag(q)
    q.add_argument("--groups", required=True, help="grouping JSON")
    q.add_argument("--keep-prob", type=float, default=0.5, help="per-group keep probability")
    q.add_argument("--scales", default=None, help="comma-separated per-group side scales")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True, help="erase plans JSONL to write")
    _add_manifest(q)
    q.set_defaults(func="cmd_gkr_plan")

    q = gkr_sub.add_parser("apply", help="erase plans + images -> erased images")
    q.add_argument("--plans", required=True, help="erase plans JSONL")
    q.add_argument("--images", required=True, help="directory with source images")
    q.add_argument("--out", required=True, help="directory for erased images")
    _add_manifest(q)
    q.set_defaults(func="cmd_gkr_apply")

    q = gkr_sub.add_parser("stats", help="occlusion-ratio buckets of an annotation file")
    q.add_argument("--annotations", required=True, help="person keypoints JSON")
    _add_schema_flag(q)
    q.add_argument("--out", default=None, help="optional JSON (default stdout)")
    _add_manifest(q)
    q.set_defaults(func="cmd_gkr_stats")

    p = sub.add_parser("corr", help="confidence table CSV -> correlation matrix CSV")
    p.add_argument("--table", required=True, help="instance,<names> confidence CSV")
    p.add_argument("--out", required=True, help="correlation CSV to write")
    _add_manifest(p)
    p.set_defaults(func="cmd_corr")

    p = sub.add_parser("render", help="labeled matrix CSV -> SVG heatmap")
    p.add_argument("--matrix", required=True, help="labeled square matrix CSV")
    p.add_argument("--out", required=True, help="SVG to write")
    _add_manifest(p)
    p.set_defaults(func="cmd_render")

    p = sub.add_parser("oracle", help="oracle process utilities")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser(
        "serve-synthetic", help="speak the line-JSON oracle protocol on stdio"
    )
    q.add_argument("--config", required=True, help="synthetic oracle config JSON")
    _add_schema_flag(q)
    q.set_defaults(func="cmd_oracle_serve_synthetic")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    try:
        with _stdout_writes():
            return globals()[ns.func](ns)
    except KpshapError as e:
        print(f"error({e.code}): {e}", file=sys.stderr)
        return 4 if isinstance(e, OracleError) else 3


if __name__ == "__main__":
    sys.exit(main())
