import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpshap
from kpshap import (
    EraseRect,
    ErasePlan,
    apply_plan,
    default_schema,
    load_image,
    load_schema,
    read_delta_csv,
    read_matrix_csv,
    save_image,
    schema_digest,
    sha256_file,
    write_matrix_csv,
    write_plans,
)
from kpshap import cli
from kpshap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ----------------------------------------------------------------


def test_missing_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interdep"])
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_jobs_must_be_positive(capsys, fixtures_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "interdep",
                "--synthetic",
                str(fixtures_dir / "synthetic17.json"),
                "--out-delta",
                str(tmp_path / "d.csv"),
                "--out-pi",
                str(tmp_path / "pi.csv"),
                "--jobs",
                "0",
            ]
        )
    assert exc.value.code == 2


def test_data_error_exit_3(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "cluster",
        "--delta",
        str(tmp_path / "missing.csv"),
        "--out",
        str(tmp_path / "g.json"),
    )
    assert code == 3
    assert err.startswith("error(")


@pytest.mark.parametrize("command", ["shapley", "interdep"])
def test_truncated_json_text_exit_3(capsys, fixtures_dir, tmp_path, command):
    # JSON text given in place of a file path is parsed like a file's content
    if command == "shapley":
        argv = [
            "shapley",
            "--synthetic",
            str(fixtures_dir / "synthetic17.json"),
            "--groups",
            '{"g": 5, "groups": [',
            "--out",
            str(tmp_path / "report.json"),
        ]
    else:
        argv = [
            "interdep",
            "--synthetic",
            '{"base": [',
            "--out-delta",
            str(tmp_path / "d.csv"),
            "--out-pi",
            str(tmp_path / "pi.csv"),
        ]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error(data): ") and "not valid JSON" in err


# bytes of a binary file: a valid UTF-8 text never starts a sequence with 0x80
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)) * 4


def _unreadable_input_argv(case, fixtures_dir, tmp_path):
    bad = str(tmp_path / "input.bin")
    Path(bad).write_bytes(NOT_UTF8)
    groups = str(fixtures_dir / "expected_groups.json")
    out = str(tmp_path / "out")
    if case == "gkr apply --images (truncated PNG)":
        images = tmp_path / "images"
        images.mkdir()
        pixels = np.random.default_rng(0).integers(0, 256, (12, 16, 3), dtype=np.uint8)
        save_image(images / "a.png", pixels)
        png = (images / "a.png").read_bytes()
        (images / "a.png").write_bytes(png[: len(png) // 2])
        bad = str(tmp_path / "plans.jsonl")
        write_plans(bad, [ErasePlan(0, 0, "a.png", 16, 12, ())])
        return ["gkr", "apply", "--plans", bad, "--images", str(images), "--out", out]
    return {
        "exact --game": ["exact", "--game", bad],
        "cluster --delta": ["cluster", "--delta", bad, "--out", out],
        "corr --table": ["corr", "--table", bad, "--out", out],
        "shapley --oracle-table": ["shapley", "--oracle-table", bad, "--groups", groups]
        + ["--out", out],
        "shapley --groups": ["shapley", "--synthetic", str(fixtures_dir / "synthetic17.json")]
        + ["--groups", bad, "--out", out],
        "gkr plan --annotations": ["gkr", "plan", "--annotations", bad, "--groups", groups]
        + ["--out", out],
        "gkr apply --plans": ["gkr", "apply", "--plans", bad, "--images", out, "--out", out],
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "exact --game",
        "cluster --delta",
        "corr --table",
        "shapley --oracle-table",
        "shapley --groups",
        "gkr plan --annotations",
        "gkr apply --plans",
        "gkr apply --images (truncated PNG)",
    ],
)
def test_unreadable_input_exit_3(capsys, fixtures_dir, tmp_path, case):
    # a binary file where a text input belongs, or a cut-off image, is a
    # data error: exit 3 with one error line, never a traceback
    code, _, err = run(capsys, *_unreadable_input_argv(case, fixtures_dir, tmp_path))
    assert code == 3
    assert err.startswith("error(")
    assert "Traceback" not in err


def _persons_json(path):
    schema, _ = default_schema()
    kps = []
    for j in range(schema.n):
        kps += [8.0 + 3.0 * j, 10.0 + (j % 4) * 9.0, 2]
    doc = {
        "images": [{"id": 0, "width": 64, "height": 48, "file_name": "a.ppm"}],
        "annotations": [{"id": 7, "image_id": 0, "keypoints": kps}],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def _unwritable_output_argv(case, fixtures_dir, tmp_path):
    missing = tmp_path / "missing"  # never created: every output below it fails
    synthetic = str(fixtures_dir / "synthetic17.json")
    groups = str(fixtures_dir / "expected_groups.json")
    persons = _persons_json(tmp_path / "persons.json")
    matrix = tmp_path / "matrix.csv"
    write_matrix_csv(matrix, ["a", "b"], np.eye(2))
    table = tmp_path / "conf.csv"
    table.write_text("instance,a,b\n0,0.1,0.9\n1,0.4,0.3\n2,0.8,0.5\n")
    if case == "gkr apply --out (existing file)":
        images = tmp_path / "images"
        images.mkdir()
        save_image(images / "a.ppm", np.zeros((12, 16, 3), dtype=np.uint8))
        plans = tmp_path / "plans.jsonl"
        write_plans(plans, [ErasePlan(0, 0, "a.ppm", 16, 12, ())])
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        return ["gkr", "apply", "--plans", str(plans), "--images", str(images), "--out", str(taken)]
    out = str(missing / "out")
    return {
        "interdep": ["interdep", "--synthetic", synthetic, "--instances", "0"]
        + ["--out-delta", out, "--out-pi", str(tmp_path / "pi.csv")],
        "cluster": ["cluster", "--delta", str(fixtures_dir / "table2.csv"), "--out", out],
        "shapley": ["shapley", "--synthetic", synthetic, "--groups", groups]
        + ["--instances", "0", "--out", out],
        "exact": ["exact", "--game", str(fixtures_dir / "glove3.csv"), "--out", out],
        "masks": ["masks", "--keypoint", "5,5", "--width", "16", "--height", "12", "--out", out],
        "gkr plan": ["gkr", "plan", "--annotations", persons, "--groups", groups, "--out", out],
        "gkr stats": ["gkr", "stats", "--annotations", persons, "--out", out],
        "corr": ["corr", "--table", str(table), "--out", out],
        "render": ["render", "--matrix", str(matrix), "--out", out],
        "cluster --manifest": ["cluster", "--delta", str(fixtures_dir / "table2.csv")]
        + ["--out", str(tmp_path / "g.json"), "--manifest", out],
    }[case]


# every artifact-producing subcommand, one case each, plus --manifest once
ARTIFACT_CASES = [
    "interdep",
    "cluster",
    "shapley",
    "exact",
    "masks",
    "gkr plan",
    "gkr stats",
    "corr",
    "render",
    "cluster --manifest",
    "gkr apply --out (existing file)",
]


@pytest.mark.parametrize("case", ARTIFACT_CASES)
def test_unwritable_output_exit_3(capsys, fixtures_dir, tmp_path, case):
    # an output in a directory that does not exist, or an output directory
    # that is a file, is a data error: exit 3 with one error line
    code, _, err = run(capsys, *_unwritable_output_argv(case, fixtures_dir, tmp_path))
    assert code == 3
    assert err.startswith("error(")
    assert "Traceback" not in err


# the flags that name a file the run reads
INPUT_FLAGS = {"--synthetic", "--oracle-table", "--schema", "--delta", "--groups", "--game"}
INPUT_FLAGS |= {"--annotations", "--table", "--matrix", "--plans"}
COCO17 = Path(kpshap.__file__).parent / "schemas" / "coco17.json"


def _usage(capsys, words) -> str:
    with pytest.raises(SystemExit):
        main([*words, "--help"])
    return capsys.readouterr().out


@pytest.mark.parametrize("case", ARTIFACT_CASES)
def test_manifest_records_what_the_invocation_names(capsys, fixtures_dir, tmp_path, case):
    # the same invocations with every output writable: the manifest's
    # command, input files, schema digest and seed are each pinned here
    argv = _unwritable_output_argv(case, fixtures_dir, tmp_path)
    (tmp_path / "missing").mkdir()
    if case.startswith("gkr apply"):
        (tmp_path / "taken").unlink()
    words = argv[:2] if argv[0] == "gkr" else argv[:1]
    usage = _usage(capsys, words)
    takes_schema, takes_seed = "--schema" in usage, "--seed" in usage
    schema = tmp_path / "schema.json"
    if takes_schema:
        schema.write_bytes(COCO17.read_bytes())
        argv += ["--schema", str(schema)]
    if takes_seed:  # not the default 0, so that the manifest shows the seed given
        argv += ["--seed", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 0, err

    if "--manifest" in argv:
        path = argv[argv.index("--manifest") + 1]
    elif words == ["gkr", "apply"]:
        path = os.path.join(argv[argv.index("--out") + 1], "gkr-apply.manifest.json")
    else:
        path = argv[argv.index("--out-delta" if "--out-delta" in argv else "--out") + 1]
        path += ".manifest.json"
    manifest = json.loads(Path(path).read_text())
    named = {value for flag, value in zip(argv, argv[1:]) if flag in INPUT_FLAGS}
    if "--images" in argv:
        images = argv[argv.index("--images") + 1]
        named |= {os.path.join(images, name) for name in os.listdir(images)}
    assert manifest["command"] == " ".join(words)
    assert manifest["inputs"] == {p: sha256_file(p) for p in named}
    if takes_schema:
        assert manifest["schema_sha256"] == schema_digest(*load_schema(schema))
    else:
        assert manifest["schema_sha256"] is None
    assert manifest["seed"] == (1 if takes_seed else None)


def test_gkr_stats_manifest_records_its_schema(capsys, tmp_path):
    # with --schema, the schema file is an input and its digest is recorded;
    # without it, the built-in schema's digest is, as for cluster
    persons = _persons_json(tmp_path / "persons.json")
    doc = json.loads(COCO17.read_text())
    schema = tmp_path / "schema.json"  # the 17 keypoints with one edge less
    schema.write_text(json.dumps({**doc, "edges": doc["edges"][1:]}))
    own, builtin = schema_digest(*load_schema(schema)), schema_digest(*default_schema())
    assert own != builtin
    for flags, inputs, digest in [
        (["--schema", str(schema)], [persons, str(schema)], own),
        ([], [persons], builtin),
    ]:
        out = tmp_path / "stats.json"
        manifest_path = Path(f"{out}.manifest.json")
        manifest_path.unlink(missing_ok=True)
        argv = ["gkr", "stats", "--annotations", persons, *flags, "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        manifest = json.loads(manifest_path.read_text())
        assert manifest["inputs"] == {p: sha256_file(p) for p in inputs}
        assert manifest["schema_sha256"] == digest


def test_render_writes_utf8_whatever_the_locale(tmp_path):
    # the matrix is read as UTF-8, so the SVG is written as UTF-8 too, even
    # where the locale encoding is ASCII
    src = tmp_path / "matrix.csv"
    write_matrix_csv(src, ["épaule", "nose"], np.eye(2))
    svg = tmp_path / "heatmap.svg"
    package_root = str(Path(kpshap.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "kpshap", "render", "--matrix", str(src), "--out", str(svg)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert "épaule" in svg.read_bytes().decode("utf-8")


def test_missing_coalition_exit_4(capsys, fixtures_dir, tmp_path):
    # the frozen drop-table oracle only holds the 18 interdependency
    # coalitions, so a group attribution run must fail as an oracle error
    code, _, err = run(
        capsys,
        "shapley",
        "--oracle-table",
        str(fixtures_dir / "table2_oracle.csv"),
        "--groups",
        str(fixtures_dir / "expected_groups.json"),
        "--instances",
        "0",
        "--out",
        str(tmp_path / "report.json"),
    )
    assert code == 4
    assert err.startswith("error(")


def _child_env():
    """This process's environment, with the imported kpshap first on PYTHONPATH."""
    package_root = str(Path(kpshap.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": pythonpath}


def _kpshap(*argv):
    """Run the CLI in a fresh process; returns the CompletedProcess with
    stderr as text."""
    return subprocess.run(
        [sys.executable, "-m", "kpshap", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_closed_stdout_exit_3(fixtures_dir):
    # the reader of a serving child goes away after its hello: the reply to
    # the next line cannot be written, which is one error line, not a
    # BrokenPipeError traceback, and no second error from the exit flush
    argv = ["oracle", "serve-synthetic", "--config", str(fixtures_dir / "synthetic17.json")]
    with subprocess.Popen(
        [sys.executable, "-m", "kpshap", *argv],
        env=_child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert json.loads(proc.stdout.readline())["op"] == "hello"
        proc.stdout.close()
        proc.stdin.write(b'{"instances":["all"],"op":"eval","trial":0,"visible":[0,1,2]}\n')
        proc.stdin.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 3, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error(data): cannot write standard output: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["cost", "masks", "gkr stats", "serve-synthetic"])
def test_full_stdout_exit_3(fixtures_dir, tmp_path, command, unbuffered):
    # a full disk behind standard output is one error line and exit 3,
    # whether print fails at once (unbuffered) or the flush after the
    # handler does; never a traceback or an error from the exit flush
    argv = {
        "cost": ["cost", "--n", "17", "--groups", "5,3,3,3,3"],
        "masks": ["masks", "--keypoint", "5,5", "--width", "16", "--height", "12"],
        "gkr stats": ["gkr", "stats", "--annotations", _persons_json(tmp_path / "persons.json")],
        "serve-synthetic": ["oracle", "serve-synthetic", "--config"]
        + [str(fixtures_dir / "synthetic17.json")],
    }[command]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "kpshap", *argv],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error(data): cannot write standard output: "), proc.stderr


# fixed case ids, so results can be compared by test name across versions
@pytest.mark.parametrize(
    "flag", ["nan", "inf", "-1", "0"], ids=["nan-None", "inf-None", "-1-None", "0-None"]
)
def test_bad_oracle_timeout_exit_4(fixtures_dir, tmp_path, flag):
    # refused before the child starts: no selector error, no orphaned child
    serve = f"{sys.executable} -m kpshap oracle serve-synthetic --config {fixtures_dir / 'synthetic17.json'}"
    argv = ["interdep", "--oracle-cmd", serve, f"--timeout={flag}"]
    argv += ["--out-delta", str(tmp_path / "d.csv"), "--out-pi", str(tmp_path / "pi.csv")]
    proc = _kpshap(*argv)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error(oracle-io): oracle timeout must be a finite number of seconds > 0")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "names, reply, code, message",
    [
        (None, "0.5", 4, "error(schema-mismatch): oracle schema mismatch: child has n=17 names=None"),
        ("schema", "1" + "0" * 400, 3, "error(data): oracle sent malformed values in reply 0: "),
        ("schema", "true", 3, "error(data): oracle sent malformed values in reply 0: "),
    ],
    ids=["hello-names-null", "values-huge-int", "values-bool"],
)
def test_malformed_child_exits_with_its_code(capsys, tmp_path, names, reply, code, message):
    # each reply holds 17 copies of ``reply``; both failures were tracebacks
    if names == "schema":
        names = list(default_schema()[0].names)
    script = tmp_path / "child.py"
    script.write_text(
        "import json, sys\n"
        f"print(json.dumps({{'op': 'hello', 'n': 17, 'names': {names!r}}}), flush=True)\n"
        "for line in sys.stdin:\n"
        f"    print('{{\"values\":[' + ','.join([{reply!r}] * 17) + ']}}', flush=True)\n"
    )
    argv = ["interdep", "--oracle-cmd", f"{sys.executable} {script}"]
    argv += ["--out-delta", str(tmp_path / "d.csv"), "--out-pi", str(tmp_path / "pi.csv")]
    got, _, err = run(capsys, *argv)
    assert got == code, err
    assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


def test_duplicate_instance_ids_exit_3(capsys, fixtures_dir, tmp_path):
    code, _, err = run(
        capsys,
        "interdep",
        "--synthetic",
        str(fixtures_dir / "synthetic17.json"),
        "--instances",
        "0,0",
        "--out-delta",
        str(tmp_path / "d.csv"),
        "--out-pi",
        str(tmp_path / "pi.csv"),
    )
    assert code == 3
    assert err.startswith("error(duplicate-instance): instance id '0' is listed twice")
    assert not (tmp_path / "d.csv").exists()


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("kpshap ")


# --- plain stdout commands -------------------------------------------------------


def test_cost_prints_both_budgets(capsys):
    code, out, _ = run(capsys, "cost", "--groups", "5,3,3,3,3", "--n", "17")
    assert code == 0
    assert out.splitlines() == [
        "gsv distinct_coalitions 96",
        "gsv oracle_calls 96",
        "exact distinct_coalitions 131072",
        "exact oracle_calls 131072",
    ]


def test_cost_rejects_inconsistent_sizes(capsys):
    code, _, err = run(capsys, "cost", "--groups", "5,3", "--n", "17")
    assert code == 3
    assert "sum" in err


@pytest.mark.parametrize("groups, n, players", [("21", 21, 21), ("24,109", 133, 24)])
def test_cost_refuses_a_grouping_shapley_refuses(capsys, groups, n, players):
    # the first stage over MAX_PLAYERS is refused, as run_group_attribution does
    code, out, err = run(capsys, "cost", "--groups", groups, "--n", str(n))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error(too-many-players): {players} players would need 2^{players}")


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cost_rejects_non_positive_trials(capsys, trials):
    code, _, err = run(capsys, "cost", "--groups", "5,3,3,3,3", "--n", "17", "--trials", trials)
    assert code == 3
    assert err.startswith(f"error(data): trial count must be >= 1, got {trials}")


@pytest.mark.parametrize(
    "split, sha256",
    [
        ("uniform", "da1c9549032b3d2e75d030aa455a2d3aa7a8eed167bab129cbee5952b54d56a3"),
        ("proportional", "863d24400c4aa5cebf729846136b0ea5704506383f57aea14bf2ddefc4a3537e"),
    ],
    ids=["uniform", "proportional"],
)
def test_shapley_report_is_golden(capsys, fixtures_dir, tmp_path, split, sha256):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "shapley",
        "--synthetic",
        str(fixtures_dir / "synthetic17.json"),
        "--groups",
        str(fixtures_dir / "expected_groups.json"),
        "--seed",
        "3",
        "--split",
        split,
        "--out",
        str(out),
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_gkr_plan_bytes_are_golden(capsys, fixtures_dir, tmp_path):
    # pins the plan lines of a fixed annotations document and seed across
    # versions: int and str image ids, every visibility flag, keep-prob 0.5
    schema, _ = default_schema()
    doc = {"images": [], "annotations": []}
    for i, image_id in enumerate([0, "img-1", 2]):
        doc["images"].append(
            {"id": image_id, "width": 96, "height": 72, "file_name": f"im{i}.png"}
        )
        for k in range(2):
            kps = []
            for j in range(schema.n):
                kps += [4.0 + 5.0 * j + k, 6.0 + (j % 5) * 11.0 + i, (i + j + k) % 3]
            doc["annotations"].append({"id": 10 * i + k, "image_id": image_id, "keypoints": kps})
    ann = tmp_path / "persons.json"
    ann.write_text(json.dumps(doc))
    out = tmp_path / "plans.jsonl"
    argv = ["gkr", "plan", "--annotations", str(ann), "--groups"]
    argv += [str(fixtures_dir / "expected_groups.json"), "--seed", "11", "--out", str(out)]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0, stdout
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "de8b5ca9c138aced1e515042f03e8b95d715a8c071fd95cb5bd475876f9352d2"


def test_exact_glove_stdout(capsys, fixtures_dir):
    code, out, _ = run(capsys, "exact", "--game", str(fixtures_dir / "glove3.csv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p0 0.6666666667"
    assert lines[1] == "p1 0.1666666667"
    assert lines[2] == "p2 0.1666666667"
    assert lines[3].startswith("efficiency_gap ")
    assert float(lines[3].split()[1]) < 1e-12


def test_masks_csv_on_stdout(capsys):
    code, out, _ = run(
        capsys,
        "masks",
        "--keypoint",
        "50,60",
        "--count",
        "3",
        "--width",
        "128",
        "--height",
        "96",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mask_index,center_x,center_y,")
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]


@pytest.mark.parametrize("scale", ["nan", "inf", "1e300"])
def test_masks_refuse_a_scale_without_a_finite_side(capsys, scale):
    argv = ["masks", "--keypoint", "50,60", "--scale", scale, "--width", "128", "--height", "96"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == (
        f"error(data): base_scale {float(scale)} gives a mask side that is not a finite number\n"
    )
    assert out == ""


def test_masks_refuse_bounds_beyond_a_float(capsys):
    huge = str(10**400)
    argv = ["masks", "--keypoint", "5,5", "--width", huge, "--height", huge]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == f"error(data): image bounds {huge}x{huge} are too large for a float mask side\n"
    assert out == ""


# --- artifact-producing pipeline ---------------------------------------------------


def test_interdep_artifacts_and_manifest(capsys, fixtures_dir, tmp_path):
    out_delta = tmp_path / "delta.csv"
    out_pi = tmp_path / "pi.csv"
    code, out, _ = run(
        capsys,
        "interdep",
        "--synthetic",
        str(fixtures_dir / "synthetic17.json"),
        "--instances",
        "0",
        "--out-delta",
        str(out_delta),
        "--out-pi",
        str(out_pi),
    )
    assert code == 0
    assert "17 keypoints" in out
    labels, pi = read_matrix_csv(out_pi)
    assert len(labels) == 17
    assert np.allclose(pi.sum(), 17.0)

    manifest = json.loads(Path(str(out_delta) + ".manifest.json").read_text())
    assert manifest["command"] == "interdep"
    assert manifest["seed"] == 0
    assert manifest["oracle"].startswith("synthetic:")
    assert manifest["schema_sha256"] == schema_digest(*default_schema())
    assert manifest["outputs"][str(out_delta)] == sha256_file(out_delta)
    assert manifest["outputs"][str(out_pi)] == sha256_file(out_pi)
    assert manifest["inputs"][str(fixtures_dir / "synthetic17.json")] == sha256_file(
        fixtures_dir / "synthetic17.json"
    )


def test_an_all_zero_drop_row_warns_and_the_pipeline_goes_on(capsys, fixtures_dir, tmp_path):
    # at seed 3 no hidden keypoint lowers l-ear's score: its drop row is all
    # zero, and interdep and cluster both name it in a warning, not an error
    delta, pi, groups = (tmp_path / name for name in ("delta.csv", "pi.csv", "groups.json"))
    synthetic = str(fixtures_dir / "synthetic17.json")
    argv = ["interdep", "--synthetic", synthetic, "--seed", "3"]
    code, _, err = run(capsys, *argv, "--out-delta", str(delta), "--out-pi", str(pi))
    warning = "warning: all-zero drop row, given zero shares, for: l-ear\n"
    assert (code, err) == (0, warning)
    drops = read_delta_csv(delta, default_schema()[0]).drops
    assert drops.sum(axis=1).tolist().count(0.0) == 1
    # the 16 other share rows each sum to 1, and l-ear's is zero
    labels, matrix = read_matrix_csv(pi)
    assert matrix[labels.index("l-ear"), labels.index("l-ear")] == 0.0
    assert np.allclose(matrix.sum(), 16.0)
    code, out, err = run(capsys, "cluster", "--delta", str(delta), "--out", str(groups))
    assert (code, err) == (0, warning)
    assert "l-ear" in out


def test_cluster_recovers_expected_grouping(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "groups.json"
    code, stdout, _ = run(
        capsys,
        "cluster",
        "--delta",
        str(fixtures_dir / "table2.csv"),
        "--out",
        str(out),
    )
    assert code == 0
    got = json.loads(out.read_text())
    want = json.loads((fixtures_dir / "expected_groups.json").read_text())
    assert got["groups"] == want["groups"]
    assert stdout.count("group") >= 5


def test_shapley_report_and_budget_line(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "shapley",
        "--synthetic",
        str(fixtures_dir / "synthetic17.json"),
        "--groups",
        str(fixtures_dir / "expected_groups.json"),
        "--instances",
        "0",
        "--out",
        str(out),
    )
    assert code == 0
    assert "oracle calls 96" in stdout
    assert "distinct coalitions 86" in stdout
    report = json.loads(out.read_text())
    sigma = np.asarray(report["attribution"])
    assert sigma.shape == (17, 17)
    assert np.allclose(sigma.sum(axis=1), 1.0, atol=1e-9)
    assert (sigma >= 0).all()
    assert report["group_tables"][0]["players"] == [f"group{k}" for k in range(1, 6)]
    assert len(report["intra_tables"]) == 17


def test_gkr_plan_apply_stats_roundtrip(capsys, fixtures_dir, tmp_path):
    schema, _ = default_schema()
    rng = np.random.default_rng(0)
    images = tmp_path / "images"
    images.mkdir()
    doc = {"images": [], "annotations": []}
    for i, name in enumerate(["a.ppm", "b.ppm"]):
        doc["images"].append(
            {"id": i, "width": 64, "height": 48, "file_name": name}
        )
        kps = []
        for j in range(schema.n):
            kps += [8.0 + 3.0 * j, 10.0 + (j % 4) * 9.0, 2]
        doc["annotations"].append({"id": 100 + i, "image_id": i, "keypoints": kps})
        save_image(
            images / name, rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8)
        )
    ann = tmp_path / "persons.json"
    ann.write_text(json.dumps(doc))

    plans = tmp_path / "plans.jsonl"
    code, stdout, _ = run(
        capsys,
        "gkr",
        "plan",
        "--annotations",
        str(ann),
        "--groups",
        str(fixtures_dir / "expected_groups.json"),
        "--keep-prob",
        "0.0",
        "--out",
        str(plans),
    )
    assert code == 0
    assert "planned 2 persons" in stdout
    assert (tmp_path / "plans.jsonl.manifest.json").exists()

    sources = {str(images / name): sha256_file(images / name) for name in ["a.ppm", "b.ppm"]}
    erased = tmp_path / "erased"
    code, stdout, _ = run(
        capsys,
        "gkr",
        "apply",
        "--plans",
        str(plans),
        "--images",
        str(images),
        "--out",
        str(erased),
    )
    assert code == 0
    manifest = json.loads((erased / "gkr-apply.manifest.json").read_text())
    assert manifest["command"] == "gkr apply"
    assert {k: v for k, v in manifest["inputs"].items() if k in sources} == sources
    for name in ["a.ppm", "b.ppm"]:
        before = load_image(images / name)
        after = load_image(erased / name)
        assert after.shape == before.shape
        assert not np.array_equal(after, before)  # keep-prob 0 erases something
        assert manifest["outputs"][str(erased / name)] == sha256_file(erased / name)

    code, stdout, _ = run(capsys, "gkr", "stats", "--annotations", str(ann))
    assert code == 0
    stats = json.loads(stdout)
    assert stats["images"] == 2
    assert stats["persons"] == 2
    assert stats["buckets"]["0"] == 2


def _erase_plan(tmp_path, file_name, image):
    """A grey image at ``image`` and a plan that erases a rectangle of the
    image named ``file_name``."""
    save_image(image, np.full((12, 16, 3), 200, dtype=np.uint8))
    plans = tmp_path / "plans.jsonl"
    rect = EraseRect(0, 0, (2, 2, 8, 8), 5)
    write_plans(plans, [ErasePlan(0, 0, file_name, 16, 12, (rect,))])
    return str(plans)


@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_gkr_apply_refuses_a_file_name_outside_the_directories(capsys, tmp_path, where):
    target = tmp_path / "escaped.ppm"
    plans = _erase_plan(tmp_path, "../escaped.ppm" if where == "parent" else str(target), target)
    before = target.read_bytes()
    images = tmp_path / "images"
    images.mkdir()
    out = str(tmp_path / "out")
    code, _, err = run(capsys, "gkr", "apply", "--plans", plans, "--images", str(images), "--out", out)
    assert code == 3
    assert err.startswith("error(data): plan file_name ")
    assert target.read_bytes() == before


@pytest.mark.parametrize("rect", [[2, 2, 8], [2, 2, 8, 8, 1]], ids=["three", "five"])
def test_gkr_apply_refuses_a_rect_of_the_wrong_arity(capsys, tmp_path, rect):
    images = tmp_path / "images"
    images.mkdir()
    plans = Path(_erase_plan(tmp_path, "a.ppm", images / "a.ppm"))
    doc = json.loads(plans.read_text())
    doc["rects"][0]["rect"] = rect
    plans.write_text(json.dumps(doc) + "\n")
    out = tmp_path / "out"
    argv = ["gkr", "apply", "--plans", str(plans), "--images", str(images), "--out", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error(")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "side, size", [("width", 10**400), ("height", 2**31)], ids=["width-1e400", "height-2^31"]
)
def test_gkr_plan_refuses_an_image_side_beyond_png(capsys, fixtures_dir, tmp_path, side, size):
    # a PNG side is at most 2^31-1 pixels; a larger one overflows the
    # planner's float arithmetic
    persons = Path(_persons_json(tmp_path / "persons.json"))
    doc = json.loads(persons.read_text())
    doc["images"][0][side] = size
    persons.write_text(json.dumps(doc))
    out = tmp_path / "plans.jsonl"
    argv = ["gkr", "plan", "--annotations", str(persons), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--groups", str(fixtures_dir / "expected_groups.json"))
    assert code == 3
    assert err.startswith("error(data): image 0 has a side above 2^31-1 pixels")
    assert not out.exists()


@pytest.mark.parametrize("case", ["out is images", "hard link", "symlink", "manifest"])
def test_gkr_apply_never_writes_over_an_input(capsys, tmp_path, case):
    images = tmp_path / "images"
    images.mkdir()
    plans = _erase_plan(tmp_path, "a.ppm", images / "a.ppm")
    inputs = {p: p.read_bytes() for p in (images / "a.ppm", Path(plans))}
    out = images if case == "out is images" else tmp_path / "out"
    argv = ["gkr", "apply", "--plans", plans, "--images", str(images), "--out", str(out)]
    overwritten = out / "a.ppm"
    if case in ("hard link", "symlink"):
        out.mkdir()
        (os.link if case == "hard link" else os.symlink)(images / "a.ppm", overwritten)
    elif case == "manifest":
        argv += ["--manifest", plans]
        overwritten = plans
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == f"error(data): gkr apply would write over its input {overwritten}\n"
    assert {p: p.read_bytes() for p in inputs} == inputs
    assert not (out / "gkr-apply.manifest.json").exists()


def _overwrite_argv(case, fixtures_dir, tmp_path):
    """(argv, the input or output named twice, the other outputs) for one
    subcommand whose output names one of its inputs or another output."""
    for name in ["table2.csv", "synthetic17.json", "expected_groups.json", "glove3.csv"]:
        (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
    delta, synthetic = tmp_path / "table2.csv", tmp_path / "synthetic17.json"
    groups, game = tmp_path / "expected_groups.json", tmp_path / "glove3.csv"
    persons = Path(_persons_json(tmp_path / "persons.json"))
    matrix, table = tmp_path / "matrix.csv", tmp_path / "conf.csv"
    write_matrix_csv(matrix, ["a", "b"], np.eye(2))
    table.write_text("instance,a,b\n0,0.1,0.9\n1,0.4,0.3\n2,0.8,0.5\n")
    x, g = tmp_path / "x.csv", tmp_path / "g.json"
    link = tmp_path / "link.csv"
    link.symlink_to(delta)
    oracle = ["--synthetic", str(synthetic), "--instances", "0"]
    return {
        "cluster --out is --delta": (
            ["cluster", "--delta", str(delta), "--out", str(delta)], delta, []
        ),
        "cluster --out is a symlink to --delta": (
            ["cluster", "--delta", str(delta), "--out", str(link)], link, []
        ),
        "cluster --manifest is --delta": (
            ["cluster", "--delta", str(delta), "--out", str(g), "--manifest", str(delta)],
            delta,
            [g],
        ),
        "interdep --out-pi is --out-delta": (
            ["interdep", *oracle, "--out-delta", str(x), "--out-pi", str(x)], x, []
        ),
        "interdep --out-delta is --synthetic": (
            ["interdep", *oracle, "--out-delta", str(synthetic), "--out-pi", str(x)],
            synthetic,
            [x],
        ),
        "shapley --out is --groups": (
            ["shapley", *oracle, "--groups", str(groups), "--out", str(groups)], groups, []
        ),
        "exact --out is --game": (["exact", "--game", str(game), "--out", str(game)], game, []),
        "masks --manifest is --out": (
            ["masks", "--keypoint", "5,5", "--width", "16", "--height", "12"]
            + ["--out", str(x), "--manifest", str(x)],
            x,
            [],
        ),
        "gkr plan --out is --annotations": (
            ["gkr", "plan", "--annotations", str(persons), "--groups", str(groups)]
            + ["--out", str(persons)],
            persons,
            [],
        ),
        "gkr stats --out is --annotations": (
            ["gkr", "stats", "--annotations", str(persons), "--out", str(persons)], persons, []
        ),
        "corr --out is --table": (["corr", "--table", str(table), "--out", str(table)], table, []),
        "render --out is --matrix": (
            ["render", "--matrix", str(matrix), "--out", str(matrix)], matrix, []
        ),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "cluster --out is --delta",
        "cluster --out is a symlink to --delta",
        "cluster --manifest is --delta",
        "interdep --out-pi is --out-delta",
        "interdep --out-delta is --synthetic",
        "shapley --out is --groups",
        "exact --out is --game",
        "masks --manifest is --out",
        "gkr plan --out is --annotations",
        "gkr stats --out is --annotations",
        "corr --out is --table",
        "render --out is --matrix",
    ],
)
def test_no_subcommand_writes_over_an_input_or_twice_to_one_file(
    capsys, fixtures_dir, tmp_path, case
):
    # checked before the first write: every input keeps its bytes, and
    # neither another output nor a manifest is written
    argv, named_twice, others = _overwrite_argv(case, fixtures_dir, tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    code, _, err = run(capsys, *argv)
    assert code == 3
    command = " ".join(argv[:2]) if argv[0] == "gkr" else argv[0]
    assert err in (
        f"error(data): {command} would write over its input {named_twice}\n",
        f"error(data): {command} would write two outputs to {named_twice}\n",
    )
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not any(p.exists() for p in others)


def test_gkr_apply_joins_plans_that_spell_one_image_differently(capsys, tmp_path):
    # "a.png" and "./a.png" are one image: both plans must erase it, or the
    # last write wins and drops the other plan's rectangle
    images, out = tmp_path / "images", tmp_path / "out"
    images.mkdir()
    grey = np.full((12, 16, 3), 200, dtype=np.uint8)
    save_image(images / "a.png", grey)
    spellings = [("a.png", (1, 1, 5, 5)), ("./a.png", (8, 4, 14, 10))]
    plans = [
        ErasePlan(0, i, name, 16, 12, (EraseRect(0, 0, rect, 5 + i),))
        for i, (name, rect) in enumerate(spellings)
    ]
    write_plans(tmp_path / "plans.jsonl", plans)
    argv = ["--plans", str(tmp_path / "plans.jsonl"), "--images", str(images), "--out", str(out)]
    code, stdout, err = run(capsys, "gkr", "apply", *argv)
    assert code == 0, err
    assert stdout.startswith("applied 2 plans to 1 images; ")
    erased = load_image(out / "a.png")
    assert np.array_equal(erased, apply_plan(apply_plan(grey, plans[0]), plans[1]))
    for x0, y0, x1, y1 in (rect for _, rect in spellings):
        assert not np.array_equal(erased[y0:y1, x0:x1], grey[y0:y1, x0:x1])
    manifest = json.loads((out / "gkr-apply.manifest.json").read_text())
    assert list(manifest["outputs"]) == [str(out / "a.png")]


def test_gkr_stats_accepts_mixed_type_image_ids(capsys, tmp_path):
    schema, _ = default_schema()
    doc = {"images": [], "annotations": []}
    for i, image_id in enumerate(["b", 0, "a", 2]):
        doc["images"].append({"id": image_id, "width": 64, "height": 48, "file_name": f"{i}.ppm"})
        kps = []
        for j in range(schema.n):
            kps += [8.0 + 3.0 * j, 10.0, 2 if j >= 4 * i else 0]
        doc["annotations"].append({"id": i, "image_id": image_id, "keypoints": kps})
    ann = tmp_path / "persons.json"
    ann.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "gkr", "stats", "--annotations", str(ann))
    assert code == 0, err
    stats = json.loads(stdout)
    assert stats["images"] == 4
    assert list(stats["ratios"]) == ["0", "2", "a", "b"]
    assert stats["ratios"]["b"] == 0.0
    assert stats["ratios"]["0"] == 4 / schema.n


@pytest.mark.parametrize(
    "field, value", [("names", 5), ("edges", 3), ("edges", [5])], ids=["names", "edges", "edge"]
)
def test_gkr_stats_schema_of_the_wrong_shape_exit_3(capsys, tmp_path, field, value):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"names": ["a", "b"], "edges": [["a", "b"]], field: value}))
    argv = ["gkr", "stats", "--schema", str(schema), "--annotations", str(tmp_path / "none.json")]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error(schema-parse): ")


@pytest.mark.parametrize("command", ["shapley", "serve-synthetic"])
def test_synthetic_config_too_large_for_a_float_exit_3(capsys, fixtures_dir, tmp_path, command):
    config = json.loads((fixtures_dir / "synthetic17.json").read_text())
    config["base"][0] = 10**400
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if command == "shapley":
        groups = str(fixtures_dir / "expected_groups.json")
        argv = ["shapley", "--synthetic", str(path), "--groups", groups]
        argv += ["--out", str(tmp_path / "report.json")]
    else:
        argv = ["oracle", "serve-synthetic", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error(data): bad synthetic config: ")
    assert out == ""


def test_interdep_refuses_infinite_noise_before_writing(capsys, fixtures_dir, tmp_path):
    config = json.loads((fixtures_dir / "synthetic17.json").read_text())
    config["noise_sd"] = float("inf")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_delta = tmp_path / "d.csv"
    argv = ["interdep", "--synthetic", str(path), "--out-delta", str(out_delta)]
    code, _, err = run(capsys, *argv, "--out-pi", str(tmp_path / "pi.csv"))
    assert code == 3
    assert err == "error(data): synthetic config values must be finite\n"
    assert not out_delta.exists()


def test_corr_reprints_warnings_on_stderr(capsys, tmp_path):
    table = tmp_path / "conf.csv"
    table.write_text(
        "instance,a,flat,c\n"
        "0,0.1,0.5,0.9\n"
        "1,0.4,0.5,0.3\n"
        "2,0.8,0.5,0.2\n"
    )
    out = tmp_path / "corr.csv"
    code, _, err = run(capsys, "corr", "--table", str(table), "--out", str(out))
    assert code == 0
    assert "warning:" in err and "flat" in err
    labels, matrix = read_matrix_csv(out)
    assert labels == ("a", "flat", "c")
    assert matrix[0, 1] == 0.0


def test_render_is_byte_deterministic(capsys, tmp_path):
    src = tmp_path / "matrix.csv"
    labels = ("nose", "l-eye", "r-eye")
    write_matrix_csv(src, labels, np.random.default_rng(5).random((3, 3)))
    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    for dst in (svg1, svg2):
        code, _, _ = run(capsys, "render", "--matrix", str(src), "--out", str(dst))
        assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text().startswith("<svg ")


# --- one parser per process -------------------------------------------------------


def test_main_builds_one_parser_for_many_calls(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "cost", "--groups", "5,3,3,3,3", "--n", "17")[0] == 0
    assert built.count("kpshap") == 1


def test_main_runs_a_handler_rebound_after_the_first_call(capsys, monkeypatch):
    assert run(capsys, "cost", "--groups", "17", "--n", "17")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_gkr_stats", lambda ns: seen.append(ns.annotations) or 7)
    assert run(capsys, "gkr", "stats", "--annotations", "persons.json")[0] == 7
    assert seen == ["persons.json"]


def test_no_option_carries_over_to_the_next_call(capsys, fixtures_dir, tmp_path):
    persons = _persons_json(tmp_path / "persons.json")
    groups = str(fixtures_dir / "expected_groups.json")
    plans = tmp_path / "plans.jsonl"
    seeds = []
    for extra in (["--seed", "9"], []):
        argv = ["gkr", "plan", "--annotations", persons, "--groups", groups, "--out", str(plans)]
        assert run(capsys, *argv, *extra)[0] == 0
        seeds.append(json.loads(Path(f"{plans}.manifest.json").read_text())["seed"])
    assert seeds == [9, 0]

    images = tmp_path / "images"
    images.mkdir()
    save_image(images / "a.ppm", np.zeros((48, 64, 3), dtype=np.uint8))
    out = tmp_path / "out"
    argv = ["gkr", "apply", "--plans", str(plans), "--images", str(images), "--out", str(out)]
    chosen = tmp_path / "chosen.manifest.json"
    assert run(capsys, *argv, "--manifest", str(chosen))[0] == 0
    assert chosen.exists() and not (out / "gkr-apply.manifest.json").exists()
    assert run(capsys, *argv)[0] == 0
    assert (out / "gkr-apply.manifest.json").exists()


@pytest.mark.parametrize("case", ["frobnicate", "interdep --jobs 0"])
def test_usage_errors_read_the_same_after_a_successful_call(capsys, fixtures_dir, tmp_path, case):
    argv = ["frobnicate"]
    if case != "frobnicate":
        argv = ["interdep", "--synthetic", str(fixtures_dir / "synthetic17.json"), "--jobs", "0"]
        argv += ["--out-delta", str(tmp_path / "d.csv"), "--out-pi", str(tmp_path / "pi.csv")]

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr()

    cli.build_parser.cache_clear()
    fresh = usage_error()
    assert fresh.err.startswith("usage: kpshap ")
    assert run(capsys, "cost", "--groups", "17", "--n", "17")[0] == 0
    assert usage_error() == fresh
