import hashlib
import json
from pathlib import Path

import pytest

from kpshap import (
    DataError,
    build_manifest,
    sha256_file,
    write_manifest,
)


def test_sha256_file_matches_hashlib(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(b"x" * 100_000 + b"tail")
    assert sha256_file(p) == hashlib.sha256(p.read_bytes()).hexdigest()


def test_sha256_file_missing(tmp_path):
    with pytest.raises(DataError):
        sha256_file(tmp_path / "nope")


def test_build_and_write_roundtrip(tmp_path):
    inp = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    inp.write_text("a,b\n1,2\n")
    out.write_text("c\n3\n")
    m = build_manifest(
        "0.1.0",
        "interdep",
        {"trials": 3, "instances": ["0", "1"], "out": out},
        seed=7,
        schema_sha256="ab" * 32,
        oracle="synthetic:deadbeef",
        input_paths=[inp],
        output_paths=[out],
    )
    assert m["tool"] == "kpshap"
    assert m["inputs"] == {str(inp): sha256_file(inp)}
    assert m["outputs"] == {str(out): sha256_file(out)}
    path = tmp_path / "run.manifest.json"
    write_manifest(path, m)
    back = json.loads(path.read_text())
    assert back == m
    assert back["command"] == "interdep"
    assert back["seed"] == 7
    assert back["args"]["trials"] == 3


def test_manifest_bytes_are_deterministic(tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("payload")

    def make():
        path = tmp_path / "run.manifest.json"
        m = build_manifest("0.1.0", "cluster", {"g": 5, "path": inp}, input_paths=[inp])
        write_manifest(path, m)
        return path.read_text()

    assert make() == make()
    doc = json.loads(make())
    assert list(doc) == sorted(doc)  # sort_keys pins the byte layout
    assert "time" not in make() and "date" not in make()


def test_manifest_plain_sanitizes_paths_and_tuples(tmp_path):
    doc = build_manifest(
        "0.1.0",
        "gkr",
        {"scales": (0.05, 0.15), "out": Path("/tmp/x"), "z": {"b": 1, "a": 2}},
    )
    assert doc["args"]["scales"] == [0.05, 0.15]
    assert doc["args"]["out"] == "/tmp/x"
    assert list(doc["args"]["z"]) == ["a", "b"]
    json.dumps(doc)  # everything must be JSON-serializable
