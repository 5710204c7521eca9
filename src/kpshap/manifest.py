"""Reproducibility manifests for CLI runs.

A manifest pins everything a rerun needs to produce byte-identical
artifacts: the subcommand and its argument snapshot, the seed, the resolved
schema digest, the oracle identity, and sha256 digests of every input and
output file. Deliberately no timestamps, hostnames, or absolute paths of
the machine: two identical runs must produce identical manifests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import DataError, _json_text, _write_bytes

TOOL_NAME = "kpshap"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as e:
        raise DataError(f"cannot digest {path}: {e}") from e
    return digest.hexdigest()


def _plain(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def build_manifest(
    version: str,
    command: str,
    args: dict,
    seed: int | None = None,
    schema_sha256: str | None = None,
    oracle: str | None = None,
    input_paths=(),
    output_paths=(),
) -> dict:
    """The manifest document; file digests are keyed by the file names as given."""
    return {
        "tool": TOOL_NAME,
        "version": version,
        "command": command,
        "args": _plain(args),
        "seed": seed,
        "schema_sha256": schema_sha256,
        "oracle": oracle,
        "inputs": {str(p): sha256_file(p) for p in input_paths},
        "outputs": {str(p): sha256_file(p) for p in output_paths},
    }


def write_manifest(path, manifest: dict) -> None:
    _write_bytes(path, _json_text(manifest), "manifest")
