"""Reproducibility manifests for CLI runs.

A manifest pins everything a rerun needs to produce byte-identical
artifacts: the subcommand and its argument snapshot, the seed, the resolved
schema digest, the oracle identity, and sha256 digests of every input and
output file. Deliberately no timestamps, hostnames, or absolute paths of
the machine: two identical runs must produce identical manifests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, _json_document, _json_text, _write_bytes

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


@dataclass(frozen=True)
class RunManifest:
    tool: str
    version: str
    command: str
    args: dict
    seed: int | None = None
    schema_sha256: str | None = None
    oracle: str | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "args": _plain(self.args),
            "seed": self.seed,
            "schema_sha256": self.schema_sha256,
            "oracle": self.oracle,
            "inputs": _plain(self.inputs),
            "outputs": _plain(self.outputs),
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())

    @classmethod
    def from_json(cls, source) -> "RunManifest":
        doc = _json_document(source, "manifest")
        try:
            return cls(
                tool=doc["tool"],
                version=doc["version"],
                command=doc["command"],
                args=dict(doc["args"]),
                seed=doc.get("seed"),
                schema_sha256=doc.get("schema_sha256"),
                oracle=doc.get("oracle"),
                inputs=dict(doc.get("inputs", {})),
                outputs=dict(doc.get("outputs", {})),
            )
        except (KeyError, TypeError) as e:
            raise DataError(f"bad manifest document: {e}") from e


def build_manifest(
    version: str,
    command: str,
    args: dict,
    seed: int | None = None,
    schema_sha256: str | None = None,
    oracle: str | None = None,
    input_paths=(),
    output_paths=(),
) -> RunManifest:
    """Digest the listed files; keys are the file names as given."""
    inputs = {str(p): sha256_file(p) for p in input_paths}
    outputs = {str(p): sha256_file(p) for p in output_paths}
    return RunManifest(
        tool=TOOL_NAME,
        version=version,
        command=command,
        args=args,
        seed=seed,
        schema_sha256=schema_sha256,
        oracle=oracle,
        inputs=inputs,
        outputs=outputs,
    )


def write_manifest(path, manifest: RunManifest) -> None:
    _write_bytes(path, manifest.to_json(), "manifest")
