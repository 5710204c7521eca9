"""Error taxonomy shared by every module.

Each error carries a short machine-readable ``code`` (kebab-case) so the CLI
can print ``error(<code>): <detail>`` and map the class to an exit status.
The JSON-document loader lives here too, so every document reader maps read
and parse failures onto the taxonomy the same way.
"""

from __future__ import annotations

import json
from pathlib import Path


class KpshapError(Exception):
    """Base class; ``code`` identifies the failure kind."""

    code = "error"

    def __init__(self, detail: str, code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(detail)

    def __str__(self) -> str:  # "error(code): detail" is assembled by the CLI
        return super().__str__()


class SchemaError(KpshapError):
    """Invalid keypoint schema document or schema-level query."""

    code = "schema"


class DataError(KpshapError):
    """Malformed or degenerate input data (files, matrices, tables)."""

    code = "data"


class OracleError(KpshapError):
    """Oracle backend failure: protocol, transport, or missing value."""

    code = "oracle"


class MissingCoalitionError(OracleError):
    """Tabular oracle queried at a coalition absent from its table."""

    code = "missing-coalition"


def _json_document(source, what: str, error=DataError, io_code=None, parse_code=None):
    """Parse a JSON document given as a path, JSON text or a parsed object.

    A str whose first non-blank character is "{" is JSON text; any other str
    or a Path names a file; anything else is returned as already parsed.
    Read and parse failures raise ``error`` with ``io_code``/``parse_code``.
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        try:
            text = Path(source).read_text()
        except OSError as e:
            raise error(f"cannot read {what} {source}: {e}", code=io_code) from e
        where = f"{what} {source}"
    elif isinstance(source, str):
        text, where = source, f"{what} text"
    else:
        return source
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{where} is not valid JSON: {e}", code=parse_code) from e
