"""Error taxonomy shared by every module.

Each error carries a short machine-readable ``code`` (kebab-case) so the CLI
can print ``error(<code>): <detail>`` and map the class to an exit status.
Text input is read here too: every file is decoded as UTF-8 by
``_read_text``, and the JSON-document loader and the CSV row reader build on
it, so every reader maps read, decode and parse failures onto the taxonomy
the same way. The numeric CSV tables share one row parser and one writer.
"""

from __future__ import annotations

import csv
import io
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


def _read_text(path, what: str, error=DataError, code=None) -> str:
    """A whole UTF-8 text file, line endings kept as written.

    Read and decode failures raise ``error`` with ``code``.
    """
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what} {path}: {e}", code=code) from e


def _parse_json(text: str, where: str, error=DataError, code=None):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{where} is not valid JSON: {e}", code=code) from e


def _json_document(source, what: str, error=DataError, io_code=None, parse_code=None):
    """Parse a JSON document given as a path, JSON text or a parsed object.

    A str whose first non-blank character is "{" is JSON text; any other str
    or a Path names a file; anything else is returned as already parsed.
    Read and parse failures raise ``error`` with ``io_code``/``parse_code``.
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        text = _read_text(source, what, error, io_code)
        where = f"{what} {source}"
    elif isinstance(source, str):
        text, where = source, f"{what} text"
    else:
        return source
    return _parse_json(text, where, error, parse_code)


def _csv_rows(path, what: str):
    """Iterate the rows of a UTF-8 CSV file; any failure is a DataError."""
    text = _read_text(path, what)
    try:
        yield from csv.reader(io.StringIO(text, newline=""))
    except csv.Error as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e


def _float_cells(path, lineno: int, row, width: int) -> list[float]:
    """The cells after a row's label cell, as floats; the row must be ``width`` wide."""
    if len(row) != width:
        raise DataError(f"{path}:{lineno}: row width {len(row)}, expected {width}")
    try:
        return [float(x) for x in row[1:]]
    except ValueError as e:
        raise DataError(f"{path}:{lineno}: non-numeric cell ({e})") from None


def _write_table(path, header, rows) -> None:
    """CSV: the header, then each (label, values) row with values as .10g."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for label, values in rows:
            w.writerow([label] + [format(float(v), ".10g") for v in values])
