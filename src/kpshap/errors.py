"""Error taxonomy shared by every module.

Each error carries a short machine-readable ``code`` (kebab-case) so the CLI
can print ``error(<code>): <detail>`` and map the class to an exit status.
Every file is read by ``_read_bytes`` and written by ``_write_bytes`` here
too, text as UTF-8 with line endings kept, so read, decode, parse and write
failures map onto the taxonomy the same way in every reader and writer. The
numeric CSV tables share one row parser and one writer.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from pathlib import Path


class KpshapError(Exception):
    """Base class; ``code`` identifies the failure kind."""

    code = "error"

    def __init__(self, detail: str, code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(detail)


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


def _read_bytes(path, what: str, error=DataError, code=None) -> bytes:
    """A whole file's bytes; a read failure raises ``error`` with ``code``."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}", code=code) from e


def _read_text(path, what: str, error=DataError, code=None) -> str:
    """A whole UTF-8 text file, line endings kept; a decode failure raises ``error`` too."""
    try:
        return _read_bytes(path, what, error, code).decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"cannot read {what} {path}: {e}", code=code) from e


def _write_bytes(path, data, what: str) -> None:
    """Store ``data`` at ``path``, a str as UTF-8 with line endings kept; OSError is a DataError."""
    try:
        with open(path, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as e:
        raise DataError(f"cannot write {what} {path}: {e}") from e


def _parse_json(text: str, where: str, error=DataError, code=None):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{where} is not valid JSON: {e}", code=code) from e


def _json_text(doc) -> str:
    """The indented JSON form every JSON output uses: sorted keys, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# json.dumps builds a new encoder on every call that passes it arguments
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_line(doc) -> str:
    """Compact JSON for wire lines, plan lines and digests: sorted keys, no spaces."""
    return _LINE_ENCODER.encode(doc)


def _json_int(value, what: str) -> int:
    """A JSON integer, or an integral float such as 2.0, as an int.

    A fraction, a non-finite float, a bool, a string or anything else is a
    DataError: a count or coordinate is never truncated or parsed from text.
    """
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DataError(f"{what} must be an integer, got {value!r}")


def _json_float(value, what: str) -> float:
    """A JSON integer or float as a float.

    A bool, a string, an integer beyond a float or anything else is a
    DataError: a coordinate or weight is never parsed from text.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DataError(f"{what} must be a number, got {value!r}")


def _json_str(value, what: str) -> str:
    """A JSON string; anything else is a DataError, never passed through str()."""
    if isinstance(value, str):
        return value
    raise DataError(f"{what} must be a string, got {value!r}")


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


def _csv_text(rows) -> str:
    """CSV text of the rows, with the csv module's \\r\\n line endings."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_table(path, header, rows, what: str) -> None:
    """CSV: the header, then each (label, values) row with values as .10g."""
    lines = ([label] + [format(float(v), ".10g") for v in values] for label, values in rows)
    _write_bytes(path, _csv_text([header, *lines]), what)
