"""Confidence-correlation analysis and deterministic artifact rendering.

The labeled-matrix CSV format used across the toolkit lives here too: a
header row of column labels after a corner cell, then one row per label.
Matrices are square and row labels must repeat the column labels in order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _csv_rows, _csv_text, _float_cells, _write_bytes, _write_table


def _labeled_square(matrix, labels: list) -> np.ndarray:
    """The matrix as float64; a DataError unless it is square with one row per label."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] != len(labels):
        raise DataError(f"matrix {arr.shape} does not match {len(labels)} labels")
    return arr


def write_matrix_csv(path, labels, matrix) -> None:
    labels = list(labels)
    arr = _labeled_square(matrix, labels)
    _write_table(path, ["keypoint"] + labels, zip(labels, arr), "matrix")


def read_matrix_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Returns (labels, matrix); the corner header cell is ignored."""
    rows = _csv_rows(path, "matrix")
    header = next(rows, None)
    if header is None or len(header) < 2:
        raise DataError(f"{path}: missing matrix header")
    labels = tuple(header[1:])
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: duplicate column labels")
    seen = []
    values = []
    for lineno, row in enumerate(rows, start=2):
        values.append(_float_cells(path, lineno, row, len(labels) + 1))
        seen.append(row[0])
    if tuple(seen) != labels:
        raise DataError(f"{path}: row labels {seen} do not match column labels {list(labels)}")
    return labels, np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class ConfidenceTable:
    """Per-instance confidence vectors; NaN marks an unlabeled keypoint."""

    names: tuple[str, ...]
    instances: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape != (len(self.instances), len(self.names)):
            raise DataError(
                f"confidence table shape {arr.shape} does not match "
                f"{len(self.instances)} instances x {len(self.names)} keypoints"
            )
        if arr.shape[0] < 2:
            raise DataError("confidence table needs at least 2 rows")
        present = arr[~np.isnan(arr)]
        if present.size and (present.min() < 0.0 or present.max() > 1.0):
            raise DataError("confidence scores must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return len(self.names)


def write_confidence_csv(path, table: ConfidenceTable) -> None:
    """Like the numeric tables, but a missing (NaN) score is an empty cell."""
    rows = (
        [iid] + ["" if math.isnan(v) else format(float(v), ".10g") for v in values]
        for iid, values in zip(table.instances, table.values)
    )
    _write_bytes(path, _csv_text([["instance", *table.names], *rows]), "confidence table")


def read_confidence_csv(path) -> ConfidenceTable:
    """Header: instance,<names>; empty cell = missing score."""
    rows = _csv_rows(path, "confidence table")
    header = next(rows, None)
    if header is None or len(header) < 2 or header[0] != "instance":
        raise DataError(f"{path}: expected header instance,<keypoint names>")
    names = tuple(header[1:])
    instances = []
    values = []
    for lineno, row in enumerate(rows, start=2):
        missing_as_nan = [cell or "nan" for cell in row]
        values.append(_float_cells(path, lineno, missing_as_nan, len(names) + 1))
        instances.append(row[0])
    return ConfidenceTable(names, tuple(instances), np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class CorrelationResult:
    matrix: np.ndarray
    zero_variance: tuple[int, ...]


def confidence_correlation(table: ConfidenceTable) -> CorrelationResult:
    """Pairwise-complete Pearson correlation of keypoint confidences.

    For each pair only rows where both scores are present contribute. A pair
    where either side has zero variance over the shared rows gets the
    sentinel 0 and the flat column is flagged (and warned about) instead of
    producing a 0/0.
    """
    vals = table.values
    n = table.n
    present = ~np.isnan(vals)
    corr = np.eye(n)
    flat: set[int] = set()
    for i in range(n):
        for j in range(i + 1, n):
            both = present[:, i] & present[:, j]
            m = int(both.sum())
            if m < 2:
                raise DataError(
                    f"only {m} rows where both {table.names[i]} and "
                    f"{table.names[j]} are present, need at least 2",
                    code="insufficient-pairs",
                )
            xi = vals[both, i] - vals[both, i].mean()
            xj = vals[both, j] - vals[both, j].mean()
            si = float(np.sqrt(np.dot(xi, xi)))
            sj = float(np.sqrt(np.dot(xj, xj)))
            if si == 0.0 or sj == 0.0:
                if si == 0.0:
                    flat.add(i)
                if sj == 0.0:
                    flat.add(j)
                corr[i, j] = corr[j, i] = 0.0
                continue
            r = float(np.dot(xi, xj)) / (si * sj)
            corr[i, j] = corr[j, i] = min(1.0, max(-1.0, r))
    if flat:
        names = ", ".join(table.names[k] for k in sorted(flat))
        warnings.warn(f"zero-variance confidence columns: {names}", stacklevel=2)
    return CorrelationResult(corr, tuple(sorted(flat)))


RAMP_LOW = (0xF7, 0xFB, 0xFF)
RAMP_HIGH = (0x08, 0x30, 0x6B)


def _ramp_rgb(t: np.ndarray) -> np.ndarray:
    """The ramp colour 0xrrggbb at each position of ``t``: every channel is
    floor(lo + (hi - lo) * t + 0.5), computed for all positions at once."""
    rgb = np.zeros(t.shape, dtype=np.int64)
    for lo, hi in zip(RAMP_LOW, RAMP_HIGH):
        rgb = rgb << 8 | np.floor(lo + (hi - lo) * t + 0.5).astype(np.int64)
    return rgb


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_heatmap(matrix, labels) -> str:
    """Square labeled heatmap as standalone SVG 1.1 text.

    Output is a pure function of (matrix, labels): fixed layout constants,
    explicit number formatting everywhere, ramp endpoints declared in the
    document <desc>. Cell color interpolates from the data minimum to the
    data maximum (a constant matrix renders at the ramp top).
    """
    labels = [str(x) for x in labels]
    arr = _labeled_square(matrix, labels)
    if not np.isfinite(arr).all():
        raise DataError("heatmap input must be finite")
    n = len(labels)
    vmin = float(arr.min())
    vmax = float(arr.max())
    span = vmax - vmin
    if math.isinf(span):
        raise DataError(f"heatmap value range [{vmin:.10g}, {vmax:.10g}] overflows")
    cell = 44
    pad = 8
    label_px = max(len(s) for s in labels) * 7 + 2 * pad
    width = label_px + n * cell + pad
    height = label_px + n * cell + pad
    low, high = _ramp_rgb(np.array([0.0, 1.0])).tolist()
    t = np.ones_like(arr) if span == 0.0 else (arr - vmin) / span
    rgb = _ramp_rgb(t)
    dark = t > 0.55
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<desc>linear ramp #{low:06x} at {vmin:.10g} to #{high:06x} at {vmax:.10g}</desc>",
        '<g font-family="monospace" font-size="11">',
    ]
    for j, name in enumerate(labels):
        x = label_px + j * cell + cell // 2
        out.append(
            f'<text x="{x}" y="{label_px - pad}" text-anchor="start" '
            f'transform="rotate(-90 {x} {label_px - pad})">{_esc(name)}</text>'
        )
    for i, name in enumerate(labels):
        y = label_px + i * cell + cell // 2 + 4
        out.append(
            f'<text x="{label_px - pad}" y="{y}" text-anchor="end">{_esc(name)}</text>'
        )
    xs = [label_px + j * cell for j in range(n)]
    rects = [f'<rect x="{x}" y="' for x in xs]
    texts = [f'<text x="{x + cell // 2}" y="' for x in xs]
    for i in range(n):
        y = label_px + i * cell
        rect_y = f'{y}" width="{cell}" height="{cell}" fill="'
        text_y = f'{y + cell // 2 + 4}" text-anchor="middle" fill="'
        cells = zip(rects, texts, rgb[i].tolist(), dark[i].tolist(), arr[i].tolist())
        for rect, text, fill, white, v in cells:
            ink = "#ffffff" if white else "#000000"
            out.append(f'{rect}{rect_y}#{fill:06x}" stroke="#ffffff" stroke-width="1"/>')
            out.append(f'{text}{text_y}{ink}">{v:.3g}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
