"""Single-keypoint perturbation screening.

Hiding one keypoint at a time and recording how every keypoint's performance
drops gives a cheap n x n interaction screen. The drop matrix (fractions in
memory, percent on disk) feeds the pairwise influence measure used for
grouping.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _csv_rows, _float_cells, _write_table
from .oracle import CoalitionValueOracle
from .rng import generator, mix64
from .skeleton import KeypointSchema, canonical_name

_AREA_RANGE = (0.5, 1.5)
_ASPECT_RANGE = (0.5, 2.0)


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def _centered_rect(
    x: float, y: float, w: int, h: int, width: int, height: int
) -> tuple[int, int, int, int]:
    """Half-open w x h rectangle centred on (x, y): the corner is clamped into
    the width x height image and the far edges are clipped to it."""
    x0 = min(max(_round_half_up(x - w / 2), 0), width - 1)
    y0 = min(max(_round_half_up(y - h / 2), 0), height - 1)
    return (x0, y0, min(x0 + w, width), min(y0 + h, height))


@dataclass(frozen=True)
class MaskSpec:
    """One rectangular noise mask; rect is (x0, y0, x1, y1), half-open."""

    center: tuple[float, float]
    width: int
    height: int
    rect: tuple[int, int, int, int]


def gen_masks(
    keypoint: tuple[float, float],
    m: int,
    base_scale: float,
    bounds: tuple[int, int],
    seed: int,
) -> list[MaskSpec]:
    """m noise masks centered at a keypoint, clipped to the image.

    Nominal side = base_scale * min(W, H). Mask area is a uniform multiple of
    side^2 in [0.5, 1.5] and the aspect ratio is log-uniform in [0.5, 2].
    """
    x, y = float(keypoint[0]), float(keypoint[1])
    w_img, h_img = bounds
    if m < 1:
        raise DataError(f"mask count must be >= 1, got {m}")
    if not (0.0 <= x < w_img and 0.0 <= y < h_img):
        raise DataError(
            f"keypoint ({x}, {y}) outside bounds {w_img}x{h_img}", code="out-of-bounds"
        )
    if base_scale <= 0:
        raise DataError(f"base_scale must be positive, got {base_scale}")
    if min(w_img, h_img) > sys.float_info.max:
        raise DataError(f"image bounds {w_img}x{h_img} are too large for a float mask side")
    side = base_scale * min(w_img, h_img)
    # a mask's longer side is at most sqrt(side^2 * _AREA_RANGE[1] * _ASPECT_RANGE[1])
    if not math.isfinite(side * side * _AREA_RANGE[1] * _ASPECT_RANGE[1]):
        raise DataError(f"base_scale {base_scale} gives a mask side that is not a finite number")
    side2 = side**2
    rng = generator("masks", seed)
    masks = []
    for _ in range(m):
        area = rng.uniform(*_AREA_RANGE) * side2
        aspect = math.exp(rng.uniform(math.log(_ASPECT_RANGE[0]), math.log(_ASPECT_RANGE[1])))
        w = max(1, _round_half_up(math.sqrt(area * aspect)))
        h = max(1, _round_half_up(math.sqrt(area / aspect)))
        rect = _centered_rect(x, y, w, h, w_img, h_img)
        x0, y0, x1, y1 = rect
        masks.append(MaskSpec((x, y), x1 - x0, y1 - y0, rect))
    return masks


@dataclass(frozen=True)
class DeltaMatrix:
    """Per-keypoint baselines and the drop caused by hiding each keypoint.

    drops[i][j] is how much keypoint i's performance falls when keypoint j is
    hidden. Values are fractions of 1 in memory; serialization uses percent
    to stay directly comparable with published tables.
    """

    names: tuple[str, ...]
    baseline: np.ndarray
    drops: np.ndarray

    def __post_init__(self):
        n = len(self.names)
        base = np.asarray(self.baseline, dtype=np.float64)
        drops = np.asarray(self.drops, dtype=np.float64)
        if base.shape != (n,) or drops.shape != (n, n):
            raise DataError(
                f"delta shapes {base.shape}/{drops.shape} do not match {n} names"
            )
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(drops))):
            raise DataError("delta matrix contains non-finite values")
        if base.min() < 0.0 or base.max() > 1.0:
            raise DataError("baselines must lie in [0, 1]")
        if drops.min() < 0.0:
            raise DataError("drops must be non-negative")
        over = drops > base[:, None] + 1e-12
        if np.any(over):
            i, j = map(int, np.argwhere(over)[0])
            raise DataError(
                f"drop[{self.names[i]}][{self.names[j]}]={drops[i, j]} exceeds "
                f"baseline {base[i]}"
            )
        base.flags.writeable = False
        drops.flags.writeable = False
        object.__setattr__(self, "baseline", base)
        object.__setattr__(self, "drops", drops)

    @property
    def n(self) -> int:
        return len(self.names)


def delta_perf_matrix(
    oracle: CoalitionValueOracle,
    instances="all",
    m: int = 1,
    seed: int = 0,
) -> DeltaMatrix:
    """Hide each keypoint alone, average over m trials, clamp drops at 0.

    Each trial is one eval_many batch: the full coalition, then each
    keypoint hidden in turn. The unperturbed reference uses the same trial
    set as the perturbed runs. Trial indices are derived from (seed, t), so
    the oracle's counter-based noise is reproducible and independent of
    evaluation order.
    """
    if m < 1:
        raise DataError(f"trial count must be >= 1, got {m}")
    n = oracle.schema.n
    full = (1 << n) - 1
    masks = [full] + [full & ~(1 << j) for j in range(n)]
    sweeps = [
        oracle.eval_many(instances, masks, mix64("delta-trial", seed, t)) for t in range(m)
    ]

    mean = np.mean(sweeps, axis=0)
    baseline = mean[0]
    # column j of drops is row j + 1 of mean; the transpose is F-ordered,
    # and perturbation_influence's row sums round differently over that
    drops = np.ascontiguousarray(np.maximum(0.0, baseline[:, None] - mean[1:].T))
    return DeltaMatrix(oracle.schema.names, baseline, drops)


def perturbation_influence(delta: DeltaMatrix) -> np.ndarray:
    """Symmetrized share-of-row influence in [0, 1].

    Each row of drops is normalized to shares, then the directed shares are
    averaged: PI(i, j) = (share[i][j] + share[j][i]) / 2. A keypoint whose
    row sums to zero, which no hidden keypoint affects, gets a row of zero
    shares, and a warning names it.
    """
    sums = delta.drops.sum(axis=1)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        bad = ", ".join(delta.names[i] for i in dead)
        warnings.warn(f"all-zero drop row, given zero shares, for: {bad}", stacklevel=2)
    share = np.divide(
        delta.drops, sums[:, None], out=np.zeros_like(delta.drops), where=sums[:, None] > 0.0
    )
    return 0.5 * (share + share.T)


def oracle_table_from_delta(delta: DeltaMatrix) -> dict[int, np.ndarray]:
    """Full coalition plus every single-removal coalition, as oracle rows."""
    n = delta.n
    full = (1 << n) - 1
    table = {full: delta.baseline.copy()}
    for j in range(n):
        table[full & ~(1 << j)] = delta.baseline - delta.drops[:, j]
    return table


def write_delta_csv(path, delta: DeltaMatrix) -> None:
    rows = (
        (nm, [delta.baseline[i] * 100, *(delta.drops[i] * 100)])
        for i, nm in enumerate(delta.names)
    )
    _write_table(path, ["keypoint", "baseline", *delta.names], rows, "delta table")


def read_delta_csv(path, schema: KeypointSchema) -> DeltaMatrix:
    """Parse the percent-format drop table; alias spellings accepted."""
    rows = _csv_rows(path, "delta table")
    header = next(rows, None)
    if header is None:
        raise DataError(f"delta table {path} is empty")
    header = [canonical_name(c.strip()) for c in header]
    if header != ["keypoint", "baseline", *schema.names]:
        raise DataError(
            f"delta header {header[:4]}... does not match schema columns"
        )
    n = schema.n
    baseline = np.full(n, np.nan)
    drops = np.full((n, n), np.nan)
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        values = _float_cells(path, lineno, row, n + 2)
        i = schema.index_of(row[0].strip())
        if i in seen:
            raise DataError(f"{path}:{lineno}: duplicate row for {schema.names[i]}")
        seen.add(i)
        baseline[i] = values[0] / 100.0
        drops[i] = [v / 100.0 for v in values[1:]]
    if len(seen) != n:
        missing = [schema.names[i] for i in range(n) if i not in seen]
        raise DataError(f"delta table missing rows for: {', '.join(missing)}")
    return DeltaMatrix(schema.names, baseline, drops)
