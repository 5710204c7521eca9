"""Interdependency matrix and keypoint grouping.

The interdependency s = PI + KC combines measured influence with skeleton
connectivity. Groups come from agglomerative clustering on s: start from
singletons, repeatedly merge the most similar pair of clusters, stop at g.

Linkage is pluggable. "single" (merge on the strongest cross pair) is the
default: on the shipped reference drop table it is the linkage that yields
the anatomically correct five-part grouping, whereas averaging lets the two
hip joints pair up before either joins its own leg chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, _json_document, _json_int
from .skeleton import KeypointSchema

LINKAGES = ("single", "average", "complete")
DEFAULT_LINKAGE = "single"
DEFAULT_GROUPS = 5


@dataclass(frozen=True)
class Grouping:
    """A partition of keypoint indices; groups ordered by smallest member."""

    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [i for grp in self.groups for i in grp]
        if sorted(flat) != list(range(self.n)):
            raise DataError(
                f"groups are not a partition of 0..{self.n - 1}", code="bad-partition"
            )
        for grp in self.groups:
            if not grp:
                raise DataError("empty group", code="bad-partition")
            if list(grp) != sorted(grp):
                raise DataError(f"group {grp} is not sorted", code="bad-partition")
        mins = [grp[0] for grp in self.groups]
        if mins != sorted(mins):
            raise DataError("groups are not ordered by smallest member", code="bad-partition")

    @classmethod
    def from_sets(cls, sets, n: int) -> "Grouping":
        groups = tuple(sorted((tuple(sorted(s)) for s in sets), key=lambda t: t[:1]))
        return cls(n, groups)

    @property
    def g(self) -> int:
        return len(self.groups)

    def group_of(self, i: int) -> int:
        for k, grp in enumerate(self.groups):
            if i in grp:
                return k
        raise DataError(f"index {i} not in grouping")

    def to_json_dict(self, schema: KeypointSchema) -> dict:
        if schema.n != self.n:
            raise DataError(f"grouping over n={self.n}, schema has n={schema.n}")
        return {"groups": [[schema.names[i] for i in grp] for grp in self.groups], "g": self.g}

    @classmethod
    def from_json(cls, source, schema: KeypointSchema) -> "Grouping":
        doc = _json_document(source, "grouping")
        try:
            sets = [[schema.index_of(nm) for nm in grp] for grp in doc["groups"]]
            declared = _json_int(doc["g"], "g")
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as e:
            raise DataError(f"bad grouping document: {e}") from e
        grouping = cls.from_sets(sets, schema.n)
        if grouping.g != declared:
            raise DataError(f"grouping declares g={declared} but has {grouping.g} groups")
        return grouping


def interdependency(pi: np.ndarray, kc: np.ndarray) -> np.ndarray:
    """Elementwise sum of influence and connectivity; symmetric, >= 0."""
    pi = np.asarray(pi, dtype=np.float64)
    kc = np.asarray(kc, dtype=np.float64)
    if pi.shape != kc.shape or pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise DataError(f"matrix shapes {pi.shape} and {kc.shape} do not agree")
    s = pi + kc
    if not np.all(np.isfinite(s)):
        raise DataError("interdependency contains non-finite values")
    if np.min(s) < 0.0:
        raise DataError("interdependency must be non-negative")
    if not np.allclose(s, s.T, atol=1e-12):
        raise DataError("interdependency must be symmetric")
    return s


def _cross(values: np.ndarray, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """Average linkage of clusters a and b: the mean of values[a, b], rows
    from a and columns from b."""
    return float(values[np.ix_(a, b)].mean())


def cluster(
    s: np.ndarray,
    g: int = DEFAULT_GROUPS,
    linkage: str = DEFAULT_LINKAGE,
) -> Grouping:
    """Agglomerate the n keypoints into exactly g groups.

    The diagonal never participates: only cross-cluster entries of s are
    compared. Ties are broken toward the pair whose (smallest member,
    smallest member) labels sort first, which pins the output exactly for
    any input.

    The cross values of all live cluster pairs are kept in the upper
    triangle of one matrix, indexed by each cluster's smallest member; two
    singletons i < j start at s[i, j]. After a merge only the merged
    cluster's values change, each read in the orientation s[older, merged],
    the one in which a rescan of every pair in creation order reads it, so
    even an "average" sum is the same float. For "single" and "complete" a
    second matrix holds, for every two clusters a and b, the max (min) of
    s[a, b]; a merge folds the two parents' row and column into the merged
    one, elementwise and exact, so asymmetric s is handled too. "average"
    sums each block with _cross. The best pair is the first maximum in
    row-major order, which is the tie-break above.
    Cost per merge: one argmax over the n x n matrix, then O(n) vector steps
    for single/complete; O(n) _cross calls for average. An "average" that
    overflows to NaN or to -inf for every live pair is refused.
    """
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    if s.ndim != 2 or s.shape != (n, n):
        raise DataError(f"similarity must be square, got {s.shape}")
    if not 1 <= g <= n:
        raise DataError(f"group count g={g} must be in 1..{n}", code="bad-group-count")
    if linkage not in LINKAGES:
        raise DataError(f"unknown linkage {linkage!r}, pick from {LINKAGES}")
    if not np.all(np.isfinite(s)):
        raise DataError("similarity contains non-finite values")
    # the diagonal, the lower triangle and the rows of merged-away clusters
    # hold -inf, so only live pairs can be the maximum
    cross = np.where(np.tri(n, dtype=bool), -np.inf, s)
    # block[a, b]: the max (min) of s over rows in cluster a and columns in
    # cluster b; only entries between two live clusters are ever read
    block = s.copy()
    fold = np.maximum if linkage == "single" else np.minimum
    clusters: dict[int, tuple[int, ...]] = {i: (i,) for i in range(n)}
    for _ in range(n - g):
        x, y = divmod(int(np.argmax(cross)), n)
        if not cross[x, y] > -np.inf:
            raise DataError(f"{linkage} linkage overflowed on this similarity")
        merged = tuple(sorted(clusters.pop(x) + clusters.pop(y)))
        cross[y, :] = cross[:, y] = -np.inf
        if linkage == "average":
            for k, other in clusters.items():
                cross[min(k, x), max(k, x)] = _cross(s, other, merged)
        else:
            fold(block[:, x], block[:, y], out=block[:, x])
            fold(block[x], block[y], out=block[x])
            live = np.fromiter(clusters, dtype=np.intp, count=len(clusters))
            cross[np.minimum(live, x), np.maximum(live, x)] = block[live, x]
        clusters[x] = merged
    return Grouping.from_sets(clusters.values(), n)
