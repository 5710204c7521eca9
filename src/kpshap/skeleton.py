"""Keypoint schema and skeleton graph.

A schema is an ordered list of keypoint names; the order defines the index
space used everywhere else (coalition bits, matrix rows, CSV columns). The
skeleton is an undirected graph over those indices. The shipped default is
the 17-keypoint human schema with its standard 19-edge skeleton.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import SchemaError, _json_document, _json_line

# Canonical names use "ankle"; several published tables write "foot" for the
# same joints and abbreviate "shoulder", so those spellings resolve here.
ALIASES = {
    "l-foot": "l-ankle",
    "r-foot": "r-ankle",
    "l-shd": "l-shoulder",
    "r-shd": "r-shoulder",
}


def canonical_name(name: str) -> str:
    return ALIASES.get(name, name)


@dataclass(frozen=True)
class KeypointSchema:
    """Ordered keypoint names; at least two, all unique."""

    names: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) < 2:
            raise SchemaError(f"schema needs at least 2 keypoints, got {len(self.names)}")
        seen = {}
        for i, nm in enumerate(self.names):
            if nm in seen:
                raise SchemaError(f"duplicate keypoint name {nm!r}", code="duplicate-name")
            seen[nm] = i
        object.__setattr__(self, "index", seen)

    @property
    def n(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        nm = canonical_name(name)
        if nm not in self.index:
            raise SchemaError(f"unknown keypoint name {name!r}", code="unknown-name")
        return self.index[nm]


@dataclass(frozen=True)
class Skeleton:
    """Undirected edge set over schema indices; no self-loops or duplicates."""

    n: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise SchemaError(f"self-loop edge {sorted(e)}", code="self-loop")
            for v in e:
                if not 0 <= v < self.n:
                    raise SchemaError(f"edge endpoint {v} outside schema", code="unknown-name")

    def degree(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.float64)
        for e in self.edges:
            a, b = sorted(e)
            adj[a, b] = adj[b, a] = 1.0
        return adj


def load_schema(source) -> tuple[KeypointSchema, Skeleton]:
    """Load a schema document from a path, JSON string, or parsed dict.

    Document shape: ``{"names": [...], "edges": [[name, name], ...]}``.
    Alias spellings are resolved before anything else looks at the names.
    """
    doc = _json_document(source, "schema", SchemaError, "schema-io", "schema-parse")
    if not isinstance(doc, dict) or not all(
        isinstance(doc.get(key), (list, tuple)) for key in ("names", "edges")
    ):
        raise SchemaError(
            "schema document must have 'names' and 'edges' lists", code="schema-parse"
        )

    for nm in doc["names"]:
        if not isinstance(nm, str):
            raise SchemaError(f"keypoint name {nm!r} is not a string", code="schema-parse")
    schema = KeypointSchema(tuple(canonical_name(nm) for nm in doc["names"]))
    edges = set()
    for pair in doc["edges"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"edge {pair!r} must have two endpoints", code="schema-parse")
        if not all(isinstance(p, str) for p in pair):
            raise SchemaError(f"edge {pair!r} endpoints must be names", code="schema-parse")
        a, b = (schema.index_of(p) for p in pair)
        if a == b:
            raise SchemaError(f"self-loop on {schema.names[a]!r}", code="self-loop")
        edges.add(frozenset((a, b)))
    return schema, Skeleton(schema.n, frozenset(edges))


def default_schema() -> tuple[KeypointSchema, Skeleton]:
    """The packaged 17-keypoint human schema."""
    text = resources.files("kpshap").joinpath("schemas/coco17.json").read_text(encoding="utf-8")
    return load_schema(text)


def schema_digest(schema: KeypointSchema, skeleton: Skeleton) -> str:
    """sha256 over the canonical (names, sorted index edges) form.

    Hashing the resolved form, not the source file, makes alias spellings
    and key order irrelevant to the recorded identity.
    """
    edges = sorted(tuple(sorted(e)) for e in skeleton.edges)
    blob = _json_line({"names": list(schema.names), "edges": [list(e) for e in edges]})
    return hashlib.sha256(blob.encode()).hexdigest()


def keypoint_connectivity(schema: KeypointSchema, skeleton: Skeleton) -> np.ndarray:
    """Symmetric connectivity matrix in [0, 1].

    KC(i, j) averages the two directed shares edge(i,j)/deg(i) and
    edge(j,i)/deg(j). A keypoint is never counted as its own neighbour and
    the diagonal is zero. Isolated keypoints have no defined share.
    """
    if skeleton.n != schema.n:
        raise SchemaError(f"skeleton over {skeleton.n} keypoints, schema has {schema.n}")
    deg = skeleton.degree()
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        bad = ", ".join(schema.names[i] for i in isolated)
        raise SchemaError(f"isolated keypoint(s) with degree 0: {bad}", code="zero-degree")
    adj = skeleton.adjacency()
    share = adj / deg[:, None]
    kc = 0.5 * (share + share.T)
    np.fill_diagonal(kc, 0.0)
    return kc
