import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpshap import (
    KeypointSchema,
    SchemaError,
    Skeleton,
    canonical_name,
    default_schema,
    keypoint_connectivity,
    load_schema,
    schema_digest,
)
from kpshap import skeleton as skeleton_module

EXPECTED_DEGREES = {
    "nose": 2,
    "l-eye": 3,
    "r-eye": 3,
    "l-ear": 2,
    "r-ear": 2,
    "l-shoulder": 4,
    "r-shoulder": 4,
    "l-elbow": 2,
    "r-elbow": 2,
    "l-wrist": 1,
    "r-wrist": 1,
    "l-hip": 3,
    "r-hip": 3,
    "l-knee": 2,
    "r-knee": 2,
    "l-ankle": 1,
    "r-ankle": 1,
}


def test_alias_resolution():
    assert canonical_name("l-foot") == "l-ankle"
    assert canonical_name("r-shd") == "r-shoulder"
    assert canonical_name("nose") == "nose"


def test_default_schema_names_and_degrees(schema, skeleton):
    assert schema.n == 17
    assert schema.names[0] == "nose"
    deg = skeleton.degree()
    for name, expected in EXPECTED_DEGREES.items():
        assert deg[schema.index_of(name)] == expected


def test_index_of_resolves_aliases(schema):
    assert schema.index_of("l-foot") == schema.index_of("l-ankle")
    with pytest.raises(SchemaError):
        schema.index_of("no-such-keypoint")


def test_duplicate_names_rejected():
    with pytest.raises(SchemaError):
        KeypointSchema(("a", "b", "a"))


def test_alias_collision_rejected():
    # l-foot canonicalizes onto l-ankle, so listing both is a duplicate
    with pytest.raises(SchemaError):
        load_schema({"names": ["l-ankle", "l-foot", "x"], "edges": [["l-ankle", "x"], ["l-foot", "x"]]})


def test_load_schema_from_string_and_dict():
    doc = {"names": ["a", "b"], "edges": [["a", "b"]]}
    s1, k1 = load_schema(doc)
    s2, k2 = load_schema(json.dumps(doc))
    assert s1.names == s2.names == ("a", "b")
    assert k1.edges == k2.edges


def test_self_loop_rejected():
    with pytest.raises(SchemaError):
        load_schema({"names": ["a", "b"], "edges": [["a", "a"]]})


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(SchemaError):
        load_schema({"names": ["a", "b"], "edges": [["a", "c"]]})


def test_connectivity_hand_value(schema, skeleton):
    # nose-l-eye edge: deg(nose)=2, deg(l-eye)=3 -> 0.5*(1/2 + 1/3) = 5/12
    kc = keypoint_connectivity(schema, skeleton)
    i = schema.index_of("nose")
    j = schema.index_of("l-eye")
    assert kc[i, j] == pytest.approx(5 / 12, abs=1e-12)
    # no edge between nose and l-shoulder
    assert kc[i, schema.index_of("l-shoulder")] == 0.0


def test_connectivity_matrix_shape(schema, skeleton):
    kc = keypoint_connectivity(schema, skeleton)
    assert np.allclose(kc, kc.T)
    assert np.all(np.diag(kc) == 0.0)
    assert kc.min() >= 0.0 and kc.max() <= 1.0


def test_zero_degree_keypoint_rejected():
    schema, skeleton = load_schema(
        {"names": ["a", "b", "c"], "edges": [["a", "b"]]}
    )
    with pytest.raises(SchemaError) as exc:
        keypoint_connectivity(schema, skeleton)
    assert exc.value.code == "zero-degree"
    assert "c" in str(exc.value)


@given(st.integers(3, 9), st.data())
def test_connectivity_properties_on_random_graphs(n, data):
    names = tuple(f"k{i}" for i in range(n))
    # spanning-ish edge set: chain plus random extras keeps every degree > 0
    edges = [[f"k{i}", f"k{i + 1}"] for i in range(n - 1)]
    extra = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=6,
        )
    )
    edges += [[f"k{a}", f"k{b}"] for a, b in extra]
    schema, skeleton = load_schema({"names": list(names), "edges": edges})
    kc = keypoint_connectivity(schema, skeleton)
    assert np.allclose(kc, kc.T, atol=1e-12)
    assert np.all(np.diag(kc) == 0.0)
    assert kc.min() >= 0.0 and kc.max() <= 1.0


def test_schema_digest_ignores_alias_spelling(schema, skeleton):
    doc = {
        "names": ["l-foot", "r-foot"],
        "edges": [["l-foot", "r-foot"]],
    }
    resolved = {"names": ["l-ankle", "r-ankle"], "edges": [["l-ankle", "r-ankle"]]}
    assert schema_digest(*load_schema(doc)) == schema_digest(*load_schema(resolved))
    assert schema_digest(schema, skeleton) == schema_digest(schema, skeleton)


def test_skeleton_validates_edge_indices():
    with pytest.raises(SchemaError):
        Skeleton(2, frozenset({frozenset((0, 5))}))


def test_default_schema_is_read_beside_the_module(monkeypatch, tmp_path):
    # the packaged schema is a file next to skeleton.py, read like any other
    # schema file, so a missing one is a SchemaError, not a raw OSError
    monkeypatch.setattr(skeleton_module, "__file__", str(tmp_path / "skeleton.py"))
    with pytest.raises(SchemaError) as info:
        default_schema()
    assert info.value.code == "schema-io"
    assert str(tmp_path / "schemas" / "coco17.json") in str(info.value)
