"""Every file reader either parses its input or raises a kpshap data error.

Arbitrary bytes, alone or after a well-formed start of the format, go into
each reader; anything other than a result, DataError or SchemaError (a
UnicodeDecodeError, csv.Error, zlib.error, struct.error, ...) fails. The
coalition-table reader and writer are also run as a round trip through both
of their callers, game tables and oracle tables.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpshap import (
    DataError,
    Grouping,
    SchemaError,
    SyntheticModelConfig,
    default_schema,
    exact_shapley,
    load_schema,
    load_tabular_oracle,
    parse_annotations,
    read_delta_csv,
    read_game_csv,
    read_matrix_csv,
    read_plans,
    read_png,
    read_ppm,
    write_game_csv,
    write_oracle_table,
)

SCHEMA, _ = default_schema()
PAIR = load_schema({"names": ["a", "b"], "edges": [["a", "b"]]})[0]

IHDR = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
PNG_START = (
    b"\x89PNG\r\n\x1a\n"
    + struct.pack(">I", len(IHDR))
    + b"IHDR"
    + IHDR
    + struct.pack(">I", zlib.crc32(b"IHDR" + IHDR))
)
IMAGE = {"id": 0, "file_name": "a.png", "width": 4, "height": 4}
ANNOTATION = {"id": 1, "image_id": 0, "keypoints": [1, 1, 2] * SCHEMA.n}


def annotations_doc(image=IMAGE, annotation=None) -> bytes:
    annotations = [annotation] if annotation else []
    return json.dumps({"images": [image], "annotations": annotations}).encode()


PLAN_LINE = (
    b'{"annotation_id":1,"file_name":"a.png","height":4,"image_id":1,'
    b'"rects":[{"fill_seed":1,"group":0,"keypoint":0,"rect":[0,0,1,1]}],"width":4}\n'
)
SCHEMA_DOC = {"names": ["a", "b"], "edges": [["a", "b"]]}
SYNTHETIC = {"base": [0.5, 0.5], "recovery": [[0, 0.5], [0.5, 0]], "noise_sd": 0.0}
# five groups that cover SCHEMA, so only the declared count can be wrong
GROUPS = [list(SCHEMA.names[a:b]) for a, b in [(0, 5), (5, 9), (9, 13), (13, 15), (15, 17)]]


def json_doc(doc, **fields) -> bytes:
    return json.dumps({**doc, **fields}).encode()


# reader, and well-formed starts of its format that the fuzz bytes follow
READERS = {
    "read_png": (read_png, [b"\x89PNG\r\n\x1a\n", PNG_START]),
    "read_ppm": (read_ppm, [b"P6\n", b"P6 2 2 255\n"]),
    "read_matrix_csv": (read_matrix_csv, [b"keypoint,a,b\r\n", b"keypoint,a\na,"]),
    "read_game_csv": (read_game_csv, [b"coalition_hex,value\n", b"coalition_hex,value\n0x0,"]),
    "load_tabular_oracle": (
        lambda path: load_tabular_oracle(path, PAIR),
        [b"coalition_hex,v_0,v_1\n", b"coalition_hex,v_0,v_1\n0x3,1,0.5\n0x1,"],
    ),
    "read_delta_csv": (
        lambda path: read_delta_csv(path, SCHEMA),
        [",".join(["keypoint", "baseline", *SCHEMA.names]).encode() + b"\nnose,"],
    ),
    "read_plans": (read_plans, [PLAN_LINE, PLAN_LINE[:40]]),
    "parse_annotations": (
        lambda path: parse_annotations(path, SCHEMA),
        [b'{"images": [', annotations_doc(annotation=ANNOTATION)[:-30]],
    ),
    "Grouping.from_json": (
        lambda path: Grouping.from_json(path, SCHEMA),
        [b'{"g": 1, "groups": [', b'{"g": "'],
    ),
    "load_schema": (load_schema, [b'{"names": [', b'{"names": ["a", "b"], "edges": [[']),
    "SyntheticModelConfig.from_json": (
        SyntheticModelConfig.from_json,
        [b'{"base": [', b'{"base": [0.5, 0.5], "recovery": [[0, 0.5], ['],
    ),
}

fuzz_bytes = st.one_of(st.binary(max_size=300), st.text(max_size=100).map(str.encode))


@pytest.mark.parametrize("name", sorted(READERS))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten per example
)
@given(data=st.data())
def test_reader_raises_only_kpshap_errors(tmp_path, name, data):
    reader, starts = READERS[name]
    start = data.draw(st.sampled_from([b"", *starts]), label="start")
    path = tmp_path / "input"
    path.write_bytes(start + data.draw(fuzz_bytes, label="tail"))
    try:
        reader(path)
    except (DataError, SchemaError):
        pass


@pytest.mark.parametrize(
    "name", ["read_matrix_csv", "read_game_csv", "load_tabular_oracle", "read_delta_csv"]
)
def test_csv_cell_over_field_limit_is_data_error(tmp_path, name):
    reader, starts = READERS[name]
    path = tmp_path / "input.csv"
    path.write_bytes(starts[-1] + b'"' + b"9" * (200 * 1024) + b'"\n')
    with pytest.raises(DataError, match="field larger than field limit"):
        reader(path)


@pytest.mark.parametrize(
    "name, content",
    [
        ("Grouping.from_json", b'{"g": "five", "groups": []}'),
        ("Grouping.from_json", b'{"g": 1e999, "groups": []}'),
        ("Grouping.from_json", b'{"g": 2, "groups": [[], ["nose"]]}'),
        ("read_plans", PLAN_LINE.replace(b'"width":4', b'"width":1e999')),
        ("read_plans", b"[" * 100_000 + b"]" * 100_000 + b"\n"),
        ("parse_annotations", annotations_doc({**IMAGE, "width": "abc"})),
        ("parse_annotations", b'{"images": 5, "annotations": []}'),
        ("parse_annotations", annotations_doc(annotation={**ANNOTATION, "image_id": [0]})),
        (
            "parse_annotations",
            annotations_doc(annotation={**ANNOTATION, "keypoints": ["x"] * 3 * SCHEMA.n}),
        ),
        ("load_schema", json_doc(SCHEMA_DOC, names=5)),
        ("load_schema", json_doc(SCHEMA_DOC, edges=3)),
        ("load_schema", json_doc(SCHEMA_DOC, edges=[5])),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, base=[10**400, 0.5])),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, base=[float("nan"), 0.5])),
        (
            "SyntheticModelConfig.from_json",
            json_doc(SYNTHETIC, recovery=[[0, float("nan")], [0.5, 0]]),
        ),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, noise_sd=float("nan"))),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, noise_sd=float("inf"))),
        ("read_plans", PLAN_LINE.replace(b"[0,0,1,1]", b"[0.9,0,5.5,5]")),
        ("read_plans", PLAN_LINE.replace(b'"fill_seed":1', b'"fill_seed":1.5')),
        ("read_plans", PLAN_LINE.replace(b'"keypoint":0', b'"keypoint":"3"')),
        ("parse_annotations", annotations_doc({**IMAGE, "width": 64.9})),
        (
            "parse_annotations",
            annotations_doc(annotation={**ANNOTATION, "keypoints": [1, 1, 2.7] * SCHEMA.n}),
        ),
        ("Grouping.from_json", json_doc({"groups": GROUPS}, g=5.7)),
        ("Grouping.from_json", json_doc({"groups": GROUPS}, g="5")),
        (
            "load_schema",
            json_doc(SCHEMA_DOC, names=[None, True, 3.5], edges=[[None, True], [True, 3.5]]),
        ),
        ("load_schema", json_doc(SCHEMA_DOC, names=["1", "b"], edges=[[1, "b"]])),
        (
            "parse_annotations",
            annotations_doc(annotation={**ANNOTATION, "keypoints": ["3.5", 1, 2] * SCHEMA.n}),
        ),
        (
            "parse_annotations",
            annotations_doc(annotation={**ANNOTATION, "keypoints": [1, True, 2] * SCHEMA.n}),
        ),
        ("parse_annotations", annotations_doc({**IMAGE, "file_name": None})),
        ("parse_annotations", annotations_doc({**IMAGE, "file_name": ["a.png"]})),
        ("read_plans", PLAN_LINE.replace(b'"a.png"', b"null")),
        ("read_plans", PLAN_LINE.replace(b'"a.png"', b'["a.png"]')),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, base=[True, "0.5"])),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, recovery=[[0, "0.5"], [0.5, 0]])),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, noise_sd="0")),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, base=[], recovery=[])),
        ("SyntheticModelConfig.from_json", json_doc(SYNTHETIC, recovery=[[0, 0.5], [0.5]])),
        ("read_plans", PLAN_LINE.replace(b"[0,0,1,1]", b"[0,0,1]")),
        ("parse_annotations", annotations_doc({**IMAGE, "width": 10**400})),
        ("parse_annotations", annotations_doc({**IMAGE, "height": 2**31})),
        ("parse_annotations", annotations_doc({**IMAGE, "width": 0})),
    ],
    ids=[
        "text-count",
        "infinite-count",
        "empty-group",
        "infinite-width",
        "deep-nesting",
        "text-width",
        "images-not-a-list",
        "list-image-id",
        "text-keypoint",
        "schema-names-not-a-list",
        "schema-edges-not-a-list",
        "schema-edge-not-a-pair",
        "synthetic-base-overflows-a-float",
        "synthetic-nan-base",
        "synthetic-nan-recovery",
        "synthetic-nan-noise",
        "synthetic-infinite-noise",
        "fractional-rect",
        "fractional-fill-seed",
        "text-plan-keypoint",
        "fractional-width",
        "fractional-visibility",
        "fractional-count",
        "text-count-of-a-valid-grouping",
        "schema-names-not-strings",
        "schema-edge-endpoint-not-a-string",
        "text-keypoint-x",
        "boolean-keypoint-y",
        "null-file-name",
        "list-file-name",
        "null-plan-file-name",
        "list-plan-file-name",
        "synthetic-boolean-and-text-base",
        "synthetic-text-recovery",
        "synthetic-text-noise",
        "synthetic-empty",
        "synthetic-ragged-recovery",
        "rect-of-three",
        "width-beyond-png",
        "height-beyond-png",
        "width-zero",
    ],
)
def test_well_formed_json_of_the_wrong_shape_is_data_error(tmp_path, name, content):
    # valid JSON that random bytes almost never produce: a non-numeric,
    # fractional or infinite number, an empty group, nesting deeper than the
    # parser's stack, a field of the wrong type (a number or name given as
    # text, a bool or null, never passed through float() or str()); a schema
    # fails as a schema
    reader, _ = READERS[name]
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(SchemaError if name == "load_schema" else DataError):
        reader(path)


def test_integral_floats_are_read_as_integers(tmp_path):
    # 2.0 is the integer 2 in JSON terms; only a fraction is refused
    path = tmp_path / "input"
    path.write_bytes(PLAN_LINE.replace(b"[0,0,1,1]", b"[0.0,0,1.0,1]"))
    (plan,) = read_plans(path)
    assert plan.rects[0].rect == (0, 0, 1, 1)
    assert all(type(v) is int for v in plan.rects[0].rect)
    annotation = {**ANNOTATION, "keypoints": [1, 1, 2.0] * SCHEMA.n}
    path.write_bytes(annotations_doc({**IMAGE, "width": 4.0}, annotation))
    (person,) = parse_annotations(path, SCHEMA)
    assert (person.width, person.keypoints[0][2]) == (4, 2)
    assert type(person.width) is int and type(person.keypoints[0][2]) is int
    path.write_bytes(json_doc({"groups": GROUPS}, g=5.0))
    assert Grouping.from_json(path, SCHEMA).g == 5


# values with at most 10 significant digits survive the tables' .10g cells
exact_floats = st.floats(-1e6, 1e6).map(lambda v: float(format(v, ".10g")))
unit_floats = st.floats(0.0, 1.0).map(lambda v: float(format(v, ".10g")))


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_game_table_round_trip_prices_bit_identically(tmp_path, data):
    n = data.draw(st.integers(1, 6), label="n")
    values = np.array(data.draw(st.lists(exact_floats, min_size=1 << n, max_size=1 << n)))
    path = tmp_path / "game.csv"
    write_game_csv(path, values)
    again = read_game_csv(path)
    assert np.array_equal(again, values)
    assert exact_shapley(again).phi == exact_shapley(values).phi


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_partial_oracle_table_round_trips(tmp_path, data):
    n = data.draw(st.integers(2, 6), label="n")  # a schema has at least 2 keypoints
    names = [f"k{i}" for i in range(n)]
    schema = load_schema({"names": names, "edges": [names[i : i + 2] for i in range(n - 1)]})[0]
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 2)), label="masks") | {(1 << n) - 1}
    vectors = st.lists(unit_floats, min_size=n, max_size=n).map(np.array)
    table = {mask: data.draw(vectors) for mask in masks}
    path = tmp_path / "oracle.csv"
    write_oracle_table(path, schema, table)
    again = load_tabular_oracle(path, schema).table
    assert sorted(again) == sorted(table)
    assert all(np.array_equal(again[mask], table[mask]) for mask in table)
