"""Every file reader either parses its input or raises a kpshap data error.

Arbitrary bytes, alone or after a well-formed start of the format, go into
each reader; anything other than a result, DataError or SchemaError (a
UnicodeDecodeError, csv.Error, zlib.error, struct.error, ...) fails.
"""

import json
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpshap import (
    DataError,
    Grouping,
    SchemaError,
    default_schema,
    parse_annotations,
    read_delta_csv,
    read_game_csv,
    read_matrix_csv,
    read_plans,
    read_png,
    read_ppm,
)

SCHEMA, _ = default_schema()

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

# reader, and well-formed starts of its format that the fuzz bytes follow
READERS = {
    "read_png": (read_png, [b"\x89PNG\r\n\x1a\n", PNG_START]),
    "read_ppm": (read_ppm, [b"P6\n", b"P6 2 2 255\n"]),
    "read_matrix_csv": (read_matrix_csv, [b"keypoint,a,b\r\n", b"keypoint,a\na,"]),
    "read_game_csv": (read_game_csv, [b"coalition_hex,value\n", b"coalition_hex,value\n0x0,"]),
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


@pytest.mark.parametrize("name", ["read_matrix_csv", "read_game_csv", "read_delta_csv"])
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
    ],
)
def test_well_formed_json_of_the_wrong_shape_is_data_error(tmp_path, name, content):
    # valid JSON that random bytes almost never produce: a non-numeric or
    # infinite count, an empty group, nesting deeper than the parser's stack,
    # a field of the wrong type
    reader, _ = READERS[name]
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(DataError):
        reader(path)
