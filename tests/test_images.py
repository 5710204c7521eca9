import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpshap import (
    DataError,
    ErasePlan,
    images,
    load_image,
    read_png,
    read_ppm,
    save_image,
    write_plans,
    write_png,
    write_ppm,
)
from kpshap.cli import main


def random_image(h, w, seed):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)


# --- PPM -----------------------------------------------------------------


def test_ppm_roundtrip(tmp_path):
    img = random_image(5, 7, 0)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_write_is_canonical(tmp_path):
    img = random_image(3, 3, 1)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, img)
    write_ppm(p2, img)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"P6\n3 3\n255\n")


@given(h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 1000))
@settings(max_examples=30)
def test_ppm_roundtrip_property(tmp_path_factory, h, w, seed):
    img = random_image(h, w, seed)
    path = tmp_path_factory.mktemp("ppm") / "img.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_reads_comments_and_whitespace(tmp_path):
    img = np.full((2, 2, 3), 9, dtype=np.uint8)
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # comment\n# another\n 2\t2\n255 " + img.tobytes())
    assert np.array_equal(read_ppm(path), img)


def test_ppm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(DataError):
        read_ppm(path)


def test_ppm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(DataError):
        read_ppm(path)


def test_ppm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
    with pytest.raises(DataError):
        read_ppm(path)


def test_write_rejects_non_uint8(tmp_path):
    with pytest.raises(DataError):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float64))
    with pytest.raises(DataError):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 2), dtype=np.uint8))


# --- PNG -----------------------------------------------------------------


def test_png_roundtrip(tmp_path):
    img = random_image(9, 4, 2)
    path = tmp_path / "x.png"
    write_png(path, img)
    assert np.array_equal(read_png(path), img)


def test_png_write_is_canonical(tmp_path):
    img = random_image(6, 6, 3)
    p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
    write_png(p1, img)
    write_png(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def _png_with_filters(img, filters):
    """Independent encoder applying a chosen per-row filter type."""
    h, w, _ = img.shape
    raw = bytearray()
    prev = bytes(w * 3)
    for y in range(h):
        row = img[y].tobytes()
        kind = filters[y % len(filters)]
        raw.append(kind)
        if kind == 0:
            raw += row
        elif kind == 1:  # sub
            raw += bytes(
                (row[i] - (row[i - 3] if i >= 3 else 0)) & 0xFF for i in range(len(row))
            )
        elif kind == 2:  # up
            raw += bytes((row[i] - prev[i]) & 0xFF for i in range(len(row)))
        elif kind == 3:  # average
            raw += bytes(
                (row[i] - ((row[i - 3] if i >= 3 else 0) + prev[i]) // 2) & 0xFF
                for i in range(len(row))
            )
        else:  # paeth
            def paeth(a, b, c):
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    return a
                return b if pb <= pc else c

            raw += bytes(
                (
                    row[i]
                    - paeth(
                        row[i - 3] if i >= 3 else 0,
                        prev[i],
                        prev[i - 3] if i >= 3 else 0,
                    )
                )
                & 0xFF
                for i in range(len(row))
            )
        prev = row

    def chunk(tag, payload):
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("filters", [[0], [1], [2], [3], [4], [0, 1, 2, 3, 4]])
def test_png_reader_handles_all_filters(tmp_path, filters):
    img = random_image(7, 5, sum(filters) + 11)
    path = tmp_path / "f.png"
    path.write_bytes(_png_with_filters(img, filters))
    assert np.array_equal(read_png(path), img)


def test_png_reader_strips_alpha(tmp_path):
    h, w = 3, 4
    rgba = np.random.default_rng(5).integers(0, 256, size=(h, w, 4), dtype=np.uint8)
    raw = bytearray()
    for y in range(h):
        raw.append(0)
        raw += rgba[y].tobytes()

    def chunk(tag, payload):
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)
    blob = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )
    path = tmp_path / "rgba.png"
    path.write_bytes(blob)
    assert np.array_equal(read_png(path), rgba[:, :, :3])


def test_png_rejects_bad_signature(tmp_path):
    path = tmp_path / "bad.png"
    path.write_bytes(b"NOTAPNG storage")
    with pytest.raises(DataError):
        read_png(path)


# --- dispatch -------------------------------------------------------------


def test_load_save_dispatch(tmp_path):
    img = random_image(4, 4, 7)
    for name in ("a.ppm", "a.png"):
        path = tmp_path / name
        save_image(path, img)
        assert np.array_equal(load_image(path), img)
    for name in ("b.PPM", "b.PNG"):
        path = tmp_path / name
        save_image(path, img)
        assert np.array_equal(load_image(path), img)
    assert (tmp_path / "b.PNG").read_bytes() == (tmp_path / "a.png").read_bytes()
    assert (tmp_path / "b.PPM").read_bytes() == (tmp_path / "a.ppm").read_bytes()
    with pytest.raises(DataError, match="unsupported image format '.jpg'"):
        save_image(tmp_path / "a.jpg", img)
    assert not (tmp_path / "a.jpg").exists()
    jpg = tmp_path / "b.jpg"
    jpg.write_bytes((tmp_path / "a.png").read_bytes())
    with pytest.raises(DataError, match="unsupported image format '.jpg'"):
        load_image(jpg)


def _chunk(tag, payload):
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IHDR_2X2 = _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0))


def _png_bytes(tmp_path):
    path = tmp_path / "ok.png"
    write_png(path, random_image(8, 8, 9))
    return path.read_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda png: png[: len(png) // 2], id="truncated"),
        pytest.param(lambda png: png[: 8 + 8 + 5], id="cut-inside-ihdr"),
        pytest.param(lambda png: png[:-20] + bytes([png[-20] ^ 1]) + png[-19:], id="bad-crc"),
        pytest.param(
            lambda png: PNG_SIGNATURE + _chunk(b"IHDR", bytes(12)) + _chunk(b"IEND", b""),
            id="short-ihdr",
        ),
        pytest.param(
            lambda png: PNG_SIGNATURE + IHDR_2X2 + _chunk(b"IDAT", b"not zlib data"),
            id="bad-zlib",
        ),
        pytest.param(
            lambda png: PNG_SIGNATURE + IHDR_2X2 + _chunk(b"IDAT", zlib.compress(bytes(14))[:-3]),
            id="truncated-zlib",
        ),
        pytest.param(
            lambda png: PNG_SIGNATURE + IHDR_2X2 + struct.pack(">I", 99) + b"IDAT" + bytes(16),
            id="length-past-end",
        ),
        # W3C PNG §5.6: IHDR comes first and only once, and IEND ends the file
        pytest.param(
            lambda png: PNG_SIGNATURE
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 10, 8, 2, 0, 0, 0))
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 33, 1, 8, 2, 0, 0, 0))
            + _chunk(b"IDAT", zlib.compress(bytes(100)))
            + _chunk(b"IEND", b""),
            id="second-ihdr",
        ),
        pytest.param(
            lambda png: PNG_SIGNATURE
            + _chunk(b"IDAT", zlib.compress(bytes(14)))
            + IHDR_2X2
            + _chunk(b"IEND", b""),
            id="idat-before-ihdr",
        ),
        pytest.param(lambda png: png[:-12], id="no-iend"),
    ],
)
def test_png_rejects_corrupt_files(tmp_path, corrupt):
    path = tmp_path / "bad.png"
    path.write_bytes(corrupt(_png_bytes(tmp_path)))
    with pytest.raises(DataError):
        read_png(path)


def test_png_inflate_stops_at_the_declared_size(tmp_path):
    # 64 MiB of zeros deflate to about 65 KB, but IHDR declares one pixel:
    # the reader must refuse the stream without inflating all of it
    deflate = zlib.compressobj(9)
    block = bytes(1 << 20)
    idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
    ihdr = _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0))
    path = tmp_path / "bomb.png"
    path.write_bytes(PNG_SIGNATURE + ihdr + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            read_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_png_reads_idat_split_into_many_chunks(tmp_path):
    # encoders such as libpng split IDAT into chunks of a few KB; the reader
    # must join them into one stream, and in time linear in their count
    img = random_image(120, 160, 11)
    idat = zlib.compress(b"".join(b"\x00" + row.tobytes() for row in img))
    sizes = np.random.default_rng(12).integers(1024, 8193, size=len(idat) // 1024)
    cuts = [0, *[int(c) for c in np.cumsum(sizes) if c < len(idat)], len(idat)]
    assert len(cuts) > 6
    ihdr = _chunk(b"IHDR", struct.pack(">IIBBBBB", 160, 120, 8, 2, 0, 0, 0))
    iend = _chunk(b"IEND", b"")
    one, split = tmp_path / "one.png", tmp_path / "split.png"
    one.write_bytes(PNG_SIGNATURE + ihdr + _chunk(b"IDAT", idat) + iend)
    chunks = b"".join(_chunk(b"IDAT", idat[a:b]) for a, b in zip(cuts, cuts[1:]))
    split.write_bytes(PNG_SIGNATURE + ihdr + chunks + iend)
    assert np.array_equal(read_png(split), read_png(one))
    assert np.array_equal(read_png(one), img)


def _png_2x2_with(tmp_path, chunk):
    """A 2x2 RGB PNG file with ``chunk`` between IHDR and IDAT, and its pixels."""
    img = random_image(2, 2, 13)
    idat = _chunk(b"IDAT", zlib.compress(b"".join(b"\x00" + row.tobytes() for row in img)))
    path = tmp_path / "chunky.png"
    path.write_bytes(PNG_SIGNATURE + IHDR_2X2 + chunk + idat + _chunk(b"IEND", b""))
    return path, img


def test_png_refuses_an_unknown_critical_chunk(tmp_path, capsys):
    # W3C PNG §5.4: a decoder must report a critical chunk (upper-case first
    # letter) that it does not know, not decode around it
    path, _ = _png_2x2_with(tmp_path, _chunk(b"QRST", b"\x00\x01"))
    with pytest.raises(DataError, match="unknown critical PNG chunk b'QRST'"):
        read_png(path)
    plans = tmp_path / "plans.jsonl"
    write_plans(plans, [ErasePlan(0, 0, path.name, 2, 2, ())])
    argv = ["gkr", "apply", "--plans", str(plans), "--images", str(tmp_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error(data): ") and "QRST" in err


@pytest.mark.parametrize(
    "chunk",
    [
        # a suggested palette, allowed for colour types 2 and 6
        _chunk(b"PLTE", bytes(range(12))),
        _chunk(b"qrST", b"private ancillary data"),
        _chunk(b"tEXt", b"Comment\x00made by hand"),
    ],
    ids=["PLTE", "qrST", "tEXt"],
)
def test_png_skips_plte_and_ancillary_chunks(tmp_path, chunk):
    path, img = _png_2x2_with(tmp_path, chunk)
    assert np.array_equal(read_png(path), img)


def _unfilter(kind, row, prev, bpp):
    """Reference: undo one row's PNG filter byte by byte (W3C PNG §9)."""
    length = len(row)
    if kind == 0:
        return
    if kind == 1:
        for i in range(bpp, length):
            row[i] = (row[i] + row[i - bpp]) & 0xFF
    elif kind == 2:
        for i in range(length):
            row[i] = (row[i] + prev[i]) & 0xFF
    elif kind == 3:
        for i in range(length):
            left = row[i - bpp] if i >= bpp else 0
            row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
    elif kind == 4:
        for i in range(length):
            a = row[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            row[i] = (row[i] + pred) & 0xFF
    else:
        raise DataError(f"unsupported PNG filter {kind}")


def w3c_predictions(a, b, c):
    """The predictions of W3C PNG §9 that `_unfilter` adds for filters 0-4,
    one row each, on int arrays."""
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return np.stack(np.broadcast_arrays(0, a, b, (a + b) // 2, paeth))


def reference_unfilter(raw, h, w, channels):
    """The per-row loop read_png used before the wavefront, RGB out."""
    stride = w * channels
    out = np.empty((h, w, channels), dtype=np.uint8)
    prev = bytes(stride)
    for y in range(h):
        kind = raw[y * (stride + 1)]
        row = bytearray(raw[y * (stride + 1) + 1 : (y + 1) * (stride + 1)])
        _unfilter(kind, row, prev, channels)
        out[y] = np.frombuffer(bytes(row), dtype=np.uint8).reshape(w, channels)
        prev = bytes(row)
    return out[:, :, :3]


def _png_from_raw(raw, h, w, color=2, compression=0, filtering=0):
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, compression, filtering, 0)
    return (
        PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )


def _random_raw(rng, h, w, channels, kinds=None):
    """A raw PNG stream: per row, a filter byte 0-4 then random payload bytes."""
    if kinds is None:
        kinds = rng.integers(0, 5, size=h)
    payload = rng.integers(0, 256, size=(h, w * channels), dtype=np.uint8)
    return np.concatenate([np.asarray(kinds, np.uint8)[:, None], payload], axis=1).tobytes()


@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    alpha=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=1, w=40, alpha=False, seed=0)
@example(h=40, w=1, alpha=True, seed=1)
@settings(max_examples=150, deadline=None)
def test_png_decode_matches_reference_loop(tmp_path_factory, h, w, alpha, seed):
    channels = 4 if alpha else 3
    raw = _random_raw(np.random.default_rng(seed), h, w, channels)
    path = tmp_path_factory.mktemp("wave") / "raw.png"
    path.write_bytes(_png_from_raw(raw, h, w, color=6 if alpha else 2))
    got = read_png(path)
    assert got.shape == (h, w, 3) and got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, reference_unfilter(raw, h, w, channels))


def test_prediction_table_matches_w3c_on_every_byte_triple():
    # the decoder adds c and the table entry at 511 b + a - 512 c + the row's
    # offset, after rewriting each None row as the Sub row of its own byte
    # differences, so a None row's table prediction is the Sub one minus a
    byte = np.arange(256, dtype=np.int32)
    b, c = (v.ravel() for v in np.meshgrid(byte, byte, indexing="ij"))
    kind_offset = np.array([0, 0, 1, 2, 3], dtype=np.int32)[:, None] * 511 * 511 + 130560
    index = kind_offset + 511 * b - 512 * c
    is_none = np.array([1, 0, 0, 0, 0], dtype=np.int32)[:, None]
    wrong = []
    for a in range(256):
        got = c + images._prediction_table().take(index + a) - is_none * a
        if not np.array_equal(got & 0xFF, w3c_predictions(a, b, c) & 0xFF):
            wrong.append(a)
    assert wrong == []


def test_png_decodes_a_crop_with_runs_of_every_filter(tmp_path):
    # a 256x192 crop whose filter runs put None rows right after Paeth and
    # Avg rows, so the None rewrite meets every neighbour kind
    runs = [(4, 9), (0, 2), (3, 5), (0, 1), (2, 7), (1, 4), (4, 3), (3, 2), (0, 3), (1, 2), (2, 2)]
    kinds = np.resize(np.repeat(*zip(*runs)), 192)
    assert set(kinds) == {0, 1, 2, 3, 4}
    raw = _random_raw(np.random.default_rng(17), 192, 256, 3, kinds)
    path = tmp_path / "crop.png"
    path.write_bytes(_png_from_raw(raw, 192, 256))
    assert np.array_equal(read_png(path), reference_unfilter(raw, 192, 256, 3))


@pytest.mark.parametrize("h, w", [(1, 4096), (4096, 1)])
def test_png_thin_images_decode_in_memory_linear_in_size(tmp_path, h, w):
    # the skew buffer is indexed along the shorter side, so a 4096x1 image
    # costs as little as a 1x4096 one, not a 4096 x 4096 buffer
    rng = np.random.default_rng(h)
    raw = _random_raw(rng, h, w, 3)
    path = tmp_path / "thin.png"
    path.write_bytes(_png_from_raw(raw, h, w))
    images._prediction_table()  # built once per process, not per image
    tracemalloc.start()
    try:
        got = read_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, reference_unfilter(raw, h, w, 3))
    assert peak <= 8 * h * w * 3


@pytest.mark.parametrize("row", [0, 1, 3, 6])
@pytest.mark.parametrize("kind", [5, 255])
def test_png_rejects_bad_filter_byte_on_any_row(tmp_path, row, kind):
    kinds = [4, 1, 2, 3, 0, 4, 2]
    kinds[row] = kind
    raw = _random_raw(np.random.default_rng(row), 7, 5, 3, kinds)
    path = tmp_path / "bad-filter.png"
    path.write_bytes(_png_from_raw(raw, 7, 5))
    message = f"^{re.escape(str(path))}: unsupported PNG filter {kind}$"
    with pytest.raises(DataError, match=message):
        read_png(path)


@pytest.mark.parametrize("field, name", [("compression", "compression"), ("filtering", "filter")])
def test_png_rejects_unknown_compression_or_filter_method(tmp_path, field, name):
    # W3C PNG §11.2.2 defines only method 0 for both IHDR fields
    raw = _random_raw(np.random.default_rng(3), 4, 4, 3, [0, 0, 0, 0])
    path = tmp_path / "method.png"
    path.write_bytes(_png_from_raw(raw, 4, 4, **{field: 1}))
    with pytest.raises(DataError, match=f"{name} method 1"):
        read_png(path)


@pytest.mark.parametrize("size", [b"-1 -1", b"0 3", b"3 0"])
def test_ppm_rejects_non_positive_size(tmp_path, size):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(27))
    with pytest.raises(DataError):
        read_ppm(path)
