"""Minimal RGB image files: binary PPM (P6), plus just enough PNG.

PPM is the bit-exact interchange format: the writer emits one canonical
byte stream for a given array, and read(write(img)) == img always. PNG
support covers 8-bit RGB/RGBA, non-interlaced, which is what this package
writes and what pose datasets typically provide after conversion. The
reader skips ancillary chunks and PLTE (a suggested palette for these
colour types) and refuses any other critical chunk it does not know, as
W3C PNG §5.4 requires.

PNG decoding undoes the five row filters of W3C PNG (Third Edition) §9 as
one anti-diagonal wavefront, with no per-byte Python loop. Pixel (y, x) is
predicted from a = (y, x-1), b = (y-1, x) and c = (y-1, x-1) only, so once
diagonal x + y = t - 1 is decoded, all of diagonal t can be: h + w - 1 numpy
steps per image (447 at 256x192). With each None row rewritten as the Sub
row of its own byte differences, prediction minus c depends only on the
filter, a - c and b - c. A read-only 4 x 511 x 511 uint8 table (1 MB, built
on the first decode in under 2 ms, so a process that never decodes a PNG
does not hold it) holds it mod 256, so a step adds c and the entry at
int32 index 511 b + a - 512 c + base (the row's filter offset plus 130560):
eight numpy calls. The bytes are decoded in place in one uint8 buffer that
holds the image skewed, one diagonal per row indexed along the shorter side,
so each diagonal is one contiguous slice: (h + w + 1) * (min(h, w) + 1)
bytes per channel, 1.76x the image at 256x192, 2x at 4096x1. Unfiltering a
256x192 RGB crop takes about 7 ms, where masked Paeth and Avg per step took
13 ms and a per-byte Python loop 43 ms (one core of a 2-vCPU x86-64 VM,
numpy 2.4, Python 3.11).
"""

from __future__ import annotations

import functools
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
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))


def write_png(path, image) -> None:
    arr = _check_rgb(image)
    h, w, _ = arr.shape
    raw = np.concatenate([np.zeros((h, 1), np.uint8), arr.reshape(h, w * 3)], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = _chunk(b"IDAT", zlib.compress(raw, 9))
    png = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + idat + _chunk(b"IEND", b"")
    _write_bytes(path, png, "image")


@functools.cache
def _prediction_table() -> np.ndarray:
    """(pred - c) mod 256 at [filter - 1, b - c + 255, a - c + 255] for Sub,
    Up, Avg and Paeth; Paeth's |p - a|, |p - b| and |p - c| are |b - c|,
    |a - c| and |(a - c) + (b - c)|."""
    ac = np.arange(-255, 256, dtype=np.int16)
    table = np.empty((4, 511, 511), np.uint8)
    # 64 values of b - c at a time keep each int16 temporary under 128 KB, so
    # freeing it does not raise glibc's mmap threshold for the whole process
    for lo in range(0, 511, 64):
        bc = ac[lo : lo + 64, None]
        pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(ac + bc)
        paeth = np.where(pa <= np.minimum(pb, pc), ac, np.where(pb <= pc, bc, 0))
        for kind, pred in enumerate((ac, bc, (ac + bc) >> 1, paeth)):
            table[kind, lo : lo + 64] = pred.astype(np.uint8)  # wraps mod 256
    table.flags.writeable = False
    return table


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
    predict = _prediction_table()
    by_y = h <= w
    shorter, longer = (h, w) if by_y else (w, h)
    skew = np.zeros((h + w + 1, shorter + 1, channels), dtype=np.uint8)
    step_y, step_x = (shorter + 2, shorter + 1) if by_y else (shorter + 1, shorter + 2)
    strides = (step_y * channels, step_x * channels, 1)
    pixels = np.ndarray((h, w, channels), np.uint8, skew, (2 * shorter + 3) * channels, strides)
    raw = rows[:, 1:].reshape(h, w, channels)
    pixels[...] = raw
    # a None row is a Sub row of its own byte differences
    none = kinds == 0
    pixels[none, 1:] -= raw[none, :-1]
    # each row's table offset, (filter - 1) * 511 * 511 + 130560 with None as Sub
    base = kinds.astype(np.int32)
    np.maximum(base, 1, out=base)
    base *= 511 * 511
    base += 130560 - 511 * 511
    # the rows of a diagonal, in order of k: y = k, or y = t - k
    along = (base if by_y else base[::-1])[:, None]
    for t in range(h + w - 1):
        lo, hi = max(0, t - longer + 1), min(t, shorter - 1) + 1
        first = lo if by_y else h - 1 - t + lo
        prev = skew[t + 1, lo : hi + 1]
        a, b = (prev[1:], prev[:-1]) if by_y else (prev[:-1], prev[1:])
        c = skew[t, lo:hi]
        # 511 b + a - 512 c = 511 (b - c) + (a - c)
        idx = np.multiply(b, 511, dtype=np.int32)
        idx += a
        idx -= np.multiply(c, 512, dtype=np.int32)
        idx += along[first : first + hi - lo]
        here = skew[t + 2, lo + 1 : hi + 1]
        here += c  # uint8 adds wrap mod 256
        here += predict.take(idx)
    return pixels


def read_png(path) -> np.ndarray:
    data = _read_bytes(path, "image")
    if not data.startswith(b"\x89PNG\r\n\x1a\n"):
        raise DataError(f"{path}: not a PNG")
    view = memoryview(data)  # chunk payloads are slices of the file, not copies
    pos = 8
    ihdr = None
    idat = []
    tag = None
    while tag != b"IEND":
        if pos + 8 > len(data):
            raise DataError(f"{path}: PNG ends without an IEND chunk")
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
        if (tag == b"IHDR") != (ihdr is None):  # W3C PNG §5.6
            raise DataError(f"{path}: IHDR must be the first chunk and appear once")
        if tag == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: IHDR is {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif not tag[0] & 0x20 and tag not in (b"PLTE", b"IEND"):  # W3C PNG §5.4
            raise DataError(f"{path}: unknown critical PNG chunk {tag!r}")
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


def _is_png(path) -> bool:
    """True for a .png path, False for .ppm, in any case; any other suffix is a DataError."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".png", ".ppm"):
        raise DataError(f"unsupported image format {suffix!r} (use .ppm or .png)")
    return suffix == ".png"


def load_image(path) -> np.ndarray:
    return read_png(path) if _is_png(path) else read_ppm(path)


def save_image(path, image) -> None:
    (write_png if _is_png(path) else write_ppm)(path, image)
