"""Minimal RGB image files: binary PPM (P6), plus just enough PNG.

PPM is the bit-exact interchange format: the writer emits one canonical
byte stream for a given array, and read(write(img)) == img always. PNG
support covers 8-bit RGB/RGBA, non-interlaced, which is what this package
writes and what pose datasets typically provide after conversion.
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
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = _chunk(b"IDAT", zlib.compress(raw, 9))
    png = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + idat + _chunk(b"IEND", b"")
    _write_bytes(path, png, "image")


def _unfilter(kind: int, row: bytearray, prev: bytes, bpp: int) -> None:
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


def read_png(path) -> np.ndarray:
    data = _read_bytes(path, "image")
    if not data.startswith(b"\x89PNG\r\n\x1a\n"):
        raise DataError(f"{path}: not a PNG")
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        end = pos + 12 + length
        if end > len(data):
            raise DataError(f"{path}: {tag!r} chunk runs past the end of the file")
        payload = data[pos + 8 : end - 4]
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
    w, h, depth, color, _comp, _filt, interlace = ihdr
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PNG size {w}x{h}")
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
    out = np.empty((h, w, channels), dtype=np.uint8)
    prev = bytes(stride)
    for y in range(h):
        kind = raw[y * (stride + 1)]
        row = bytearray(raw[y * (stride + 1) + 1 : (y + 1) * (stride + 1)])
        _unfilter(kind, row, prev, channels)
        out[y] = np.frombuffer(bytes(row), dtype=np.uint8).reshape(w, channels)
        prev = bytes(row)
    return out[:, :, :3].copy() if channels == 4 else out


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
