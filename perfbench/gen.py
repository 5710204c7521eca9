"""Deterministic benchmark inputs, all derived from the workload seed.

- a 133-keypoint whole-body schema in the COCO-WholeBody layout (body 17,
  feet 6, face 68, two hands of 21), with a skeleton that connects every
  keypoint, and a noisy synthetic model over it;
- an anatomical grouping of that schema into 12 groups of at most 12
  members whose coarse-to-fine budget is exactly 32768 oracle calls;
- 256x192 person crops with COCO-style annotations, written as PNG by an
  encoder that picks each row's filter by the minimum sum of absolute
  differences (the libpng heuristic), or as binary PPM.

Also holds reference decoders used only to check outputs. None of this uses
kpshap's own codecs or random streams, so the program under test never
grades itself.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

FACE = 68
HAND = 21
FEET = ("l-big-toe", "l-small-toe", "l-heel", "r-big-toe", "r-small-toe", "r-heel")
# Face landmarks in the 68-point order: jaw, brows, nose bridge, nostrils,
# eyes (rings), outer and inner lips (rings).
FACE_CHAINS = ((0, 17), (17, 22), (22, 27), (27, 31), (31, 36))
FACE_RINGS = ((36, 42), (42, 48), (48, 60), (60, 68))
FINGERS = ((1, 5), (5, 9), (9, 13), (13, 17), (17, 21))
# Group sizes 3 x 12, 7 x 11 and 2 x 10 cover 133 keypoints with
# sum_k 2^|G_k| + 2^12 = 32768.
FACE_SPLIT = (12, 12, 11, 11, 11, 11)
HAND_SPLIT = (11, 10)

CROP_H, CROP_W = 256, 192
PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "avg", "paeth")
# Vertical ramp, horizontal ramp, photographic texture, scanline stripes.
BAND_STYLE_WEIGHTS = (0.25, 0.1, 0.45, 0.2)
# The row filter mix a crop set must have. Paeth is the filter real encoders
# pick most often on photographs, so it must be the most common one here,
# and every other filter the decoder unfilters in its own loop must occur.
# This is a stated target: it has not been measured on real person crops.
PNG_FILTER_TARGET = {"paeth": 0.4, "up": 0.02, "avg": 0.02, "sub": 0.02}


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, purpose])


# --- whole-body schema, model and grouping -------------------------------------


def wholebody_schema(body_names, body_edges) -> dict:
    """Schema document: the 17 body names, then feet, face, left and right hand."""
    face = [f"face-{i:02d}" for i in range(FACE)]
    lhand = [f"lhand-{i:02d}" for i in range(HAND)]
    rhand = [f"rhand-{i:02d}" for i in range(HAND)]
    names = list(body_names) + list(FEET) + face + lhand + rhand
    edges = [list(e) for e in body_edges]
    for side in ("l", "r"):
        for toe in ("big-toe", "small-toe", "heel"):
            edges.append([f"{side}-ankle", f"{side}-{toe}"])
    for lo, hi in FACE_CHAINS:
        edges += [[face[i], face[i + 1]] for i in range(lo, hi - 1)]
    for lo, hi in FACE_RINGS:
        edges += [[face[i], face[lo + (i - lo + 1) % (hi - lo)]] for i in range(lo, hi)]
    edges += [
        ["nose", face[30]],
        ["r-eye", face[36]],
        ["l-eye", face[45]],
        ["r-ear", face[0]],
        ["l-ear", face[16]],
        [face[21], face[27]],
        [face[22], face[27]],
        [face[33], face[51]],
    ]
    for wrist, hand in (("l-wrist", lhand), ("r-wrist", rhand)):
        edges.append([wrist, hand[0]])
        for lo, hi in FINGERS:
            edges.append([hand[0], hand[lo]])
            edges += [[hand[i], hand[i + 1]] for i in range(lo, hi - 1)]
    return {"names": names, "edges": edges}


def anatomical_groups(names) -> dict:
    """12 groups: upper body, lower body with feet, six face bands, two per hand."""
    body = list(names[:17])
    upper = body[:11]
    lower = body[11:] + list(names[17:23])
    groups = [upper, lower]
    start = 23
    for size in FACE_SPLIT:
        groups.append(list(names[start : start + size]))
        start += size
    for _hand in range(2):
        for size in HAND_SPLIT:
            groups.append(list(names[start : start + size]))
            start += size
    return {"groups": groups, "g": len(groups)}


def wholebody_model(schema_doc: dict, groups_doc: dict, seed: int) -> dict:
    """Synthetic model config: ceilings, recovery through skeleton neighbours
    and group mates, and per-evaluation Gaussian noise of sd 0.05."""
    names = schema_doc["names"]
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    rng = _rng(seed, 1)
    base = rng.uniform(0.55, 0.95, size=n)
    weight = np.zeros((n, n))
    for a, b in schema_doc["edges"]:
        i, j = index[a], index[b]
        weight[i, j] = rng.uniform(0.5, 1.5)
        weight[j, i] = rng.uniform(0.5, 1.5)
    for grp in groups_doc["groups"]:
        idx = [index[nm] for nm in grp]
        block = rng.uniform(0.0, 0.3, size=(len(idx), len(idx)))
        weight[np.ix_(idx, idx)] += block
    np.fill_diagonal(weight, 0.0)
    row_total = rng.uniform(0.2, 0.6, size=n)
    recovery = np.floor(weight / weight.sum(axis=1, keepdims=True) * row_total[:, None] * 1e6) / 1e6
    return {
        "base": [round(float(v), 6) for v in base],
        "recovery": [[float(v) for v in row] for row in recovery],
        "noise_sd": 0.05,
    }


# --- PNG / PPM encoding and reference decoding ---------------------------------


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter every row with all five PNG filters and keep, per row, the one
    whose bytes as signed values have the smallest absolute sum.

    Returns (filter type per row, filtered rows as uint8)."""
    h, w, ch = image.shape
    x = image.reshape(h, w * ch).astype(np.int16)
    a = np.zeros_like(x)
    a[:, ch:] = x[:, :-ch]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, ch:] = x[:-1, :-ch]
    candidates = np.stack(
        [x, x - a, x - b, x - (a + b) // 2, x - _paeth(a, b, c)]
    ).astype(np.uint8)
    signed = np.abs(candidates.view(np.int8).astype(np.int32)).sum(axis=2)
    kinds = np.argmin(signed, axis=0)
    return kinds, candidates[kinds, np.arange(h)]


def encode_png(image: np.ndarray, idat_size: int = 8192) -> tuple[bytes, np.ndarray]:
    """8-bit RGB PNG with per-row adaptive filters; returns (bytes, filter types)."""
    h, w, _ = image.shape
    kinds, rows = filter_rows(image)
    raw = np.concatenate([kinds.astype(np.uint8)[:, None], rows], axis=1).tobytes()
    data = zlib.compress(raw, 9)
    out = [PNG_MAGIC, _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))]
    out += [_chunk(b"IDAT", data[i : i + idat_size]) for i in range(0, len(data), idat_size)]
    out.append(_chunk(b"IEND", b""))
    return b"".join(out), kinds


def encode_ppm(image: np.ndarray) -> bytes:
    h, w, _ = image.shape
    return b"P6\n%d %d\n255\n" % (w, h) + image.tobytes()


def decode_png(data: bytes) -> np.ndarray:
    """Reference decoder for 8-bit RGB/RGBA non-interlaced PNG with CRC checks."""
    if not data.startswith(PNG_MAGIC):
        raise ValueError("not a PNG")
    pos, ihdr, idat = 8, None, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag, payload = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if crc != zlib.crc32(tag + payload):
            raise ValueError(f"bad CRC in {tag!r}")
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    w, h, depth, color, _, _, interlace = ihdr
    if depth != 8 or color not in (2, 6) or interlace:
        raise ValueError(f"unsupported PNG {ihdr}")
    ch = 3 if color == 2 else 4
    stride = w * ch
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8).reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        kind, row = raw[y, 0], raw[y, 1:].astype(np.int32)
        if kind == 0:
            cur = row
        elif kind == 2:
            cur = (row + prev) & 0xFF
        elif kind == 1:
            cur = (np.cumsum(row.reshape(w, ch), axis=0) & 0xFF).reshape(stride)
        elif kind in (3, 4):
            cur = row.copy()
            for i in range(stride):
                left = int(cur[i - ch]) if i >= ch else 0
                up = int(prev[i])
                if kind == 3:
                    pred = (left + up) >> 1
                else:
                    upleft = int(prev[i - ch]) if i >= ch else 0
                    pred = int(_paeth(left, up, upleft))
                cur[i] = (cur[i] + pred) & 0xFF
        else:
            raise ValueError(f"bad filter {kind}")
        out[y] = cur
        prev = cur.astype(np.int32)
    return out.reshape(h, w, ch)[:, :, :3]


def decode_ppm(data: bytes) -> np.ndarray:
    """Reference decoder for binary PPM with maxval 255; '#' comments allowed."""
    fields, pos = [], 2
    if not data.startswith(b"P6"):
        raise ValueError("not a PPM")
    while len(fields) < 3:
        while data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        end = pos
        while not data[end : end + 1].isspace():
            end += 1
        fields.append(int(data[pos:end]))
        pos = end
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"maxval {maxval}")
    pos += 1
    return np.frombuffer(data[pos : pos + w * h * 3], dtype=np.uint8).reshape(h, w, 3)


def decode_image(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    return decode_png(data) if path.suffix == ".png" else decode_ppm(data)


# --- person crops --------------------------------------------------------------

# Nominal (x, y) of the 17 body keypoints in a 192x256 crop, COCO order.
_POSE = (
    (96, 34), (104, 28), (88, 28), (114, 32), (78, 32),
    (124, 66), (68, 66), (136, 104), (56, 104), (142, 140), (50, 140),
    (114, 140), (78, 140), (118, 186), (74, 186), (122, 232), (70, 232),
)
_LIMBS = (
    (5, 7), (7, 9), (6, 8), (8, 10), (5, 6), (11, 12), (5, 11), (6, 12),
    (11, 13), (13, 15), (12, 14), (14, 16),
)


def _background(rng: np.random.Generator) -> np.ndarray:
    """A scene of horizontal bands, each a vertical ramp, a horizontal ramp,
    a smooth photographic texture or scanline stripes.

    The texture is the common band and the only one on which Paeth wins, so
    the style weights set the row filter mix: they were chosen to meet
    PNG_FILTER_TARGET (about 60% Paeth, 20% Up, 5-10% each of Sub and Avg
    over a crop set).
    """
    img = np.zeros((CROP_H, CROP_W, 3), dtype=np.float64)
    yy, xx = np.mgrid[0:CROP_H, 0:CROP_W].astype(np.float64)
    cuts = np.sort(rng.choice(np.arange(24, CROP_H - 24), size=3, replace=False))
    edges = [0, *cuts.tolist(), CROP_H]
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = np.broadcast_to(rng.uniform(30, 220, size=3), (hi - lo, CROP_W, 3)).copy()
        y, x = yy[lo:hi, :, None], xx[lo:hi, :, None]
        style = rng.choice(4, p=BAND_STYLE_WEIGHTS)
        if style == 0:
            band += (y - lo) * rng.choice([-1, 1]) * rng.uniform(1, 2.5, size=3) * 100 / (hi - lo)
        elif style == 1:
            band += x * rng.uniform(-0.5, 0.5, size=3)
        elif style == 2:
            for _ in range(3):
                angle, freq = rng.uniform(0, np.pi), rng.uniform(0.05, 0.2)
                phase = freq * (x * np.cos(angle) + y * np.sin(angle)) + rng.uniform(0, 2 * np.pi)
                band += rng.uniform(30, 60) * np.sin(phase)
            band += rng.normal(0, rng.uniform(0, 5), size=band.shape)  # grain; Avg wins where it is strong
        else:
            band += rng.normal(0, 25, size=(hi - lo, 1, 3)) + x * rng.uniform(-0.4, 0.4, size=3)
        img[lo:hi] = band
    return img


def person_crop(rng: np.random.Generator):
    """One crop and its person keypoints as (x, y, visibility) triples."""
    n = len(_POSE)
    img = _background(rng)
    pose = np.asarray(_POSE, dtype=np.float64) + rng.normal(0, 4, size=(n, 2))
    pose[:, 0] = np.clip(pose[:, 0], 1, CROP_W - 2)
    pose[:, 1] = np.clip(pose[:, 1], 1, CROP_H - 2)
    yy, xx = np.mgrid[0:CROP_H, 0:CROP_W].astype(np.float64)
    cloth = rng.uniform(20, 235, size=3)
    for a, b in _LIMBS:
        (x0, y0), (x1, y1) = pose[a], pose[b]
        dx, dy = x1 - x0, y1 - y0
        t = np.clip(((xx - x0) * dx + (yy - y0) * dy) / max(dx * dx + dy * dy, 1e-9), 0, 1)
        dist = np.hypot(xx - (x0 + t * dx), yy - (y0 + t * dy))
        img[dist < rng.uniform(5, 9)] = cloth + rng.normal(0, 3, size=3)
    head = np.hypot(xx - pose[0, 0], yy - pose[0, 1]) < 16
    img[head] = rng.uniform(120, 220, size=3)
    img += rng.normal(0, rng.uniform(0.3, 1.0), size=img.shape)  # sensor noise left after JPEG and resizing
    image = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    vis = np.where(rng.random(n) < 0.15, 0, 2)
    keypoints = [(float(x), float(y), int(v)) for (x, y), v in zip(np.round(pose, 2), vis)]
    return image, keypoints


def write_crops(directory: Path, seed: int, count: int):
    """Write `count` crops plus one annotation file per crop; every fourth
    crop is a PPM, the rest are PNG.

    Returns a list of (file name, pixels, annotation path) and the histogram of
    PNG row filters over all PNG crops; raises ValueError if that histogram
    misses PNG_FILTER_TARGET.
    """
    rng = _rng(seed, 2)
    images = directory / "images"
    annotations = directory / "annotations"
    images.mkdir(parents=True)
    annotations.mkdir()
    crops = []
    histogram = dict.fromkeys(FILTER_NAMES, 0)
    for k in range(count):
        image, keypoints = person_crop(rng)
        is_png = k % 4 != 3
        name = f"crop{k:03d}.{'png' if is_png else 'ppm'}"
        if is_png:
            data, kinds = encode_png(image)
            for kind in kinds:
                histogram[FILTER_NAMES[kind]] += 1
        else:
            data = encode_ppm(image)
        (images / name).write_bytes(data)
        doc = {
            "images": [{"id": k, "file_name": name, "width": CROP_W, "height": CROP_H}],
            "annotations": [
                {"id": 1000 + k, "image_id": k, "keypoints": [v for kp in keypoints for v in kp]}
            ],
        }
        ann = annotations / f"crop{k:03d}.json"
        ann.write_text(json.dumps(doc))
        crops.append((name, image, ann))
    rows = sum(histogram.values())
    if max(histogram, key=histogram.get) != "paeth" or any(
        histogram[kind] < share * rows for kind, share in PNG_FILTER_TARGET.items()
    ):
        raise ValueError(f"PNG row filters {histogram} miss the target {PNG_FILTER_TARGET}")
    return crops, histogram
