"""Counter-based randomness.

All stochastic pieces of the pipeline draw from generators keyed by *what* is
being drawn, never by *when*: a key is a blake2b digest of string parts such
as ("synthetic-noise", instance, coalition, trial), fed to Philox. Two
consequences the rest of the package relies on:

- the same (purpose, parts) always yields the same stream, on any platform;
- evaluation order (thread pools, batching) cannot change any result.

A batch that needs one keyed stream per item builds one generator and
``rekey``s it per item: the streams are the ones ``generator`` gives, at a
fraction of the cost of a new Philox each.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"
_MASK64 = (1 << 64) - 1


def derive_key(*parts) -> int:
    """128-bit integer key from arbitrary string-convertible parts."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(_SEP)
    return int.from_bytes(h.digest(), "little")


def generator(*parts) -> np.random.Generator:
    """Philox generator keyed by derive_key(*parts)."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def rekey(gen: np.random.Generator, *parts) -> None:
    """Restart ``gen`` (a ``generator``) in place at the stream of
    ``generator(*parts)``: the key of derive_key(*parts), a zero counter and
    an empty output buffer, as a new Philox starts."""
    key = derive_key(*parts)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key & _MASK64, key >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def mix64(*parts) -> int:
    """Stable non-negative 63-bit integer from parts; used for sub-seeds."""
    return derive_key(*parts) & ((1 << 63) - 1)
