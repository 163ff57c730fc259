"""VIDX container: one framing for every index family.

Layout: magic ``VIDX``, one version byte, one family-tag byte, then the
family-specific little-endian payload. Saving a loaded index reproduces the
original bytes exactly.
"""

from __future__ import annotations

from pathlib import Path

from .base import VectorIndex
from .families import BY_TAG, family
from .wire import Reader, Writer

VIDX_MAGIC = b"VIDX"
VIDX_VERSION = 1


def dump_index(index: VectorIndex) -> bytes:
    w = Writer()
    w.raw(VIDX_MAGIC)
    w.u8(VIDX_VERSION)
    w.u8(family(index.family).tag)
    index.write_payload(w)  # type: ignore[attr-defined]
    return w.getvalue()


def load_index_bytes(data: bytes) -> VectorIndex:
    if data[:4] != VIDX_MAGIC:
        raise ValueError("not a VIDX file (bad magic)")
    r = Reader(data[4:])
    version = r.u8()
    if version != VIDX_VERSION:
        raise ValueError(f"unsupported VIDX version {version}")
    tag = r.u8()
    if tag not in BY_TAG:
        raise ValueError(f"unknown family tag {tag}")
    index = BY_TAG[tag].read(r)
    r.expect_exhausted()
    return index


def save_index(index: VectorIndex, path: str | Path) -> None:
    Path(path).write_bytes(dump_index(index))


def load_index(path: str | Path) -> VectorIndex:
    return load_index_bytes(Path(path).read_bytes())
