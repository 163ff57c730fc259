"""Little-endian binary primitives shared by the VEMB and VIDX file formats.

Both formats are defined bit-exactly, so every scalar and array goes through
explicit ``<``-endian struct codes / dtypes regardless of host byte order.
"""

from __future__ import annotations

import struct

import numpy as np


class Writer:
    """Accumulates little-endian encoded fields into a byte buffer."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def u8(self, value: int) -> None:
        self._chunks.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._chunks.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._chunks.append(struct.pack("<Q", value))

    def f64(self, value: float) -> None:
        self._chunks.append(struct.pack("<d", value))

    def raw(self, data: bytes) -> None:
        self._chunks.append(bytes(data))

    def u8_array(self, arr: np.ndarray) -> None:
        self._chunks.append(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())

    def u32_array(self, arr: np.ndarray) -> None:
        self._chunks.append(np.ascontiguousarray(arr, dtype="<u4").tobytes())

    def u64_array(self, arr: np.ndarray) -> None:
        self._chunks.append(np.ascontiguousarray(arr, dtype="<u8").tobytes())

    def f32_array(self, arr: np.ndarray) -> None:
        self._chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """Cursor over a byte buffer with typed little-endian reads."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError("truncated buffer")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def u8_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(count), dtype=np.uint8).copy()

    def u32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(4 * count), dtype="<u4").astype(np.uint32)

    def u64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(8 * count), dtype="<u8").astype(np.uint64)

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(4 * count), dtype="<f4").astype(np.float32)

    def expect_exhausted(self) -> None:
        if self._pos != len(self._data):
            raise ValueError("trailing bytes after payload")
