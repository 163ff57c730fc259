"""Little-endian binary primitives of the VIDX file format.

The format is defined bit-exactly, so every scalar and array goes through
explicit ``<``-endian struct codes / dtypes regardless of host byte order.
Integer scalars are unsigned (u8, u32, u64): `Writer` refuses a value its
field cannot hold with ValueError, and every loader passes each dimension
and knob it reads through `base.check_count`. An f64 is written one at a
time but read only in bulk, in the records of the loader that owns them.
"""

from __future__ import annotations

import struct

import numpy as np

# The largest value a u32 field holds: build knobs stored as u32 are checked
# against it at build time, not first at dump.
U32_MAX = 2**32 - 1

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class Writer:
    """Accumulates little-endian encoded fields into a byte buffer."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def _uint(self, fmt: struct.Struct, value: int) -> None:
        """Append `value` packed by `fmt`: ValueError, not struct.error, for a
        value its width cannot hold."""
        try:
            self._chunks.append(fmt.pack(value))
        except struct.error:
            raise ValueError(f"{value!r} does not fit a u{8 * fmt.size} field") from None

    def u8(self, value: int) -> None:
        self._uint(_U8, value)

    def u32(self, value: int) -> None:
        self._uint(_U32, value)

    def u64(self, value: int) -> None:
        self._uint(_U64, value)

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


# (wire dtype, in-memory dtype) of each array type.
_U8_ARRAY = (np.dtype("u1"), np.dtype(np.uint8))
_U32_ARRAY = (np.dtype("<u4"), np.dtype(np.uint32))
_U64_ARRAY = (np.dtype("<u8"), np.dtype(np.uint64))
_F32_ARRAY = (np.dtype("<f4"), np.dtype(np.float32))


class Reader:
    """Cursor over a byte buffer with typed little-endian reads.

    Scalars are unpacked in place and each array is one owned copy taken
    straight from the buffer, so `data` (bytes, bytearray or memoryview) is
    never sliced and may be reused once the reads are done.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _advance(self, n: int) -> int:
        pos = self._pos
        if pos + n > len(self._data):
            raise ValueError("truncated buffer")
        self._pos = pos + n
        return pos

    def _scalar(self, fmt: struct.Struct):
        return fmt.unpack_from(self._data, self._advance(fmt.size))[0]

    def _array(self, dtypes: tuple[np.dtype, np.dtype], count: int) -> np.ndarray:
        wire, native = dtypes
        pos = self._advance(wire.itemsize * count)
        return np.frombuffer(self._data, dtype=wire, count=count, offset=pos).astype(native)

    def u8(self) -> int:
        return self._scalar(_U8)

    def u32(self) -> int:
        return self._scalar(_U32)

    def u64(self) -> int:
        return self._scalar(_U64)

    def raw(self, n: int) -> bytes:
        pos = self._advance(n)
        return bytes(self._data[pos : pos + n])

    def u8_array(self, count: int) -> np.ndarray:
        return self._array(_U8_ARRAY, count)

    def u32_array(self, count: int) -> np.ndarray:
        return self._array(_U32_ARRAY, count)

    def u64_array(self, count: int) -> np.ndarray:
        return self._array(_U64_ARRAY, count)

    def f32_array(self, count: int) -> np.ndarray:
        return self._array(_F32_ARRAY, count)

    def skip(self, n: int) -> None:
        """Move past `n` bytes already read through `view`."""
        self._advance(n)

    def view(self, dtype: str) -> np.ndarray:
        """Every whole `dtype` item left, as a read-only view; the cursor stays put."""
        left = (len(self._data) - self._pos) // np.dtype(dtype).itemsize
        return np.frombuffer(self._data, dtype=dtype, count=left, offset=self._pos)

    def expect_exhausted(self) -> None:
        if self._pos != len(self._data):
            raise ValueError("trailing bytes after payload")
