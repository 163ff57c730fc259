"""8-bit scalar quantization: per-dimension affine mapping onto levels 0..255."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wire import Reader, Writer

LEVELS = 256


@dataclass
class SqParams:
    """Per-dimension (min, max) ranges captured from the training data."""

    mins: np.ndarray  # float32, shape (dim,)
    maxs: np.ndarray  # float32, shape (dim,)

    def __post_init__(self) -> None:
        self.mins = np.asarray(self.mins, dtype=np.float32).reshape(-1)
        self.maxs = np.asarray(self.maxs, dtype=np.float32).reshape(-1)
        if self.mins.shape != self.maxs.shape:
            raise ValueError("mins and maxs must have the same shape")
        if np.any(self.mins > self.maxs):
            raise ValueError("per-dimension min must not exceed max")

    @property
    def dim(self) -> int:
        return self.mins.shape[0]

    def write(self, w: Writer) -> None:
        w.u32(self.dim)
        w.f32_array(self.mins)
        w.f32_array(self.maxs)

    @classmethod
    def read(cls, r: Reader) -> "SqParams":
        dim = r.u32()
        return cls(mins=r.f32_array(dim), maxs=r.f32_array(dim))


def sq_train(data: np.ndarray) -> SqParams:
    """Capture column-wise min/max over the training vectors."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 2 or len(arr) == 0:
        raise ValueError("data must be a non-empty 2-d array")
    return SqParams(mins=arr.min(axis=0), maxs=arr.max(axis=0))


def _spans(params: SqParams) -> np.ndarray:
    return params.maxs.astype(np.float64) - params.mins.astype(np.float64)


def sq_encode_batch(params: SqParams, vectors: np.ndarray) -> np.ndarray:
    """Map each component to its nearest 8-bit level, clamping out-of-range values."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != params.dim:
        raise ValueError("vectors must be 2-d with the trained dimension")
    spans = _spans(params)
    mins = params.mins.astype(np.float64)
    levels = np.zeros(arr.shape, dtype=np.float64)
    live = spans > 0.0
    # Affine map of [min, max] onto [-0.5, 255.5]; round-to-nearest gives the
    # level whose mid-point reconstruction is closest.
    levels[:, live] = (arr[:, live] - mins[live]) / spans[live] * LEVELS - 0.5
    levels = np.clip(np.rint(levels), 0, LEVELS - 1)
    return levels.astype(np.uint8)


def sq_decode_batch(params: SqParams, codes: np.ndarray) -> np.ndarray:
    """Mid-level reconstruction: min + (L + 0.5) * span / 256.

    Dimensions trained with min == max decode exactly to that constant.
    Returns a fresh float64 array, suitable for direct use in the scoring path;
    it is decoded in place, adding min last (the same sum, so the same bits).
    """
    out = np.array(codes, dtype=np.float64)  # always a copy, never the caller's array
    if out.ndim != 2 or out.shape[1] != params.dim:
        raise ValueError("codes must be 2-d with the trained dimension")
    out += 0.5
    out *= _spans(params)
    out /= LEVELS
    out += params.mins.astype(np.float64)
    return out
