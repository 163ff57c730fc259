"""8-bit scalar quantization: per-dimension affine mapping onto levels 0..255.

IVF-SQ ranks probed codes without decoding them: `_code_shortlist` gives
each code a float32 key and bounds its error, and `distances._proven_cut`
keeps the rows that bound cannot rule out of the best k. Only those are
decoded and scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import check_count, check_finite, check_rows
from .distances import _EVERY_ROW, _MAX_DIM, _U32, _U64, _gamma, _proven_cut
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
        check_finite("mins and maxs", self.mins, self.maxs)
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
        dim = check_count("dim", r.u32())
        return cls(mins=r.f32_array(dim), maxs=r.f32_array(dim))


def sq_train(data: np.ndarray) -> SqParams:
    """Capture column-wise min/max over the training vectors, at least one
    column wide, as `SqParams.read` requires."""
    arr = check_rows("data", np.asarray(data, dtype=np.float32), nonempty=True, min_dim=1)
    return SqParams(mins=arr.min(axis=0), maxs=arr.max(axis=0))


def _spans(params: SqParams) -> np.ndarray:
    return params.maxs.astype(np.float64) - params.mins.astype(np.float64)


def sq_encode_batch(params: SqParams, vectors: np.ndarray) -> np.ndarray:
    """Map each component to its nearest 8-bit level, clamping out-of-range values."""
    arr = check_rows("vectors", np.asarray(vectors, dtype=np.float64), params.dim)
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
    out = check_rows("codes", np.array(codes, dtype=np.float64), params.dim)  # always a copy
    out += 0.5
    out *= _spans(params)
    out /= LEVELS
    out += params.mins.astype(np.float64)
    return out


_TOP = LEVELS - 1  # the largest code
_KEY_LIMIT = 2.0**100  # keys below this in magnitude keep every float32 product and sum finite


def _code_shortlist(
    params: SqParams, codes: np.ndarray, query: np.ndarray, k: int
) -> np.ndarray | slice:
    """Rows of `codes` whose decoded vectors can rank among the best k by L2.

    `query` is float64. Returns an ascending index array, or ``slice(None)``
    when every row must be decoded and scored: when k exceeds half the rows or
    the dimension 2**20, when a key could reach 2**100 (huge spans or query
    components), and where `distances._proven_cut` returns every row. Scoring
    ``batch_scores(Metric.L2, query, sq_decode_batch(params, codes[rows]))``
    and ranking it with `rank_order` gives exactly the best k of decoding and
    scoring every row. The cut is `distances._proven_cut`'s, on keys computed
    from the codes themselves; what follows are its inputs E, Z and Ed.

    Keys. Let S be the float64 span ``maxs - mins`` that `sq_decode_batch`
    uses, s = S / 256 (exact) and b = mins + 0.5 s as float64 computes it.
    Code c stands for the real point w = b + c s, and for every row
    ||w - q||^2 = Z + K with Z = ||b - q||^2, the same for all rows, and
    K = c.a + (c c).t, where a = 2 s (b - q) and t = s s. Both weights are
    computed in float64 and rounded to float32 as a32 and t32. The codes are
    cast to float32 exactly, c c is exact in float32, and one float32
    matrix-vector product each gives c.a32 and (c c).t32. Their float32 sum
    is the row's key.

    E. Let d be the dimension, u = 2**-24, e = 2**-53, g = d u / (1 - d u)
    (gamma_d, `distances._gamma`) and P = 255 sum|a| + 255**2 sum t
    over the float64 weights. The float32 weights are at most (1 + u) times
    larger and codes are at most 255, so (1 + u) P bounds the absolute sum of
    the products in any key. For every row:

    - each float32 product, in any summation order, is within g times its
      absolute sum of the exact one: within g (1 + u) P for the two together;
    - the float32 addition of the two adds u (1 + g)(1 + u) P;
    - the weights: b - q and its product by 2 s round once each, so the
      float64 a is within 3 e of the real a, relatively, and t within 2 e;
      rounding either to float32 adds u, relatively. A code multiplies them
      by at most 255 and 255**2, which moves the key by at most (u + 4 e) P.
      The query enters only through a, so this also covers rounding q.

    So each key lies within E = (g + u (2 + g) + 4 e)(1 + u) P of K, up to
    underflow terms.

    Ed. The decoder rounds too: c + 0.5 is exact, the product by S rounds
    once, the division by 256 is exact and adding mins rounds once, so each
    decoded component lies within e (|mins| + 3 S) of mins + (c + 0.5) S / 256,
    which float64 b misses by e |b| at most. The decoded row v therefore lies
    within Ed = e (2 ||mins|| + 4 ||S||) of w.
    """
    n, d = codes.shape
    if 2 * k > n or d > _MAX_DIM:
        return _EVERY_ROW
    spans = _spans(params)
    mins = params.mins.astype(np.float64)
    step = spans / LEVELS  # s
    gap = mins + 0.5 * step  # b ...
    gap -= query  # ... less q
    lin = 2.0 * step * gap  # a
    quad = step * step  # t
    reach = _TOP * float(np.abs(lin).sum()) + _TOP * _TOP * float(quad.sum())  # P
    if not reach < _KEY_LIMIT:
        return _EVERY_ROW
    g = _gamma(d, _U32)
    e = (g + _U32 * (2.0 + g) + 4.0 * _U64) * (1.0 + _U32) * reach
    ed = _U64 * (2.0 * math.sqrt(float(mins @ mins)) + 4.0 * math.sqrt(float(spans @ spans)))
    c = codes.astype(np.float32)
    keys = c @ lin.astype(np.float32)
    c *= c
    keys += c @ quad.astype(np.float32)
    return _proven_cut(keys, k, d, e, z=float(gap @ gap), ed=ed)
