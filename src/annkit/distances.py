"""Vector metrics and the shared deterministic scoring path.

Every index family funnels its candidate scoring through :func:`batch_scores`
so that equivalence between an exhaustive scan and a full-probe / full-budget
approximate search holds bit-for-bit: same float64 accumulation, same per-row
reduction, same ascending-id tie-break.

Exact L2 and inner-product scans (flat-l2, flat-ip, ivf-flat lists, and
`exact_search` / `ground_truth`) put a shortlist stage in front of that path:
:func:`shortlist` ranks every row by one float32 matrix-vector product and
keeps only the rows that a proven rounding bound cannot rule out of the best
k. Those rows are scored by :func:`batch_scores` and ranked by
:func:`rank_order` exactly as before, so scores and order are unchanged.
Angular and Manhattan scans, and every approximate family, score all of their
candidates.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class Metric(str, Enum):
    """Supported similarity metrics.

    L2, Manhattan and Angular are distances (lower is closer); InnerProduct is
    a similarity (higher is closer) and is not a metric in the mathematical
    sense.
    """

    L2 = "l2"
    INNER_PRODUCT = "ip"
    ANGULAR = "angular"
    MANHATTAN = "manhattan"

    @property
    def higher_is_closer(self) -> bool:
        return self is Metric.INNER_PRODUCT


def batch_scores(metric: Metric, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Score `query` against every row of `vectors` in float64.

    float32 rows are scored without a float64 copy: each arithmetic step
    against the float64 query promotes them exactly, so the result is
    bit-identical to scoring `vectors.astype(np.float64)`. Returns a float64
    array; callers narrow to float32 only at the reporting boundary so that
    accumulation error cannot perturb rankings.

    Raises ValueError on dimension mismatch, and for Angular when the query or
    any candidate row has zero norm (cosine undefined).
    """
    v = np.asarray(vectors)
    if v.dtype != np.float32:
        v = v.astype(np.float64, copy=False)
    if v.ndim != 2:
        raise ValueError("expected a 2-d array of vectors")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != v.shape[1]:
        raise ValueError(f"dimension mismatch: query has {q.shape[0]}, vectors have {v.shape[1]}")

    if metric is Metric.L2:
        return np.sqrt(_sq_l2(v, q))
    if metric is Metric.MANHATTAN:
        return np.sum(np.abs(v - q), axis=1)
    if metric is Metric.INNER_PRODUCT:
        return np.sum(v * q, axis=1)
    if metric is Metric.ANGULAR:
        qn = np.sqrt(np.sum(q * q))
        if qn == 0.0:
            raise ValueError("angular distance undefined for zero query vector")
        v = v.astype(np.float64, copy=False)  # v * v must square in float64
        vn = np.sqrt(np.sum(v * v, axis=1))
        if np.any(vn == 0.0):
            raise ValueError("angular distance undefined for zero vectors")
        cos = np.clip(np.sum(v * q, axis=1) / (vn * qn), -1.0, 1.0)
        return np.sqrt(2.0 * (1.0 - cos))
    raise ValueError(f"unknown metric: {metric!r}")


def _sq_l2(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared L2 from `q` to each row (last axis): ``rows - q``, squared in place, summed."""
    diff = rows - q
    diff *= diff
    return diff.sum(axis=-1)


# Below this many candidates one full lexsort is faster than a partition plus
# a sorted cut (64 rows: 1.5 vs 5.2 us; 512 rows: 8.3 vs 6.5 us).
_CUT_MIN_ROWS = 384


def rank_order(
    metric: Metric, ids: np.ndarray, scores: np.ndarray, k: int | None = None
) -> np.ndarray:
    """Indices of the best k candidates (all when k is None), best first,
    ascending-id tie-break.

    Equal to ``np.lexsort((ids, key))[:k]``. With a cut and at least
    `_CUT_MIN_ROWS` candidates, `np.partition` finds the k-th key and only
    the rows at or below it (every tie included) are sorted; a NaN k-th key
    leaves NaNs inside the cut, which only the full sort orders.
    """
    key = -scores if metric.higher_is_closer else scores
    if k is not None and _CUT_MIN_ROWS <= len(key) and k < len(key):
        kth = np.partition(key, k - 1)[k - 1]
        if kth == kth:
            cut = np.flatnonzero(key <= kth)
            return cut[np.lexsort((ids[cut], key[cut]))][:k]
    return np.lexsort((ids, key))[:k]


def sq_row_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every row, summed in float32: the norm column of
    :func:`shortlist`, whose bound allows for this summation's rounding."""
    v = np.asarray(vectors, dtype=np.float32)
    return np.einsum("ij,ij->i", v, v)


_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_ETA32 = 2.0**-149  # smallest float32 subnormal: bounds the error of any underflowing op
_LIMIT = 2.0**60  # norms and query components below this keep float32 products finite
_MAX_DIM = 2**20  # up to here gamma_d is finite and 2**-20 covers the float64 rounding of the bound
_EVERY_ROW = slice(None)


def shortlist(
    metric: Metric,
    query: np.ndarray,
    vectors: np.ndarray,
    k: int,
    sq_norms: np.ndarray | None = None,
    max_sq_norm: float | None = None,
) -> np.ndarray | slice:
    """Rows of `vectors` that can rank among the best k by :func:`batch_scores`.

    `vectors` are float32 rows. Returns an ascending index array, or
    ``slice(None)`` when every row must be scored: for Angular and Manhattan,
    when k exceeds half the rows or the dimension 2**20, when a norm or query
    component is 2**60 or more (or NaN) so that float32 products could
    overflow, and when the shortlist would hold over half the rows. Ranking
    ``batch_scores(metric, query, vectors[rows])`` with :func:`rank_order`
    gives exactly the best k of the full scan.

    `sq_norms` is :func:`sq_row_norms` of `vectors` (L2 only) and
    `max_sq_norm` its maximum; either is computed here when not given.

    Keys. With q32 the query rounded to float32, one float32 product
    s = vectors @ q32 gives each row the key c = ||v||^2 - 2 s (L2, with the
    float32 norm column) or c = -s (inner product); the exact key
    K = ||v||^2 - 2 v.q, resp. -v.q, orders rows as batch_scores does up to
    batch_scores' own rounding, since ||v - q||^2 = K + ||q||^2.

    Bound. Let d be the dimension, u = 2**-24, g = d u / (1 - d u) (gamma_d,
    Higham, Accuracy and Stability of Numerical Algorithms, section 3.1),
    N >= max ||v||, Q = ||q32|| and R = ||q - q32||. For every row:

    - the float32 dot product, in any summation order, is within
      g sum|v_t q32_t| <= g N Q of v.q32, plus d 2**-149 if products
      underflow;
    - rounding the query moves v.q by |v.(q32 - q)| <= N R;
    - the float32 norm is within g ||v||^2 <= g N^2 of ||v||^2, plus
      d 2**-149;
    - the final float32 subtraction adds u |||v||^2 - 2 s| <=
      u (1 + g)(N^2 + 2 N Q).

    So |c - K| <= E with E = g N^2 + 2 g N Q + 2 N R + u (1 + g)(N^2 + 2 N Q)
    for L2 and E = g N Q + N R for the inner product, plus the underflow
    terms. batch_scores adds its own float64 error: with G = gamma_{d+4} in
    float64, its L2 distance squared lies within G ||v - q||^2 of the exact
    one (difference, square, d-term sum, square root), and its inner product
    within G N ||q||. Let c_k be the k-th smallest key and take as anchors the
    k rows with keys <= c_k; each has K <= c_k + E, so ||v - q||^2 <= D =
    c_k + E + ||q||^2. A row with c > c_k + 2E + F has K > K_anchor + F for
    every anchor, and F = 2 G D / (1 - G) (L2), F = 2 G N ||q|| (inner
    product) then makes batch_scores rank every anchor strictly ahead of it,
    so no tie-break can bring it into the best k. The rows kept are those
    with c <= c_k + 2E + F, the slack widened by 2**-20 of itself, which
    covers the float64 rounding of computing it, and by 16 (d + 1) 2**-149,
    which covers every underflow term, float64 ones included.
    """
    n, d = vectors.shape
    if metric not in (Metric.L2, Metric.INNER_PRODUCT) or 2 * k > n or d > _MAX_DIM:
        return _EVERY_ROW
    q = np.asarray(query, dtype=np.float64)
    if sq_norms is None and (metric is Metric.L2 or max_sq_norm is None):
        sq_norms = sq_row_norms(vectors)
    if max_sq_norm is None:
        max_sq_norm = float(sq_norms.max())
    if not (max_sq_norm < _LIMIT and np.abs(q).max() < _LIMIT):
        return _EVERY_ROW
    q32 = q.astype(np.float32)
    err = q - q32
    g = d * _U32 / (1.0 - d * _U32)
    big_g = (d + 4) * _U64 / (1.0 - (d + 4) * _U64)
    norm = math.sqrt((max_sq_norm + d * _ETA32) / (1.0 - g))  # N >= max ||v||
    nq = norm * math.sqrt(float(q32 @ q32.astype(np.float64)))  # N Q
    nr = norm * math.sqrt(float(err @ err))  # N R
    keys = vectors @ q32
    if metric is Metric.L2:
        keys *= -2.0
        keys += sq_norms
        n2 = norm * norm
        e = g * n2 + 2.0 * g * nq + 2.0 * nr + _U32 * (1.0 + g) * (n2 + 2.0 * nq)
    else:
        np.negative(keys, out=keys)
        e = g * nq + nr
    kth = float(np.partition(keys, k - 1)[k - 1])
    if metric is Metric.L2:
        reach = max(kth + e + float(q @ q), 0.0)
        f = 2.0 * big_g * reach / (1.0 - big_g)
    else:
        f = 2.0 * big_g * norm * math.sqrt(float(q @ q))
    bound = kth + (2.0 * e + f) * (1.0 + 2.0**-20) + 16 * (d + 1) * _ETA32
    # The smallest float32 >= bound: comparing float32 keys with it keeps
    # exactly the keys <= bound.
    cut = np.float32(bound)
    if cut < bound:
        cut = np.nextafter(cut, np.float32(np.inf))
    rows = np.flatnonzero(keys <= cut)
    return rows if 2 * len(rows) <= n else _EVERY_ROW
