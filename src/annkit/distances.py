"""Vector metrics and the shared deterministic scoring path.

Every index family funnels its candidate scoring through :func:`batch_scores`
so that equivalence between an exhaustive scan and a full-probe / full-budget
approximate search holds bit-for-bit: same float64 accumulation, same per-row
reduction, same ascending-id tie-break.

Exact L2 and inner-product scans (flat-l2, flat-ip, ivf-flat lists, and
`exact_search` / `ground_truth`) put a shortlist stage in front of that path:
:func:`shortlist` ranks every row by one float32 matrix-vector product and
keeps only the rows that a proven rounding bound cannot rule out of the best
k. IVF-SQ does the same on keys computed from its codes (`sq._code_shortlist`).
Both hand their float32 keys and their error bounds to one cut,
:func:`_proven_cut`, which holds the bound's argument. The rows kept are
scored by :func:`batch_scores` and ranked by :func:`rank_order` exactly as
before, so scores and order are unchanged. Angular and Manhattan scans, and
every other approximate family, score all of their candidates.
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
    return np.add.reduce(diff, axis=-1)


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
_F32_MAX = float(np.finfo(np.float32).max)
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
    overflow, and where :func:`_proven_cut` returns every row. Ranking
    ``batch_scores(metric, query, vectors[rows])`` with :func:`rank_order`
    gives exactly the best k of the full scan.

    `sq_norms` is :func:`sq_row_norms` of `vectors` (L2 only) and
    `max_sq_norm` its maximum; either is computed here when not given.

    Keys. With q32 the query rounded to float32, one float32 product
    s = vectors @ q32 gives each row the key c = ||v||^2 - 2 s (L2, with the
    float32 norm column) or c = -s (inner product). The exact key is
    K = ||v||^2 - 2 v.q, with ||v - q||^2 = K + Z and Z = ||q||^2 (L2), resp.
    K = -v.q. Let d be the dimension, u = 2**-24, g = d u / (1 - d u)
    (gamma_d, Higham, Accuracy and Stability of Numerical Algorithms, section
    3.1), N >= max ||v||, Q = ||q32|| and R = ||q - q32||. For every row:

    - the float32 dot product, in any summation order, is within
      g sum|v_t q32_t| <= g N Q of v.q32, plus d 2**-149 if products
      underflow;
    - rounding the query moves v.q by |v.(q32 - q)| <= N R;
    - the float32 norm is within g ||v||^2 <= g N^2 of ||v||^2, plus
      d 2**-149;
    - the final float32 subtraction adds u |||v||^2 - 2 s| <=
      u (1 + g)(N^2 + 2 N Q).

    So |c - K| <= E with E = g N^2 + 2 g N Q + 2 N R + u (1 + g)(N^2 + 2 N Q)
    for L2 and E = g N Q + N R for the inner product, up to underflow terms.
    The scored rows are the stored ones (Ed = 0).
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
    norm = math.sqrt((max_sq_norm + d * _ETA32) / (1.0 - g))  # N >= max ||v||
    nq = norm * math.sqrt(float(q32 @ q32.astype(np.float64)))  # N Q
    nr = norm * math.sqrt(float(err @ err))  # N R
    keys = vectors @ q32
    if metric is Metric.INNER_PRODUCT:
        np.negative(keys, out=keys)
        return _proven_cut(keys, k, d, g * nq + nr, norm_q=norm * math.sqrt(float(q @ q)))
    keys *= -2.0
    keys += sq_norms
    return _proven_cut(keys, k, d, _l2_key_error(g, norm, nq, nr), z=float(q @ q))


def _l2_key_error(g, norm, nq, nr):
    """E of the L2 keys in :func:`shortlist`, from gamma_d, N, N Q and N R
    (floats, or arrays of them)."""
    n2 = norm * norm
    return g * n2 + 2.0 * g * nq + 2.0 * nr + _U32 * (1.0 + g) * (n2 + 2.0 * nq)


def _proven_cut(
    keys: np.ndarray,
    k: int,
    d: int,
    e: float,
    z: float | None = None,
    ed: float = 0.0,
    norm_q: float = 0.0,
) -> np.ndarray | slice:
    """Rows whose float32 key can rank among the best k, or ``slice(None)``.

    The cut of :func:`shortlist` and ``sq._code_shortlist``; lower keys rank
    closer. For L2 (`z` given) each row stands for a real point w with
    ||w - q||^2 = K + z, and its scored vector lies within `ed` of w. For the
    inner product (`z` None) K = -v.q, and `norm_q` >= N ||q|| with N >= every
    row's norm. Each key c is within `e` of its K up to underflow terms, and
    d <= 2**20 is the dimension.

    batch_scores adds its own float64 error: with G = gamma_{d+4} in float64
    (difference, square, d-term sum, square root), its L2 distance squared
    lies within G ||v - q||^2 of the exact one, and its inner product within
    G N ||q||. Take as anchors the k rows with keys <= c_k, the k-th smallest.
    For L2 each anchor has ||w - q||^2 <= R^2 = c_k + E + Z and a computed
    squared score of at most (1 + G)(R + Ed)^2, while a row with key c has
    ||w - q||^2 >= c - E + Z and a computed squared score of at least
    (1 - G)(||w - q|| - Ed)^2. With l = sqrt((1 + G) / (1 - G)), the row
    ranks strictly behind every anchor once c > c_k + 2 E + F, where
    F = 2 G / (1 - G) R^2 + 2 l (1 + l) R Ed + (1 + l)^2 Ed^2. For the inner
    product F = 2 G N ||q|| does the same. So no tie-break can bring such a
    row into the best k.

    R^2 is raised by 2**-30 of its terms (the float64 rounding of Z and the
    sum), and the slack 2 E + F by 2**-20 of itself (its float64 rounding)
    and by 2**17 (d + 1) 2**-149 (every underflow term, sq's float32 weights
    included). The keys kept are those <= the smallest float32 >= the bound.
    Every row is returned when the bound reaches float32's maximum or when
    over half the rows would be kept.
    """
    n = len(keys)
    kth = float(np.partition(keys, k - 1)[k - 1])
    big_g = (d + 4) * _U64 / (1.0 - (d + 4) * _U64)
    if z is None:
        f = 2.0 * big_g * norm_q
    else:
        r2 = max(kth + e + z, 0.0) + 2.0**-30 * (abs(kth) + e + z)
        lam = math.sqrt((1.0 + big_g) / (1.0 - big_g))
        f = (
            2.0 * big_g / (1.0 - big_g) * r2
            + 2.0 * lam * (1.0 + lam) * math.sqrt(r2) * ed
            + (1.0 + lam) ** 2 * ed * ed
        )
    bound = kth + (2.0 * e + f) * (1.0 + 2.0**-20) + 2**17 * (d + 1) * _ETA32
    if not bound < _F32_MAX:
        return _EVERY_ROW
    # The smallest float32 >= bound. The test runs in float64: numpy compares
    # a float32 with a Python float in float32, where the two are equal.
    cut = np.float32(bound)
    if float(cut) < bound:
        cut = np.nextafter(cut, np.float32(np.inf))
    rows = np.flatnonzero(keys <= cut)
    return rows if 2 * len(rows) <= n else _EVERY_ROW


# Keys per block of :func:`_nearest_rows`: a (rows, n) float32 block stays at 2 MB.
_BLOCK_KEYS = 2**19


def _nearest_rows(vectors: np.ndarray, k: int) -> list[list[int]]:
    """Each row's k nearest other rows (all of them when fewer), nearest first.

    `vectors` are float32 rows. Rows are ranked by `_sq_l2` of the float32
    rows against the row in float64, ties by row: the ranking a full sort of
    every other row gives. The keys of :func:`shortlist` for a block of rows
    come from one float32 product with every row, a row's own key is +inf,
    and :func:`_proven_cut` keeps only the rows that can rank among its k;
    only they are scored. A stored row is its own float32 query, so R = 0.
    Where the shortlist would scan every row (2 k > n, a huge dimension or
    norm), every other row is scored.
    """
    n, d = vectors.shape
    k = min(k, n - 1)
    if k <= 0:
        return [[] for _ in range(n)]
    sq_norms = sq_row_norms(vectors)
    max_sq_norm = float(sq_norms.max())
    keyed = 2 * k <= n and d <= _MAX_DIM and max_sq_norm < _LIMIT
    g = d * _U32 / (1.0 - d * _U32)
    norm = math.sqrt((max_sq_norm + d * _ETA32) / (1.0 - g))
    every = np.arange(n)
    nearest = []
    step = max(1, _BLOCK_KEYS // n)
    for lo in range(0, n, step):
        block = vectors[lo : lo + step]
        block64 = block.astype(np.float64)
        z = np.einsum("ij,ij->i", block64, block64)
        if keyed:
            e = _l2_key_error(g, norm, norm * np.sqrt(z), 0.0).tolist()
            keys = block @ vectors.T
            keys *= -2.0
            keys += sq_norms
            keys[np.arange(len(block)), np.arange(lo, lo + len(block))] = np.inf
        for i, x in enumerate(block64):
            rows = _proven_cut(keys[i], k, d, e[i], z=float(z[i])) if keyed else _EVERY_ROW
            if rows is _EVERY_ROW:
                rows = np.delete(every, lo + i)
            dist = _sq_l2(vectors[rows], x)
            nearest.append(rows[np.lexsort((rows, dist))[:k]].tolist())
    return nearest
