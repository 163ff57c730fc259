"""Vector metrics and the shared deterministic scoring path.

Every index family funnels its candidate scoring through :func:`batch_scores`
so that equivalence between an exhaustive scan and a full-probe / full-budget
approximate search holds bit-for-bit: same float64 accumulation, same per-row
reduction, same ascending-id tie-break.

Exact L2 and inner-product k-NN puts a shortlist stage in front of that
path. One kernel, :func:`_cuts`, ranks every row by float32 keys from one
float32 product of a block of queries with the rows and keeps only the rows
that a proven rounding bound cannot rule out of each query's best k. Its
one-query case, :func:`shortlist`, serves flat-l2, flat-ip, the ivf-flat
lists and `exact_search` / `ground_truth`; its all-rows case,
:func:`_nearest_rows`, builds every HNSW level. IVF-SQ keys its codes instead
(`sq._code_shortlist`). Both hand their float32 keys and their error bounds
to one cut, :func:`_proven_cut`, which holds the bound's argument. The rows
kept are scored by :func:`batch_scores` (`_sq_l2` for the HNSW pass) and
ranked exactly as a full scan ranks them, so scores and order are unchanged.
Angular and Manhattan scans, and every other approximate family, score all
of their candidates.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum

import numpy as np

from . import base  # base imports this module; its rules are looked up at call time


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

    Raises ValueError unless `vectors` pass `base.check_rows` with the
    query's width, and for Angular when the query or any candidate row has
    zero norm (cosine undefined).
    """
    v = np.asarray(vectors)
    if v.dtype != np.float32:
        v = v.astype(np.float64, copy=False)
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    base.check_rows("vectors", v, len(q))

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
    :func:`_cuts`, whose bound allows for this summation's rounding."""
    v = np.asarray(vectors, dtype=np.float32)
    return np.einsum("ij,ij->i", v, v)


_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_ETA32 = 2.0**-149  # smallest float32 subnormal: bounds the error of any underflowing op
_F32_MAX = float(np.finfo(np.float32).max)
_LIMIT = 2.0**60  # norms and query components below this keep float32 products finite
_MAX_DIM = 2**20  # up to here gamma_d is finite and 2**-20 covers the float64 rounding of the bound
_EVERY_ROW = slice(None)
# Keys per block of :func:`_cuts`: a (queries, rows) float32 block stays at 2 MB.
_BLOCK_KEYS = 2**19


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u): an n-term dot product rounded with unit
    roundoff u, in any summation order, is within gamma_n times its absolute
    sum of the exact one (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1)."""
    return n * u / (1.0 - n * u)


def _norm_bound(d: int, max_sq_norm: float) -> float | None:
    """N >= the norm of every d-dimensional row whose :func:`sq_row_norms`
    value is at most `max_sq_norm`, or None when float32 products with such
    rows could overflow (d over 2**20, or `max_sq_norm` 2**60 or more, or NaN).

    The float32 squared norm is within gamma_d ||v||^2 of ||v||^2, plus
    d 2**-149 if products underflow.
    """
    if not (d <= _MAX_DIM and max_sq_norm < _LIMIT):
        return None
    return math.sqrt((max_sq_norm + d * _ETA32) / (1.0 - _gamma(d, _U32)))


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
    and wherever :func:`_cuts` yields every row. Ranking
    ``batch_scores(metric, query, vectors[rows])`` with :func:`rank_order`
    gives exactly the best k of the full scan.

    `sq_norms` is :func:`sq_row_norms` of `vectors` (L2 only) and
    `max_sq_norm` its maximum; both are computed here when `max_sq_norm` is
    not given.
    """
    if metric not in (Metric.L2, Metric.INNER_PRODUCT) or 2 * k > len(vectors):
        return _EVERY_ROW
    if max_sq_norm is None:
        sq_norms = sq_row_norms(vectors)
        max_sq_norm = float(sq_norms.max())
    queries = np.asarray(query, dtype=np.float64)[np.newaxis]
    return next(_cuts(queries, vectors, k, max_sq_norm, sq_norms if metric is Metric.L2 else None))


def _cuts(
    queries: np.ndarray, vectors: np.ndarray, k: int, max_sq_norm: float,
    sq_norms: np.ndarray | None = None, own: bool = False,
) -> Iterator[np.ndarray | slice]:
    """For each query in turn, the rows of `vectors` that can rank among its
    best k by :func:`batch_scores`, or ``slice(None)`` for every row.

    `queries` (2-d, float64 or float32) and `vectors` (float32) have the
    dimension d, and `max_sq_norm` is the largest :func:`sq_row_norms` of
    `vectors`. Rows rank by L2 when `sq_norms`, that norm column, is given and
    by inner product when it is not. With `own` the queries are `vectors`
    themselves and no query keeps its own row. Every row is yielded when k
    exceeds half the rows, when :func:`_norm_bound` gives no N, for each
    query of a block that holds a component of 2**60 or more (or NaN), and
    where :func:`_proven_cut` returns every row.

    Keys. Each block of queries, rounded to float32, makes one float32
    product with every row (at most `_BLOCK_KEYS` keys). With q32 a query so
    rounded and s = v.q32 from that product, a row's key is
    c = ||v||^2 - 2 s (L2, with the float32 norm column) or c = -s (inner
    product), and +inf for a query's own row. The exact key is
    K = ||v||^2 - 2 v.q, with ||v - q||^2 = K + Z and Z = ||q||^2 (L2), resp.
    K = -v.q. Let u = 2**-24, g = gamma_d for u (:func:`_gamma`),
    N >= max ||v|| (:func:`_norm_bound`), Q = ||q32|| and R = ||q - q32||.
    For every row:

    - the float32 dot product, in any summation order, is within
      g sum|v_t q32_t| <= g N Q of v.q32, plus d 2**-149 if products
      underflow;
    - rounding the query moves v.q by |v.(q32 - q)| <= N R;
    - the float32 norm is within g ||v||^2 <= g N^2 of ||v||^2, plus
      d 2**-149;
    - the final float32 subtraction adds u |||v||^2 - 2 s| <=
      u (1 + g)(N^2 + 2 N Q).

    So |c - K| <= E with E = g N^2 + 2 g N Q + 2 N R + u (1 + g)(N^2 + 2 N Q)
    for L2 and E = g N Q + N R for the inner product, up to underflow terms;
    a stored row is its own float32 query, so R = 0 there. The scored rows
    are the stored ones (Ed = 0).
    """
    n, d = vectors.shape
    norm = _norm_bound(d, max_sq_norm) if 2 * k <= n else None
    l2, g, step = sq_norms is not None, _gamma(d, _U32), max(1, _BLOCK_KEYS // max(n, 1))
    for lo in range(0, len(queries), step):
        q = np.asarray(queries[lo : lo + step], dtype=np.float64)
        if norm is None or not np.abs(q).max() < _LIMIT:
            yield from [_EVERY_ROW] * len(q)
            continue
        q32 = q.astype(np.float32)
        # Z, Q^2 and R^2 of each query
        zs, q2s, r2s = (np.vecdot(a, a, dtype=np.float64).tolist() for a in (q, q32, q - q32))
        keys = q32 @ vectors.T
        keys *= -2.0 if l2 else -1.0
        if l2:
            keys += sq_norms
        if own:
            keys[np.arange(len(q)), np.arange(lo, lo + len(q))] = np.inf
        for i in range(len(q)):
            nq, nr = norm * math.sqrt(q2s[i]), norm * math.sqrt(r2s[i])  # N Q, N R
            e = g * nq + nr  # E of the inner product; L2 doubles it and adds the norm terms
            if l2:
                n2 = norm * norm
                e = 2.0 * e + g * n2 + _U32 * (1.0 + g) * (n2 + 2.0 * nq)
            z, norm_q = (zs[i], 0.0) if l2 else (None, norm * math.sqrt(zs[i]))
            yield _proven_cut(keys[i], k, d, e, z, norm_q=norm_q)


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

    The cut of :func:`_cuts` and ``sq._code_shortlist``; lower keys rank
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
    big_g = _gamma(d + 4, _U64)
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


def _nearest_rows(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows (all of them when fewer), nearest
    first, and their distances: two (n, min(k, n - 1)) arrays, the rows as
    intp and the distances as float64.

    `vectors` are float32 rows. Rows are ranked by `_sq_l2` of the float32
    rows against the row in float64, ties by row: the ranking a full sort of
    every other row gives. :func:`_cuts` with every row as its own query
    keeps the rows that can rank among its k, and only they are scored;
    where it yields every row, every other row is scored.
    """
    n = len(vectors)
    k = max(min(k, n - 1), 0)
    nearest, dists = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    if k == 0:
        return nearest, dists
    sq_norms = sq_row_norms(vectors)
    for i, rows in enumerate(_cuts(vectors, vectors, k, float(sq_norms.max()), sq_norms, own=True)):
        if rows is _EVERY_ROW:
            rows = np.delete(np.arange(n), i)
        dist = _sq_l2(vectors[rows], vectors[i].astype(np.float64))
        kept = np.lexsort((rows, dist))[:k]
        nearest[i], dists[i] = rows[kept], dist[kept]
    return nearest, dists
