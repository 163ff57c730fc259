"""Vector metrics and the shared deterministic scoring path.

Every index family funnels its candidate scoring through :func:`batch_scores`
so that equivalence between an exhaustive scan and a full-probe / full-budget
approximate search holds bit-for-bit: same float64 accumulation, same per-row
reduction, same ascending-id tie-break.
"""

from __future__ import annotations

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
        diff = v - q
        return np.sqrt(np.sum(diff * diff, axis=1))
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


def distance(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.float32:
    """Score a single pair of vectors; returned as a 32-bit float.

    L2 is the Euclidean norm of (a - b), Manhattan the sum of absolute
    component differences, Angular is sqrt(2 * (1 - cosine)) with the cosine
    clamped into [-1, 1], and InnerProduct is the dot product reported as a
    similarity.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("vectors must have finite components")
    return np.float32(batch_scores(metric, a, b[np.newaxis, :])[0])


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||2 as float32; raises on a zero vector."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    norm = np.sqrt(np.sum(arr * arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return (arr / norm).astype(np.float32)


def rank_order(metric: Metric, ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices that sort candidates best-first with ascending-id tie-break."""
    key = -scores if metric.higher_is_closer else scores
    return np.lexsort((ids, key))
