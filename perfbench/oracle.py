"""Exact neighbor oracle and the output checks, written against numpy alone.

The oracle scores with the same float64 per-row arithmetic as annkit's shared
scoring path, so exhaustive families must match it bit for bit: same ids,
same float32 scores. A BLAS product shortlists each query's candidates first;
rows within a wide tolerance of the k-th shortlist score are re-scored exactly
and ranked best-first with the ascending-id tie-break.
"""

from __future__ import annotations

import numpy as np

# Slack on the shortlist cut-off, far above the rounding error of the BLAS
# expansion and far below the gap between distinct neighbor scores.
_SHORTLIST_SLACK = 1e-9
_QUERY_CHUNK = 64


def exact_scores(metric: str, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """float64 scores of one query against rows; higher is closer for ``ip``."""
    v = np.asarray(vectors, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if metric == "l2":
        diff = v - q
        return np.sqrt(np.sum(diff * diff, axis=1))
    if metric == "ip":
        return np.sum(v * q, axis=1)
    if metric == "angular":
        vn = np.sqrt(np.sum(v * v, axis=1))
        cos = np.clip(np.sum(v * q, axis=1) / (vn * np.sqrt(np.sum(q * q))), -1.0, 1.0)
        return np.sqrt(2.0 * (1.0 - cos))
    raise ValueError(f"unknown metric {metric!r}")


def rank_key(metric: str, scores: np.ndarray) -> np.ndarray:
    """Scores turned into an ascending sort key (best first)."""
    return -scores if metric == "ip" else scores


def _approx_keys(metric: str, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float64)
    v = np.asarray(vectors, dtype=np.float64)
    dots = q @ v.T
    if metric == "l2":
        return np.sum(q * q, axis=1)[:, None] - 2.0 * dots + np.sum(v * v, axis=1)[None, :]
    if metric == "ip":
        return -dots
    if metric == "angular":
        qn = np.sqrt(np.sum(q * q, axis=1))[:, None]
        return -dots / (qn * np.sqrt(np.sum(v * v, axis=1))[None, :])
    raise ValueError(f"unknown metric {metric!r}")


class Oracle:
    """Exact top-k over a fixed table of stored vectors."""

    def __init__(self, metric: str, ids: np.ndarray, vectors: np.ndarray):
        self.metric = metric
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.vectors64 = np.asarray(vectors, dtype=np.float64)

    def keys(self, queries: np.ndarray) -> np.ndarray:
        """Approximate rank keys, queries x rows (chunked to bound memory)."""
        return np.concatenate(
            [
                _approx_keys(self.metric, queries[i : i + _QUERY_CHUNK], self.vectors64)
                for i in range(0, len(queries), _QUERY_CHUNK)
            ]
        )

    def topk(
        self, query: np.ndarray, keys: np.ndarray, k: int, present: np.ndarray | None = None
    ) -> tuple[list[int], np.ndarray]:
        """Exact best-k ids and float64 scores among rows (``present`` masks rows)."""
        if present is not None:
            keys = np.where(present, keys, np.inf)
        k = min(k, int(np.isfinite(keys).sum()))
        cut = np.partition(keys, k - 1)[k - 1]
        rows = np.flatnonzero(keys <= cut + _SHORTLIST_SLACK * max(1.0, abs(cut)))
        scores = exact_scores(self.metric, query, self.vectors64[rows])
        order = np.lexsort((self.ids[rows], rank_key(self.metric, scores)))[:k]
        return self.ids[rows[order]].tolist(), scores[order]


def failure(res, k: int) -> str | None:
    """Why a returned result counts as a failed operation, or None."""
    if len(res) < k:
        return f"{len(res)} ids returned for k={k}"
    if not np.all(np.isfinite(res.scores)):
        return "non-finite score"
    return None


def order_error(res, metric: str, rescore) -> str | None:
    """Why a result breaks the ranking contract, or None.

    Ids must be distinct and in score order, ties broken by ascending id.
    Reported scores are float32 narrowings of float64 scores, so two distinct
    float64 scores can narrow to one float32 value; an equal pair with
    descending ids is settled with ``rescore(ids) -> float64 scores``.
    """
    ids = res.ids
    if len(set(ids)) != len(ids):
        return "duplicate ids"
    keys = rank_key(metric, np.asarray(res.scores, dtype=np.float64))
    for i in range(len(ids) - 1):
        if keys[i + 1] < keys[i]:
            return f"scores out of order at rank {i}"
        if keys[i + 1] == keys[i] and ids[i + 1] < ids[i]:
            exact = rank_key(metric, rescore(ids[i : i + 2]))
            if not exact[0] < exact[1]:
                return f"tie at rank {i} not broken by ascending id"
    return None


def recall(ids: list[int], truth: list[int]) -> float:
    return len(set(ids) & set(truth)) / len(truth)
