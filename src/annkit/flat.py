"""Exhaustive-scan search: the two flat index families and the exact oracle.

Every exact scan is a flat search: a `shortlist` of the stored rows, scored
by `batch_scores` and ranked by `make_result`. `exact_search` and
`ground_truth` run it over a whole set in any metric (`_Oracle`), and drop
the query's own id only through `search_excluding`.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (
    SearchResult, VectorIndex, check_count, check_finite, check_query, check_rows, make_result,
    search_excluding,
)
from .data import EmbeddingSet
from .distances import Metric, batch_scores, shortlist, sq_row_norms
from .wire import Reader, Writer


def exact_search(
    emb_set: EmbeddingSet,
    query: np.ndarray,
    k: int,
    metric: Metric = Metric.L2,
    exclude: int | None = None,
) -> SearchResult:
    """Score every record and return the k best, ascending-id tie-break.

    `exclude` drops a single id (the query itself) as `search_excluding`
    does. If fewer than k candidates remain, all of them are returned. The
    query and k pass the same gate as every index search.
    """
    if len(emb_set) == 0:
        raise ValueError("cannot search an empty set")
    oracle = _Oracle(emb_set, metric)
    if exclude is None:
        return oracle.search(query, k)
    return search_excluding(oracle, query, k, exclude)


def ground_truth(
    emb_set: EmbeddingSet,
    query_ids: np.ndarray,
    n: int,
    metric: Metric = Metric.L2,
) -> dict[int, list[int]]:
    """True n nearest ids per query id, query excluded from its own result."""
    oracle = _Oracle(emb_set, metric)
    out: dict[int, list[int]] = {}
    for qid in np.asarray(query_ids).tolist():
        row = emb_set.row_of(qid)  # raises KeyError for unknown ids and non-ids
        out[qid] = search_excluding(oracle, emb_set.vectors[row], n, qid).ids
    return out


class _FlatIndex(VectorIndex):
    """Common storage for the exhaustive families: ids plus raw vectors."""

    def __init__(self, ids: np.ndarray, vectors: np.ndarray):
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._vectors = np.asarray(vectors, dtype=np.float32)
        # The shortlist's norm column (L2 only) and its maximum, made on build and load.
        sq_norms = sq_row_norms(self._vectors)
        self._max_sq_norm = float(sq_norms.max(initial=0.0))
        # NaN or inf in a row makes the maximum NaN or inf; finite rows rarely do.
        if not math.isfinite(self._max_sq_norm):
            check_finite("stored vectors", self._vectors)
        self._sq_norms = sq_norms if self.metric is Metric.L2 else None

    @classmethod
    def build(cls, emb_set: EmbeddingSet) -> "_FlatIndex":
        check_rows("vectors", emb_set.vectors, nonempty=True)
        return cls(emb_set.ids.copy(), emb_set.vectors.copy())

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        q = check_query(query, k, self.dim)
        rows = shortlist(self.metric, q, self._vectors, k, self._sq_norms, self._max_sq_norm)
        scores = batch_scores(self.metric, q, self._vectors[rows])
        return make_result(self.metric, self._ids[rows], scores, k)

    # VIDX payload: dim, count, ids, vectors.
    def write_payload(self, w: Writer) -> None:
        w.u32(self.dim)
        w.u64(len(self))
        w.u64_array(self._ids)
        w.f32_array(self._vectors)

    @classmethod
    def read_payload(cls, r: Reader) -> "_FlatIndex":
        dim = check_count("dim", r.u32())
        count = r.u64()
        ids = r.u64_array(count)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        return cls(ids, vectors)


class FlatL2Index(_FlatIndex):
    """Exhaustive Euclidean scan; exact by construction."""

    family = "flat-l2"


class FlatIPIndex(_FlatIndex):
    """Exhaustive dot-product scan; intended for normalized vectors."""

    family = "flat-ip"
    metric = Metric.INNER_PRODUCT


class _Oracle(_FlatIndex):
    """A flat scan of a whole set in any metric, sharing the set's arrays."""

    def __init__(self, emb_set: EmbeddingSet, metric: Metric):
        self.metric = Metric(metric)
        _FlatIndex.__init__(self, emb_set.ids, emb_set.vectors)
