"""Exhaustive-scan search: the exact baseline and the two flat index families."""

from __future__ import annotations

import numpy as np

from .base import SearchResult, VectorIndex, make_result
from .data import EmbeddingSet
from .distances import Metric, batch_scores
from .wire import Reader, Writer


def exact_search(
    emb_set: EmbeddingSet,
    query: np.ndarray,
    k: int,
    metric: Metric = Metric.L2,
    exclude: int | None = None,
) -> SearchResult:
    """Score every record and return the k best, ascending-id tie-break.

    `exclude` drops a single id (the query itself) before ranking. If fewer
    than k candidates remain, all of them are returned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(emb_set) == 0:
        raise ValueError("cannot search an empty set")
    ids = emb_set.ids
    scores = batch_scores(metric, query, emb_set.vectors64)
    if exclude is not None:
        keep = ids != np.uint64(exclude)
        ids, scores = ids[keep], scores[keep]
    return make_result(metric, ids, scores, k)


def ground_truth(
    emb_set: EmbeddingSet,
    query_ids: np.ndarray,
    n: int,
    metric: Metric = Metric.L2,
) -> dict[int, list[int]]:
    """True n nearest ids per query id, query excluded from its own result."""
    out: dict[int, list[int]] = {}
    for qid in np.asarray(query_ids).tolist():
        qid = int(qid)
        row = emb_set.row_of(qid)  # raises KeyError for unknown ids
        res = exact_search(emb_set, emb_set.vectors[row], n, metric, exclude=qid)
        out[qid] = res.ids
    return out


class _FlatIndex(VectorIndex):
    """Common storage for the exhaustive families: ids plus raw vectors."""

    def __init__(self, ids: np.ndarray, vectors: np.ndarray):
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._vectors = np.asarray(vectors, dtype=np.float32)

    @classmethod
    def build(cls, emb_set: EmbeddingSet) -> "_FlatIndex":
        if len(emb_set) == 0:
            raise ValueError("cannot build an index over an empty set")
        return cls(emb_set.ids.copy(), emb_set.vectors.copy())

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    def __len__(self) -> int:
        return len(self._ids)

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = batch_scores(self.metric, query, self._vectors)
        return make_result(self.metric, self._ids, scores, k)

    def memory_bytes(self) -> int:
        return self._ids.nbytes + self._vectors.nbytes

    def config(self) -> dict:
        return {}

    # VIDX payload: dim, count, ids, vectors.
    def write_payload(self, w: Writer) -> None:
        w.u32(self.dim)
        w.u64(len(self))
        w.u64_array(self._ids)
        w.f32_array(self._vectors)

    @classmethod
    def read_payload(cls, r: Reader) -> "_FlatIndex":
        dim = r.u32()
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
