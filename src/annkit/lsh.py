"""Binary locality-sensitive hashing with Hamming-ranked search.

Codes come from the signs of projections onto seeded Gaussian hyperplanes
through the origin. Queries rank every stored code by Hamming distance
(ascending-id tie-break); optionally the top 4*k Hamming candidates are
re-scored by exact L2, which restores exact-metric ordering inside the pool.
"""

from __future__ import annotations

import numpy as np

from .base import (
    SearchResult, VectorIndex, check_count, check_finite, check_query, check_rows, check_seed, make_result,
)
from .data import EmbeddingSet
from .distances import Metric, batch_scores, rank_order
from .wire import U32_MAX, Reader, Writer

DEFAULT_NBITS = 128
RERANK_POOL_FACTOR = 4


def code_word(width: int) -> np.dtype:
    """The widest unsigned word whose size divides a packed code of `width` bytes."""
    for word in (np.uint64, np.uint32, np.uint16):
        if width % np.dtype(word).itemsize == 0:
            return np.dtype(word)
    return np.dtype(np.uint8)


class LshIndex(VectorIndex):
    family = "lsh"

    def __init__(
        self,
        hyperplanes: np.ndarray,
        ids: np.ndarray,
        codes: np.ndarray,
        vectors: np.ndarray,
        rerank: bool = True,
    ):
        self.hyperplanes = np.asarray(hyperplanes, dtype=np.float32)
        self._ids = np.asarray(ids, dtype=np.uint64)
        # (n, ceil(nbits/8)) packed; contiguous rows so hamming_to can view them as words
        self._codes = np.ascontiguousarray(codes, dtype=np.uint8)
        self._vectors = np.asarray(vectors, dtype=np.float32)
        self.rerank = rerank

    @property
    def nbits(self) -> int:
        return self.hyperplanes.shape[0]

    @property
    def dim(self) -> int:
        return self.hyperplanes.shape[1]

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def encode_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Packed sign codes, one row per vector: bit i set iff dot(h_i, v) >= 0."""
        arr = check_rows("vectors", np.asarray(vectors, dtype=np.float64), self.dim)
        bits = arr @ self.hyperplanes.astype(np.float64).T >= 0.0
        return np.packbits(bits, axis=1)

    def hamming_to(self, query_code: np.ndarray) -> np.ndarray:
        """Hamming distance from one packed code to every stored code.

        The stored codes are viewed, without a copy, as columns of the widest
        word that tiles a code (uint64 at 128 bits); each column is XORed with
        the query's word and popcounted into an int64 total.
        """
        width = self._codes.shape[1]
        query = np.ascontiguousarray(query_code, dtype=np.uint8)
        if query.shape != (width,):
            raise ValueError(f"query code must be {width} packed bytes, got shape {query.shape}")
        word = code_word(width)
        codes, query = self._codes.view(word), query.view(word)
        total = np.zeros(len(codes), dtype=np.int64)
        for j, part in enumerate(query):
            total += np.bitwise_count(codes[:, j] ^ part)
        return total

    def search(self, query: np.ndarray, k: int, rerank: bool | None = None) -> SearchResult:
        q = check_query(query, k, self.dim)
        rerank = self.rerank if rerank is None else _check_rerank(rerank)
        hamming = self.hamming_to(self.encode_batch(q[np.newaxis, :])[0])
        if not rerank:
            return make_result(Metric.L2, self._ids, hamming.astype(np.float64), k)
        pool = rank_order(Metric.L2, self._ids, hamming, RERANK_POOL_FACTOR * k)
        scores = batch_scores(Metric.L2, q, self._vectors[pool])
        return make_result(Metric.L2, self._ids[pool], scores, k)

    # ------------------------------------------------------------ persistence

    def write_payload(self, w: Writer) -> None:
        w.u32(self.nbits)
        w.u32(self.dim)
        w.u8(1 if self.rerank else 0)
        w.u64(len(self._ids))
        w.f32_array(self.hyperplanes)
        w.u64_array(self._ids)
        w.u8_array(self._codes)
        w.f32_array(self._vectors)

    @classmethod
    def read_payload(cls, r: Reader) -> "LshIndex":
        nbits = check_count("nbits", r.u32())
        dim = check_count("dim", r.u32())
        rerank = r.u8()
        if rerank > 1:
            raise ValueError(f"rerank byte must be 0 or 1, got {rerank}")
        count = r.u64()
        hyperplanes = r.f32_array(nbits * dim).reshape(nbits, dim)
        check_finite("hyperplanes", hyperplanes)
        ids = r.u64_array(count)
        code_bytes = (nbits + 7) // 8
        codes = r.u8_array(count * code_bytes).reshape(count, code_bytes)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        return cls(hyperplanes, ids, codes, vectors, bool(rerank))


def _check_rerank(rerank: bool) -> bool:
    """`rerank`, after a ValueError unless it is a bool."""
    if not isinstance(rerank, bool):
        raise ValueError(f"rerank must be a bool, got {rerank!r}")
    return rerank


def lsh_build(
    emb_set: EmbeddingSet,
    nbits: int = DEFAULT_NBITS,
    seed: int = 0,
    rerank: bool = True,
) -> LshIndex:
    """Sample nbits Gaussian hyperplanes and code every record.

    Codes depend only on (seed, vector), never on insertion order.
    """
    check_rows("vectors", emb_set.vectors, nonempty=True)
    check_count("nbits", nbits, U32_MAX)
    _check_rerank(rerank)
    rng = np.random.default_rng(check_seed(seed))
    planes = rng.standard_normal((nbits, emb_set.dim)).astype(np.float32)
    index = LshIndex(
        planes,
        emb_set.ids.copy(),
        np.empty((len(emb_set), (nbits + 7) // 8), dtype=np.uint8),
        emb_set.vectors.copy(),
        rerank,
    )
    index._codes = index.encode_batch(emb_set.vectors)
    return index
