"""Binary locality-sensitive hashing with Hamming-ranked search.

Codes come from the signs of projections onto seeded Gaussian hyperplanes
through the origin. Queries rank every stored code by Hamming distance
(ascending-id tie-break); optionally the top 4*k Hamming candidates are
re-scored by exact L2, which restores exact-metric ordering inside the pool.
"""

from __future__ import annotations

import numpy as np

from .base import SearchResult, VectorIndex, make_result
from .data import EmbeddingSet
from .distances import Metric, batch_scores
from .wire import Reader, Writer

DEFAULT_NBITS = 128
RERANK_POOL_FACTOR = 4

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


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
        self._codes = np.asarray(codes, dtype=np.uint8)  # (n, ceil(nbits/8)) packed
        self._vectors = np.asarray(vectors, dtype=np.float32)
        self.rerank = rerank

    @property
    def nbits(self) -> int:
        return self.hyperplanes.shape[0]

    @property
    def dim(self) -> int:
        return self.hyperplanes.shape[1]

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, v: np.ndarray) -> np.ndarray:
        """Packed sign code of one vector: bit i set iff dot(h_i, v) >= 0."""
        return self.encode_batch(np.asarray(v, dtype=np.float64)[np.newaxis, :])[0]

    def encode_batch(self, vectors: np.ndarray) -> np.ndarray:
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError("vectors must be 2-d with the index dimension")
        bits = arr @ self.hyperplanes.astype(np.float64).T >= 0.0
        return np.packbits(bits, axis=1)

    def hamming_to(self, query_code: np.ndarray) -> np.ndarray:
        """Hamming distance from one packed code to every stored code."""
        xor = np.bitwise_xor(self._codes, np.asarray(query_code, dtype=np.uint8))
        return _POPCOUNT[xor].sum(axis=1).astype(np.int64)

    def search(self, query: np.ndarray, k: int, rerank: bool | None = None) -> SearchResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        rerank = self.rerank if rerank is None else rerank
        hamming = self.hamming_to(self.encode(query))
        if not rerank:
            return make_result(Metric.L2, self._ids, hamming.astype(np.float64), k)
        pool = np.lexsort((self._ids, hamming))[: RERANK_POOL_FACTOR * k]
        scores = batch_scores(Metric.L2, query, self._vectors[pool])
        return make_result(Metric.L2, self._ids[pool], scores, k)

    def memory_bytes(self) -> int:
        return (
            self.hyperplanes.nbytes
            + self._ids.nbytes
            + self._codes.nbytes
            + self._vectors.nbytes
        )

    def config(self) -> dict:
        return {"nbits": self.nbits, "rerank": self.rerank}

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
        nbits = r.u32()
        dim = r.u32()
        rerank = bool(r.u8())
        count = r.u64()
        hyperplanes = r.f32_array(nbits * dim).reshape(nbits, dim)
        ids = r.u64_array(count)
        code_bytes = (nbits + 7) // 8
        codes = r.u8_array(count * code_bytes).reshape(count, code_bytes)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        return cls(hyperplanes, ids, codes, vectors, rerank)


def lsh_build(
    emb_set: EmbeddingSet,
    nbits: int = DEFAULT_NBITS,
    seed: int = 0,
    rerank: bool = True,
) -> LshIndex:
    """Sample nbits Gaussian hyperplanes and code every record.

    Codes depend only on (seed, vector), never on insertion order.
    """
    if len(emb_set) == 0:
        raise ValueError("cannot build an index over an empty set")
    if nbits < 1:
        raise ValueError("nbits must be >= 1")
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((nbits, emb_set.dim)).astype(np.float32)
    index = LshIndex(
        planes,
        emb_set.ids.copy(),
        np.empty((len(emb_set), (nbits + 7) // 8), dtype=np.uint8),
        emb_set.vectors.copy(),
        rerank,
    )
    index._codes = index.encode_batch(emb_set.vectors64)
    return index
