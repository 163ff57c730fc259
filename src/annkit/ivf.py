"""Inverted-file indexes: coarse k-means partition with flat/PQ/SQ payloads.

A query ranks the coarse centroids, scans the nprobe nearest inverted lists,
and scores only those candidates — exactly (flat payload), by asymmetric
distance (PQ codes), or against the 8-bit reconstruction (SQ bytes). The
candidate set for nprobe = p is by construction a subset of the one for
p + 1, which makes recall non-decreasing in nprobe.
"""

from __future__ import annotations

import math

import numpy as np

from .base import SearchResult, VectorIndex, make_result
from .data import EmbeddingSet
from .distances import Metric, batch_scores
from .kmeans import Centroids, assign_to_centroids, kmeans_fit
from .pq import (
    PqCodebook,
    adc_scores,
    default_m,
    pq_encode_batch,
    pq_train,
    read_codebook,
    write_codebook,
)
from .sq import SqParams, sq_decode_batch, sq_encode_batch, sq_train
from .wire import Reader, Writer

ENCODINGS = ("flat", "pq", "sq")


def default_nlist(n: int) -> int:
    return max(1, round(math.sqrt(n)))


def default_nprobe(nlist: int) -> int:
    return max(1, nlist // 8)


class IvfIndex(VectorIndex):
    """Coarse partition plus per-list payloads; family depends on the encoding."""

    def __init__(
        self,
        coarse: Centroids,
        encoding: str,
        list_ids: list[np.ndarray],
        list_payloads: list[np.ndarray],
        nprobe: int,
        codebook: PqCodebook | None = None,
        sq_params: SqParams | None = None,
    ):
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}")
        self.coarse = coarse
        self.encoding = encoding
        self.list_ids = list_ids
        self.list_payloads = list_payloads
        self.nprobe = nprobe
        self.codebook = codebook
        self.sq_params = sq_params

    @property
    def family(self) -> str:  # type: ignore[override]
        return f"ivf-{self.encoding}"

    @property
    def nlist(self) -> int:
        return self.coarse.k

    @property
    def dim(self) -> int:
        return self.coarse.dim

    def __len__(self) -> int:
        return sum(len(ids) for ids in self.list_ids)

    def probe_order(self, query: np.ndarray) -> np.ndarray:
        """Coarse lists ranked nearest-first, index tie-break."""
        scores = batch_scores(Metric.L2, query, self.coarse.vectors)
        return np.lexsort((np.arange(self.nlist), scores))

    def probe_candidate_ids(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """Ids reachable at a probe depth; the subset-monotonicity surface."""
        order = self.probe_order(query)[:nprobe]
        parts = [self.list_ids[i] for i in order if len(self.list_ids[i])]
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(parts)

    def _score_payload(self, payload: np.ndarray, query: np.ndarray) -> np.ndarray:
        if self.encoding == "flat":
            return batch_scores(Metric.L2, query, payload)
        if self.encoding == "pq":
            assert self.codebook is not None
            return adc_scores(self.codebook, payload, query)
        assert self.sq_params is not None
        return batch_scores(Metric.L2, query, sq_decode_batch(self.sq_params, payload))

    def search(self, query: np.ndarray, k: int, nprobe: int | None = None) -> SearchResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        nprobe = self.nprobe if nprobe is None else nprobe
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in 1..{self.nlist}")
        order = self.probe_order(query)[:nprobe]
        id_parts, payload_parts = [], []
        for i in order:
            if len(self.list_ids[i]):
                id_parts.append(self.list_ids[i])
                payload_parts.append(self.list_payloads[i])
        if not id_parts:
            return SearchResult([])
        ids = np.concatenate(id_parts)
        payload = np.concatenate(payload_parts)
        return make_result(Metric.L2, ids, self._score_payload(payload, query), k)

    def memory_bytes(self) -> int:
        total = self.coarse.vectors.nbytes
        total += sum(ids.nbytes for ids in self.list_ids)
        total += sum(p.nbytes for p in self.list_payloads)
        if self.codebook is not None:
            total += sum(b.vectors.nbytes for b in self.codebook.books)
        if self.sq_params is not None:
            total += self.sq_params.mins.nbytes + self.sq_params.maxs.nbytes
        return total

    def config(self) -> dict:
        cfg: dict = {
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "encoding": self.encoding,
        }
        if self.codebook is not None:
            cfg["m"] = self.codebook.m
            cfg["nbits"] = self.codebook.nbits
        return cfg

    def write_payload(self, w: Writer) -> None:
        w.u32(self.dim)
        w.u32(self.nlist)
        w.f32_array(self.coarse.vectors)
        w.f64(self.coarse.distortion)
        w.u32(self.nprobe)
        if self.encoding == "pq":
            assert self.codebook is not None
            write_codebook(w, self.codebook)
        elif self.encoding == "sq":
            assert self.sq_params is not None
            self.sq_params.write(w)
        for ids, payload in zip(self.list_ids, self.list_payloads):
            w.u64(len(ids))
            w.u64_array(ids)
            if self.encoding == "flat":
                w.f32_array(payload)
            else:
                w.u8_array(payload)

    @classmethod
    def read_payload(cls, r: Reader, encoding: str) -> "IvfIndex":
        dim = r.u32()
        nlist = r.u32()
        coarse = Centroids(
            vectors=r.f32_array(nlist * dim).reshape(nlist, dim), distortion=r.f64()
        )
        nprobe = r.u32()
        codebook = sq_params = None
        if encoding == "pq":
            codebook = read_codebook(r)
        elif encoding == "sq":
            sq_params = SqParams.read(r)
        list_ids, list_payloads = [], []
        for _ in range(nlist):
            count = r.u64()
            list_ids.append(r.u64_array(count))
            if encoding == "flat":
                list_payloads.append(r.f32_array(count * dim).reshape(count, dim))
            elif encoding == "pq":
                assert codebook is not None
                list_payloads.append(r.u8_array(count * codebook.m).reshape(count, codebook.m))
            else:
                list_payloads.append(r.u8_array(count * dim).reshape(count, dim))
        return cls(coarse, encoding, list_ids, list_payloads, nprobe, codebook, sq_params)


def ivf_build(
    emb_set: EmbeddingSet,
    nlist: int | None = None,
    encoding: str = "flat",
    m: int | None = None,
    nbits: int = 8,
    nprobe: int | None = None,
    seed: int = 0,
) -> IvfIndex:
    """Partition the set by nearest coarse centroid and encode each list.

    PQ and SQ payloads are trained on the raw vectors (not residuals), so a
    full-probe search over PQ lists is exactly an ADC scan of every code.
    """
    if len(emb_set) == 0:
        raise ValueError("cannot build an index over an empty set")
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    n = len(emb_set)
    nlist = default_nlist(n) if nlist is None else nlist
    if nlist < 1 or nlist > n:
        raise ValueError(f"nlist must be in 1..{n}")
    nprobe = default_nprobe(nlist) if nprobe is None else nprobe
    if not 1 <= nprobe <= nlist:
        raise ValueError(f"nprobe must be in 1..{nlist}")

    coarse = kmeans_fit(emb_set.vectors, nlist, seed=seed)
    assign, _ = assign_to_centroids(emb_set.vectors64, coarse.vectors)

    codebook = sq_params = None
    if encoding == "pq":
        m = default_m(emb_set.dim) if m is None else m
        codebook = pq_train(emb_set.vectors, m, nbits, seed=seed)
        encoded: np.ndarray = pq_encode_batch(codebook, emb_set.vectors)
    elif encoding == "sq":
        sq_params = sq_train(emb_set.vectors)
        encoded = sq_encode_batch(sq_params, emb_set.vectors64)
    else:
        encoded = emb_set.vectors

    list_ids, list_payloads = [], []
    for c in range(nlist):
        rows = np.flatnonzero(assign == c)
        list_ids.append(emb_set.ids[rows].copy())
        list_payloads.append(np.ascontiguousarray(encoded[rows]))
    return IvfIndex(coarse, encoding, list_ids, list_payloads, nprobe, codebook, sq_params)
