"""Inverted-file indexes: coarse k-means partition with flat/PQ/SQ payloads.

A query ranks the coarse centroids, scans the nprobe nearest inverted lists,
and scores only those candidates — exactly (flat payload), by asymmetric
distance (PQ codes), or against the 8-bit reconstruction (SQ bytes). Flat
lists pass through `distances.shortlist` first, and SQ lists decode only
the codes `sq._code_shortlist` keeps; either way the scores are those of
scoring every probed row. The candidate set for nprobe = p is by
construction a subset of the one for p + 1, which makes recall
non-decreasing in nprobe.

The lists are held in one compressed-sparse-row layout: `ids` and `payload`
sorted by list (build order inside a list), and nlist + 1 `offsets`, so list
i is rows ``offsets[i]:offsets[i + 1]`` of both.

VIDX stores u32 dim, u32 nlist, the coarse `Centroids` (a run of one
`kmeans.write_centroids` set), u32 nprobe, the codec (`PqCodebook`, `SqParams`
or, for flat, none; its dim must be the index's), then each list as its u64
count, its ids and its payload rows.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .base import SearchResult, VectorIndex, check_count, check_query, check_rows, check_seed, make_result
from .data import EmbeddingSet
from .distances import Metric, batch_scores, rank_order, shortlist
from .kmeans import Centroids, assign_to_centroids, kmeans_fit, read_centroids, write_centroids
from .pq import PqCodebook, adc_scores, check_codes, default_m, pq_encode_batch, pq_train
from .sq import SqParams, _code_shortlist, sq_decode_batch, sq_encode_batch, sq_train
from .wire import Reader, Writer

# Encoding -> the class of its payload codec; flat payloads are the vectors.
_CODECS: dict[str, type] = {"flat": type(None), "pq": PqCodebook, "sq": SqParams}


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
        ids: np.ndarray,
        payload: np.ndarray,
        offsets: np.ndarray,
        nprobe: int,
        codec: PqCodebook | SqParams | None = None,
    ):
        if encoding not in _CODECS:
            raise ValueError(f"unknown encoding {encoding!r}")
        if not isinstance(codec, _CODECS[encoding]):
            raise ValueError(f"ivf-{encoding} cannot take a {type(codec).__name__} codec")
        if codec is not None and codec.dim != coarse.dim:
            raise ValueError(f"codec dim {codec.dim} differs from index dim {coarse.dim}")
        self.nprobe = check_count("nprobe", nprobe, coarse.k)
        self.coarse = coarse
        self.encoding = encoding
        self._ids = np.asarray(ids, dtype=np.uint64)
        self.payload = payload  # one row per id: float32 vectors or uint8 codes
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.codec = codec

    @property
    def family(self) -> str:  # type: ignore[override]
        return f"ivf-{self.encoding}"

    @property
    def nlist(self) -> int:
        return self.coarse.k

    @property
    def dim(self) -> int:
        return self.coarse.dim

    # The codec by its type's name, None for the other encodings. Nothing in
    # annkit reads these: perfbench's `rescore` does, as it reads `list_ids`.
    codebook = property(lambda self: self.codec if self.encoding == "pq" else None)
    sq_params = property(lambda self: self.codec if self.encoding == "sq" else None)
    # The PQ codebook's shape, which the ivf-pq row's build knobs name; only
    # an ivf-pq index has them.
    m = property(lambda self: self.codec.m)
    nbits = property(lambda self: self.codec.nbits)

    @property
    def list_ids(self) -> list[np.ndarray]:
        """Each list's ids, as views of `ids`. Nothing in annkit reads them:
        perfbench's `rescore` (perfbench/workloads.py) does, to settle float32 ties."""
        return np.split(self._ids, self.offsets[1:-1])

    @property
    def list_payloads(self) -> list[np.ndarray]:
        """Each list's payload rows, as views of `payload`; see `list_ids`."""
        return np.split(self.payload, self.offsets[1:-1])

    def _probed(self, lists: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
        """The rows of each of `arrays` (ids, payload) that `lists` hold, list after list."""
        bounds = self.offsets.tolist()
        spans = [(bounds[i], bounds[i + 1]) for i in lists.tolist()]
        return [np.concatenate([a[lo:hi] for lo, hi in spans]) for a in arrays]

    def probe_order(self, query: np.ndarray) -> np.ndarray:
        """Coarse lists ranked nearest-first, index tie-break."""
        scores = batch_scores(Metric.L2, query, self.coarse.vectors)
        return rank_order(Metric.L2, np.arange(self.nlist), scores)

    def probe_candidate_ids(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """Ids reachable at a probe depth; the subset-monotonicity surface.
        The query and nprobe pass the gates `search` applies to them."""
        q = check_query(query, 1, self.dim)
        check_count("nprobe", nprobe, self.nlist)
        return self._probed(self.probe_order(q)[:nprobe], self._ids)[0]

    def search(self, query: np.ndarray, k: int, nprobe: int | None = None) -> SearchResult:
        q = check_query(query, k, self.dim)
        if nprobe is None:
            nprobe = self.nprobe
        check_count("nprobe", nprobe, self.nlist)
        ids, payload = self._probed(self.probe_order(q)[:nprobe], self._ids, self.payload)
        if self.encoding == "pq":
            return make_result(Metric.L2, ids, adc_scores(self.codec, payload, q), k)
        if self.encoding == "flat":
            rows = shortlist(Metric.L2, q, payload, k)
            scores = batch_scores(Metric.L2, q, payload[rows])
        else:
            rows = _code_shortlist(self.codec, payload, q, k)
            scores = batch_scores(Metric.L2, q, sq_decode_batch(self.codec, payload[rows]))
        return make_result(Metric.L2, ids[rows], scores, k)

    def write_payload(self, w: Writer) -> None:
        w.u32(self.dim)
        w.u32(self.nlist)
        write_centroids(w, self.coarse.vectors[np.newaxis], [self.coarse.distortion])
        w.u32(self.nprobe)
        if self.codec is not None:
            self.codec.write(w)
        write_rows = w.f32_array if self.encoding == "flat" else w.u8_array
        bounds = self.offsets.tolist()
        for a, b in zip(bounds, bounds[1:]):
            w.u64(b - a)
            w.u64_array(self._ids[a:b])
            write_rows(self.payload[a:b])

    @classmethod
    def read_payload(cls, r: Reader, encoding: str) -> "IvfIndex":
        dim = check_count("dim", r.u32())
        nlist = check_count("nlist", r.u32())
        vectors, [distortion] = read_centroids(r, 1, nlist, dim)
        coarse = Centroids(vectors[0], distortion)
        nprobe = r.u32()
        codec = None if encoding == "flat" else _CODECS[encoding].read(r)
        width = codec.m if isinstance(codec, PqCodebook) else dim  # payload items per row
        wire = np.dtype("<f4" if encoding == "flat" else "u1")
        row_bytes = width * wire.itemsize
        # One walk over the count headers, then each array is one copy of its lists.
        section = r.view("u1")
        data, starts, counts, pos = memoryview(section), [], [], 0
        for _ in range(nlist):
            if pos + 8 > len(data):  # also stops a corrupt count before pos outgrows ssize_t
                raise ValueError("truncated buffer")
            count = struct.unpack_from("<Q", data, pos)[0]
            starts.append(pos + 8)
            counts.append(count)
            pos += 8 + count * (8 + row_bytes)
        r.skip(pos)
        cuts = [(a, a + 8 * c, a + (8 + row_bytes) * c) for a, c in zip(starts, counts)]
        ids = np.concatenate([section[a:b] for a, b, _ in cuts]).view("<u8")
        payload = np.concatenate([section[b:c] for _, b, c in cuts]).view(wire)
        payload = payload.astype(wire.newbyteorder("="), copy=False).reshape(-1, width)
        if isinstance(codec, PqCodebook):
            check_codes(codec, payload)
        offsets = np.cumsum([0] + counts, dtype=np.int64)
        return cls(coarse, encoding, ids, payload, offsets, nprobe, codec)


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
    check_rows("vectors", emb_set.vectors, nonempty=True)
    if encoding not in _CODECS:
        raise ValueError(f"unknown encoding {encoding!r}")
    n = len(emb_set)
    nlist = check_count("nlist", default_nlist(n) if nlist is None else nlist, n)
    nprobe = check_count("nprobe", default_nprobe(nlist) if nprobe is None else nprobe, nlist)
    seed = check_seed(seed)

    coarse = kmeans_fit(emb_set.vectors, nlist, seed=seed)
    assign, _ = assign_to_centroids(emb_set.vectors, coarse.vectors)

    codec, encoded = None, emb_set.vectors
    if encoding == "pq":
        m = default_m(emb_set.dim) if m is None else m
        codec = pq_train(emb_set.vectors, m, nbits, seed=seed)
        encoded = pq_encode_batch(codec, emb_set.vectors)
    elif encoding == "sq":
        codec = sq_train(emb_set.vectors)
        encoded = sq_encode_batch(codec, emb_set.vectors)

    rows = np.argsort(assign, kind="stable")  # by list, then by row
    offsets = np.cumsum(np.bincount(assign, minlength=nlist), dtype=np.int64)
    return IvfIndex(coarse, encoding, emb_set.ids[rows], encoded[rows],
                    np.concatenate(([0], offsets)), nprobe, codec)
