"""Product quantization: codebook training, encoding, and ADC search.

A vector is split into m contiguous sub-vectors, each quantized against its
own codebook of ks = 2^nbits centroids. Search is asymmetric: the query stays
uncompressed and scores come from a per-subspace table of squared distances,
so one table build amortizes over the whole candidate list.

A `PqCodebook` holds its m books as one (m, ks, sub_dim) float32 block, with
their m distortions. `adc_table` builds the (m, ks) table dimension-major:
the query parts are subtracted from the block's (sub_dim, m, ks) transpose,
squared in place, and the sub_dim rows are added in numpy's pairwise order
(`kmeans._column_sums`), so each entry has the bits of a per-book row sum.

VIDX stores a `PqCodebook` as u32 m, nbits and sub_dim, then its block and
distortions as m centroid sets of ks x sub_dim (`kmeans.write_centroids`,
`kmeans.read_centroids`); its read refuses m 0 and nbits outside 1..8.
A `PqIndex` adds u64 count, the ids and count x m u8 codes (`check_codes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import SearchResult, VectorIndex, check_query, make_result
from .data import EmbeddingSet
from .distances import Metric
from .kmeans import _column_sums, assign_to_centroids, kmeans_fit, read_centroids, write_centroids
from .wire import Reader, Writer


def _check_shape(m: int, nbits: int) -> None:
    """ValueError unless m >= 1 and nbits is in 1..8: the shapes `pq_train` makes."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= nbits <= 8:
        raise ValueError(f"nbits must be in 1..8 (codes are stored as single bytes), got {nbits}")


def default_m(dim: int) -> int:
    """Default subquantizer count: 8, or the largest divisor of dim <= 8."""
    for m in range(min(8, dim), 0, -1):
        if dim % m == 0:
            return m
    return 1


@dataclass
class PqCodebook:
    """Per-subspace centroid tables for an m x ks product code.

    `block[j]` is book j's ks x sub_dim centroids, `distortions[j]` its
    training MSE. The block is held as a C-contiguous float32 array (the one
    a load reads is kept as it is); ValueError unless it is 3-d with ks =
    2^nbits rows per book and one distortion per book.
    """

    nbits: int
    block: np.ndarray  # (m, ks, sub_dim) float32
    distortions: list[float]

    def __post_init__(self) -> None:
        self.block = np.ascontiguousarray(self.block, dtype=np.float32)
        shape = self.block.shape
        if len(shape) != 3 or shape[1] != 1 << self.nbits or len(self.distortions) != shape[0]:
            raise ValueError(
                f"a codebook block is (m, 2^nbits, sub_dim) with m distortions; got {shape} "
                f"at nbits {self.nbits} with {len(self.distortions)} distortions"
            )

    @property
    def m(self) -> int:
        return self.block.shape[0]

    @property
    def ks(self) -> int:
        return self.block.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.block.shape[2]

    @property
    def dim(self) -> int:
        return self.m * self.sub_dim

    def split(self, v: np.ndarray) -> np.ndarray:
        arr = np.asarray(v, dtype=np.float64).reshape(-1)
        if arr.shape[0] != self.dim:
            raise ValueError(f"vector has dim {arr.shape[0]}, codebook expects {self.dim}")
        return arr.reshape(self.m, self.sub_dim)

    def write(self, w: Writer) -> None:
        w.u32(self.m)
        w.u32(self.nbits)
        w.u32(self.sub_dim)
        write_centroids(w, self.block, self.distortions)

    @classmethod
    def read(cls, r: Reader) -> "PqCodebook":
        m, nbits, sub_dim = r.u32(), r.u32(), r.u32()
        _check_shape(m, nbits)
        return cls(nbits, *read_centroids(r, m, 1 << nbits, sub_dim))


def pq_train(data: np.ndarray, m: int, nbits: int, seed: int = 0) -> PqCodebook:
    """Train one k-means codebook per contiguous subspace.

    Requires m to divide the dimension and 2^nbits <= len(data). Sub-codebooks
    get derived seeds so the whole training is deterministic in `seed`. The
    trained books are stacked once into the codebook's block.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ValueError("data must be a non-empty 2-d array")
    dim = data.shape[1]
    _check_shape(m, nbits)
    if dim % m != 0:
        raise ValueError(f"m={m} must divide dim={dim}")
    ks = 1 << nbits
    if ks > len(data):
        raise ValueError(f"2^nbits={ks} exceeds the number of training points")
    sub = dim // m
    books = [
        kmeans_fit(data[:, j * sub : (j + 1) * sub], ks, seed=np.random.SeedSequence([seed, j]))
        for j in range(m)
    ]
    return PqCodebook(nbits, np.stack([b.vectors for b in books]), [b.distortion for b in books])


def pq_encode_batch(cb: PqCodebook, vectors: np.ndarray) -> np.ndarray:
    """(n, m) uint8 codes: nearest sub-centroid per subspace, ties to the lowest index."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != cb.dim:
        raise ValueError("vectors must be 2-d with the codebook dimension")
    sub = cb.sub_dim
    codes = np.empty((len(arr), cb.m), dtype=np.uint8)
    for j in range(cb.m):
        assign, _ = assign_to_centroids(arr[:, j * sub : (j + 1) * sub], cb.block[j])
        codes[:, j] = assign
    return codes


def adc_table(cb: PqCodebook, query: np.ndarray) -> np.ndarray:
    """(m, ks) table of squared L2 distances, query sub-vector vs sub-centroids.

    Dimension-major: the float64 query parts are subtracted from a C-ordered
    float64 copy of the codebook block's (sub_dim, m, ks) transpose, squared
    in place, and its sub_dim rows added by `_column_sums`, which replays
    numpy's pairwise order for a row of sub_dim terms. So every entry has the
    bits of the row-wise ``np.sum(diff * diff, axis=1)`` of one float32 book
    promoted against its float64 query part.
    """
    # The exact cast first, then a float64 subtract: the bits of the mixed
    # float32 - float64 subtract, without its buffered strided loop.
    diff = cb.block.transpose(2, 0, 1).astype(np.float64, order="C")
    diff -= cb.split(query).T[:, :, np.newaxis]
    diff *= diff
    return _column_sums(diff)


def adc_scores(cb: PqCodebook, codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Asymmetric distances for an (n, m) code matrix: sqrt of m table lookups.

    ValueError when codes is not an (n, m) integer matrix of centroid indices.
    """
    codes = check_codes(cb, codes)
    table = adc_table(cb, query)
    # Seeding with column 0 adds the same terms in the same order as 0 + t0 + t1 ...
    total = table[0].take(codes[:, 0])
    for j in range(1, cb.m):
        total += table[j].take(codes[:, j])
    return np.sqrt(total)


class PqIndex(VectorIndex):
    """Standalone product-quantization index: stores only codes, never vectors."""

    family = "pq"

    def __init__(self, codebook: PqCodebook, ids: np.ndarray, codes: np.ndarray):
        self.codebook = codebook
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._codes = np.asarray(codes, dtype=np.uint8)

    @classmethod
    def build(
        cls,
        emb_set: EmbeddingSet,
        m: int | None = None,
        nbits: int = 8,
        seed: int = 0,
    ) -> "PqIndex":
        if len(emb_set) == 0:
            raise ValueError("cannot build an index over an empty set")
        m = default_m(emb_set.dim) if m is None else m
        cb = pq_train(emb_set.vectors, m, nbits, seed)
        return cls(cb, emb_set.ids.copy(), pq_encode_batch(cb, emb_set.vectors))

    @property
    def dim(self) -> int:
        return self.codebook.dim

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Rank every stored code by asymmetric distance; ascending-id tie-break."""
        q = check_query(query, k, self.dim)
        return make_result(Metric.L2, self._ids, adc_scores(self.codebook, self._codes, q), k)

    def config(self) -> dict:
        return {"m": self.codebook.m, "nbits": self.codebook.nbits}

    def write_payload(self, w: Writer) -> None:
        self.codebook.write(w)
        w.u64(len(self))
        w.u64_array(self._ids)
        w.u8_array(self._codes)

    @classmethod
    def read_payload(cls, r: Reader) -> "PqIndex":
        cb = PqCodebook.read(r)
        count = r.u64()
        ids = r.u64_array(count)
        return cls(cb, ids, check_codes(cb, r.u8_array(count * cb.m).reshape(count, cb.m)))


def check_codes(cb: PqCodebook, codes: np.ndarray) -> np.ndarray:
    """codes as an (n, m) integer array; ValueError when a code names no centroid."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != cb.m or codes.dtype.kind not in "iu":
        raise ValueError(f"PQ codes must be an (n, {cb.m}) integer array")
    # A byte cannot reach 256, so 8-bit codebooks skip the scan over uint8 codes.
    scan = cb.nbits < 8 or codes.dtype != np.uint8
    if scan and codes.size and (codes.min() < 0 or codes.max() >= cb.ks):
        raise ValueError(f"PQ code out of range: codebook has {cb.ks} centroids")
    return codes
