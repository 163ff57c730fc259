"""Embedding sets, synthetic data generation, and the VEMB/CSV formats."""

from __future__ import annotations

import csv
import struct
from functools import cached_property
from pathlib import Path

import numpy as np

from .base import check_count, check_finite, check_rows, check_seed, is_uint

VEMB_MAGIC = b"VEMB"
VEMB_VERSION = 1

# One stored record: 64-bit id, 32-bit label, then the float32 components.
def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("label", "<u4"), ("vector", "<f4", (dim,))])


# Unordered ids all below this many times their count are counted, not sorted.
_DENSE_IDS = 4


def check_unique_ids(ids: np.ndarray) -> None:
    """ValueError if an id repeats.

    `ids` are uint64. Ids in increasing order, as generated sets and most
    indexes hold them, pass one adjacent compare. Dense ids in any other order,
    as IVF holds them list after list, are counted with one `np.bincount`
    (about 40 against 81 us for 9,600 ids); sparse ones are sorted.
    """
    if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
        if ids.max() < _DENSE_IDS * len(ids):
            repeated = np.bincount(ids.view(np.int64)).max() > 1
        else:
            ordered = np.sort(ids)
            repeated = (ordered[1:] == ordered[:-1]).any()
        if repeated:
            raise ValueError("stored ids must be unique")


def _as_uint(name: str, values: np.ndarray, bits: int) -> np.ndarray:
    """`values` as a uint`bits` array; ValueError naming `name` and the first
    value that breaks the rule unless every value is an integer in
    [0, 2**bits): the one range check of every id and label an `EmbeddingSet`
    takes, a CSV's included. An array of that dtype is taken as it is, without
    a scan; a non-array is read item by item, so no big or negative int is
    rounded through float64 or wrapped (a list of plain ints by one type scan
    and builtin `min`/`max`). An empty array of another dtype names its dtype."""
    dtype = np.dtype(f"uint{bits}")
    a = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if a.dtype == dtype:
        return a
    if a.dtype == object:
        items = a.ravel().tolist()
        plain = set(map(type, items)) <= {int}
        ok = (plain and 0 <= min(items, default=0) and max(items, default=0) < 1 << bits
              or all(is_uint(v, bits) for v in items))
    else:
        ok = a.dtype.kind in "iu" and (a.size == 0 or (a.min() >= 0 and a.max() < 1 << bits))
    if not ok:
        bad = next((v for v in a.ravel().tolist() if not is_uint(v, bits)), a.dtype)
        raise ValueError(f"{name} must be integers in [0, 2**{bits}), got {bad!r}")
    return a.astype(dtype)


class EmbeddingSet:
    """An ordered collection of embeddings with a fixed dimension.

    Ids must be unique; duplicate vectors are allowed. Instances are read-only
    after construction and safe to share across threads.
    """

    def __init__(self, ids: np.ndarray, labels: np.ndarray, vectors: np.ndarray):
        vectors = check_rows("vectors", np.asarray(vectors, dtype=np.float32), min_dim=1)
        ids = _as_uint("ids", ids, 64)
        labels = _as_uint("labels", labels, 32)
        if not (len(ids) == len(labels) == len(vectors)):
            raise ValueError("ids, labels and vectors must have equal length")
        check_unique_ids(ids)
        check_finite("vectors", vectors)
        self._ids = ids
        self._labels = labels
        self._vectors = vectors

    @cached_property
    def _row_by_id(self) -> dict[int, int]:
        """id -> row, made on the first lookup: a set that is only indexed never
        holds it (about 85 B per row)."""
        return {int(i): row for row, i in enumerate(self._ids)}

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    def __len__(self) -> int:
        return len(self._ids)

    def row_of(self, record_id: int) -> int:
        """The row of `record_id`; KeyError when no row holds it, as for any
        value that is not an id (`base.is_uint`)."""
        if record_id not in self:
            raise KeyError(f"unknown record id {record_id}")
        return self._row_by_id[int(record_id)]

    def __contains__(self, record_id: int) -> bool:
        return is_uint(record_id) and int(record_id) in self._row_by_id

    def label_of(self, record_id: int) -> int:
        return int(self._labels[self.row_of(record_id)])

    def vector_of(self, record_id: int) -> np.ndarray:
        return self._vectors[self.row_of(record_id)]

    def normalized(self) -> "EmbeddingSet":
        """Copy of the set with every vector scaled to unit L2 norm."""
        v = self._vectors.astype(np.float64)
        norms = np.sqrt(np.sum(v * v, axis=1))
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a set containing zero vectors")
        unit = (v / norms[:, np.newaxis]).astype(np.float32)
        return EmbeddingSet(self._ids.copy(), self._labels.copy(), unit)


def gen_synthetic(
    n_classes: int, per_class: int, dim: int, spread: float, seed: int
) -> EmbeddingSet:
    """Deterministic labeled Gaussian blobs.

    Draws `n_classes` centroids uniformly in [-1, 1]^dim, then `per_class`
    points per centroid from an isotropic Gaussian with standard deviation
    `spread`. Labels are the class index; ids run sequentially from 0.
    """
    check_count("n_classes", n_classes)
    check_count("per_class", per_class)
    check_count("dim", dim)
    if not spread > 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(check_seed(seed))
    centroids = rng.uniform(-1.0, 1.0, size=(n_classes, dim))
    blocks = [
        centroids[c] + rng.normal(0.0, spread, size=(per_class, dim))
        for c in range(n_classes)
    ]
    vectors = np.vstack(blocks).astype(np.float32)
    n = n_classes * per_class
    ids = np.arange(n, dtype=np.uint64)
    labels = np.repeat(np.arange(n_classes, dtype=np.uint32), per_class)
    return EmbeddingSet(ids, labels, vectors)


def dump_vemb(emb_set: EmbeddingSet) -> bytes:
    """Serialize a set to the VEMB byte layout."""
    dim = emb_set.dim
    header = VEMB_MAGIC + struct.pack("<BIQ", VEMB_VERSION, dim, len(emb_set))
    table = np.empty(len(emb_set), dtype=_record_dtype(dim))
    table["id"] = emb_set.ids
    table["label"] = emb_set.labels
    table["vector"] = emb_set.vectors
    return header + table.tobytes()


def load_vemb_bytes(data: bytes) -> EmbeddingSet:
    if len(data) < 17:
        raise ValueError("VEMB file is shorter than its 17-byte header")
    if data[:4] != VEMB_MAGIC:
        raise ValueError("not a VEMB file (bad magic)")
    version, dim, count = struct.unpack("<BIQ", data[4 : 4 + 13])
    if version != VEMB_VERSION:
        raise ValueError(f"unsupported VEMB version {version}")
    dtype = _record_dtype(dim)
    if len(data) - 17 != count * dtype.itemsize:
        raise ValueError("VEMB record section has the wrong length")
    # A view of the records, not a slice: each column below is the only copy.
    table = np.frombuffer(data, dtype=dtype, count=count, offset=17)
    return EmbeddingSet(
        table["id"].astype(np.uint64),
        table["label"].astype(np.uint32),
        table["vector"].astype(np.float32),
    )


def save_vemb(emb_set: EmbeddingSet, path: str | Path) -> None:
    Path(path).write_bytes(dump_vemb(emb_set))


def load_vemb(path: str | Path) -> EmbeddingSet:
    return load_vemb_bytes(Path(path).read_bytes())


def load_csv(path: str | Path) -> EmbeddingSet:
    """Ingest the text format: header ``id,label,f0,...,f{dim-1}``. The ids
    and labels are read as ints and checked by `EmbeddingSet`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV file") from None
        dim = len(header) - 2
        expected = ["id", "label"] + [f"f{i}" for i in range(dim)]
        if dim < 1 or header != expected:
            raise ValueError("CSV header must be id,label,f0,...,f{dim-1}")
        ids, labels, rows = [], [], []
        for line in reader:
            if not line:
                continue
            if len(line) != dim + 2:
                raise ValueError(f"CSV row has {len(line)} fields, expected {dim + 2}")
            ids.append(int(line[0]))
            labels.append(int(line[1]))
            rows.append([float(x) for x in line[2:]])
    if not ids:
        raise ValueError("CSV file contains no records")
    return EmbeddingSet(ids, labels, np.array(rows, dtype=np.float32))
