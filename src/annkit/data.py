"""Embedding records, synthetic data generation, and the VEMB/CSV formats."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

VEMB_MAGIC = b"VEMB"
VEMB_VERSION = 1

# One stored record: 64-bit id, 32-bit label, then the float32 components.
def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("label", "<u4"), ("vector", "<f4", (dim,))])


@dataclass(frozen=True)
class EmbeddingRecord:
    """A single embedding: unique 64-bit id, 32-bit class label, float32 vector."""

    id: int
    label: int
    vector: np.ndarray


class EmbeddingSet:
    """An ordered collection of embeddings with a fixed dimension.

    Ids must be unique; duplicate vectors are allowed. Instances are read-only
    after construction and safe to share across threads.
    """

    def __init__(self, ids: np.ndarray, labels: np.ndarray, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise ValueError("vectors must be a 2-d float array with dim >= 1")
        ids = np.asarray(ids, dtype=np.uint64)
        labels = np.asarray(labels, dtype=np.uint32)
        if not (len(ids) == len(labels) == len(vectors)):
            raise ValueError("ids, labels and vectors must have equal length")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("ids must be unique")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vector components must be finite")
        self._ids = ids
        self._labels = labels
        self._vectors = vectors
        self._row_by_id = {int(i): row for row, i in enumerate(ids)}

    @classmethod
    def from_records(cls, records: Iterable[EmbeddingRecord]) -> "EmbeddingSet":
        records = list(records)
        if not records:
            raise ValueError("cannot build a set from zero records")
        ids = np.array([r.id for r in records], dtype=np.uint64)
        labels = np.array([r.label for r in records], dtype=np.uint32)
        vectors = np.stack([np.asarray(r.vector, dtype=np.float32) for r in records])
        return cls(ids, labels, vectors)

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @cached_property
    def vectors64(self) -> np.ndarray:
        """Cached float64 copy, read by index builds and the exact oracle."""
        return self._vectors.astype(np.float64)

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, row: int) -> EmbeddingRecord:
        return EmbeddingRecord(
            int(self._ids[row]), int(self._labels[row]), self._vectors[row]
        )

    def __iter__(self) -> Iterator[EmbeddingRecord]:
        return (self[i] for i in range(len(self)))

    def row_of(self, record_id: int) -> int:
        try:
            return self._row_by_id[int(record_id)]
        except KeyError:
            raise KeyError(f"unknown record id {record_id}") from None

    def __contains__(self, record_id: int) -> bool:
        return int(record_id) in self._row_by_id

    def label_of(self, record_id: int) -> int:
        return int(self._labels[self.row_of(record_id)])

    def vector_of(self, record_id: int) -> np.ndarray:
        return self._vectors[self.row_of(record_id)]

    def normalized(self) -> "EmbeddingSet":
        """Copy of the set with every vector scaled to unit L2 norm."""
        norms = np.sqrt(np.sum(self.vectors64 * self.vectors64, axis=1))
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a set containing zero vectors")
        unit = (self.vectors64 / norms[:, np.newaxis]).astype(np.float32)
        return EmbeddingSet(self._ids.copy(), self._labels.copy(), unit)


def gen_synthetic(
    n_classes: int, per_class: int, dim: int, spread: float, seed: int
) -> EmbeddingSet:
    """Deterministic labeled Gaussian blobs.

    Draws `n_classes` centroids uniformly in [-1, 1]^dim, then `per_class`
    points per centroid from an isotropic Gaussian with standard deviation
    `spread`. Labels are the class index; ids run sequentially from 0.
    """
    if n_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("n_classes, per_class and dim must be positive")
    if not spread > 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
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
    if data[:4] != VEMB_MAGIC:
        raise ValueError("not a VEMB file (bad magic)")
    version, dim, count = struct.unpack("<BIQ", data[4 : 4 + 13])
    if version != VEMB_VERSION:
        raise ValueError(f"unsupported VEMB version {version}")
    dtype = _record_dtype(dim)
    body = data[17:]
    if len(body) != count * dtype.itemsize:
        raise ValueError("VEMB record section has the wrong length")
    table = np.frombuffer(body, dtype=dtype)
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
    """Ingest the text format: header ``id,label,f0,...,f{dim-1}``."""
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
    return EmbeddingSet(
        np.array(ids, dtype=np.uint64),
        np.array(labels, dtype=np.uint32),
        np.array(rows, dtype=np.float32),
    )
