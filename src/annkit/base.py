"""Shared result type, the uniform index contract and the input rules.

Every value the program takes in from a caller or a file passes one rule
per property, each with one `ValueError` form that names the value:

- `check_count`: an integer count or knob, >= 1 and within its bound;
- `check_seed`: a seed, an integer >= 0;
- `is_uint`: an id (64 bits) or label (32 bits);
- `check_rows`: an array of vectors or codes, 2-d with the expected width,
  non-empty where training needs rows (every builder refuses an empty set
  through it too);
- `check_vector`: a single vector, flattened, with the expected width;
- `check_finite`: every component of a vector, a stored array or a
  training statistic, finite;
- `check_query`: a query and its k, through `check_count`, `check_vector`
  and `check_finite`.

`VectorIndex` is the search contract every family implements. `RowsIndex`
is the one owner of stored rows, for the families that keep every vector
beside their structure and re-score candidates exactly on it (the flat
scans, LSH's re-rank, the forests): their uint64 ids, their float32 rows,
the exact re-score of a row set and the VIDX rows section.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, is_dataclass

import numpy as np

from .distances import Metric, batch_scores, rank_order
from .wire import Reader, Writer


@dataclass
class SearchResult:
    """Ranked neighbor list: (id, score) pairs, best first.

    Scores are 32-bit floats; ascending for distance metrics, descending for
    inner-product similarity. Contains no duplicate ids and never the id that
    was excluded from the search.
    """

    neighbors: list[tuple[int, float]] = field(default_factory=list)

    @property
    def ids(self) -> list[int]:
        return [nid for nid, _ in self.neighbors]

    @property
    def scores(self) -> list[float]:
        return [score for _, score in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)


def check_count(name: str, value: int, most: int | None = None) -> int:
    """`value` as an int, after a ValueError unless it is an int in 1..`most`
    (a numpy integer too, not a bool; no upper bound when `most` is None): the
    rule for k, for every integer build and query knob and for the protocol's
    counts. Whatever stores a checked count stores this return."""
    if (
        not isinstance(value, (int, np.integer))
        or isinstance(value, bool)
        or value < 1
        or (most is not None and value > most)
    ):
        span = ">= 1" if most is None else f"in 1..{most}"
        raise ValueError(f"{name} must be {span} and an integer, got {value!r}")
    return int(value)


def check_seed(seed: int) -> int:
    """`seed` as an int, after a ValueError unless it is an int >= 0 (a numpy
    integer too, not a bool): the rule for the seed of `build_index`, of every
    seeded builder and of the protocol. Whatever stores or derives from a seed
    takes this return."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be >= 0 and an integer, got {seed!r}")
    return int(seed)


def is_uint(value, bits: int = 64) -> bool:
    """True when `value` is an int or numpy integer, not a bool, in
    [0, 2**`bits`): the rule for every id (64 bits) and label (32 bits). A
    lookup of anything else finds nothing; nothing else is stored."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value < 1 << bits


def check_rows(
    what: str, rows: np.ndarray, dim: int | None = None, nonempty: bool = False, min_dim: int = 0
) -> np.ndarray:
    """`rows`, after a ValueError naming `what` unless it is a 2-d array of
    width `dim` (of width >= `min_dim` when `dim` is None) with, when
    `nonempty`, at least one row: the shape rule for every array of vectors or
    codes taken in."""
    if rows.ndim != 2 or (nonempty and len(rows) == 0) or not (
        rows.shape[1] >= min_dim if dim is None else rows.shape[1] == dim
    ):
        kind = "a non-empty 2-d array" if nonempty else "a 2-d array"
        width = f" of width {dim}" if dim is not None else f" of width >= {min_dim}" if min_dim else ""
        raise ValueError(f"{what} must be {kind}{width}, got shape {rows.shape}")
    return rows


def check_vector(what: str, vector: np.ndarray, dim: int, dtype=np.float64) -> np.ndarray:
    """`vector` flattened in `dtype`, after a ValueError naming `what` unless
    it has `dim` components: the width rule for every single vector taken in.
    Finiteness is `check_finite`'s."""
    v = np.asarray(vector, dtype=dtype).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{what} has dim {v.shape[0]}, expected {dim}")
    return v


def check_finite(what: str, *arrays: np.ndarray) -> None:
    """ValueError naming `what` unless every component of every array is
    finite: the rule for every vector, stored array and training statistic
    taken in."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} must be finite (no NaN or inf)")


def check_query(query: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Return the query as a flat float64 vector after checking it and k.

    ValueError unless k passes `check_count` and the query passes
    `check_vector` at `dim` and `check_finite`. Every search and the exact
    oracle go through it.
    """
    check_count("k", k)
    q = check_vector("query", query, dim)
    check_finite("query", q)
    return q


def make_result(
    metric: Metric, ids: np.ndarray, scores: np.ndarray, k: int
) -> SearchResult:
    """Rank scored candidates and keep the best k.

    `scores` must be the float64 output of the shared scoring path; they are
    narrowed to float32 only here, after ranking.
    """
    order = rank_order(metric, ids, scores, k)
    return SearchResult(
        list(zip(ids[order].tolist(), scores[order].astype(np.float32).tolist()))
    )


class VectorIndex(abc.ABC):
    """Uniform search contract implemented by every index family.

    Built indexes are immutable and safe for concurrent searches; construction
    is exclusive.
    """

    family: str  # the name of its row in `families.FAMILIES`
    metric: Metric = Metric.L2  # the metric searches rank by and recall is scored in
    _ids: np.ndarray  # uint64, one per stored vector

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @property
    def ids(self) -> np.ndarray:
        """The stored ids (uint64), one per vector; every VIDX load checks them unique."""
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @abc.abstractmethod
    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Return the k best neighbors of `query`; first checked by `check_query`."""

    def memory_bytes(self) -> int:
        """Deterministic structural footprint: the bytes of every numpy array
        the index holds, as an attribute or inside a dataclass one."""
        total, items = 0, list(vars(self).values())
        while items:
            item = items.pop()
            if isinstance(item, np.ndarray):
                total += item.nbytes
            elif is_dataclass(item):
                items += vars(item).values()
        return total

    def config(self) -> dict:
        """The family's build knobs, as `families.build_index` takes them and
        benchmark reports echo them: each keyword of its `FAMILIES` row, read
        from the attribute of that name. Given the index's data and seed,
        `build_index(data, index.family, seed, **index.config())` builds it
        again."""
        from .families import family  # the table imports every index module

        return {kw: getattr(self, kw) for kw in family(self.family).knobs}


class RowsIndex(VectorIndex):
    """An index that keeps its ids (uint64) and rows (float32) and re-scores
    candidate rows exactly on them. Its VIDX rows section is u32 dim, u64
    count, the ids and the rows; `_write_rows` and `_read_rows` are the one
    writer and reader of it."""

    def __init__(self, ids: np.ndarray, vectors: np.ndarray):
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._vectors = np.asarray(vectors, dtype=np.float32)

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    def _ranked(self, query: np.ndarray, rows: np.ndarray, k: int) -> SearchResult:
        """The best k of the stored `rows`, scored on their vectors by
        `batch_scores` in the index's metric."""
        scores = batch_scores(self.metric, query, self._vectors[rows])
        return make_result(self.metric, self._ids[rows], scores, k)

    def _write_rows(self, w: Writer) -> None:
        w.u32(self.dim)
        w.u64(len(self))
        w.u64_array(self._ids)
        w.f32_array(self._vectors)

    @staticmethod
    def _read_rows(r: Reader) -> tuple[np.ndarray, np.ndarray]:
        """(ids, rows) of a rows section; its dim passes `check_count`."""
        dim = check_count("dim", r.u32())
        count = r.u64()
        ids = r.u64_array(count)
        return ids, r.f32_array(count * dim).reshape(count, dim)


def search_excluding(
    index: VectorIndex, query: np.ndarray, k: int, exclude: int, **knobs
) -> SearchResult:
    """Top-k with the query id excluded: search k+1, drop the query id if present.

    `knobs` are passed to `index.search` (a forest's `search_k`, say), whose
    `check_query` checks the query."""
    check_count("k", k)  # k itself passes the search gate, not only k + 1
    res = index.search(query, k + 1, **knobs)
    kept = [(nid, score) for nid, score in res.neighbors if nid != exclude]
    return SearchResult(kept[:k])
