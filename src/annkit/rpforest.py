"""Random-projection tree forest (angular / L2 / Manhattan).

Each tree splits its items with a hyperplane through two sampled points: for
the angular flavor the points are normalized first and the plane passes
through the origin; for L2/Manhattan the plane bisects the segment between
them. A query walks a single best-first frontier over all trees, ordered by
its margin to each splitting plane, inspecting up to search_k leaves and
collecting their items, then re-ranks the deduplicated pool with the exact
forest metric. The frontier is deterministic, so the candidate pool for a
small budget is always a subset of the pool for a larger one.

The trees are flat arrays in VIDX node order: each in pre-order, one after
another. Node i is a split when `splits[i] >= 0`, the row of its plane in
`normals` and `offsets`, with children i + 1 (left) and `right[i]`; a leaf
holds `rows[cuts[i]:cuts[i + 1]]`. Nothing recurses, so any depth is fine.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import SearchResult, VectorIndex, check_query, make_result
from .data import EmbeddingSet
from .distances import Metric, batch_scores
from .wire import Reader, Writer

# tools/forest_sweep.py: of the pairs with at least the recall@10 of 10 trees of
# 16-row leaves on every swept corpus and metric, the fastest by median search time.
DEFAULT_N_TREES = 6
DEFAULT_LEAF_SIZE = 48
_SPLIT_RETRIES = 3

_METRIC_TAGS = {Metric.ANGULAR: 0, Metric.L2: 1, Metric.MANHATTAN: 2}
_METRIC_BY_TAG = {tag: metric for metric, tag in _METRIC_TAGS.items()}
_LEAF, _SPLIT = 0, 1  # VIDX node tags


def _plane(
    vectors64: np.ndarray, rows: np.ndarray, angular: bool, rng: np.random.Generator
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """(float32 normal, offset, mask of the rows strictly on the positive side)
    of a plane that splits `rows`, or None if no sampled pair gives one."""
    for _ in range(1 + _SPLIT_RETRIES):
        i, j = rng.choice(len(rows), size=2, replace=False)
        p, q = vectors64[rows[i]], vectors64[rows[j]]
        if angular:
            pn, qn = np.sqrt(np.sum(p * p)), np.sqrt(np.sum(q * q))
            if pn == 0.0 or qn == 0.0:
                continue
            normal = (p / pn - q / qn).astype(np.float32)
        else:
            normal = (p - q).astype(np.float32)
        if not np.any(normal):
            continue  # coincident sample points
        n64 = normal.astype(np.float64)
        offset = 0.0 if angular else float(n64 @ ((p + q) / 2.0))  # from the narrowed normal
        right = vectors64[rows] @ n64 - offset > 0.0
        if 0 < int(right.sum()) < len(rows):
            return normal, offset, right
    return None  # unsplittable (e.g. duplicates)


def _records(data: np.ndarray, at: np.ndarray, width: int, dtype: str) -> np.ndarray:
    """The `width` bytes at each offset `at` in `data`, one row of `dtype` each."""
    windows = sliding_window_view(data, width) if len(at) else np.empty((0, width), np.uint8)
    return windows[at].view(dtype).astype(np.dtype(dtype).newbyteorder("="), copy=False)


class RpForestIndex(VectorIndex):
    def __init__(
        self,
        metric: Metric,
        leaf_size: int,
        ids: np.ndarray,
        vectors: np.ndarray,
        is_split: np.ndarray,
        normals: np.ndarray,
        offsets: np.ndarray,
        cuts: np.ndarray,
        rows: np.ndarray,
    ):
        if metric not in _METRIC_TAGS:
            raise ValueError(f"forest metric must be angular, l2 or manhattan; got {metric}")
        self.metric = metric
        self.leaf_size = leaf_size
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._vectors = np.asarray(vectors, dtype=np.float32)
        self._splits = np.where(is_split, np.cumsum(is_split) - 1, -1).astype(np.int32)
        self._normals = np.asarray(normals, dtype=np.float32).reshape(-1, self.dim)
        self._offsets = np.asarray(offsets, dtype=np.float64)
        self._cuts = np.asarray(cuts, dtype=np.int64)
        self._rows = np.asarray(rows, dtype=np.uint32)
        # level[i] (splits minus leaves before node i) is higher inside a split's left
        # subtree, so its right child is the next node on its level; tree t starts at level -t.
        level = np.concatenate(([0], np.cumsum(np.where(is_split, 1, -1))))
        order = np.argsort(level, kind="stable")  # by level, then by node
        after = np.empty_like(order)
        after[order[:-1]] = order[1:]
        self._right = np.where(is_split, after[:-1], -1).astype(np.int32)
        self._roots = order[np.searchsorted(level[order], -np.arange(-level[-1]))]

    @property
    def family(self) -> str:
        return f"rpforest-{self.metric.value}"

    @property
    def n_trees(self) -> int:
        return len(self._roots)

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    def candidate_rows(self, query: np.ndarray, search_k: int) -> np.ndarray:
        """Deduplicated candidate rows for a budget, from the shared frontier.

        search_k is the leaf-inspection budget: walking the frontier through
        split nodes is free routing work, and each popped leaf spends one unit
        while contributing all its rows. The frontier is a single
        deterministic queue, so the pool at a smaller budget is always a
        subset of the pool at a larger one.
        """
        if search_k < 1:
            raise ValueError("search_k must be >= 1")
        q64 = np.asarray(query, dtype=np.float64).reshape(-1)
        if q64.shape[0] != self.dim:
            raise ValueError(f"query has dim {q64.shape[0]}, forest expects {self.dim}")
        # memoryviews index to Python numbers: no numpy scalar per node
        splits, right, cuts, offsets = map(
            memoryview, (self._splits, self._right, self._cuts, self._offsets)
        )
        # (-priority, counter, node): a max-heap on priority; sorted, hence a heap
        frontier = [(-np.inf, t, root) for t, root in enumerate(self._roots.tolist())]
        counter = len(frontier)
        collected: list[np.ndarray] = []
        while frontier and len(collected) < search_k:
            neg_priority, _, node = heapq.heappop(frontier)
            split = splits[node]
            if split < 0:
                collected.append(self._rows[cuts[node] : cuts[node + 1]])
                continue
            margin = float(q64.dot(self._normals[split]) - offsets[split])
            heapq.heappush(frontier, (max(neg_priority, -margin), counter, right[node]))
            heapq.heappush(frontier, (max(neg_priority, margin), counter + 1, node + 1))
            counter += 2
        return np.unique(np.concatenate(collected))

    def search(self, query: np.ndarray, k: int, search_k: int | None = None) -> SearchResult:
        q = check_query(query, k, self.dim)
        rows = self.candidate_rows(q, self.n_trees * k if search_k is None else search_k)
        scores = batch_scores(self.metric, q, self._vectors[rows])
        return make_result(self.metric, self._ids[rows], scores, k)

    def config(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "leaf_size": self.leaf_size,
            "metric": self.metric.value,
        }

    # ------------------------------------------------------------ persistence

    def write_payload(self, w: Writer) -> None:
        w.u8(_METRIC_TAGS[self.metric])
        w.u32(self.n_trees)
        w.u32(self.leaf_size)
        w.u32(self.dim)
        w.u64(len(self._ids))
        w.u64_array(self._ids)
        w.f32_array(self._vectors)
        cuts = self._cuts.tolist()
        for node, split in enumerate(self._splits.tolist()):
            if split < 0:
                w.u8(_LEAF)
                w.u32(cuts[node + 1] - cuts[node])
                w.u32_array(self._rows[cuts[node] : cuts[node + 1]])
            else:
                w.u8(_SPLIT)
                w.f32_array(self._normals[split])
                w.f64(self._offsets[split])

    @classmethod
    def read_payload(cls, r: Reader) -> "RpForestIndex":
        metric = _METRIC_BY_TAG.get(r.u8())  # None fails the constructor's check
        n_trees, leaf_size, dim, count = r.u32(), r.u32(), r.u32(), r.u64()
        if not (n_trees and leaf_size and dim):
            raise ValueError("n_trees, leaf_size and dim must be >= 1")
        ids = r.u64_array(count)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        # One walk finds each node's start by counting open child slots, then
        # every array is cut and checked in bulk; a node spans at least 5 bytes.
        data, starts, pos, open_slots = memoryview(r.view("u1")), [], 0, n_trees
        try:
            while open_slots:
                starts.append(pos)
                if data[pos] == _SPLIT:  # tag, normal, offset
                    pos += 1 + 4 * dim + 8
                    open_slots += 1
                elif data[pos] == _LEAF:  # tag, row count, rows
                    pos += 5 + 4 * struct.unpack_from("<I", data, pos + 1)[0]
                    open_slots -= 1
                else:
                    raise ValueError(f"node tag {data[pos]} is neither 0 (leaf) nor 1 (split)")
        except (IndexError, struct.error):
            raise ValueError("forest nodes are truncated") from None
        section = r.u8_array(pos)  # ValueError if the last leaf's rows run past the end
        starts = np.array(starts, dtype=np.int64)
        is_split = section[starts] == _SPLIT
        sizes = np.where(is_split, 0, _records(section, starts + 1, 4, "<u4").reshape(-1))
        cuts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        normals = _records(section, starts[is_split] + 1, 4 * dim, "<f4")
        offsets = _records(section, starts[is_split] + 1 + 4 * dim, 8, "<f8").reshape(-1)
        row_at = np.repeat(starts + 5 - 4 * cuts[:-1], sizes) + 4 * np.arange(cuts[-1])
        rows = _records(section, row_at, 4, "<u4").reshape(-1)
        if not all(np.isfinite(a).all() for a in (vectors, normals, offsets)):
            raise ValueError("stored vectors and split planes must be finite (no NaN or inf)")
        forest = cls(metric, leaf_size, ids, vectors, is_split, normals, offsets, cuts, rows)
        trees = np.split(rows, cuts[forest._roots[1:]])
        if any(len(tree) != count or np.any(np.sort(tree) != np.arange(count)) for tree in trees):
            raise ValueError(f"each tree's leaves must hold every row below {count} exactly once")
        return forest


def rp_build(
    emb_set: EmbeddingSet,
    n_trees: int = DEFAULT_N_TREES,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    metric: Metric = Metric.ANGULAR,
    seed: int = 0,
) -> RpForestIndex:
    """Build n_trees independent trees; per-tree seeds derive from (seed, tree)."""
    if len(emb_set) == 0:
        raise ValueError("cannot build an index over an empty set")
    if n_trees < 1 or leaf_size < 1:
        raise ValueError("n_trees and leaf_size must be >= 1")
    vectors64 = emb_set.vectors.astype(np.float64)
    angular = metric is Metric.ANGULAR
    is_split, normals, offsets, leaves = [], [], [], []  # leaves: a node's rows (none at a split)
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), t]))
        stack = [np.arange(len(emb_set))]  # the left side is pushed last: split (and drawn) first
        while stack:
            rows = stack.pop()
            plane = _plane(vectors64, rows, angular, rng) if len(rows) > leaf_size else None
            is_split.append(plane is not None)
            leaves.append(rows if plane is None else rows[:0])
            if plane is not None:
                normal, offset, right = plane
                normals.append(normal)
                offsets.append(offset)
                stack += [rows[right], rows[~right]]
    cuts = np.cumsum([0] + [len(rows) for rows in leaves])
    return RpForestIndex(metric, leaf_size, emb_set.ids.copy(), emb_set.vectors.copy(),
                         is_split, normals, offsets, cuts, np.concatenate(leaves))
