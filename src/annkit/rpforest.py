"""Random-projection tree forest (angular / L2 / Manhattan).

Each tree recursively splits its items with a hyperplane through two sampled
points: for the angular flavor the points are normalized first and the plane
passes through the origin; for L2/Manhattan the plane bisects the segment
between them. A query walks a single best-first frontier over all trees,
ordered by its margin to each splitting plane, inspecting up to search_k
leaves and collecting their items, then re-ranks the deduplicated pool with
the exact forest metric. The frontier is deterministic, so the candidate
pool for a small budget is always a subset of the pool for a larger one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .base import SearchResult, VectorIndex, make_result
from .data import EmbeddingSet
from .distances import Metric, batch_scores
from .wire import Reader, Writer

DEFAULT_N_TREES = 10
DEFAULT_LEAF_SIZE = 16
_SPLIT_RETRIES = 3

_METRIC_TAGS = {Metric.ANGULAR: 0, Metric.L2: 1, Metric.MANHATTAN: 2}
_METRIC_BY_TAG = {tag: metric for metric, tag in _METRIC_TAGS.items()}


@dataclass
class Leaf:
    rows: np.ndarray  # uint32 row indices into the forest's vector table


@dataclass
class Split:
    normal: np.ndarray  # float32
    offset: float
    left: "Leaf | Split"  # side with dot(normal, x) - offset <= 0
    right: "Leaf | Split"  # strictly positive side


def _build_tree(
    vectors64: np.ndarray,
    rows: np.ndarray,
    leaf_size: int,
    angular: bool,
    rng: np.random.Generator,
) -> Leaf | Split:
    if len(rows) <= leaf_size:
        return Leaf(rows.astype(np.uint32))

    for _ in range(1 + _SPLIT_RETRIES):
        i, j = rng.choice(len(rows), size=2, replace=False)
        p, q = vectors64[rows[i]], vectors64[rows[j]]
        if angular:
            pn, qn = np.sqrt(np.sum(p * p)), np.sqrt(np.sum(q * q))
            if pn == 0.0 or qn == 0.0:
                continue
            normal64 = p / pn - q / qn
            offset = 0.0
        else:
            normal64 = p - q
            offset = 0.0  # recomputed below from the narrowed normal
        normal = normal64.astype(np.float32)
        if not np.any(normal):
            continue  # coincident sample points
        n64 = normal.astype(np.float64)
        if not angular:
            offset = float(n64 @ ((p + q) / 2.0))
        values = vectors64[rows] @ n64 - offset
        right = values > 0.0
        n_right = int(right.sum())
        if 0 < n_right < len(rows):
            return Split(
                normal=normal,
                offset=offset,
                left=_build_tree(vectors64, rows[~right], leaf_size, angular, rng),
                right=_build_tree(vectors64, rows[right], leaf_size, angular, rng),
            )
    return Leaf(rows.astype(np.uint32))  # unsplittable (e.g. duplicates)


class RpForestIndex(VectorIndex):
    family = "rpforest"

    def __init__(
        self,
        metric: Metric,
        leaf_size: int,
        trees: list[Leaf | Split],
        ids: np.ndarray,
        vectors: np.ndarray,
        search_k: int | None = None,
    ):
        if metric not in _METRIC_TAGS:
            raise ValueError(f"forest metric must be angular, l2 or manhattan; got {metric}")
        self.metric = metric
        self.leaf_size = leaf_size
        self.trees = trees
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._vectors = np.asarray(vectors, dtype=np.float32)
        self.search_k = search_k  # None -> n_trees * k at query time

    @property
    def label(self) -> str:
        return f"rpforest-{self.metric.value}"

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def leaf_rows(self, tree: Leaf | Split) -> list[np.ndarray]:
        """All leaves of one tree, left-to-right."""
        if isinstance(tree, Leaf):
            return [tree.rows]
        return self.leaf_rows(tree.left) + self.leaf_rows(tree.right)

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
        counter = 0
        frontier: list[tuple[float, int, Leaf | Split]] = []
        for tree in self.trees:
            frontier.append((-np.inf, counter, tree))  # max-heap on priority
            counter += 1
        heapq.heapify(frontier)
        collected: list[np.ndarray] = []
        while frontier and len(collected) < search_k:
            neg_priority, _, node = heapq.heappop(frontier)
            if isinstance(node, Leaf):
                collected.append(node.rows)
                continue
            priority = -neg_priority
            margin = float(node.normal.astype(np.float64) @ q64 - node.offset)
            heapq.heappush(frontier, (-min(priority, +margin), counter, node.right))
            counter += 1
            heapq.heappush(frontier, (-min(priority, -margin), counter, node.left))
            counter += 1
        if not collected:
            return np.empty(0, dtype=np.uint32)
        return np.unique(np.concatenate(collected))

    def search(self, query: np.ndarray, k: int, search_k: int | None = None) -> SearchResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        if search_k is None:
            search_k = self.search_k if self.search_k is not None else self.n_trees * k
        rows = self.candidate_rows(query, search_k)
        if len(rows) == 0:
            return SearchResult([])
        scores = batch_scores(self.metric, query, self._vectors[rows])
        return make_result(self.metric, self._ids[rows], scores, k)

    def memory_bytes(self) -> int:
        total = self._ids.nbytes + self._vectors.nbytes
        stack = list(self.trees)
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                total += node.rows.nbytes
            else:
                total += node.normal.nbytes + 8
                stack.extend((node.left, node.right))
        return total

    def config(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "leaf_size": self.leaf_size,
            "metric": self.metric.value,
            "search_k": self.search_k,
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
        for tree in self.trees:
            self._write_node(w, tree)

    def _write_node(self, w: Writer, node: Leaf | Split) -> None:
        if isinstance(node, Leaf):
            w.u8(0)
            w.u32(len(node.rows))
            w.u32_array(node.rows)
        else:
            w.u8(1)
            w.f32_array(node.normal)
            w.f64(node.offset)
            self._write_node(w, node.left)
            self._write_node(w, node.right)

    @classmethod
    def read_payload(cls, r: Reader) -> "RpForestIndex":
        metric = _METRIC_BY_TAG[r.u8()]
        n_trees = r.u32()
        leaf_size = r.u32()
        dim = r.u32()
        count = r.u64()
        ids = r.u64_array(count)
        vectors = r.f32_array(count * dim).reshape(count, dim)

        def read_node() -> Leaf | Split:
            if r.u8() == 0:
                return Leaf(r.u32_array(r.u32()))
            normal = r.f32_array(dim)
            offset = r.f64()
            return Split(normal=normal, offset=offset, left=read_node(), right=read_node())

        trees = [read_node() for _ in range(n_trees)]
        return cls(metric, leaf_size, trees, ids, vectors)


def rp_build(
    emb_set: EmbeddingSet,
    n_trees: int = DEFAULT_N_TREES,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    metric: Metric = Metric.ANGULAR,
    seed: int = 0,
    search_k: int | None = None,
) -> RpForestIndex:
    """Build n_trees independent trees; per-tree seeds derive from (seed, tree)."""
    if len(emb_set) == 0:
        raise ValueError("cannot build an index over an empty set")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    vectors64 = emb_set.vectors64
    all_rows = np.arange(len(emb_set))
    trees = [
        _build_tree(
            vectors64,
            all_rows,
            leaf_size,
            metric is Metric.ANGULAR,
            np.random.default_rng(np.random.SeedSequence([int(seed), t])),
        )
        for t in range(n_trees)
    ]
    return RpForestIndex(
        metric, leaf_size, trees, emb_set.ids.copy(), emb_set.vectors.copy(), search_k
    )
