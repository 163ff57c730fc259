"""Random-projection tree forest (angular / L2 / Manhattan).

Each tree splits its items with a hyperplane through two sampled points: for
the angular flavor the points are normalized first and the plane passes
through the origin; for L2/Manhattan the plane bisects the segment between
them. A query ranks the leaves of all trees on one best-first frontier and
inspects the first search_k, collecting their items, then re-ranks the
deduplicated pool with the exact forest metric. A node's priority is the
minimum over its path of the query's margin to each splitting plane (+margin
into a right child, -margin into a left one, +inf at a root), as in Annoy;
the frontier is deterministic, so the candidate pool for a small budget is
always a subset of the pool for a larger one.

The frontier is defined by a heap walk (`tests/test_rpforest.py` keeps it as
the oracle): nodes pop by priority, highest first, and on equal priority by
push order. A split pushes its right child before its left when it pops, so
ties fall to the tuple (priority of the parent, of the grandparent, ..., of
the root; the tree; the sides from the root down, right before left).
`candidate_rows` picks the same leaves without walking every node. One
float32 product scores every plane, the priorities follow level by level,
and a proven bound on the float32 margins' error settles every leaf but
those within it of the cut; only those are ranked by the heap walk itself,
over their own paths, on margins computed as the walk computes them.

The trees are flat arrays in VIDX node order: each in pre-order, one after
another. Node i is a split when `splits[i] >= 0`, the row of its plane in
`normals` and `offsets`, with children i + 1 (left) and a right child after
the left subtree; leaf j (in node order) holds `rows[leaf_cuts[j]:leaf_cuts[j + 1]]`.
For the frontier every split and every leaf keeps the index of its parent
split, the splits ordered by depth (`level_ends`), and an edge index into the
signed margins: the parent's plane for a right child, that plus the plane
count for a left one. Nothing recurses, so any depth is fine.
"""

from __future__ import annotations

import heapq
import math
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import (
    SearchResult, VectorIndex, check_count, check_finite, check_query, check_rows, check_seed, make_result,
)
from .data import EmbeddingSet
from .distances import _ETA32, _LIMIT, _U32, _U64, Metric, _gamma, _norm_bound, batch_scores, sq_row_norms
from .wire import U32_MAX, Reader, Writer

# tools/forest_sweep.py: of the pairs with at least the recall@10 of 10 trees of
# 16-row leaves on every swept corpus and metric, the fastest by median search time.
DEFAULT_N_TREES = 6
DEFAULT_LEAF_SIZE = 48
_SPLIT_RETRIES = 3

_METRIC_TAGS = {Metric.ANGULAR: 0, Metric.L2: 1, Metric.MANHATTAN: 2}
_METRIC_BY_TAG = {tag: metric for metric, tag in _METRIC_TAGS.items()}
_LEAF, _SPLIT = 0, 1  # VIDX node tags
_U32_AT = struct.Struct("<I").unpack_from


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
        self.metric = Metric(metric)
        self.leaf_size = leaf_size
        self._ids = np.asarray(ids, dtype=np.uint64)
        self._vectors = np.asarray(vectors, dtype=np.float32)
        is_split = np.asarray(is_split, dtype=bool)
        self._splits = np.where(is_split, np.cumsum(is_split) - 1, -1).astype(np.int32)
        self._normals = np.asarray(normals, dtype=np.float32).reshape(-1, self.dim)
        self._offsets = np.asarray(offsets, dtype=np.float64)
        self._rows = np.asarray(rows, dtype=np.uint32)
        # level[i] (splits minus leaves before node i) is higher inside a split's left
        # subtree, so its right child is the next node on its level; tree t starts at
        # level -t. A stable argsort of 16-bit keys is a radix sort.
        level = np.concatenate(([0], np.cumsum(np.where(is_split, 1, -1))))
        order = np.argsort(level.astype(np.int16) if len(level) < 2**15 else level, kind="stable")
        after = np.empty_like(order)  # by level, then by node
        after[order[:-1]] = order[1:]
        self._roots = order[np.searchsorted(level[order], -np.arange(-level[-1]))]
        # Each node's parent, and its edge: the parent's plane, plus the plane
        # count on a left child; -1 (the +inf sentinel of the signed margins) at a root.
        n_nodes, split_nodes = len(self._splits), np.flatnonzero(is_split)
        n_splits, right = len(split_nodes), after[split_nodes]
        parent = np.full(n_nodes, -1, dtype=np.intp)
        edge = np.full(n_nodes, -1, dtype=np.intp)
        parent[split_nodes + 1] = parent[right] = split_nodes
        edge[split_nodes + 1] = n_splits + np.arange(n_splits)
        edge[right] = np.arange(n_splits)
        # each split's depth by pointer jumping: hops[s] edges lead from split s to
        # ancestor[s], a split, or to its root when ancestor[s] < 0
        ancestor = parent[split_nodes]
        ancestor = np.where(ancestor >= 0, self._splits[ancestor], -1)
        hops, live = (ancestor >= 0).astype(np.intp), np.flatnonzero(ancestor >= 0)
        while len(live):
            hops[live] += hops[ancestor[live]]
            ancestor[live] = ancestor[ancestor[live]]
            live = live[ancestor[live] >= 0]
        by_depth = split_nodes[np.argsort(hops.astype(np.int16) if n_splits < 2**15 else hops, kind="stable")]
        self._level_ends = np.cumsum(np.bincount(hops))
        position = np.empty(n_nodes, dtype=np.intp)  # a split's place in by_depth
        position[by_depth] = np.arange(n_splits)
        up = position[parent]  # a parent's place; -1 - t at the root of tree t
        up[self._roots] = -1 - np.arange(len(self._roots))
        leaf_nodes = np.flatnonzero(~is_split)
        # intp, not int32: numpy converts any other index array on every gather
        self._split_up, self._split_edge = up[by_depth], edge[by_depth]
        self._leaf_up, self._leaf_edge = up[leaf_nodes], edge[leaf_nodes]
        self._leaf_cuts = np.asarray(cuts, dtype=np.int64)[np.append(leaf_nodes, n_nodes)]
        # N >= every normal's norm (None when float32 margins could overflow) and
        # the largest |offset|: the terms of `_margin_error`
        max_sq_norm = float(sq_row_norms(self._normals).max()) if n_splits else 0.0
        self._norm_bound = _norm_bound(self.dim, max_sq_norm)
        self._max_offset = float(np.abs(self._offsets).max()) if n_splits else 0.0

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

        The leaves are those the heap walk pops first (module docstring). A
        leaf's float32 priority lies within 2 E of the walk's (`_margin_error`),
        so one more than 2 E above the search_k-th highest is inspected and
        one more than 2 E below it is not; the walk ranks the rest.
        """
        check_count("search_k", search_k)
        q64 = check_query(query, 1, self.dim)
        n_leaves = len(self._leaf_up)
        if search_k >= n_leaves:  # every tree holds every row once
            return np.arange(len(self._ids), dtype=self._rows.dtype)
        if self._norm_bound is not None and np.abs(q64).max() < _LIMIT:
            leaf_priority = self._leaf_priorities(q64.astype(np.float32))
            kth = float(np.partition(leaf_priority, n_leaves - search_k)[n_leaves - search_k])
            # 2 E, raised to cover the float64 rounding of kth -/+ it; +inf is exact
            e = self._margin_error(q64)
            slack = 2.0 * e * (1.0 + 2.0**-40) + 2.0**-40 * abs(kth) if kth < math.inf else 0.0
            near = (leaf_priority >= kth - slack).nonzero()[0]
            above = leaf_priority[near] > kth + slack
            inside, band = near[above], near[~above]
        else:  # a float32 product could overflow: the walk ranks every leaf
            inside, band = np.arange(0), np.arange(n_leaves)
        wanted = search_k - len(inside)
        if wanted < len(band):
            band = np.array(self._first_leaves(q64, band, wanted), dtype=np.intp)
        leaves = np.concatenate((inside, band))
        starts = self._leaf_cuts[leaves]
        sizes = self._leaf_cuts[leaves + 1] - starts
        ends = np.cumsum(sizes)
        rows = np.sort(self._rows[np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])])
        first = np.empty(len(rows), dtype=bool)  # each row's first copy in sorted order
        first[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        return rows[first]

    def _leaf_priorities(self, q32: np.ndarray) -> np.ndarray:
        """Every leaf's priority from float32 margins: one product scores every
        plane, and each level of splits takes the minimum with its parent's."""
        n_splits = len(self._offsets)
        signed = np.empty(2 * n_splits + 1)  # +margin into a right child, -margin into a left
        np.subtract(self._normals @ q32, self._offsets, out=signed[:n_splits])
        np.negative(signed[:n_splits], out=signed[n_splits:-1])
        signed[-1] = np.inf  # above a root
        priority = np.empty(n_splits + self.n_trees)  # splits by depth, then +inf per tree
        priority[n_splits:] = np.inf
        on_edge, start = signed[self._split_edge], 0
        for end in self._level_ends.tolist():
            np.minimum(priority[self._split_up[start:end]], on_edge[start:end], out=priority[start:end])
            start = end
        return np.minimum(priority[self._leaf_up], signed[self._leaf_edge])

    def _first_leaves(self, q64: np.ndarray, band: np.ndarray, wanted: int) -> list[int]:
        """The first `wanted` leaves of `band` in the frontier's order: the heap
        walk run over the paths from the roots to those leaves alone.

        The walk pops nodes by (priority, push order), and push order follows
        the parents' pop order, so nodes off those paths change no order
        among the nodes on them. Margins are computed as the full walk computes
        them, one per popped split.
        """
        n_splits = len(self._offsets)
        split_up, split_edge, leaf_up, leaf_edge = map(
            memoryview, (self._split_up, self._split_edge, self._leaf_up, self._leaf_edge)
        )
        # parent (a split's place by depth, or -1 - t above the root of tree t) ->
        # [(edge, node)]; node n_splits + j is leaf j
        below: dict[int, list[tuple[int, int]]] = {}
        for leaf in band.tolist():
            node, up, edge = n_splits + leaf, leaf_up[leaf], leaf_edge[leaf]
            while True:
                if up in below:
                    below[up].append((edge, node))
                    break
                below[up] = [(edge, node)]
                if up < 0:
                    break
                node, up, edge = up, split_up[up], split_edge[up]
        # (-priority, counter, node): a max-heap on priority; sorted, hence a heap
        frontier = sorted((-np.inf, -1 - up, kids[0][1]) for up, kids in below.items() if up < 0)
        counter = self.n_trees
        first: list[int] = []
        while len(first) < wanted:
            neg_priority, _, node = heapq.heappop(frontier)
            if node >= n_splits:
                first.append(node - n_splits)
                continue
            split = below[node][0][0] % n_splits
            margin = float(q64.dot(self._normals[split]) - self._offsets[split])
            for edge, child in below[node]:
                if edge < n_splits:  # right child
                    heapq.heappush(frontier, (max(neg_priority, -margin), counter, child))
                else:
                    heapq.heappush(frontier, (max(neg_priority, margin), counter + 1, child))
            counter += 2
        return first

    def _margin_error(self, q64: np.ndarray) -> float:
        """E >= |float32 margin - the walk's margin| for every plane.

        The float32 margin is fl64(x - o), x the float32 product of a normal n
        with q32 (q rounded to float32) and o the offset; the walk's is
        fl64(y - o), y the float64 dot of q and n. Let d be the dimension,
        u = 2**-24, U = 2**-53, g = gamma_d in float32 and G in float64
        (`distances._gamma`), N >= ||n|| (`distances._norm_bound`), O >= |o|
        and eta = 2**-149.
        Rounding q moves each component by at most u |q_t| + eta, so
        R = ||q - q32|| <= u ||q|| + d eta and Q = ||q32|| <= (1 + u) ||q|| + d eta.
        Then |x - n.q| <= g N Q + N R, |y - n.q| <= G N ||q||, and the two
        subtractions add U (|x| + O) + U (|y| + O), with |x| + |y| <= (4 + 2 u) N ||q||
        + 2 N d eta. In all, E <= N ||q|| (g (1 + u) + u + G + 6 U) + 2 U O
        + 3 N d eta, raised by 2**-20 of itself (its float64 rounding) and by
        `distances._proven_cut`'s underflow term.
        """
        d = self.dim
        n_q = self._norm_bound * math.sqrt(float(q64 @ q64))
        g, big_g = _gamma(d, _U32), _gamma(d, _U64)
        e = n_q * (g * (1.0 + _U32) + _U32 + big_g + 6.0 * _U64) + 2.0 * _U64 * self._max_offset
        e += 3.0 * self._norm_bound * d * _ETA32
        return e * (1.0 + 2.0**-20) + 2**17 * (d + 1) * _ETA32

    def search(self, query: np.ndarray, k: int, search_k: int | None = None) -> SearchResult:
        check_count("k", k)  # candidate_rows checks the query
        rows = self.candidate_rows(query, self.n_trees * k if search_k is None else search_k)
        scores = batch_scores(self.metric, query, self._vectors[rows])
        return make_result(self.metric, self._ids[rows], scores, k)

    # ------------------------------------------------------------ persistence

    def write_payload(self, w: Writer) -> None:
        w.u8(_METRIC_TAGS[self.metric])
        w.u32(self.n_trees)
        w.u32(self.leaf_size)
        w.u32(self.dim)
        w.u64(len(self._ids))
        w.u64_array(self._ids)
        w.f32_array(self._vectors)
        cuts, leaf = self._leaf_cuts.tolist(), 0
        for split in self._splits.tolist():
            if split < 0:
                w.u8(_LEAF)
                w.u32(cuts[leaf + 1] - cuts[leaf])
                w.u32_array(self._rows[cuts[leaf] : cuts[leaf + 1]])
                leaf += 1
            else:
                w.u8(_SPLIT)
                w.f32_array(self._normals[split])
                w.f64(self._offsets[split])

    @classmethod
    def read_payload(cls, r: Reader) -> "RpForestIndex":
        metric = _METRIC_BY_TAG.get(r.u8())  # None fails the constructor's check
        n_trees = check_count("n_trees", r.u32())
        leaf_size = check_count("leaf_size", r.u32())
        dim = check_count("dim", r.u32())
        count = r.u64()
        ids = r.u64_array(count)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        # One walk finds each node's start by counting open child slots, then
        # every array is cut and checked in bulk; a node spans at least 5 bytes.
        data, starts, pos, open_slots = memoryview(r.view("u1")), [], 0, n_trees
        append, split_width = starts.append, 1 + 4 * dim + 8  # tag, normal, offset
        try:
            while open_slots:
                append(pos)
                tag = data[pos]
                if tag == _SPLIT:
                    pos += split_width
                    open_slots += 1
                elif tag == _LEAF:  # tag, row count, rows
                    pos += 5 + 4 * _U32_AT(data, pos + 1)[0]
                    open_slots -= 1
                else:
                    raise ValueError(f"node tag {tag} is neither 0 (leaf) nor 1 (split)")
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
        check_finite("stored vectors and split planes", vectors, normals, offsets)
        forest = cls(metric, leaf_size, ids, vectors, is_split, normals, offsets, cuts, rows)
        # tree t's rows are rows[t * count:(t + 1) * count]; each marks its slot once
        slots = np.arange(n_trees, dtype=np.int64) * count
        whole = (np.array_equal(cuts[forest._roots], slots) and cuts[-1] == n_trees * count
                 and (count == 0 or int(rows.max()) < count))
        if whole:  # cuts[-1] now bounds n_trees * count by the rows the blob stores
            seen = np.zeros(n_trees * count, dtype=bool)
            seen[(rows.reshape(n_trees, count) + slots[:, None]).reshape(-1)] = True
            whole = seen.all()
        if not whole:
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
    check_rows("vectors", emb_set.vectors, nonempty=True)
    n_trees = check_count("n_trees", n_trees, U32_MAX)
    leaf_size = check_count("leaf_size", leaf_size, U32_MAX)
    seed = check_seed(seed)
    metric = Metric(metric)
    vectors64 = emb_set.vectors.astype(np.float64)
    angular = metric is Metric.ANGULAR
    is_split, normals, offsets, leaves = [], [], [], []  # leaves: a node's rows (none at a split)
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
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
