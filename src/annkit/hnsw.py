"""Hierarchical navigable small-world graph index.

Construction follows the classic recipe: each node draws a top level from a
geometric-like distribution (floor(-ln(u) * mL), mL = 1/ln(M)), descends
greedily through the upper layers, then links to up to M candidates found
with an ef_construction-sized best-first search per layer. Link selection
uses the diversity heuristic: walking candidates nearest-first, a candidate
is linked only if it is closer to the new node than to every neighbor already
chosen. Overflowing back-edge lists are re-pruned with the same rule. Plain
nearest-M selection is deliberately not used — on clustered data it lets
same-cluster back-edges evict every cross-cluster bridge, the bottom layer
disintegrates into per-cluster islands, and queries that descend into the
wrong cluster can never leave it (measured here: recall collapses from ~0.99
to ~0.8 on well-separated blobs). Search descends the same way and runs a
best-first scan with an ef_search-sized result pool at level 0.

Vectors are stored inside the index, so searches need no external set, and
reported scores are exact Euclidean distances to the stored vectors.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .base import SearchResult, VectorIndex, check_query, make_result
from .data import EmbeddingSet
from .distances import Metric
from .wire import Reader, Writer


@dataclass
class HnswParams:
    """Graph shape knobs. M caps degree; the ef values size candidate pools."""

    M: int = 32
    ef_construction: int = 40
    ef_search: int = 64

    def __post_init__(self) -> None:
        if self.M < 1 or self.ef_construction < 1 or self.ef_search < 1:
            raise ValueError("HNSW parameters must be strictly positive")

    @property
    def M_max0(self) -> int:
        return 2 * self.M

    @property
    def mL(self) -> float:
        return 1.0 / math.log(self.M) if self.M > 1 else 1.0


class HnswIndex(VectorIndex):
    family = "hnsw"

    def __init__(self, dim: int, params: HnswParams | None = None, seed: int = 0):
        self.params = params or HnswParams()
        self._dim = dim
        self._rng = np.random.default_rng(seed)
        self._vec32 = np.empty((0, dim), dtype=np.float32)
        self._ids: list[int] = []
        self._levels: list[int] = []
        self._links: list[list[list[int]]] = []  # row -> level -> neighbor rows
        self._row_by_id: dict[int, int] = {}
        self._entry = -1

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls, emb_set: EmbeddingSet, params: HnswParams | None = None, seed: int = 0
    ) -> "HnswIndex":
        """Insert every record in ascending-id order; deterministic in `seed`."""
        if len(emb_set) == 0:
            raise ValueError("cannot build an index over an empty set")
        index = cls(emb_set.dim, params, seed)
        for row in np.argsort(emb_set.ids, kind="stable"):
            index.insert(int(emb_set.ids[row]), emb_set.vectors[row])
        index._vec32 = index._vec32[: len(emb_set)].copy()  # drop the doubling slack
        return index

    def _grow(self, needed: int) -> None:
        capacity = len(self._vec32)
        if needed <= capacity:
            return
        grown = np.empty((max(needed, 16, 2 * capacity), self._dim), dtype=np.float32)
        grown[:capacity] = self._vec32
        self._vec32 = grown

    def _draw_level(self) -> int:
        u = 1.0 - self._rng.random()  # uniform in (0, 1]
        return int(math.floor(-math.log(u) * self.params.mL))

    def _dists(self, q64: np.ndarray, rows: list[int]) -> np.ndarray:
        """Squared L2 from the query to the given rows (float64).

        `q64` must be float64: the float32 rows then promote exactly, while a
        float32 query would make the difference round in float32.
        """
        diff = self._vec32[rows] - q64
        diff *= diff  # in place, and the method sum below, to spare per-call overhead
        return diff.sum(axis=1)

    def _search_layer(
        self,
        q64: np.ndarray,
        entries: list[int],
        ef: int,
        level: int,
        visited_out: set[int] | None = None,
    ) -> list[tuple[float, int]]:
        """Best-first scan of one layer; returns (squared dist, row) ascending.

        The result pool evicts its farthest member (row tie-break), so two runs
        with different ef values traverse identically until the smaller pool
        starts rejecting — the visited set grows monotonically with ef.
        """
        visited = set(entries)
        entry_d = self._dists(q64, entries)
        candidates = sorted(zip(entry_d.tolist(), entries))
        pool = [(-d, -r) for d, r in candidates]
        heapq.heapify(pool)
        while len(pool) > ef:
            heapq.heappop(pool)
        heapq.heapify(candidates)

        while candidates:
            d, row = heapq.heappop(candidates)
            bound = -pool[0][0]
            if len(pool) >= ef and d > bound:
                break
            fresh = [r for r in self._links[row][level] if r not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            for dn, rn in zip(self._dists(q64, fresh).tolist(), fresh):
                if len(pool) < ef:
                    heapq.heappush(pool, (-dn, -rn))
                    heapq.heappush(candidates, (dn, rn))
                elif dn < -pool[0][0]:
                    heapq.heappushpop(pool, (-dn, -rn))
                    heapq.heappush(candidates, (dn, rn))
        if visited_out is not None:
            visited_out.update(visited)
        return sorted((-d, -r) for d, r in pool)

    def _select_diverse(
        self, cand: list[tuple[float, int]], cap: int, fill: bool = False
    ) -> list[int]:
        """Pick up to `cap` rows from (squared dist to base, row) candidates.

        Nearest-first greedy: a candidate joins the core only if it is closer
        to the base point than to every row already chosen, which spreads the
        links across directions instead of packing one tight neighborhood.
        With `fill`, remaining slots are topped up with the nearest rejected
        candidates so the degree budget is never wasted — the diverse core
        preserves long-range bridges while the fill keeps the graph dense.

        `nearest[i]` holds candidate i's squared distance to the closest row
        chosen so far, updated once per chosen row, so only chosen rows cost
        a pass over the candidates. The result equals scoring each candidate
        against the chosen set: each difference is the exact negation of that
        form's, and every row sums in the same order.
        """
        cand = sorted(cand)
        vecs = self._vec32[[row for _, row in cand]].astype(np.float64)
        nearest = np.full(len(cand), np.inf)
        chosen: list[int] = []
        rejected: list[int] = []
        for i, (d_base, row) in enumerate(cand):
            if len(chosen) == cap:
                return chosen
            if nearest[i] < d_base:
                if fill:
                    rejected.append(row)
                continue
            chosen.append(row)
            later = vecs[i + 1 :] - vecs[i]
            later *= later
            np.minimum(nearest[i + 1 :], later.sum(axis=1), out=nearest[i + 1 :])
        chosen.extend(rejected[: cap - len(chosen)])
        return chosen

    def _extended(
        self,
        found: list[tuple[float, int]],
        q64: np.ndarray,
        layer: int,
        exclude: int | None = None,
    ) -> list[tuple[float, int]]:
        """Candidates plus their graph neighbors at `layer`, re-scored."""
        rows = {r for _, r in found}
        for _, r in found:
            rows.update(self._links[r][layer])
        rows.discard(exclude)
        rows = sorted(rows)
        return list(zip(self._dists(q64, rows).tolist(), rows))

    def insert(self, record_id: int, vector: np.ndarray) -> None:
        """Add one vector; its level is drawn from the index's seeded stream."""
        record_id = int(record_id)
        if record_id in self._row_by_id:
            raise ValueError(f"duplicate id {record_id}")
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self._dim:
            raise ValueError(f"vector has dim {vector.shape[0]}, index expects {self._dim}")
        if not np.isfinite(vector).all():
            raise ValueError("vector must be finite (no NaN or inf)")

        level = self._draw_level()
        row = len(self._ids)
        self._grow(row + 1)
        self._vec32[row] = vector
        self._ids.append(record_id)
        self._levels.append(level)
        self._links.append([[] for _ in range(level + 1)])
        self._row_by_id[record_id] = row

        if self._entry < 0:
            self._entry = row
            return

        q64 = vector.astype(np.float64)
        top = self._levels[self._entry]
        entries = [self._entry]
        for layer in range(top, level, -1):
            best = self._search_layer(q64, entries, 1, layer)
            entries = [best[0][1]]

        for layer in range(min(level, top), -1, -1):
            found = self._search_layer(q64, entries, self.params.ef_construction, layer)
            # The thin upper layers decide which region a query descends into,
            # so their links get the expensive treatment: candidates extended
            # by their graph neighbors, and pruned lists refilled to the cap.
            # Level 0 keeps the plain diverse core, which is both faster and
            # denser in escape edges than nearest-first truncation.
            upper = layer >= 1
            cand = self._extended(found, q64, layer) if upper else found
            neighbors = self._select_diverse(cand, self.params.M, fill=True)
            self._links[row][layer] = list(neighbors)
            cap = self.params.M_max0 if layer == 0 else self.params.M
            for nb in neighbors:
                links = self._links[nb][layer]
                links.append(row)
                if len(links) > cap:
                    nb64 = self._vec32[nb].astype(np.float64)
                    nd = self._dists(nb64, links)
                    pairs = sorted(zip(nd.tolist(), links))
                    if upper:
                        pairs = self._extended(pairs, nb64, layer, exclude=nb)
                    self._links[nb][layer] = self._select_diverse(pairs, cap, fill=upper)
            entries = [r for _, r in found]

        if level > top:
            self._entry = row

    # ----------------------------------------------------------------- search

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef_search: int | None = None,
        visited_out: set[int] | None = None,
    ) -> SearchResult:
        """k nearest stored vectors by exact L2, id tie-break.

        An explicit ef_search below k is an error; when omitted, the default
        pool is widened to max(configured ef_search, k) so large-k sweeps work.
        """
        q64 = check_query(query, k, self.dim)
        if ef_search is not None and ef_search < k:
            raise ValueError(f"ef_search={ef_search} must be >= k={k}")
        if len(self._ids) == 0:
            return SearchResult()
        ef = max(self.params.ef_search, k) if ef_search is None else ef_search
        entries = [self._entry]
        for layer in range(self._levels[self._entry], 0, -1):
            best = self._search_layer(q64, entries, 1, layer)
            entries = [best[0][1]]
        found = self._search_layer(q64, entries, ef, 0, visited_out=visited_out)

        rows = [r for _, r in found]
        ids = np.array([self._ids[r] for r in rows], dtype=np.uint64)
        scores = np.sqrt(np.array([d for d, _ in found], dtype=np.float64))
        return make_result(Metric.L2, ids, scores, k)

    # ------------------------------------------------------------- inspection

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> np.ndarray:
        return np.array(self._ids, dtype=np.uint64)

    @property
    def entry_id(self) -> int:
        if self._entry < 0:
            raise ValueError("empty graph has no entry point")
        return self._ids[self._entry]

    def level_of(self, record_id: int) -> int:
        return self._levels[self._row_by_id[int(record_id)]]

    def neighbors_of(self, record_id: int, level: int) -> list[int]:
        row = self._row_by_id[int(record_id)]
        return [self._ids[r] for r in self._links[row][level]]

    def validate_structure(self) -> None:
        """Assert degree caps, level containment, and entry-point maximality."""
        if not self._ids:
            return
        max_level = max(self._levels)
        assert self._levels[self._entry] == max_level, "entry point must have max level"
        for row, node_links in enumerate(self._links):
            assert len(node_links) == self._levels[row] + 1, "node missing a level"
            for level, links in enumerate(node_links):
                cap = self.params.M_max0 if level == 0 else self.params.M
                assert len(links) <= cap, f"degree {len(links)} exceeds cap {cap}"
                assert row not in links, "self-loop"
                assert len(set(links)) == len(links), "duplicate edge"
                for nb in links:
                    assert 0 <= nb < len(self._ids), "edge to missing node"
                    assert self._levels[nb] >= level, "edge to node absent from level"

    def memory_bytes(self) -> int:
        """Vector buffer as held (spare capacity included), ids, edges, levels."""
        n = len(self._ids)
        id_bytes = n * 8
        edge_bytes = sum(
            4 * len(links) for node in self._links for links in node
        )
        return self._vec32.nbytes + id_bytes + edge_bytes + 4 * n  # + per-node level

    def config(self) -> dict:
        return {
            "M": self.params.M,
            "ef_construction": self.params.ef_construction,
            "ef_search": self.params.ef_search,
        }

    # ------------------------------------------------------------ persistence

    def write_payload(self, w: Writer) -> None:
        w.u32(self.params.M)
        w.u32(self.params.ef_construction)
        w.u32(self.params.ef_search)
        w.u32(self._dim)
        w.u64(len(self._ids))
        if self._ids:
            w.u64(self._ids[self._entry])
        else:
            w.u64(0)
        w.u64_array(np.array(self._ids, dtype=np.uint64))
        w.u32_array(np.array(self._levels, dtype=np.uint32))
        w.f32_array(self._vec32[: len(self._ids)])
        for row in range(len(self._ids)):
            for links in self._links[row]:
                w.u32(len(links))
                w.u32_array(np.array(links, dtype=np.uint32))

    @classmethod
    def read_payload(cls, r: Reader) -> "HnswIndex":
        params = HnswParams(M=r.u32(), ef_construction=r.u32(), ef_search=r.u32())
        dim = r.u32()
        count = r.u64()
        entry_id = r.u64()
        ids = r.u64_array(count)
        levels = r.u32_array(count)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        if not np.isfinite(vectors).all():
            raise ValueError("stored vectors must be finite (no NaN or inf)")
        index = cls(dim, params)
        index._vec32 = vectors.copy()  # owned: a reshaped view would keep two array objects
        index._ids = [int(i) for i in ids]
        index._levels = [int(l) for l in levels]
        index._row_by_id = {int(i): row for row, i in enumerate(ids)}
        for row in range(count):
            node_links = []
            for _ in range(index._levels[row] + 1):
                deg = r.u32()
                node_links.append([int(x) for x in r.u32_array(deg)])
            index._links.append(node_links)
        index._entry = index._row_by_id[int(entry_id)] if count else -1
        return index
