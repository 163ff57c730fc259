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
to ~0.8 on well-separated blobs). Search descends the same way: above level 0
it walks greedily, scoring each link list in one call and moving to a strictly
closer neighbour until none is, and at level 0 it runs a best-first scan with
a max(ef_search, k)-sized result pool. Every distance, in search and in link
selection, is the squared L2 of `distances._sq_l2` on gathered float32 rows
against a float64 point; a selection gathers and scores its candidates once.

Vectors are stored inside the index, so searches need no external set, and
reported scores are exact Euclidean distances to the stored vectors.

Storage: row r's vector, id and top level sit at row r of one float32 (rows
x dim) buffer, one uint64 and one uint32 array; `build` sizes all three to
its set once, and an insert past their end doubles them. Rows are found from
ids by one vectorised compare over the id array. The links are held level by
level: `_links[level][row]` is row's neighbour rows at that level, one
packed int32 `array.array`, so an edge costs 4 B and no Python int. Level 0
is a list with one entry per row; each upper level is a dict holding only
the rows that reach it (about one row in M), so a node has no list object of
its own. The VIDX link section stores the same lists row by row, and a load
cuts each list straight out of it into its level after one vectorised
structure check (`_check_links`), so a corrupted file raises ValueError.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array

import numpy as np

from .base import SearchResult, VectorIndex, check_count, check_query, make_result
from .data import EmbeddingSet
from .distances import Metric, _sq_l2
from .wire import U32_MAX, Reader, Writer

# Fixed bytes of one neighbour list (the array object, its items apart) and
# of a list of them (the list object, its slots apart).
_LIST_HEADER = sys.getsizeof(array("i"))
_SLOTS_HEADER = sys.getsizeof([])


class HnswIndex(VectorIndex):
    """HNSW graph over stored vectors. Its knobs: M caps an upper level's
    degree (2 M at level 0); the ef values size the construction and search
    candidate pools."""

    family = "hnsw"

    def __init__(
        self, dim: int, M: int = 32, ef_construction: int = 40, ef_search: int = 64, seed: int = 0
    ):
        check_count("M", M, U32_MAX)
        check_count("ef_construction", ef_construction, U32_MAX)
        check_count("ef_search", ef_search, U32_MAX)
        check_count("dim", dim)
        self.M = M
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._mL = 1.0 / math.log(M) if M > 1 else 1.0  # level multiplier
        self._dim = dim
        self._rng = np.random.default_rng(seed)
        self._vec32 = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.uint64)
        self._levels = np.empty(0, dtype=np.uint32)
        # level -> row -> neighbor rows: a list at level 0, dicts above it
        self._links: list[list[array] | dict[int, array]] = [[]]
        self._entry = -1

    # ------------------------------------------------------------------ build

    @classmethod
    def build(cls, emb_set: EmbeddingSet, seed: int = 0, **knobs) -> "HnswIndex":
        """Insert every record in ascending-id order; deterministic in `seed`.
        `knobs` are the constructor's M, ef_construction and ef_search."""
        index = cls(emb_set.dim, seed=seed, **knobs)
        if len(emb_set) == 0:
            raise ValueError("cannot build an index over an empty set")
        index._grow(len(emb_set))
        for row in np.argsort(emb_set.ids, kind="stable"):
            index.insert(int(emb_set.ids[row]), emb_set.vectors[row])
        return index

    def _grow(self, needed: int) -> None:
        capacity = len(self._ids)
        if needed <= capacity:
            return
        size = max(needed, 2 * capacity)
        grown = []
        for a in (self._vec32, self._ids, self._levels):
            b = np.empty((size, *a.shape[1:]), dtype=a.dtype)
            b[:capacity] = a
            grown.append(b)
        self._vec32, self._ids, self._levels = grown

    def _find(self, record_id: int) -> int:
        """Row holding `record_id`, or -1."""
        rid = int(record_id)
        if not 0 <= rid < 2**64:
            return -1
        hits = np.flatnonzero(self._ids[: len(self)] == np.uint64(rid))
        return int(hits[0]) if len(hits) else -1

    def _draw_level(self) -> int:
        u = 1.0 - self._rng.random()  # uniform in (0, 1]
        return int(math.floor(-math.log(u) * self._mL))

    def _dists(self, q64: np.ndarray, rows: list[int] | array) -> np.ndarray:
        """Squared L2 from the query to the given rows (float64).

        `q64` must be float64: the float32 rows then promote exactly, while a
        float32 query would make the difference round in float32.
        """
        return _sq_l2(self._vec32.take(rows, axis=0), q64)

    def _descend(self, q64: np.ndarray, level: int) -> int:
        """Row that the greedy walk from the entry point reaches at `level`.

        On each layer from the entry's top down to `level + 1`, the current
        row's whole link list is scored at once; the walk moves to its first
        nearest row if that is strictly closer, and goes down a layer when no
        neighbour is. This is what `_search_layer(q64, [row], 1, layer)`
        returns layer by layer: a neighbour enters that scan's candidates only
        by beating the best so far, a row it scored can never beat the best
        again, and its left-to-right scan for a strictly better row keeps the
        first of equal minima.
        """
        row = self._entry
        best = self._dists(q64, [row])[0]
        for layer in range(int(self._levels[row]), level, -1):
            links = self._links[layer]
            nbrs = links[row]
            while nbrs:
                d = self._dists(q64, nbrs)
                i = int(d.argmin())
                if d[i] >= best:
                    break
                best, row = d[i], nbrs[i]
                nbrs = links[row]
        return row

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
        links = self._links[level]
        visited = set(entries)
        candidates = sorted(zip(self._dists(q64, entries).tolist(), entries))  # a heap already
        pool = [(-d, -r) for d, r in candidates[:ef]]
        heapq.heapify(pool)

        while candidates:
            d, row = heapq.heappop(candidates)
            bound = -pool[0][0]
            if len(pool) >= ef and d > bound:
                break
            fresh = [r for r in links[row] if r not in visited]
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
        self, base: np.ndarray, rows: list[int] | array, cap: int, fill: bool = False
    ) -> list[int]:
        """Pick up to `cap` of the candidate `rows` for the float64 point `base`.

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
        form's, and every row sums in the same order. The rows are gathered
        once: their float64 copy is exact, so its `_sq_l2` to the base has the
        bits of `_dists`.
        """
        vecs = self._vec32.take(rows, axis=0).astype(np.float64)
        d = _sq_l2(vecs, base)
        order = np.lexsort((rows, d))  # nearest first, row tie-break
        vecs = vecs[order]
        nearest = np.full(len(order), np.inf)
        chosen: list[int] = []
        rejected: list[int] = []
        for i, (d_base, row) in enumerate(zip(d[order].tolist(), np.take(rows, order).tolist())):
            if len(chosen) == cap:
                return chosen
            if nearest[i] < d_base:
                if fill:
                    rejected.append(row)
                continue
            chosen.append(row)
            np.minimum(nearest[i + 1 :], _sq_l2(vecs[i + 1 :], vecs[i]), out=nearest[i + 1 :])
        chosen.extend(rejected[: cap - len(chosen)])
        return chosen

    def _extended(self, rows: list[int] | array, layer: int, exclude: int = -1) -> list[int]:
        """`rows` and their graph neighbors at `layer`, ascending, `exclude` left out."""
        links = self._links[layer]
        ext = set(rows).union(*(links[r] for r in rows))
        ext.discard(exclude)
        return sorted(ext)

    def insert(self, record_id: int, vector: np.ndarray) -> None:
        """Add one vector; its level is drawn from the index's seeded stream."""
        record_id = int(record_id)
        if not 0 <= record_id < 2**64:
            raise ValueError(f"id {record_id} does not fit in 64 unsigned bits")
        if self._find(record_id) >= 0:
            raise ValueError(f"duplicate id {record_id}")
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self._dim:
            raise ValueError(f"vector has dim {vector.shape[0]}, index expects {self._dim}")
        if not np.isfinite(vector).all():
            raise ValueError("vector must be finite (no NaN or inf)")

        level = self._draw_level()
        row = len(self)
        self._grow(row + 1)
        self._vec32[row] = vector
        self._ids[row] = record_id
        self._levels[row] = level
        self._links[0].append(array("i"))
        while len(self._links) <= level:
            self._links.append({})
        for layer in range(1, level + 1):
            self._links[layer][row] = array("i")

        if self._entry < 0:
            self._entry = row
            return

        q64 = vector.astype(np.float64)
        top = int(self._levels[self._entry])
        entries = [self._descend(q64, level)]

        for layer in range(min(level, top), -1, -1):
            found = self._search_layer(q64, entries, self.ef_construction, layer)
            entries = [r for _, r in found]
            # The thin upper layers decide which region a query descends into,
            # so their links get the expensive treatment: candidates extended
            # by their graph neighbors, and pruned lists refilled to the cap.
            # Level 0 keeps the plain diverse core, which is both faster and
            # denser in escape edges than nearest-first truncation.
            upper = layer >= 1
            cand = self._extended(entries, layer) if upper else entries
            neighbors = self._select_diverse(q64, cand, self.M, fill=True)
            at_layer = self._links[layer]
            at_layer[row] = array("i", neighbors)
            cap = 2 * self.M if layer == 0 else self.M
            for nb in neighbors:
                links = at_layer[nb]
                links.append(row)
                if len(links) > cap:
                    cand = self._extended(links, layer, exclude=nb) if upper else links
                    nb64 = self._vec32[nb].astype(np.float64)
                    at_layer[nb] = array("i", self._select_diverse(nb64, cand, cap, fill=upper))

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

        The level-0 pool holds max(ef_search, k) nodes, ef_search being the
        configured one unless the query sets it, as in hnswlib. `visited_out`
        receives the rows that the level-0 scan scored; the greedy walk above
        it is not counted.
        """
        q64 = check_query(query, k, self.dim)
        if ef_search is not None:
            check_count("ef_search", ef_search)
        if self._entry < 0:
            return SearchResult()
        ef = max(self.ef_search if ef_search is None else ef_search, k)
        found = self._search_layer(q64, [self._descend(q64, 0)], ef, 0, visited_out=visited_out)

        ids = self._ids[[r for _, r in found]]
        scores = np.sqrt(np.array([d for d, _ in found], dtype=np.float64))
        return make_result(Metric.L2, ids, scores, k)

    # ------------------------------------------------------------- inspection

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return len(self._links[0])

    @property
    def ids(self) -> np.ndarray:
        return self._ids[: len(self)].copy()

    @property
    def entry_id(self) -> int:
        if self._entry < 0:
            raise ValueError("empty graph has no entry point")
        return int(self._ids[self._entry])

    def _row_of(self, record_id: int) -> int:
        row = self._find(record_id)
        if row < 0:
            raise KeyError(f"unknown record id {record_id}")
        return row

    def level_of(self, record_id: int) -> int:
        return int(self._levels[self._row_of(record_id)])

    def neighbors_of(self, record_id: int, level: int) -> list[int]:
        row = self._row_of(record_id)
        if not 0 <= level <= self._levels[row]:
            raise IndexError(f"record {record_id} has no level {level}")
        return self._ids[self._links[level][row]].tolist()

    def _link_words(self) -> np.ndarray:
        """The link section as written: per row and level, a degree then the rows."""
        words = array("i")
        for row, top in enumerate(self._levels[: len(self)].tolist()):
            for layer in self._links[: top + 1]:
                links = layer[row]
                words.append(len(links))
                words.extend(links)
        return np.frombuffer(words, dtype=np.int32)

    def validate_structure(self) -> None:
        """ValueError unless the graph is well formed, by the check loads run."""
        n = len(self)
        levels = self._levels[:n]
        if len(self._links) != (int(levels.max()) + 1 if n else 1):
            raise ValueError("the graph holds a level no node reaches, or lacks one")
        for level, layer in enumerate(self._links[1:], 1):
            if sorted(layer) != np.flatnonzero(levels >= level).tolist():
                raise ValueError(f"level {level} holds other rows than those that reach it")
        words = self._link_words()
        heads, _ = _walk_headers(words, n + int(levels.sum()))
        _check_links(self.M, n, levels, self._entry, words, heads)

    def memory_bytes(self) -> int:
        """Buffers as held (spare capacity included), plus the links: 4 B per
        edge, a fixed header per neighbour list, and the level containers (the
        level list and level 0's list, a header and 8 B per slot; each upper
        level's dict as it is sized)."""
        level0, upper = self._links[0], self._links[1:]
        lists = len(level0) + sum(map(len, upper))
        edges = sum(map(len, level0)) + sum(len(links) for d in upper for links in d.values())
        return (
            super().memory_bytes()
            + 4 * edges
            + lists * _LIST_HEADER
            + 2 * _SLOTS_HEADER
            + 8 * (len(self._links) + len(level0))
            + sum(map(sys.getsizeof, upper))
        )

    def config(self) -> dict:
        return {
            "M": self.M,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
        }

    # ------------------------------------------------------------ persistence

    def write_payload(self, w: Writer) -> None:
        n = len(self)
        w.u32(self.M)
        w.u32(self.ef_construction)
        w.u32(self.ef_search)
        w.u32(self._dim)
        w.u64(n)
        w.u64(self.entry_id if n else 0)
        w.u64_array(self._ids[:n])
        w.u32_array(self._levels[:n])
        w.f32_array(self._vec32[:n])
        w.u32_array(self._link_words())

    @classmethod
    def read_payload(cls, r: Reader) -> "HnswIndex":
        M, ef_construction, ef_search, dim = r.u32(), r.u32(), r.u32(), r.u32()
        index = cls(dim, M, ef_construction, ef_search)
        count = r.u64()
        entry_id = r.u64()
        ids = r.u64_array(count)
        levels = r.u32_array(count)
        vectors = r.f32_array(count * dim).reshape(count, dim)
        if not np.isfinite(vectors).all():
            raise ValueError("stored vectors must be finite (no NaN or inf)")
        # One list per (row, level): its degree, then its rows. The headers
        # are walked once; everything else is checked and cut in bulk.
        heads, end = _walk_headers(r.view("<u4"), count + int(levels.sum(dtype=np.int64)))
        words = r.u32_array(end)
        hits = np.flatnonzero(ids == np.uint64(entry_id))
        entry = int(hits[0]) if len(hits) else -1
        _check_links(M, count, levels, entry, words, heads)

        index._vec32 = vectors.copy()  # owned: a reshaped view would keep two array objects
        index._ids = ids
        index._levels = levels
        index._entry = entry
        # Native words, every value below 2**31: the section read as int32. A
        # slice of it is an array sized exactly, copied with one memcpy.
        section = array("i", words.tobytes())
        starts = heads + 1
        ends = starts + words[heads].astype(np.int64)
        span = levels.astype(np.int64) + 1
        first = np.cumsum(span) - span  # each row's level-0 list

        def cut(at: np.ndarray) -> list[array]:
            return [section[a:b] for a, b in zip(starts[at].tolist(), ends[at].tolist())]

        index._links = [cut(first)]
        for level in range(1, int(levels.max()) + 1 if count else 1):
            rows = np.flatnonzero(levels >= level)
            index._links.append(dict(zip(rows.tolist(), cut(first[rows] + level))))
        return index


def _walk_headers(words: np.ndarray, lists: int) -> tuple[np.ndarray, int]:
    """Word offsets of the first `lists` degree headers in a link section, and
    the words they span. ValueError if the section is too short for them."""
    if lists > len(words):
        raise ValueError(f"{lists} link lists cannot fit in {len(words)} words")
    # Native words read as Python ints straight from the buffer: no per-item numpy scalar.
    view = memoryview(np.ascontiguousarray(words, dtype=np.uint32)).cast("B").cast("I")
    heads = []
    pos = 0
    try:
        for _ in range(lists):
            heads.append(pos)
            pos += 1 + view[pos]
    except IndexError:
        raise ValueError("link section is truncated") from None
    if pos > len(words):
        raise ValueError("link section is truncated")
    return np.array(heads, dtype=np.int64), pos


def _check_links(
    M: int,
    n: int,
    levels: np.ndarray,
    entry: int,
    words: np.ndarray,
    heads: np.ndarray,
) -> None:
    """ValueError unless the graph is well formed.

    `words` is a link section (per row and level, a degree then that many
    rows) and `heads` the offsets of its degree headers. The entry row must be
    a node on the top level, every degree within its level's cap, and every
    edge a stored row other than its owner, once per list, that reaches the
    list's level. Ids are not checked: `insert` refuses a repeated id, and
    every VIDX load checks them.
    """
    if n and entry < 0:
        raise ValueError("entry id names no stored node")
    if n and levels[entry] != levels.max():
        raise ValueError("entry point is not on the top level")
    span = levels.astype(np.int64) + 1
    list_row = np.repeat(np.arange(n), span)
    list_level = np.arange(len(heads)) - np.repeat(np.cumsum(span) - span, span)
    deg = words[heads].astype(np.int64)
    if np.any(deg > np.where(list_level == 0, 2 * M, M)):
        raise ValueError("a degree exceeds its level's cap")
    is_edge = np.ones(len(words), dtype=bool)
    is_edge[heads] = False
    edges = words[is_edge].astype(np.int64)
    of_list = np.repeat(np.arange(len(heads)), deg)
    if np.any((edges < 0) | (edges >= n)):
        raise ValueError("an edge names no stored node")
    if np.any(edges == list_row[of_list]):
        raise ValueError("a node links to itself")
    # Every key is below len(heads) * n; int32 keys sort about twice as fast.
    keys = of_list * n + edges
    keys = np.sort(keys.astype(np.int32) if len(heads) * n < 2**31 else keys)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("a list repeats an edge")
    if np.any(levels[edges] < list_level[of_list]):
        raise ValueError("an edge leads to a node absent from its level")
