"""Graph index: structure invariants, self-retrieval, recall trends."""

import contextlib
import copy
import hashlib
import heapq
import os
import struct
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import annkit
from annkit import EmbeddingSet, gen_synthetic, hnsw
from annkit.distances import _sq_l2
from annkit.flat import exact_search, ground_truth
from annkit.hnsw import HnswIndex
from annkit.persist import dump_index, load_index_bytes


@pytest.fixture(scope="module")
def built(small_set):
    return HnswIndex.build(small_set, M=8, ef_construction=32)


def test_params_defaults():
    index = HnswIndex(4)
    assert index.M == 32
    assert index.ef_construction == 40
    assert index.ef_search == 64
    assert index._mL == pytest.approx(1.0 / np.log(32))


def test_params_validation():
    with pytest.raises(ValueError):
        HnswIndex(4, M=0)
    with pytest.raises(ValueError):
        HnswIndex(4, M=8, ef_construction=0)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        HnswIndex(0)


def test_structure_is_valid(built):
    built.validate_structure()
    assert len(built) == 300


def test_entry_point_lives_on_top_level(built, small_set):
    top = max(built.level_of(int(i)) for i in small_set.ids)
    assert built.level_of(built.entry_id) == top


def test_degrees_respect_caps(built, small_set):
    for rid in small_set.ids.tolist():
        for level in range(built.level_of(rid) + 1):
            nbrs = built.neighbors_of(rid, level)
            cap = 2 * built.M if level == 0 else built.M
            assert len(nbrs) <= cap
            assert rid not in nbrs  # no self loops
            assert len(nbrs) == len(set(nbrs))


def test_links_are_bidirectional_at_level0(built, small_set):
    """Back-edge insertion keeps level 0 largely symmetric; spot check both ways."""
    asym = 0
    total = 0
    for rid in small_set.ids.tolist():
        for nb in built.neighbors_of(rid, 0):
            total += 1
            if rid not in built.neighbors_of(nb, 0):
                asym += 1
    # pruning may drop a few reverse edges, but not wholesale
    assert asym / total < 0.5


def test_level_assignment_is_geometric(built, small_set):
    levels = np.array([built.level_of(int(i)) for i in small_set.ids])
    counts = np.bincount(levels)
    assert counts[0] > counts[1:].sum()  # most nodes only on the base layer


def test_build_is_deterministic(small_set):
    a = HnswIndex.build(small_set, M=8, ef_construction=32)
    b = HnswIndex.build(small_set, M=8, ef_construction=32)
    assert dump_index(a) == dump_index(b)


def test_stored_vectors_retrieve_themselves(built, small_set):
    hits = 0
    for row in range(len(small_set)):
        res = built.search(small_set.vectors[row], 1)
        hits += res.ids[0] == int(small_set.ids[row])
    assert hits / len(small_set) >= 0.99


def test_level0_neighbors_are_near(built, small_set):
    """Edges should mostly be local, and every node keeps a truly close one.

    The neighbor-selection heuristic deliberately retains a few long-range
    links, so per-node "all edges near" is the wrong invariant; measure the
    edge population instead.
    """
    cap0 = 2 * built.M
    near_edges = 0
    total_edges = 0
    has_close_edge = 0
    for rid in small_set.ids.tolist():
        row = small_set.row_of(rid)
        near = exact_search(
            small_set, small_set.vectors[row], 2 * cap0, exclude=rid
        ).ids
        near_set = set(near)
        core = set(near[:cap0])
        nbrs = built.neighbors_of(rid, 0)
        total_edges += len(nbrs)
        near_edges += sum(nb in near_set for nb in nbrs)
        has_close_edge += any(nb in core for nb in nbrs)
    assert near_edges / total_edges >= 0.85
    assert has_close_edge == len(small_set)


def test_recall_does_not_degrade_with_ef(built, small_set):
    qids = small_set.ids[[3, 40, 77, 150, 222, 280]]
    truth = ground_truth(small_set, qids, 10)
    recalls = []
    for ef in (16, 32, 64, 128):
        total = 0.0
        for qid in qids.tolist():
            row = small_set.row_of(qid)
            res = built.search(small_set.vectors[row], 11, ef_search=ef)
            ids = [i for i in res.ids if i != qid][:10]
            total += len(set(ids) & set(truth[qid])) / 10
        recalls.append(total / len(qids))
    for lo, hi in zip(recalls, recalls[1:]):
        assert hi >= lo - 0.01
    assert recalls[-1] >= 0.95


def test_visited_pool_grows_with_ef(built, small_set):
    q = small_set.vectors[5]
    small: set[int] = set()
    large: set[int] = set()
    built.search(q, 5, ef_search=8, visited_out=small)
    built.search(q, 5, ef_search=128, visited_out=large)
    assert len(small) >= 5
    assert len(large) > len(small)


def test_search_validation(built, small_set):
    q = small_set.vectors[0]
    with pytest.raises(ValueError):
        built.search(q, 0)
    # the pool is max(ef_search, k), as in hnswlib
    assert built.search(q, 10, ef_search=5) == built.search(q, 10, ef_search=10)
    with pytest.raises(ValueError, match="ef_search must be >= 1"):
        built.search(q, 10, ef_search=0)


@pytest.mark.parametrize("ef_search", [2.5, True, "3", -1])
def test_ef_search_must_be_an_integer_of_at_least_one(built, small_set, ef_search):
    """ef_search=2.5 and ef_search=True once answered."""
    q = small_set.vectors[0]
    with pytest.raises(ValueError, match="ef_search must be"):
        built.search(q, 10, ef_search=ef_search)
    assert built.search(q, 10, ef_search=np.int64(20)) == built.search(q, 10, ef_search=20)


def test_ef_defaults_cover_large_k(built, small_set):
    """Omitting ef must still satisfy k above the configured ef_search."""
    res = built.search(small_set.vectors[0], 150)
    assert len(res) == 150


def test_scores_are_l2_ascending(built, small_set, rng):
    q = rng.standard_normal(small_set.dim).astype(np.float32)
    res = built.search(q, 12)
    assert res.scores == sorted(res.scores)
    exact = exact_search(small_set, q, 1)
    assert res.scores[0] >= exact.scores[0] - 1e-6


def test_memory_and_config(built):
    assert built.memory_bytes() > 0
    cfg = built.config()
    assert cfg["M"] == 8
    assert cfg["ef_construction"] == 32


# ------------------------------------------------- link selection reference


def select_diverse_reference(self, base, rows, cap, fill=False):
    """The per-candidate form of `_select_diverse`: every candidate is scored
    against the whole chosen set. Kept as the oracle the running-minimum
    form must match exactly."""
    chosen: list[int] = []
    rejected: list[int] = []
    for d_base, row in sorted(zip(self._dists(base, rows).tolist(), rows)):
        if len(chosen) == cap:
            return chosen
        if chosen and bool(
            np.any(self._dists(self._vec32[row].astype(np.float64), chosen) < d_base)
        ):
            if fill:
                rejected.append(row)
        else:
            chosen.append(row)
    chosen.extend(rejected[: cap - len(chosen)])
    return chosen


# Small grid values make duplicate vectors and exact distance ties common;
# the float32 draws cover the general case.
_coords = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
    st.floats(-4.0, 4.0, width=32),
)


@st.composite
def _selection_cases(draw):
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 5))
    vectors = draw(hnp.arrays(np.float32, (n, dim), elements=_coords))
    base = draw(hnp.arrays(np.float32, dim, elements=_coords))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
    cap = draw(st.integers(1, n + 3))
    fill = draw(st.booleans())
    return vectors, base, rows, cap, fill


def _select_both(vectors, base, rows, cap, fill):
    index = HnswIndex(vectors.shape[1])
    index._vec32 = np.asarray(vectors, dtype=np.float32)
    base64 = np.asarray(base, dtype=np.float64)
    d = index._dists(base64, rows)
    mixed = _sq_l2(index._vec32[rows], base64)  # float32 rows minus a float64 base
    assert np.array_equal(d, mixed)
    assert np.array_equal(index._dists(base64, array("i", rows)), mixed)
    return index._select_diverse(base64, rows, cap, fill), select_diverse_reference(
        index, base64, rows, cap, fill
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_selection_cases())
def test_select_diverse_matches_reference(case):
    got, want = _select_both(*case)
    assert got == want


def test_select_diverse_tie_and_duplicate_examples():
    base = np.zeros(2, np.float32)
    # Row 1 is exactly as far from the chosen row 0 as from the base: a tie keeps it.
    tie = np.array([[1.0, 0.0], [0.5, 1.0]], np.float32)
    assert _select_both(tie, base, [0, 1], 2, False) == ([0, 1], [0, 1])
    # A duplicate of a chosen row is rejected, and refilled only under `fill`.
    dup = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], np.float32)
    assert _select_both(dup, base, [0, 1, 2], 3, False) == ([0, 2], [0, 2])
    assert _select_both(dup, base, [0, 1, 2], 3, True) == ([0, 2, 1], [0, 2, 1])
    assert _select_both(dup, base, [0, 1, 2], 1, True) == ([0], [0])


def select_diverse_rows_reference(self, cands, d_cands, cap, fill, bases=None):
    """`_select_diverse_rows` as one `select_diverse_reference` per base row,
    once `d_cands` is checked against `_sq_l2` of `cands` to the bases. A
    build passes no bases: it selects for one level's rows in row order, and
    levels nest, so those are the len(cands) rows of highest level, ascending."""
    if bases is None:
        bases = np.sort(np.argsort(-self._levels.astype(np.int64), kind="stable")[: len(cands)])
    base64 = self._vec32[bases].astype(np.float64)
    assert np.array_equal(d_cands, _sq_l2(self._vec32[cands], base64[:, None]))
    return [
        select_diverse_reference(self, base, cand, cap, fill)
        for base, cand in zip(base64, cands.tolist())
    ]


@st.composite
def _block_selection_cases(draw):
    """Several base rows sharing one candidate width C (0 when the level has
    one row), each row's candidates ranked as `_nearest_rows` ranks them, on
    `_selection_cases`' coordinates."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 5))
    vectors = draw(hnp.arrays(np.float32, (n, dim), elements=_coords))
    width = draw(st.integers(0, n - 1))
    bases = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    ranked = []
    for base in bases:
        others = draw(st.permutations([r for r in range(n) if r != base]))[:width]
        d = _sq_l2(vectors[others], vectors[base].astype(np.float64))
        ranked.append(sorted(zip(d.tolist(), others)))
    cands = np.array([[r for _, r in pairs] for pairs in ranked], dtype=np.intp)
    d_cands = np.array([[d for d, _ in pairs] for pairs in ranked], dtype=np.float64)
    cap = draw(st.integers(1, width + 3))
    fill = draw(st.booleans())
    block = draw(st.integers(1, 3))
    shape = (len(bases), width)
    return vectors, np.array(bases), cands.reshape(shape), d_cands.reshape(shape), cap, fill, block


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_block_selection_cases())
def test_select_diverse_rows_matches_reference_row_by_row(case):
    """The lockstep kernel picks, row for row, what the per-candidate oracle
    picks, with blocks small enough that the rows cross block boundaries."""
    vectors, bases, cands, d_cands, cap, fill, block = case
    index = HnswIndex(vectors.shape[1])
    index._vec32 = vectors
    want = select_diverse_rows_reference(index, cands, d_cands, cap, fill, bases)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hnsw, "_SELECT_ROWS", block)
        assert index._select_diverse_rows(cands, d_cands, cap, fill) == want


def test_build_is_byte_identical_to_reference_selection(small_set, monkeypatch):
    fast = dump_index(HnswIndex.build(small_set, M=8, ef_construction=24))
    monkeypatch.setattr(HnswIndex, "_select_diverse", select_diverse_reference)
    monkeypatch.setattr(HnswIndex, "_select_diverse_rows", select_diverse_rows_reference)
    assert dump_index(HnswIndex.build(small_set, M=8, ef_construction=24)) == fast


# --------------------------------------------- every level from a k-NN pass


def reached_rows(links, entry):
    """Rows that a walk over one level's `links` (indexed by row) reaches from
    `entry`."""
    seen, stack = {entry}, [entry]
    while stack:
        for nb in links[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def level_reference(index, level):
    """`level` of `build` from first principles, as row -> neighbour rows: the
    level's other rows ranked by (`_dists`, row), the first ef_construction
    kept, `select_diverse_reference` with cap M (filled above level 0), every
    link mirrored, lists over the level's cap (2 M at level 0, M above) pruned,
    then the islands bridged from the entry's side. The walk is redone from
    scratch after each bridge."""
    M, fill = index.M, level > 0
    cap = M if fill else 2 * M
    rows = np.flatnonzero(index._levels[: len(index)] >= level).tolist()
    selected = {}
    for row in rows:
        base = index._vec32[row].astype(np.float64)
        others = [r for r in rows if r != row]
        ranked = sorted(zip(index._dists(base, others).tolist(), others))
        cand = [r for _, r in ranked[: index.ef_construction]]
        selected[row] = select_diverse_reference(index, base, cand, M, fill)
    lists = {row: list(own) for row, own in selected.items()}
    for row, own in selected.items():
        for nb in own:
            if row not in selected[nb]:
                lists[nb].append(row)
    for row, nbrs in lists.items():
        if len(nbrs) > cap:
            base = index._vec32[row].astype(np.float64)
            lists[row] = select_diverse_reference(index, base, nbrs, cap, fill)
    while True:
        seen = reached_rows(lists, index._entry)
        unreached = [r for r in rows if r not in seen]
        room = [r for r in sorted(seen) if len(lists[r]) < cap]
        if not unreached or not room:
            return lists
        row = unreached[0]
        d = index._dists(index._vec32[row].astype(np.float64), room)
        via = min(zip(d.tolist(), room))[1]
        lists[via].append(row)
        if len(lists[row]) < cap and via not in lists[row]:
            lists[row].append(via)


@contextlib.contextmanager
def level_stream(seed):
    """Every graph made inside reads its levels from `default_rng(seed)` in
    place of `default_rng(0)`, row i's level still draw i (and a load still
    advances the stream by its row count): the variety of levels a case needs,
    which the one fixed stream would cut to one sequence per M."""
    init = HnswIndex.__init__

    def reseeded(self, *args, **knobs):
        init(self, *args, **knobs)
        self._rng = np.random.default_rng(seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HnswIndex, "__init__", reseeded)
        yield


def build_both(vectors, ids, M, ef_construction, seed):
    """`HnswIndex.build` of the set, and the same set inserted row by row in
    ascending-id order with every level replaced by `level_reference`, both
    with the level stream `default_rng(seed)`."""
    emb = EmbeddingSet(ids, np.zeros(len(ids), np.uint32), vectors)
    with level_stream(seed):
        built = HnswIndex.build(emb, M=M, ef_construction=ef_construction)
        stepwise = HnswIndex(emb.dim, M=M, ef_construction=ef_construction)
        for row in np.argsort(ids, kind="stable"):
            stepwise.insert(int(ids[row]), vectors[row])
    n = len(ids)
    assert built._entry == stepwise._entry
    assert np.array_equal(built._levels, stepwise._levels[:n])
    assert built._rng.bit_generator.state == stepwise._rng.bit_generator.state
    reference = [level_reference(stepwise, level) for level in range(len(stepwise._links))]
    stepwise._links = [[array("i", nbrs) for nbrs in reference[0].values()]]
    stepwise._links += [{r: array("i", nbrs) for r, nbrs in lists.items()} for lists in reference[1:]]
    return built, stepwise


@st.composite
def _build_cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    vectors = draw(hnp.arrays(np.float32, (n, dim), elements=_coords))
    ids = np.array(draw(st.permutations(range(n))), dtype=np.uint64) * np.uint64(3) + np.uint64(7)
    M = draw(st.integers(2, 4))
    ef_construction = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    return vectors, ids, M, ef_construction, seed


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_build_cases())
def test_build_matches_the_level_reference(case):
    """The entry, levels and level stream are those of an insert-by-insert
    build; every level is the reference's, byte for byte, and level 0 reaches
    every row."""
    built, reference = build_both(*case)
    assert dump_index(built) == dump_index(reference)
    assert reached_rows(built._links[0], built._entry) == set(range(len(built)))
    built.validate_structure()


@pytest.mark.parametrize("n", [1, 2, 10, 11])
def test_build_at_and_around_ef_construction(n):
    """With n <= ef_construction a row has only n - 1 candidates; one row
    makes a graph without edges whose entry is that row."""
    data = gen_synthetic(1, n, 8, 0.3, seed=n)
    built, reference = build_both(data.vectors, data.ids, 4, 10, 0)
    assert dump_index(built) == dump_index(reference)
    built.validate_structure()
    assert reached_rows(built._links[0], built._entry) == set(range(n))
    if n == 1:
        assert built._entry == 0 and len(built._links[0][0]) == 0
    for row, v in enumerate(data.vectors):
        assert built.search(v, 1).ids == [int(data.ids[row])]


def test_every_row_is_reachable_at_level0(built, noisy_graph):
    """On well-separated classes the exact k-NN lists alone split into one
    island per class; the bridges join them to the entry."""
    for graph in (built, noisy_graph[1]):
        assert reached_rows(graph._links[0], graph._entry) == set(range(len(graph)))


# ------------------------------------------------------ upper-layer descent


def descend_reference(self, q64, level):
    """The loop `_descend` replaced: a best-first scan with a pool of one on
    each layer above `level`, chained down from the entry point. Kept as the
    oracle the greedy walk must match exactly."""
    row = self._entry
    for layer in range(int(self._levels[row]), level, -1):
        row = self._search_layer(q64, [row], 1, layer)[0][1]
    return row


class _ReferenceDescentIndex(HnswIndex):
    _descend = descend_reference


@st.composite
def _descent_cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    vectors = draw(hnp.arrays(np.float32, (n, dim), elements=_coords))
    queries = draw(hnp.arrays(np.float32, (draw(st.integers(1, 4)), dim), elements=_coords))
    M = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**16))
    return vectors, queries, M, seed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_descent_cases())
def test_descend_matches_reference(case):
    vectors, queries, M, seed = case
    with level_stream(seed):
        index = HnswIndex(vectors.shape[1], M=M, ef_construction=8)
        reference = _ReferenceDescentIndex(vectors.shape[1], M=M, ef_construction=8)
        for i, v in enumerate(vectors):
            index.insert(i, v)
            reference.insert(i, v)
    assert np.array_equal(index._link_words(), reference._link_words())
    assert index._entry == reference._entry
    top = int(index._levels[index._entry])
    # Stored rows as queries make exact distance ties along the walk.
    for q in [*queries, *vectors]:
        q64 = q.astype(np.float64)
        for level in range(top):
            assert index._descend(q64, level) == descend_reference(index, q64, level)


def test_descend_returns_on_a_nan_point():
    """A NaN distance is never strictly closer, so the greedy walk stops; a
    stop test of `d >= best`, False for NaN, walked between neighbours
    forever. The walk runs in a child process under a timeout, so a hang
    fails the test instead of stalling the suite."""
    code = (
        "import numpy as np\n"
        "from annkit import gen_synthetic\n"
        "from annkit.hnsw import HnswIndex\n"
        "g = HnswIndex.build(gen_synthetic(4, 50, 8, 0.1, 1), M=4, ef_construction=8)\n"
        "print(int(g._levels.max()), g._descend(np.full(8, np.nan), 0), len(g))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(annkit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=20, check=True).stdout
    top, row, n = map(int, out.split())
    assert top == 4 and 0 <= row < n


# ------------------------------------------------------------ level scan


def search_layer_reference(self, q64, entries, ef, level, visited_out=None):
    """The scan the beam replaced: pop the nearest candidate, stop once the
    pool is full and the candidate is farther than its farthest, score the
    candidate's unvisited neighbours in one call. Kept as the oracle that
    `_search_layer` with a beam of one must match step for step."""
    links = self._links[level]
    visited = set(entries)
    candidates = sorted(zip(self._dists(q64, entries).tolist(), entries))
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


@pytest.mark.parametrize("dim", [2, 5, 16])
@pytest.mark.parametrize("M", [2, 3, 5, 8])
def test_search_layer_keeps_the_nearest_rows_it_visits(dim, M, monkeypatch):
    """On every level of a random graph with no distance ties, the pool a scan
    returns is the ef nearest of the rows it visited, at the default beam; and
    with a beam of one the scan is the one-at-a-time reference."""
    rng = np.random.default_rng(1000 * dim + M)
    vectors = rng.standard_normal((120, dim)).astype(np.float32)
    data = EmbeddingSet(np.arange(120), np.zeros(120, np.uint32), vectors)
    index = HnswIndex.build(data, M=M, ef_construction=12)
    top = int(index._levels.max())
    assert top >= 1
    for q in rng.standard_normal((6, dim)):
        d_all = index._dists(q, range(len(index)))
        assert len(set(d_all.tolist())) == len(index)  # tie-free
        for level in range(top + 1):
            entries = [index._descend(q, level)]
            for ef in (1, 2, 5, 64):
                visited: set[int] = set()
                pool = index._search_layer(q, entries, ef, level, visited)
                assert pool == sorted((d_all[r], r) for r in visited)[:ef]
                assert visited <= set(np.flatnonzero(index._levels >= level).tolist())
                with monkeypatch.context() as m:
                    m.setattr(hnsw, "_BEAM", 1)
                    one: set[int] = set()
                    ref: set[int] = set()
                    got = index._search_layer(q, entries, ef, level, one)
                    assert got == search_layer_reference(index, q, entries, ef, level, ref)
                    assert one == ref


def test_a_search_scores_its_beam_in_one_call(built, small_set, monkeypatch):
    """The beam's point is fewer `_dists` calls: at the default ef_search a
    search makes at most half the calls it makes with a beam of one, and at
    ef_search 16 its recall@10 is no lower."""
    rng = np.random.default_rng(38)
    queries = small_set.vectors[::10] + rng.normal(0, 0.1, (30, small_set.dim)).astype(np.float32)
    truth = [set(exact_search(small_set, q, 10).ids) for q in queries]
    dists = HnswIndex._dists
    calls = 0

    def counted(self, q64, rows):
        nonlocal calls
        calls += 1
        return dists(self, q64, rows)

    monkeypatch.setattr(HnswIndex, "_dists", counted)
    per_search, recall = {}, {}
    default = hnsw._BEAM
    for beam in (default, 1):
        monkeypatch.setattr(hnsw, "_BEAM", beam)
        calls = 0
        for q in queries:
            built.search(q, 10)
        per_search[beam] = calls / len(queries)
        hits = sum(len(set(built.search(q, 10, ef_search=16).ids) & t) for q, t in zip(queries, truth))
        recall[beam] = hits / (10 * len(queries))
    assert per_search[default] <= per_search[1] / 2
    assert recall[default] >= recall[1]


# ---------------------------------------------------------- hostile input


@pytest.fixture(scope="module")
def noisy_graph():
    data = gen_synthetic(4, 50, 8, 0.3, seed=1)
    return data, HnswIndex.build(data, M=8, ef_construction=24)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_search_rejects_non_finite_query(noisy_graph, bad):
    data, graph = noisy_graph
    q = data.vectors[0].astype(np.float64)
    q[3] = bad
    with pytest.raises(ValueError, match="finite"):
        graph.search(q, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_insert_rejects_non_finite_vector(bad):
    data = gen_synthetic(4, 50, 8, 0.3, seed=1)
    graph = HnswIndex.build(data, M=8, ef_construction=24)
    clean = HnswIndex.build(data, M=8, ef_construction=24)
    before = dump_index(graph)
    v = np.ones(8, dtype=np.float32)
    v[2] = bad
    with pytest.raises(ValueError, match="finite"):
        graph.insert(10_000, v)
    assert len(graph) == len(data)
    assert dump_index(graph) == before
    # The rejected call drew no level, so the next insert matches a clean graph.
    graph.insert(10_000, np.ones(8, dtype=np.float32))
    clean.insert(10_000, np.ones(8, dtype=np.float32))
    assert dump_index(graph) == dump_index(clean)


@pytest.mark.parametrize("dim", [7, 9])
def test_insert_rejects_a_vector_of_another_dim(noisy_graph, dim):
    """A refused insert leaves the graph's bytes and its next level draw as they were."""
    data, graph = noisy_graph
    graph, clean = copy.deepcopy(graph), copy.deepcopy(graph)
    before = dump_index(graph)
    with pytest.raises(ValueError, match=f"^vector has dim {dim}, expected 8$"):
        graph.insert(1000, np.ones(dim, dtype=np.float32))
    assert dump_index(graph) == before
    graph.insert(1000, np.ones(8, dtype=np.float32))
    clean.insert(1000, np.ones(8, dtype=np.float32))
    assert dump_index(graph) == dump_index(clean)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_vector(noisy_graph, bad):
    """A stored vector a build would refuse fails the load, not a later search."""
    data, graph = noisy_graph
    blob = bytearray(dump_index(graph))
    # magic, version, tag, M, ef_construction, ef_search, dim, count, entry id,
    # ids (u64) and levels (u32), then the first stored vector
    at = 6 + 4 * 4 + 8 * 2 + 12 * len(data)
    assert bytes(blob[at : at + 4 * data.dim]) == graph._vec32[0].tobytes()
    struct.pack_into("<f", blob, at, bad)
    with pytest.raises(ValueError, match="finite"):
        load_index_bytes(bytes(blob))


# ------------------------------------------------------------ memory report


@pytest.mark.parametrize("per_class", [300, 5])
def test_memory_bytes_counts_the_buffer_held(per_class):
    data = gen_synthetic(2, per_class, 16, 0.05, seed=2)
    built = HnswIndex.build(data, M=8, ef_construction=24)
    loaded = load_index_bytes(dump_index(built))
    assert built._vec32.shape[0] == loaded._vec32.shape[0] == len(data)
    assert built.memory_bytes() == loaded.memory_bytes()
    for graph in (built, loaded):
        graph.insert(10_000, np.zeros(16, dtype=np.float32))
        assert graph.memory_bytes() >= graph._vec32.nbytes


# ------------------------------------------------------ pinned bytes


def _results_digest(graph, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(repr(graph.search(q, 10).neighbors).encode())
    return h.hexdigest()


def _pinned_graph():
    """The pinned graph, its 50 further rows and its queries."""
    base = gen_synthetic(6, 50, 16, 0.05, seed=5)
    extra = gen_synthetic(5, 10, 16, 0.08, seed=13)
    queries = (
        list(np.random.default_rng(23).standard_normal((16, 16)))
        + list(base.vectors[:4])
        + list(extra.vectors[:4])
    )
    return HnswIndex.build(base, M=8, ef_construction=24), extra, queries


def test_graph_bytes_and_results_are_pinned():
    """VIDX bytes and SearchResults after the build (every level from an exact
    k-NN pass) and after 50 further inserts. A build that linked the upper
    levels insert by insert gave the same results digest after the build, and
    other bytes."""
    graph, extra, queries = _pinned_graph()
    assert hashlib.sha256(dump_index(graph)).hexdigest() == (
        "0ffa39509f62628eb351f537f2519aa1b0532522e7e0122f495b75dd6e3a2749"
    )
    assert _results_digest(graph, queries) == (
        "f1825e4fb396faf5971378a5efb499b14af9b242b0bdda8c506d764811507c04"
    )
    for rid, v in zip(extra.ids.tolist(), extra.vectors):
        graph.insert(1000 + rid, v)
    assert hashlib.sha256(dump_index(graph)).hexdigest() == (
        "f8ac9ab6eedcf0223f1e1b7f1e4a8b6dad2b37473f614d1edc508f4a6ec2c1ad"
    )
    assert _results_digest(graph, queries) == (
        "afabb24f4e4ce48d1d891146e3c38c341860172159229d23479603be2fb72a8a"
    )


def test_level0_of_the_pinned_graph_is_pinned():
    """The pinned graph's level-0 lists (per row, a degree then the rows), so
    that re-pinning the whole VIDX for an upper-level change cannot hide a
    level-0 change."""
    graph, _, _ = _pinned_graph()
    words = array("i")
    for links in graph._links[0]:
        words.append(len(links))
        words.extend(links)
    assert hashlib.sha256(words).hexdigest() == (
        "8e4e1664487ec56930629db4735d9f8397d0e4267955668566eab8c690e14040"
    )


def test_loaded_graph_grows_like_the_built_one():
    """A loaded graph takes the same inserts to the same bytes as the graph it
    was dumped from: the load moves the level stream past the stored rows."""
    data = gen_synthetic(4, 60, 8, 0.3, seed=2)
    extra = gen_synthetic(3, 20, 8, 0.3, seed=3)
    built = HnswIndex.build(data, M=6, ef_construction=20)
    loaded = load_index_bytes(dump_index(built))
    for rid, v in zip(extra.ids.tolist(), extra.vectors):
        built.insert(500 + rid, v)
        loaded.insert(500 + rid, v)
    assert dump_index(loaded) == dump_index(built)
    loaded.validate_structure()
    for q in extra.vectors[:5]:
        assert loaded.search(q, 5).neighbors == built.search(q, 5).neighbors


@st.composite
def _growth_cases(draw):
    """A `_build_cases` set, 1-20 further rows on the same coordinates, the
    number of them inserted before a second dump and load, where a refused
    insert comes, and whether it repeats a stored id or holds a NaN."""
    vectors, ids, M, ef_construction, seed = draw(_build_cases())
    shape = (draw(st.integers(1, 20)), vectors.shape[1])
    extra = draw(hnp.arrays(np.float32, shape, elements=_coords))
    reload_after = draw(st.integers(1, len(extra)))
    refused_at = draw(st.integers(0, len(extra) - 1))
    duplicate = draw(st.booleans())
    return vectors, ids, M, ef_construction, seed, extra, reload_after, refused_at, duplicate


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_growth_cases())
def test_save_load_insert_equals_insert(case):
    """save -> load -> insert == insert: the same rows inserted into a built
    graph and into its load, which is dumped and loaded once more partway and
    refuses one insert as the built graph does, give the same VIDX bytes and
    the same SearchResults."""
    vectors, ids, M, ef_construction, seed, extra, reload_after, refused_at, duplicate = case
    emb = EmbeddingSet(ids, np.zeros(len(ids), np.uint32), vectors)
    with level_stream(seed):
        built = HnswIndex.build(emb, M=M, ef_construction=ef_construction)
        loaded = load_index_bytes(dump_index(built))
        for step, v in enumerate(extra):
            rid = int(ids.max()) + 1 + step
            if step == refused_at:
                bad_id, bad_v = (int(ids[0]), v) if duplicate else (rid, np.full_like(v, np.nan))
                for graph in (built, loaded):
                    with pytest.raises(ValueError, match="duplicate" if duplicate else "finite"):
                        graph.insert(bad_id, bad_v)
            built.insert(rid, v)
            loaded.insert(rid, v)
            if step + 1 == reload_after:
                loaded = load_index_bytes(dump_index(loaded))
        assert dump_index(loaded) == dump_index(built)
        for q in [*extra, *vectors[:5]]:
            assert loaded.search(q, 5) == built.search(q, 5)


def test_insert_rejects_an_id_outside_u64(noisy_graph):
    graph = copy.deepcopy(noisy_graph[1])
    for rid in (-1, 2**64):
        with pytest.raises(ValueError, match="64"):
            graph.insert(rid, np.zeros(8, dtype=np.float32))


@pytest.mark.parametrize("bad", [1000.9, 1000.0, True, "1000"])
def test_insert_rejects_a_non_integer_id_before_drawing_a_level(noisy_graph, bad):
    """insert(1000.9, v) once stored id 1000. The refused insert draws no
    level, so the next insert lands as it does on an untouched graph."""
    data, graph = noisy_graph
    graph, clean = copy.deepcopy(graph), copy.deepcopy(graph)
    v = np.full(8, 0.25, dtype=np.float32)
    with pytest.raises(ValueError, match="integer"):
        graph.insert(bad, v)
    assert len(graph) == len(data)
    graph.insert(np.uint64(1000), v)
    clean.insert(1000, v)
    assert dump_index(graph) == dump_index(clean)


def test_unknown_id_lookups_raise_key_error(noisy_graph):
    _, graph = noisy_graph
    assert graph.level_of(np.uint64(2)) == graph.level_of(2)
    # not ids: level_of(2.9) once answered for id 2
    for rid in (10**9, -3, 2.9, 2.0, True):
        with pytest.raises(KeyError, match="unknown record id"):
            graph.level_of(rid)
        with pytest.raises(KeyError, match="unknown record id"):
            graph.neighbors_of(rid, 0)


def test_neighbors_of_a_level_the_node_lacks_raises_index_error(noisy_graph):
    _, graph = noisy_graph
    ground = int(graph._ids[np.flatnonzero(graph._levels[: len(graph)] == 0)[0]])
    for level in (-1, 1, graph.level_of(graph.entry_id) + 1):
        with pytest.raises(IndexError, match="has no level"):
            graph.neighbors_of(ground, level)


@pytest.mark.parametrize("level", [True, False, 1.0, 0.5, "0", None])
def test_neighbors_of_a_level_that_is_not_an_integer_raises_value_error(noisy_graph, level):
    """neighbors_of(rid, True) once answered with the level-1 list."""
    _, graph = noisy_graph
    with pytest.raises(ValueError, match="level must be an integer"):
        graph.neighbors_of(graph.entry_id, level)


# ----------------------------------------------------- structure checks


def _corrupt(graph, edit):
    """`edit` applied to a copy of `graph`: ValueError from both the copy's
    validate_structure() and the load of its dump; returns the load's message."""
    bad = copy.deepcopy(graph)
    edit(bad)
    with pytest.raises(ValueError) as checked:
        bad.validate_structure()
    with pytest.raises(ValueError) as loaded:
        load_index_bytes(dump_index(bad))
    assert str(checked.value) == str(loaded.value)
    return str(loaded.value)


def _upper_row(graph) -> int:
    return int(np.flatnonzero(graph._levels[: len(graph)] >= 1)[0])


def _set_link(row, level, at, value):
    def edit(g):
        g._links[level][row][at] = value

    return edit


def test_intact_graph_passes_the_check(noisy_graph):
    _, graph = noisy_graph
    graph.validate_structure()
    assert dump_index(load_index_bytes(dump_index(graph))) == dump_index(graph)


@pytest.mark.parametrize("target", [200, 5000])
def test_check_rejects_an_edge_past_the_last_row(noisy_graph, target):
    """An edge of 5000 in a 200-node graph once loaded and raised IndexError
    at the first search that reached it."""
    _, graph = noisy_graph
    assert len(graph) == 200
    assert "no stored node" in _corrupt(graph, _set_link(3, 0, 0, target))


def test_check_rejects_a_self_loop(noisy_graph):
    _, graph = noisy_graph
    assert "itself" in _corrupt(graph, _set_link(3, 0, 0, 3))


def test_check_rejects_a_repeated_edge(noisy_graph):
    _, graph = noisy_graph
    first = graph._links[0][3][0]
    assert "repeats" in _corrupt(graph, _set_link(3, 0, 1, first))


def test_check_rejects_a_degree_over_the_cap(noisy_graph):
    _, graph = noisy_graph
    cap = 2 * graph.M

    def overfill(g):
        links = g._links[0][3]
        spare = [r for r in range(len(g)) if r != 3 and r not in links]
        links.extend(spare[: cap + 1 - len(links)])

    assert "cap" in _corrupt(graph, overfill)

    row = _upper_row(graph)
    upper = [r for r in range(len(graph)) if r != row and graph._levels[r] >= 1]
    assert len(upper) > graph.M

    def overfill_upper(g):
        g._links[1][row] = array("i", upper[: g.M + 1])

    assert "cap" in _corrupt(graph, overfill_upper)


def test_check_rejects_an_edge_below_the_list_level(noisy_graph):
    _, graph = noisy_graph
    row = _upper_row(graph)
    ground = int(np.flatnonzero(graph._levels[: len(graph)] == 0)[0])
    assert "absent from its level" in _corrupt(graph, _set_link(row, 1, 0, ground))


def test_check_rejects_an_entry_point_below_the_top(noisy_graph):
    _, graph = noisy_graph
    ground = int(np.flatnonzero(graph._levels[: len(graph)] == 0)[0])

    def demote(g):
        g._entry = ground

    assert "top level" in _corrupt(graph, demote)


def test_check_rejects_a_missing_level_list(noisy_graph):
    _, graph = noisy_graph
    bad = copy.deepcopy(graph)
    del bad._links[1][_upper_row(graph)]
    with pytest.raises(ValueError, match="level"):
        bad.validate_structure()


def test_check_rejects_a_level_holding_a_row_below_it(noisy_graph):
    _, graph = noisy_graph
    ground = int(np.flatnonzero(graph._levels[: len(graph)] == 0)[0])
    bad = copy.deepcopy(graph)
    bad._links[1][ground] = array("i")
    with pytest.raises(ValueError, match="level 1 holds other rows"):
        bad.validate_structure()


def test_check_rejects_a_level_no_node_reaches(noisy_graph):
    _, graph = noisy_graph
    bad = copy.deepcopy(graph)
    bad._links.append({})
    with pytest.raises(ValueError, match="level no node reaches"):
        bad.validate_structure()
    bad._links[-2:] = []
    with pytest.raises(ValueError, match="lacks one"):
        bad.validate_structure()


def test_loaded_graph_keeps_the_built_links(noisy_graph):
    _, graph = noisy_graph
    loaded = load_index_bytes(dump_index(graph))
    assert np.array_equal(loaded._link_words(), graph._link_words())
    assert loaded._links == graph._links
    assert loaded.memory_bytes() == graph.memory_bytes()


def test_loaded_graph_grows_a_new_top_level_and_round_trips():
    """A load that then inserts a node above its top level adds the level."""
    data = gen_synthetic(4, 20, 8, 0.1, seed=3)
    graph = load_index_bytes(dump_index(HnswIndex.build(data, M=4)))
    top = graph.level_of(graph.entry_id)
    graph._draw_level = lambda: top + 2
    graph.insert(10**6, np.full(8, 0.5, dtype=np.float32))
    assert len(graph._links) == top + 3
    assert graph.entry_id == 10**6
    assert graph.level_of(10**6) == top + 2
    graph.validate_structure()
    blob = dump_index(graph)
    again = load_index_bytes(blob)
    assert dump_index(again) == blob
    assert again.search(np.full(8, 0.5), 1).ids == [10**6]


# Offsets in an hnsw VIDX blob: magic, version, tag, M, ef_construction,
# ef_search, dim, count, then the entry id, the ids and the levels.
_ENTRY_AT = 6 + 4 * 4 + 8
_IDS_AT = _ENTRY_AT + 8


def test_load_rejects_an_absent_entry_id(noisy_graph):
    """An entry id naming no node once raised KeyError."""
    _, graph = noisy_graph
    blob = bytearray(dump_index(graph))
    struct.pack_into("<Q", blob, _ENTRY_AT, 10**9)
    with pytest.raises(ValueError, match="entry id"):
        load_index_bytes(bytes(blob))


def test_load_rejects_repeated_ids(noisy_graph):
    _, graph = noisy_graph
    blob = bytearray(dump_index(graph))
    blob[_IDS_AT + 8 : _IDS_AT + 16] = blob[_IDS_AT : _IDS_AT + 8]
    with pytest.raises(ValueError, match="unique"):
        load_index_bytes(bytes(blob))


def test_load_rejects_levels_whose_lists_cannot_fit(noisy_graph):
    """A huge level is refused before the header walk starts."""
    _, graph = noisy_graph
    blob = bytearray(dump_index(graph))
    struct.pack_into("<I", blob, _IDS_AT + 8 * len(graph), 10**6)
    with pytest.raises(ValueError, match="cannot fit"):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("cut", [4, 8, 40])
def test_load_rejects_a_short_link_section(noisy_graph, cut):
    _, graph = noisy_graph
    with pytest.raises(ValueError):
        load_index_bytes(dump_index(graph)[:-cut])


def test_empty_graph_round_trips():
    empty = HnswIndex(4)
    empty.validate_structure()
    blob = dump_index(empty)
    loaded = load_index_bytes(blob)
    loaded.validate_structure()
    assert dump_index(loaded) == blob
    assert len(loaded) == 0
    assert loaded._links == [[]]
    assert loaded.memory_bytes() == empty.memory_bytes()
    assert loaded.search(np.ones(4), 3).neighbors == []


@st.composite
def _corruptions(draw):
    kind = draw(st.sampled_from(["bytes", "link words", "truncate", "append"]))
    edits = draw(
        st.lists(
            st.tuples(st.integers(0, 2**31), st.integers(0, 255)), min_size=1, max_size=4
        )
    )
    return kind, edits


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_corruptions())
def test_corrupted_blob_raises_value_error_or_round_trips(noisy_graph, corruption):
    """Each corrupted blob either raises ValueError or loads, dumps back to the
    same bytes and answers a search."""
    data, graph = noisy_graph
    blob = bytearray(dump_index(graph))
    links_at = _IDS_AT + 12 * len(graph) + 4 * data.dim * len(graph)
    kind, edits = corruption
    if kind == "truncate":
        del blob[6 + edits[0][0] % (len(blob) - 6) :]
    elif kind == "append":
        blob += bytes(value for _, value in edits)
    else:
        start = 6 if kind == "bytes" else links_at
        for at, value in edits:
            blob[start + at % (len(blob) - start)] = value
    blob = bytes(blob)
    try:
        loaded = load_index_bytes(blob)
    except ValueError:
        return
    assert dump_index(loaded) == blob
    loaded.validate_structure()
    assert len(loaded.search(data.vectors[0], 5)) > 0
