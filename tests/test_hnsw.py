"""Graph index: structure invariants, self-retrieval, recall trends."""

import copy
import hashlib
import struct
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from annkit import gen_synthetic
from annkit.distances import _sq_l2
from annkit.flat import exact_search, ground_truth
from annkit.hnsw import HnswIndex
from annkit.persist import dump_index, load_index_bytes


@pytest.fixture(scope="module")
def built(small_set):
    return HnswIndex.build(small_set, M=8, ef_construction=32, seed=0)


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


def test_build_deterministic_given_seed(small_set):
    a = HnswIndex.build(small_set, M=8, ef_construction=32, seed=0)
    b = HnswIndex.build(small_set, M=8, ef_construction=32, seed=0)
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


def test_build_is_byte_identical_to_reference_selection(small_set, monkeypatch):
    fast = dump_index(HnswIndex.build(small_set, M=8, ef_construction=24, seed=0))
    monkeypatch.setattr(HnswIndex, "_select_diverse", select_diverse_reference)
    assert dump_index(HnswIndex.build(small_set, M=8, ef_construction=24, seed=0)) == fast


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
    index = HnswIndex(vectors.shape[1], M=M, ef_construction=8, seed=seed)
    reference = _ReferenceDescentIndex(vectors.shape[1], M=M, ef_construction=8, seed=seed)
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


# ---------------------------------------------------------- hostile input


@pytest.fixture(scope="module")
def noisy_graph():
    data = gen_synthetic(4, 50, 8, 0.3, seed=1)
    return data, HnswIndex.build(data, M=8, ef_construction=24, seed=0)


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
    graph = HnswIndex.build(data, M=8, ef_construction=24, seed=0)
    clean = HnswIndex.build(data, M=8, ef_construction=24, seed=0)
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
    built = HnswIndex.build(data, M=8, ef_construction=24, seed=0)
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


def test_graph_bytes_and_results_are_pinned():
    """Digests taken from the list-of-lists storage that the packed int32 lists
    replaced: the same inserts give the same VIDX bytes and SearchResults,
    after the build and after 50 further inserts."""
    base = gen_synthetic(6, 50, 16, 0.05, seed=5)
    extra = gen_synthetic(5, 10, 16, 0.08, seed=13)
    queries = (
        list(np.random.default_rng(23).standard_normal((16, 16)))
        + list(base.vectors[:4])
        + list(extra.vectors[:4])
    )
    graph = HnswIndex.build(base, M=8, ef_construction=24, seed=0)
    assert hashlib.sha256(dump_index(graph)).hexdigest() == (
        "c84a8f775ffc39d78660a937400303110b1057ae7babe5cabeb6b83bca029a09"
    )
    assert _results_digest(graph, queries) == (
        "f1825e4fb396faf5971378a5efb499b14af9b242b0bdda8c506d764811507c04"
    )
    for rid, v in zip(extra.ids.tolist(), extra.vectors):
        graph.insert(1000 + rid, v)
    assert hashlib.sha256(dump_index(graph)).hexdigest() == (
        "fad563aaf1a61db6730617efd107e3eb3d94dc170b3b568dbffb61a468075966"
    )
    assert _results_digest(graph, queries) == (
        "3662e4683d3ecbe05c88a109d4a313be9da91ad7b04bffc61fabe2c3991c19fb"
    )


def test_loaded_graph_grows_like_the_built_one():
    """A loaded graph takes the same inserts to the same bytes as the graph it
    was dumped from. VIDX keeps no level stream, so the loaded graph is handed
    the built one's."""
    data = gen_synthetic(4, 60, 8, 0.3, seed=2)
    extra = gen_synthetic(3, 20, 8, 0.3, seed=3)
    built = HnswIndex.build(data, M=6, ef_construction=20, seed=4)
    loaded = load_index_bytes(dump_index(built))
    loaded._rng.bit_generator.state = built._rng.bit_generator.state
    for rid, v in zip(extra.ids.tolist(), extra.vectors):
        built.insert(500 + rid, v)
        loaded.insert(500 + rid, v)
    assert dump_index(loaded) == dump_index(built)
    loaded.validate_structure()
    for q in extra.vectors[:5]:
        assert loaded.search(q, 5).neighbors == built.search(q, 5).neighbors


def test_insert_rejects_an_id_outside_u64(noisy_graph):
    graph = copy.deepcopy(noisy_graph[1])
    for rid in (-1, 2**64):
        with pytest.raises(ValueError, match="64"):
            graph.insert(rid, np.zeros(8, dtype=np.float32))


def test_unknown_id_lookups_raise_key_error(noisy_graph):
    _, graph = noisy_graph
    for rid in (10**9, -3):
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
    graph = load_index_bytes(dump_index(HnswIndex.build(data, M=4, seed=1)))
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
