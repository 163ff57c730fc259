"""Graph index: structure invariants, self-retrieval, recall trends."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from annkit import gen_synthetic
from annkit.flat import exact_search, ground_truth
from annkit.hnsw import HnswIndex, HnswParams
from annkit.persist import dump_index, load_index_bytes


@pytest.fixture(scope="module")
def built(small_set):
    return HnswIndex.build(small_set, HnswParams(M=8, ef_construction=32), seed=0)


def test_params_defaults():
    p = HnswParams()
    assert p.M == 32
    assert p.ef_construction == 40
    assert p.M_max0 == 64
    assert p.mL == pytest.approx(1.0 / np.log(32))


def test_params_validation():
    with pytest.raises(ValueError):
        HnswParams(M=0)
    with pytest.raises(ValueError):
        HnswParams(M=8, ef_construction=0)


def test_structure_is_valid(built):
    built.validate_structure()
    assert len(built) == 300


def test_entry_point_lives_on_top_level(built, small_set):
    top = max(built.level_of(int(i)) for i in small_set.ids)
    assert built.level_of(built.entry_id) == top


def test_degrees_respect_caps(built, small_set):
    p = built.params
    for rid in small_set.ids.tolist():
        for level in range(built.level_of(rid) + 1):
            nbrs = built.neighbors_of(rid, level)
            cap = p.M_max0 if level == 0 else p.M
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
    a = HnswIndex.build(small_set, HnswParams(M=8, ef_construction=32), seed=0)
    b = HnswIndex.build(small_set, HnswParams(M=8, ef_construction=32), seed=0)
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
    p = built.params
    near_edges = 0
    total_edges = 0
    has_close_edge = 0
    for rid in small_set.ids.tolist():
        row = small_set.row_of(rid)
        near = exact_search(
            small_set, small_set.vectors[row], 2 * p.M_max0, exclude=rid
        ).ids
        near_set = set(near)
        core = set(near[: p.M_max0])
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
    with pytest.raises(ValueError):
        built.search(q, 10, ef_search=5)  # ef below k


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


def select_diverse_reference(self, cand, cap, fill=False):
    """The per-candidate form of `_select_diverse`: every candidate is scored
    against the whole chosen set. Kept as the oracle the running-minimum
    form must match exactly."""
    chosen: list[int] = []
    rejected: list[int] = []
    for d_base, row in sorted(cand):
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
    d = index._dists(np.asarray(base, dtype=np.float64), rows)
    cand = list(zip(d.tolist(), rows))
    return index._select_diverse(cand, cap, fill), select_diverse_reference(
        index, cand, cap, fill
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
    params = HnswParams(M=8, ef_construction=24)
    fast = dump_index(HnswIndex.build(small_set, params, seed=0))
    monkeypatch.setattr(HnswIndex, "_select_diverse", select_diverse_reference)
    assert dump_index(HnswIndex.build(small_set, params, seed=0)) == fast


# ---------------------------------------------------------- hostile input


@pytest.fixture(scope="module")
def noisy_graph():
    data = gen_synthetic(4, 50, 8, 0.3, seed=1)
    return data, HnswIndex.build(data, HnswParams(M=8, ef_construction=24), seed=0)


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
    params = HnswParams(M=8, ef_construction=24)
    graph = HnswIndex.build(data, params, seed=0)
    clean = HnswIndex.build(data, params, seed=0)
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
    built = HnswIndex.build(data, HnswParams(M=8, ef_construction=24), seed=0)
    loaded = load_index_bytes(dump_index(built))
    assert built._vec32.shape[0] == loaded._vec32.shape[0] == len(data)
    assert built.memory_bytes() == loaded.memory_bytes()
    for graph in (built, loaded):
        graph.insert(10_000, np.zeros(16, dtype=np.float32))
        assert graph.memory_bytes() >= graph._vec32.nbytes
