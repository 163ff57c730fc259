"""Random-projection forest: leaf exactness, budgets, metric variants, the
heap walk as the frontier's oracle, pinned bytes and load-time checks."""

import hashlib
import heapq
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.data import EmbeddingSet, gen_synthetic
from annkit.distances import Metric
from annkit import rpforest
from annkit.base import check_query
from annkit.flat import exact_search
from annkit.persist import VIDX_MAGIC, VIDX_VERSION, dump_index, load_index_bytes
from annkit.rpforest import RpForestIndex, rp_build
from annkit.wire import Writer


@pytest.mark.parametrize("metric", ["angular", "l2", "manhattan"])
def test_a_plain_string_metric_builds_the_enum_forest(small_set, metric):
    """metric="l2" once built a forest whose family and search then failed,
    and "angular" split its nodes as an l2 forest does."""
    forest = rp_build(small_set, n_trees=2, metric=metric)
    assert forest.metric is Metric(metric)
    assert forest.family == f"rpforest-{metric}"
    assert dump_index(forest) == dump_index(rp_build(small_set, n_trees=2, metric=Metric(metric)))
    with pytest.raises(ValueError, match="not a valid Metric"):
        rp_build(small_set, metric="bogus")


def test_single_giant_leaf_is_exact(small_set, rng):
    """leaf_size >= n leaves every tree a single leaf: search is exhaustive."""
    forest = rp_build(small_set, n_trees=1, leaf_size=len(small_set) + 1, seed=0)
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        got = forest.search(q, 8, search_k=1)
        want = exact_search(small_set, q, 8, Metric.ANGULAR)
        assert got.neighbors == want.neighbors


@pytest.mark.parametrize(
    "metric", [Metric.ANGULAR, Metric.L2, Metric.MANHATTAN]
)
def test_full_budget_equals_exact(small_set, metric, rng):
    forest = rp_build(small_set, metric=metric, seed=1)
    budget = len(small_set) * forest.n_trees
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        got = forest.search(q, 10, search_k=budget)
        want = exact_search(small_set, q, 10, metric)
        assert got.neighbors == want.neighbors


def test_candidates_nest_as_budget_grows(small_set, rng):
    forest = rp_build(small_set, seed=2)
    q = rng.standard_normal(small_set.dim)
    previous: set[int] = set()
    for search_k in (1, 5, 20, 80, 300, 3000):
        rows = set(forest.candidate_rows(q, search_k).tolist())
        assert previous <= rows
        previous = rows
    assert previous == set(range(len(small_set)))


def test_recall_non_decreasing_in_budget(small_set, rng):
    forest = rp_build(small_set, seed=3)
    q = rng.standard_normal(small_set.dim).astype(np.float32)
    truth = set(exact_search(small_set, q, 5, Metric.ANGULAR).ids)
    recalls = []
    for search_k in (1, 5, 20, 80, 300, 3000):
        ids = set(forest.search(q, 5, search_k=search_k).ids)
        recalls.append(len(ids & truth) / 5)
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0


def test_default_budget_is_trees_times_k(small_set):
    forest = rp_build(small_set, n_trees=7, seed=0)
    assert forest.n_trees == 7
    # default search budget: n_trees * k; spot-check it matches the explicit call
    q = small_set.vectors[11]
    assert (
        forest.search(q, 4).neighbors
        == forest.search(q, 4, search_k=28).neighbors
    )


def test_identical_points_build_without_recursion(rng):
    vectors = np.tile(rng.standard_normal(6).astype(np.float32), (40, 1))
    s = EmbeddingSet(
        ids=np.arange(40, dtype=np.uint64),
        labels=np.zeros(40, dtype=np.uint32),
        vectors=vectors,
    )
    forest = rp_build(s, n_trees=3, leaf_size=5, seed=0, metric=Metric.L2)
    res = forest.search(vectors[0], 10, search_k=1000)
    assert len(res) == 10
    assert all(score == 0.0 for score in res.scores)


def test_more_trees_do_not_hurt_recall(small_set):
    """At a fixed small budget, extra trees add independent looks."""
    rng = np.random.default_rng(8)
    queries = rng.standard_normal((30, small_set.dim)).astype(np.float32)
    recalls = {}
    for n_trees in (2, 12):
        forest = rp_build(small_set, n_trees=n_trees, seed=4)
        total = 0.0
        for q in queries:
            truth = set(exact_search(small_set, q, 5, Metric.ANGULAR).ids)
            ids = set(forest.search(q, 5, search_k=12).ids)
            total += len(ids & truth) / 5
        recalls[n_trees] = total / len(queries)
    assert recalls[12] >= recalls[2] - 0.05


def test_angular_zero_query_raises(small_set):
    forest = rp_build(small_set, seed=0)
    with pytest.raises(ValueError):
        forest.search(np.zeros(small_set.dim, dtype=np.float32), 3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_candidate_rows_pass_the_search_gate(value):
    """A NaN query once drew 8 candidate rows, and an all-inf one 8 rows and a
    RuntimeWarning: the queries `search` refuses are refused here too."""
    forest = rp_build(gen_synthetic(4, 50, 8, 0.05, 1), n_trees=2, leaf_size=8, metric="l2")
    query = np.full(8, value)
    with pytest.raises(ValueError, match="finite"):
        forest.candidate_rows(query, 3)
    with pytest.raises(ValueError, match="finite"):
        forest.search(query, 3, search_k=3)


def test_search_checks_the_query_once(small_set, monkeypatch):
    """`search` and `candidate_rows` once both ran `check_query` on each query."""
    forest = rp_build(small_set, n_trees=2, seed=0)
    calls = []

    def counted(*args):
        calls.append(args)
        return check_query(*args)

    monkeypatch.setattr(rpforest, "check_query", counted)
    for q in small_set.vectors[:3]:
        forest.search(q, 5)
    assert len(calls) == 3


def test_search_k_validation(small_set):
    forest = rp_build(small_set, seed=0)
    with pytest.raises(ValueError):
        forest.search(small_set.vectors[0], 5, search_k=0)
    with pytest.raises(ValueError):
        forest.search(small_set.vectors[0], 0)


@pytest.mark.parametrize("search_k", [2.5, True, "3", 0, -1])
def test_search_k_must_be_an_integer_of_at_least_one(small_set, search_k):
    """search_k=2.5 and search_k=True once answered (2.5 inspected 3 leaves)."""
    forest = rp_build(small_set, seed=0)
    with pytest.raises(ValueError, match="search_k must be"):
        forest.search(small_set.vectors[0], 4, search_k=search_k)
    assert forest.search(small_set.vectors[0], 4, search_k=np.int64(3)) == forest.search(
        small_set.vectors[0], 4, search_k=3)


def test_build_validation(small_set):
    with pytest.raises(ValueError):
        rp_build(small_set, n_trees=0)
    with pytest.raises(ValueError):
        rp_build(small_set, leaf_size=0)



def test_deterministic_given_seed(small_set, rng):
    a = rp_build(small_set, seed=9)
    b = rp_build(small_set, seed=9)
    q = rng.standard_normal(small_set.dim)
    assert a.search(q, 8).neighbors == b.search(q, 8).neighbors


def test_family_label_carries_metric(small_set):
    assert rp_build(small_set, seed=0).family == "rpforest-angular"
    assert rp_build(small_set, metric=Metric.L2, seed=0).family == "rpforest-l2"
    assert (
        rp_build(small_set, metric=Metric.MANHATTAN, seed=0).family
        == "rpforest-manhattan"
    )


def test_config_reports_knobs(small_set):
    forest = rp_build(small_set, n_trees=5, leaf_size=20, seed=0)
    cfg = forest.config()
    assert cfg["n_trees"] == 5
    assert cfg["leaf_size"] == 20
    assert cfg["metric"] == "angular"


def test_defaults_are_six_trees_of_48_row_leaves(small_set):
    """The defaults tools/forest_sweep.py chose. The leaf budget is a query
    knob (n_trees * k unless `search` sets it), so the config has no search_k."""
    assert rp_build(small_set).config() == {"n_trees": 6, "leaf_size": 48, "metric": "angular"}


# ------------------------------------------------------------ the heap walk


def candidate_rows_reference(forest, query, search_k):
    """The frontier as a heap walk over the nodes, as `candidate_rows` once
    computed it: pop the highest priority (the earliest push on a tie), push
    a split's right child, then its left, each with the minimum of the
    split's priority and the query's signed margin, and collect each popped
    leaf's rows until search_k leaves are inspected."""
    q64 = np.asarray(query, dtype=np.float64).reshape(-1)
    splits = forest._splits.tolist()
    cuts, leaf = forest._leaf_cuts.tolist(), 0
    right, leaf_rows, pending, roots = {}, {}, [], []
    for node, split in enumerate(splits):  # pre-order: after a leaf comes a right child or a root
        if node == 0 or splits[node - 1] < 0:
            if pending:
                right[pending.pop()] = node
            else:
                roots.append(node)
        if split >= 0:
            pending.append(node)
        else:
            leaf_rows[node] = forest._rows[cuts[leaf] : cuts[leaf + 1]]
            leaf += 1
    frontier = [(-np.inf, t, root) for t, root in enumerate(roots)]
    counter = len(frontier)
    collected = []
    while frontier and len(collected) < search_k:
        neg_priority, _, node = heapq.heappop(frontier)
        split = splits[node]
        if split < 0:
            collected.append(leaf_rows[node])
            continue
        margin = float(q64.dot(forest._normals[split]) - forest._offsets[split])
        heapq.heappush(frontier, (max(neg_priority, -margin), counter, right[node]))
        heapq.heappush(frontier, (max(neg_priority, margin), counter + 1, node + 1))
        counter += 2
    return np.unique(np.concatenate(collected))


@st.composite
def _forest_cases(draw):
    """A small forest, built or loaded, and a query: near a row, on the plane
    between two rows (so margins round either way), at a row, or with 1e39
    components, beyond float32's range."""
    metric = draw(st.sampled_from([Metric.ANGULAR, Metric.L2, Metric.MANHATTAN]))
    n, dim = draw(st.integers(4, 40)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vectors = rng.standard_normal((n, dim))
    if draw(st.booleans()):  # duplicate rows: equal planes and margins, exact ties
        vectors[rng.integers(0, n, n // 2)] = vectors[rng.integers(0, n, n // 2)]
    vectors += draw(st.sampled_from([0.0, 1.0, 10.0, 1e3]))
    vectors = vectors.astype(np.float32)
    forest = rp_build(
        EmbeddingSet(ids=np.arange(n, dtype=np.uint64), labels=np.zeros(n, dtype=np.uint32), vectors=vectors),
        n_trees=draw(st.integers(1, 4)), leaf_size=draw(st.integers(1, 4)), metric=metric,
        seed=draw(st.integers(0, 99)),
    )
    if draw(st.booleans()):
        forest = load_index_bytes(dump_index(forest))
    a, b = vectors[rng.integers(0, n, 2)].astype(np.float64)
    kind = draw(st.sampled_from(["near", "plane", "row", "huge"]))
    if kind == "near":
        query = a + rng.standard_normal(dim) * 0.1
    elif kind == "plane":
        query = a / np.linalg.norm(a) + b / np.linalg.norm(b) if metric is Metric.ANGULAR else (a + b) / 2
    elif kind == "row":
        query = a
    else:
        query = np.where(rng.standard_normal(dim) < 0, -1e39, 1e39)
    return forest, query


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_forest_cases())
def test_candidate_rows_equal_the_heap_walk_at_every_budget(case):
    """The same rows as the heap walk for every budget up to one past the
    leaf count: every metric, built and loaded, ties from duplicate rows,
    offsets that widen the band, and queries that skip the float32 keys."""
    forest, query = case
    n_leaves = len(forest._leaf_cuts) - 1
    for search_k in range(1, n_leaves + 2):
        got = forest.candidate_rows(query, search_k)
        np.testing.assert_array_equal(got, candidate_rows_reference(forest, query, search_k))


def test_candidate_rows_equal_the_heap_walk_on_a_default_forest(small_set):
    """The default 6 x 48 forest of a larger set, at the budgets a search uses."""
    rng = np.random.default_rng(31)
    sets = (small_set, small_set.normalized())
    for emb_set, metric in zip(sets, (Metric.L2, Metric.ANGULAR)):
        forest = rp_build(emb_set, n_trees=6, leaf_size=4, metric=metric, seed=7)
        for q in [*emb_set.vectors[:8], *rng.standard_normal((8, emb_set.dim))]:
            for search_k in (1, 2, 3, 6, 10, 30, 60, 120):
                np.testing.assert_array_equal(
                    forest.candidate_rows(q, search_k), candidate_rows_reference(forest, q, search_k)
                )


def test_the_margin_error_bound_is_tight_to_a_factor_of_two():
    """A 2-d plane whose normal is nearly parallel to the query: its float32
    margin misses the walk's by 0.66 E whether the product sums in order or
    through a fused multiply-add, so `_margin_error` holds and E/2 would not.
    Random planes and queries reach at most 0.41 E."""
    normal = np.array([0.7951313257217407, -0.45616015791893005], dtype=np.float32)
    query = np.array([0.5192289644702041, -0.29785625636197405])
    forest = RpForestIndex(Metric.ANGULAR, 1, np.arange(2), np.eye(2), [True, False, False],
                           normal[np.newaxis], [0.0], [0, 0, 1, 2], [0, 1])
    left, right = forest._leaf_priorities(query.astype(np.float32))
    walk = float(query.dot(forest._normals[0]) - forest._offsets[0])
    bound = forest._margin_error(query)
    assert -left == right
    assert bound / 2 < abs(right - walk) <= bound


# ------------------------------------------------------------ pinned bytes


def _results_digest(forest, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        for budget in (None, 3, len(forest) * forest.n_trees):
            h.update(repr(forest.search(q, 10, search_k=budget).neighbors).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "metric, vidx, results",
    [
        (
            Metric.ANGULAR,
            "f52b35e04ab10ba4ac64a5505fabbcf98e72b2c33c676aa5e0edfe7b02986145",
            "61569df1732c4fe4041422c1578a42dce695b73768b4732b8faa35132da47726",
        ),
        (
            Metric.L2,
            "0c3471a51c95be9d5ac275446029186399356173658c7af19f32db0be4e88324",
            "d7b68093ffbf66d8a2d776c8844670f7b7f88e20d50d019652713b72230cf2c3",
        ),
        (
            Metric.MANHATTAN,
            "dbdf122ca8ebb840faa91c40272c3b5c8867b8095dae9812e9e35c5981c01b97",
            "2c4ceeff445f1be5f6c5385eb820879f491b01a40e4282622986c0ec19ea1f73",
        ),
    ],
)
def test_forest_bytes_and_results_are_pinned(small_set, metric, vidx, results):
    """Digests taken from the node-object forest that the flat arrays
    replaced: the same build gives the same VIDX bytes, and the built and the
    loaded forest the same SearchResults at the default, a small and an
    exhaustive budget."""
    queries = list(np.random.default_rng(23).standard_normal((16, 16))) + list(small_set.vectors[:4])
    forest = rp_build(small_set, n_trees=5, leaf_size=8, metric=metric, seed=3)
    blob = dump_index(forest)
    assert hashlib.sha256(blob).hexdigest() == vidx
    assert _results_digest(forest, queries) == results
    assert _results_digest(load_index_bytes(blob), queries) == results


def test_the_former_defaults_keep_their_bytes_and_results(small_set):
    """Digests of `rp_build(small_set, seed=0)` while the defaults were 10
    trees of 16-row leaves: passing those two knobs gives the same forest."""
    queries = list(np.random.default_rng(29).standard_normal((16, 16))) + list(small_set.vectors[:4])
    forest = rp_build(small_set, n_trees=10, leaf_size=16, seed=0)
    blob = dump_index(forest)
    assert hashlib.sha256(blob).hexdigest() == (
        "6555d99926d193f2ed6a8ee5b5108404784a00e1cd3ea87a47663ab706e3250d")
    results = "950d86cfbd8f2d3b0ca5be6aec52401f4d46b21bcf3e4d83b5007ec39f92bffa"
    assert _results_digest(forest, queries) == results
    assert _results_digest(load_index_bytes(blob), queries) == results


# ------------------------------------------------------------ malformed loads

# Offsets in an rpforest VIDX blob: magic, version and family tag, then the
# metric tag, n_trees, leaf_size, dim, count, the ids and the vectors.
_METRIC_AT = 6
_N_TREES_AT = _METRIC_AT + 1
_LEAF_SIZE_AT = _N_TREES_AT + 4
_NODES_AT = _LEAF_SIZE_AT + 4 + 4 + 8  # plus the ids and the vectors


@pytest.fixture(scope="module")
def forest_blob(small_set):
    forest = rp_build(small_set, n_trees=3, leaf_size=8, metric=Metric.L2, seed=0)
    return dump_index(forest), _NODES_AT + (8 + 4 * small_set.dim) * len(small_set)


def _first_leaf(blob: bytes, nodes_at: int, dim: int) -> int:
    """Offset of the first leaf: the end of the leftmost path of splits."""
    pos = nodes_at
    while blob[pos] == 1:
        pos += 1 + 4 * dim + 8
    assert blob[pos] == 0
    return pos


def _load_edited(blob: bytes, at: int, fmt: str, value) -> None:
    edited = bytearray(blob)
    struct.pack_into(fmt, edited, at, value)
    load_index_bytes(bytes(edited))


def test_load_rejects_an_unknown_metric_tag(forest_blob):
    """Once a KeyError."""
    with pytest.raises(ValueError, match="forest metric"):
        _load_edited(forest_blob[0], _METRIC_AT, "<B", 3)


def test_load_rejects_a_node_tag_other_than_leaf_or_split(forest_blob):
    blob, nodes_at = forest_blob
    with pytest.raises(ValueError, match="node tag 2"):
        _load_edited(blob, nodes_at, "<B", 2)


@pytest.mark.parametrize("at", [_N_TREES_AT, _LEAF_SIZE_AT])
def test_load_rejects_zero_trees_or_leaf_size(forest_blob, at):
    with pytest.raises(ValueError, match=">= 1"):
        _load_edited(forest_blob[0], at, "<I", 0)


def test_load_rejects_a_leaf_row_past_the_end(forest_blob, small_set):
    """Once loaded, then raised IndexError on the first search."""
    blob, nodes_at = forest_blob
    leaf = _first_leaf(blob, nodes_at, small_set.dim)
    with pytest.raises(ValueError, match="every row below 300 exactly once"):
        _load_edited(blob, leaf + 5, "<I", len(small_set))


def test_load_rejects_a_tree_that_holds_a_row_twice(forest_blob, small_set):
    blob, nodes_at = forest_blob
    leaf = _first_leaf(blob, nodes_at, small_set.dim)
    size, first, second = struct.unpack_from("<3I", blob, leaf + 1)
    assert size >= 2
    with pytest.raises(ValueError, match="exactly once"):
        _load_edited(blob, leaf + 5, "<I", second)


def test_load_rejects_a_tree_missing_its_last_leaf(forest_blob):
    with pytest.raises(ValueError):
        load_index_bytes(forest_blob[0][:-4])


def _chain_blob(n: int) -> bytes:
    """One L2 tree over the points (i, 1): split i puts row i in a leaf on its
    left and the rest down its right, so the splits nest n - 1 deep."""
    w = Writer()
    w.raw(VIDX_MAGIC)
    w.u8(VIDX_VERSION)
    w.u8(8)  # rpforest
    w.u8(1)  # l2
    for value in (1, 1, 2):  # n_trees, leaf_size, dim
        w.u32(value)
    w.u64(n)
    w.u64_array(np.arange(n))
    w.f32_array(np.stack([np.arange(n), np.ones(n)], axis=1))
    for row in range(n - 1):
        w.u8(1)
        w.f32_array(np.array([1.0, 0.0]))
        w.f64(row + 0.5)
        w.u8(0)
        w.u32(1)
        w.u32_array(np.array([row]))
    w.u8(0)
    w.u32(1)
    w.u32_array(np.array([n - 1]))
    return w.getvalue()


def test_a_deep_tree_loads_and_searches_without_recursion():
    """A tree nested 5,000 splits deep once raised RecursionError on load."""
    n = 5001
    blob = _chain_blob(n)
    forest = load_index_bytes(blob)
    assert dump_index(forest) == blob
    points = EmbeddingSet(
        ids=np.arange(n, dtype=np.uint64),
        labels=np.zeros(n, dtype=np.uint32),
        vectors=np.stack([np.arange(n), np.ones(n)], axis=1).astype(np.float32),
    )
    q = np.array([2500.2, 1.0])
    assert forest.search(q, 5, search_k=1).ids == [2500]
    assert forest.search(q, 5, search_k=n).neighbors == exact_search(points, q, 5, Metric.L2).neighbors
    with pytest.raises(ValueError):
        load_index_bytes(blob[:-1])


@st.composite
def _corruptions(draw):
    kind = draw(st.sampled_from(["bytes", "node bytes", "truncate", "append"]))
    edits = draw(
        st.lists(
            st.tuples(st.integers(0, 2**31), st.integers(0, 255)), min_size=1, max_size=4
        )
    )
    return kind, edits


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_corruptions())
def test_corrupted_blob_raises_value_error_or_round_trips(forest_blob, small_set, corruption):
    """Each corrupted blob either raises ValueError or loads, dumps back to the
    same bytes and answers a search."""
    original, nodes_at = forest_blob
    blob = bytearray(original)
    kind, edits = corruption
    if kind == "truncate":
        del blob[6 + edits[0][0] % (len(blob) - 6) :]
    elif kind == "append":
        blob += bytes(value for _, value in edits)
    else:
        start = 6 if kind == "bytes" else nodes_at
        for at, value in edits:
            blob[start + at % (len(blob) - start)] = value
    blob = bytes(blob)
    try:
        loaded = load_index_bytes(blob)
    except ValueError:
        return
    assert dump_index(loaded) == blob
    assert len(loaded.search(small_set.vectors[0], 5)) > 0
