"""Random-projection forest: leaf exactness, budgets, metric variants."""

import numpy as np
import pytest

from annkit.data import EmbeddingSet
from annkit.distances import Metric
from annkit.flat import exact_search
from annkit.rpforest import RpForestIndex, rp_build


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


def test_search_k_validation(small_set):
    forest = rp_build(small_set, seed=0)
    with pytest.raises(ValueError):
        forest.search(small_set.vectors[0], 5, search_k=0)
    with pytest.raises(ValueError):
        forest.search(small_set.vectors[0], 0)


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
    assert rp_build(small_set, seed=0).label == "rpforest-angular"
    assert rp_build(small_set, metric=Metric.L2, seed=0).label == "rpforest-l2"
    assert (
        rp_build(small_set, metric=Metric.MANHATTAN, seed=0).label
        == "rpforest-manhattan"
    )
    assert rp_build(small_set, seed=0).family == "rpforest"


def test_config_reports_knobs(small_set):
    forest = rp_build(small_set, n_trees=5, leaf_size=20, seed=0)
    cfg = forest.config()
    assert cfg["n_trees"] == 5
    assert cfg["leaf_size"] == 20
    assert cfg["metric"] == "angular"
