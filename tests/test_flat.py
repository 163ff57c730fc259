"""Exhaustive search against brute-force reference loops."""

import numpy as np
import pytest

from annkit.bench import search_excluding
from annkit.data import EmbeddingSet
from annkit.distances import Metric, batch_scores
from annkit.flat import FlatIPIndex, FlatL2Index, exact_search, ground_truth


def brute_force(emb_set, query, k, metric, exclude=None):
    """Reference ranking: score every row, sort by (score, id) in python."""
    scored = []
    for rec in emb_set:
        if exclude is not None and rec.id == exclude:
            continue
        score = float(batch_scores(metric, query, rec.vector[np.newaxis, :])[0])
        scored.append((score, rec.id))
    reverse = metric.higher_is_closer
    scored.sort(key=lambda t: (-t[0] if reverse else t[0], t[1]))
    return [rid for _, rid in scored[:k]]


@pytest.mark.parametrize("metric", list(Metric))
def test_exact_search_matches_brute_force(random_set, metric, rng):
    for _ in range(5):
        query = rng.standard_normal(random_set.dim).astype(np.float32)
        got = exact_search(random_set, query, 9, metric)
        assert got.ids == brute_force(random_set, query, 9, metric)


def test_exact_search_exclusion_hand_computed():
    """Four points on a line; querying at a stored point skips only itself."""
    from annkit.data import EmbeddingSet

    s = EmbeddingSet(
        ids=np.array([10, 11, 12, 13], dtype=np.uint64),
        labels=np.zeros(4, dtype=np.uint32),
        vectors=np.array([[0.0], [1.0], [3.0], [7.0]], dtype=np.float32),
    )
    res = exact_search(s, np.array([1.0], dtype=np.float32), 3, exclude=11)
    assert res.ids == [10, 12, 13]
    assert res.scores == [1.0, 2.0, 6.0]


def test_exact_search_k_larger_than_set(tiny_set):
    res = exact_search(tiny_set, tiny_set.vectors[0], 10_000)
    assert len(res) == len(tiny_set)


def test_exact_search_rejects_bad_k(tiny_set):
    with pytest.raises(ValueError):
        exact_search(tiny_set, tiny_set.vectors[0], 0)


def test_exact_search_scores_are_sorted(random_set, rng):
    query = rng.standard_normal(random_set.dim)
    res = exact_search(random_set, query, 20, Metric.L2)
    assert res.scores == sorted(res.scores)
    res = exact_search(random_set, query, 20, Metric.INNER_PRODUCT)
    assert res.scores == sorted(res.scores, reverse=True)


def test_ground_truth_excludes_query_and_matches_exact(small_set):
    qids = small_set.ids[[0, 57, 123]]
    truth = ground_truth(small_set, qids, 4)
    assert set(truth) == {int(q) for q in qids}
    for qid in truth:
        assert qid not in truth[qid]
        row = small_set.row_of(qid)
        expect = exact_search(small_set, small_set.vectors[row], 4, exclude=qid)
        assert truth[qid] == expect.ids


def test_ground_truth_unknown_id_raises(small_set):
    with pytest.raises(KeyError):
        ground_truth(small_set, np.array([999_999]), 3)


def test_flat_l2_index_matches_exact_search(small_set, rng):
    index = FlatL2Index.build(small_set)
    assert index.family == "flat-l2"
    assert index.dim == small_set.dim
    assert len(index) == len(small_set)
    for _ in range(4):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        assert index.search(q, 7).neighbors == exact_search(small_set, q, 7).neighbors


def test_flat_ip_index_matches_exact_search(small_set, rng):
    index = FlatIPIndex.build(small_set)
    assert index.family == "flat-ip"
    for _ in range(4):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        expect = exact_search(small_set, q, 7, Metric.INNER_PRODUCT)
        assert index.search(q, 7).neighbors == expect.neighbors


def test_flat_index_exclusion(small_set):
    """Flat exclusion is search k+1 and drop: it equals the exact oracle's.

    Checked on every row of a set with exact duplicate vectors, where the
    query's twin ties it at the best score, and for k beyond the set size.
    """
    index = FlatL2Index.build(small_set)
    qid = int(small_set.ids[42])
    res = search_excluding(index, small_set.vectors[42], 5, qid)
    assert qid not in res.ids
    # the stored point itself comes back first when not excluded
    assert index.search(small_set.vectors[42], 1).ids == [qid]

    vectors = np.concatenate([small_set.vectors[:40], small_set.vectors[:20]])
    ids = np.arange(100, 160, dtype=np.uint64)[::-1].copy()
    dup = EmbeddingSet(ids, np.zeros(60, dtype=np.uint32), vectors)
    for index, metric in ((FlatL2Index.build(dup), Metric.L2),
                          (FlatIPIndex.build(dup), Metric.INNER_PRODUCT)):
        for row in range(len(dup)):
            qid = int(dup.ids[row])
            for k in (1, 3, 60):
                got = search_excluding(index, dup.vectors[row], k, qid)
                want = exact_search(dup, dup.vectors[row], k, metric, exclude=qid)
                assert got.neighbors == want.neighbors


def test_flat_index_reports_memory_and_config(small_set):
    index = FlatL2Index.build(small_set)
    assert index.memory_bytes() >= small_set.vectors.nbytes
    assert index.config() == {}


def test_search_result_shape(small_set):
    res = FlatL2Index.build(small_set).search(small_set.vectors[0], 3)
    assert len(res) == 3
    for rid, score in res:
        assert isinstance(rid, int)
        assert isinstance(score, float)
    assert res.ids == [rid for rid, _ in res.neighbors]
    assert res.scores == [s for _, s in res.neighbors]
