"""Scoring primitives checked against plain-Python reference math."""

import math

import numpy as np
import pytest

from annkit.distances import Metric, batch_scores, distance, normalize, rank_order


def naive_score(metric: Metric, a, b) -> float:
    """Reference implementation with explicit loops, float64 throughout."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if metric is Metric.L2:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if metric is Metric.MANHATTAN:
        return sum(abs(x - y) for x, y in zip(a, b))
    if metric is Metric.INNER_PRODUCT:
        return sum(x * y for x, y in zip(a, b))
    if metric is Metric.ANGULAR:
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        cos = dot / (na * nb)
        return math.sqrt(max(0.0, 2.0 * (1.0 - cos)))
    raise AssertionError(metric)


@pytest.mark.parametrize("metric", list(Metric))
def test_batch_scores_float32_rows_equal_float64_copy(metric, rng):
    """Indexes score their float32 rows directly; no float64 copy is needed."""
    query = rng.standard_normal(24)
    vectors = (rng.standard_normal((200, 24)) * 3).astype(np.float32)
    got = batch_scores(metric, query, vectors)
    want = batch_scores(metric, query, vectors.astype(np.float64))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("metric", list(Metric))
def test_batch_scores_match_naive(metric, rng):
    query = rng.standard_normal(10).astype(np.float32)
    vectors = rng.standard_normal((40, 10)).astype(np.float32)
    got = batch_scores(metric, query, vectors)
    want = [naive_score(metric, query, row) for row in vectors]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    assert got.dtype == np.float64


@pytest.mark.parametrize("metric", list(Metric))
def test_scalar_distance_matches_batch_row(metric, rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    one = distance(metric, a, b)
    row = batch_scores(metric, a, b[np.newaxis, :])[0]
    assert one == np.float32(row)


def test_l2_zero_for_identical_vectors(rng):
    v = rng.standard_normal(8)
    assert distance(Metric.L2, v, v) == 0.0
    assert distance(Metric.MANHATTAN, v, v) == 0.0


def test_angular_identity_and_opposite():
    v = np.array([1.0, 2.0, -3.0])
    assert distance(Metric.ANGULAR, v, v) == pytest.approx(0.0, abs=1e-6)
    # antipodal vectors: cos = -1 so the distance is sqrt(2 * 2) = 2
    assert distance(Metric.ANGULAR, v, -v) == pytest.approx(2.0, rel=1e-6)


def test_angular_is_scale_invariant(rng):
    a = rng.standard_normal(5)
    b = rng.standard_normal(5)
    d1 = distance(Metric.ANGULAR, a, b)
    d2 = distance(Metric.ANGULAR, 3.5 * a, 0.2 * b)
    assert d1 == pytest.approx(d2, rel=1e-5)


def test_angular_rejects_zero_vectors(rng):
    v = rng.standard_normal(4)
    with pytest.raises(ValueError):
        batch_scores(Metric.ANGULAR, np.zeros(4), v[np.newaxis, :])


def test_higher_is_closer_flags():
    assert Metric.INNER_PRODUCT.higher_is_closer
    assert not Metric.L2.higher_is_closer
    assert not Metric.ANGULAR.higher_is_closer
    assert not Metric.MANHATTAN.higher_is_closer


def test_metric_string_values():
    assert {m.value for m in Metric} == {"l2", "ip", "angular", "manhattan"}
    assert Metric("l2") is Metric.L2


def test_normalize_unit_norm(rng):
    v = rng.standard_normal(7) * 10
    u = normalize(v)
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-6)
    np.testing.assert_allclose(u * np.linalg.norm(v), v, rtol=1e-5, atol=1e-7)


def test_normalize_zero_raises():
    with pytest.raises(ValueError):
        normalize(np.zeros(3))


def test_rank_order_ascending_for_distances():
    ids = np.array([10, 11, 12, 13], dtype=np.uint64)
    scores = np.array([3.0, 1.0, 2.0, 0.5])
    order = rank_order(Metric.L2, ids, scores)
    assert [int(ids[i]) for i in order] == [13, 11, 12, 10]


def test_rank_order_descending_for_inner_product():
    ids = np.array([1, 2, 3], dtype=np.uint64)
    scores = np.array([0.1, 5.0, -2.0])
    order = rank_order(Metric.INNER_PRODUCT, ids, scores)
    assert [int(ids[i]) for i in order] == [2, 1, 3]


def test_rank_order_breaks_ties_by_ascending_id():
    ids = np.array([42, 7, 19], dtype=np.uint64)
    scores = np.array([1.0, 1.0, 1.0])
    order = rank_order(Metric.L2, ids, scores)
    assert [int(ids[i]) for i in order] == [7, 19, 42]
    order = rank_order(Metric.INNER_PRODUCT, ids, scores)
    assert [int(ids[i]) for i in order] == [7, 19, 42]
