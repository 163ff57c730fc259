"""Lloyd training: recovery on separated data, repair, determinism, and the
blocked assignment kernel against the unblocked reference."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import annkit.ivf
import annkit.pq
from annkit.families import build_index
from annkit.kmeans import (
    _BLOCK_ELEMS,
    _DISTORTION_SLACK,
    DEFAULT_MAX_ITERS,
    MOVEMENT_TOL,
    Centroids,
    _seed_plus_plus,
    assign_to_centroids,
    kmeans_fit,
)
from annkit.persist import dump_index
from annkit.pq import pq_train


def assign_to_centroids_reference(points, centroids):
    """The unblocked kernel: one n x k distance matrix from the expanded form."""
    p = np.asarray(points, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    sq = (
        np.sum(p * p, axis=1)[:, np.newaxis]
        - 2.0 * (p @ c.T)
        + np.sum(c * c, axis=1)[np.newaxis, :]
    )
    np.maximum(sq, 0.0, out=sq)
    assign = np.argmin(sq, axis=1)
    return assign, sq[np.arange(len(p)), assign]


def kmeans_fit_reference(data, k, max_iters=DEFAULT_MAX_ITERS, seed=0):
    """Lloyd training as written before the blocked kernel: data kept as passed
    (strided column slices included), reference assignment, np.add.at sums."""
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = _seed_plus_plus(data, k, rng)
    history = []

    def record(value):
        if history:
            prev = history[-1]
            assert value <= prev + _DISTORTION_SLACK * max(prev, 1.0)
        history.append(value)

    assign, sqdist = assign_to_centroids_reference(data, centroids)
    record(float(sqdist.mean()))
    for _ in range(max_iters):
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, data)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, np.newaxis]
        empties = np.flatnonzero(~nonempty)
        if len(empties) > 0:
            farthest = np.argsort(-sqdist, kind="stable")[: len(empties)]
            for slot, point_idx in zip(empties, farthest):
                new_centroids[slot] = data[point_idx]
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
        centroids = new_centroids
        assign, sqdist = assign_to_centroids_reference(data, centroids)
        record(float(sqdist.mean()))
        if movement < MOVEMENT_TOL:
            break
    return Centroids(vectors=centroids.astype(np.float32), distortion=history[-1], history=history)


def distortion(data, centroids):
    _, sqdist = assign_to_centroids(np.asarray(data, dtype=np.float64), centroids)
    return float(sqdist.mean())


def test_assign_matches_naive_argmin(rng):
    data = rng.standard_normal((30, 4))
    centroids = rng.standard_normal((5, 4))
    assign, sqdist = assign_to_centroids(data, centroids)
    d = ((data[:, np.newaxis, :] - centroids[np.newaxis, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(assign, np.argmin(d, axis=1))
    np.testing.assert_allclose(sqdist, d[np.arange(30), assign], rtol=1e-9)


def test_two_separated_blobs_recovered():
    rng = np.random.default_rng(4)
    left = rng.normal(-5.0, 0.1, size=(40, 2))
    right = rng.normal(5.0, 0.1, size=(40, 2))
    data = np.vstack([left, right])
    result = kmeans_fit(data, 2, seed=0)
    got = sorted(result.vectors.tolist())
    np.testing.assert_allclose(got[0], left.mean(axis=0), atol=0.05)
    np.testing.assert_allclose(got[1], right.mean(axis=0), atol=0.05)


def test_k_equals_one_returns_mean(rng):
    data = rng.standard_normal((25, 3))
    result = kmeans_fit(data, 1, seed=0)
    np.testing.assert_allclose(result.vectors[0], data.mean(axis=0), rtol=1e-6)


def test_distortion_history_non_increasing(rng):
    data = rng.standard_normal((200, 6))
    result = kmeans_fit(data, 8, seed=3)
    assert len(result.history) >= 2
    for earlier, later in zip(result.history, result.history[1:]):
        assert later <= earlier + 1e-9 * max(earlier, 1.0)
    assert result.distortion == result.history[-1]
    # the recorded final value matches an external recomputation
    assert distortion(data, result.vectors) == pytest.approx(result.distortion, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_runs_complete_on_clustered_data(small_set, seed):
    """The non-increasing distortion assertion is checked inside the loop."""
    result = kmeans_fit(small_set.vectors, 12, seed=seed)
    assert result.k == 12
    assert result.dim == small_set.dim
    assert np.all(np.isfinite(result.vectors))


def test_deterministic_given_seed(rng):
    data = rng.standard_normal((100, 5))
    a = kmeans_fit(data, 7, seed=9)
    b = kmeans_fit(data, 7, seed=9)
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_duplicate_heavy_data_does_not_crash():
    """Many identical points force empty-cluster repair to kick in."""
    data = np.array([[0.0, 0.0]] * 20 + [[10.0, 10.0]] * 20 + [[5.0, -5.0]])
    result = kmeans_fit(data, 5, seed=1)
    assert result.k == 5
    assert np.all(np.isfinite(result.vectors))
    # the lone outlier must end up represented essentially exactly
    d = np.linalg.norm(result.vectors - np.array([5.0, -5.0]), axis=1)
    assert d.min() < 1e-6


def test_validation_errors(rng):
    data = rng.standard_normal((10, 2))
    with pytest.raises(ValueError):
        kmeans_fit(data, 0)
    with pytest.raises(ValueError):
        kmeans_fit(data, 11)
    with pytest.raises(ValueError):
        kmeans_fit(np.empty((0, 2)), 1)
    with pytest.raises(ValueError):
        kmeans_fit(rng.standard_normal(10), 2)


def test_default_iteration_budget():
    assert DEFAULT_MAX_ITERS == 25


def test_centroids_container(rng):
    c = Centroids(rng.standard_normal((4, 3)), distortion=0.5)
    assert c.k == 4
    assert c.dim == 3
    assert c.history == []


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _draw_matrix(rng, shape, grid):
    """Grid values make exact distance ties; normal values make the expansion's
    rounding (and its tiny negatives) show."""
    if grid:
        return rng.integers(-2, 3, size=shape) * 0.5
    return rng.standard_normal(shape)


# Row counts relative to one block: n = 1, a block minus one, exactly one, one
# plus one (the remainder joins the last block), and several blocks.
_N_CASES = ["one", "block-1", "block", "block+1", "several"]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 16, 98, 181, 182, 256, 300, 1000, 20_000, 40_000]),
    dim=st.sampled_from([1, 8, 64]),
    n_case=st.sampled_from(_N_CASES),
    extra=st.integers(0, 1_000),
    grid=st.booleans(),
    strided=st.booleans(),
    float32_centroids=st.booleans(),
    dup_centroids=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_assign_equals_reference_bitwise(
    k, dim, n_case, extra, grid, strided, float32_centroids, dup_centroids, seed
):
    rows = max(2, _BLOCK_ELEMS // k)
    n = {
        "one": 1,
        "block-1": rows - 1,
        "block": rows,
        "block+1": rows + 1,
        "several": 3 * rows + extra % rows,
    }[n_case]
    assume(n >= 1 and n * dim <= 1 << 21 and k * dim <= 1 << 22)
    rng = np.random.default_rng(seed)
    wide = _draw_matrix(rng, (n, 2 * dim if strided else dim), grid)
    points = wide[:, :dim]  # a strided column slice, as pq_encode_batch passes
    # Centroids drawn from the points give exact (and rounded-to-negative) zeros.
    centroids = _draw_matrix(rng, (k, dim), grid)
    from_points = rng.integers(0, n, size=min(k, n) // 2)
    centroids[: len(from_points)] = points[from_points]
    for _ in range(min(dup_centroids, k - 1)):
        i, j = rng.integers(0, k, size=2)
        centroids[max(i, j)] = centroids[min(i, j)]
    points[rng.integers(0, n, size=n // 3)] = points[0]  # duplicate points
    if float32_centroids:
        centroids = centroids.astype(np.float32)

    assign, sqdist = assign_to_centroids(points, centroids)
    ref_assign, ref_sqdist = assign_to_centroids_reference(points, centroids)
    assert assign.dtype == ref_assign.dtype
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_array_equal(_bits(sqdist), _bits(ref_sqdist))
    # a tie between duplicate centroids goes to the lowest index
    _, first, inverse = np.unique(
        np.asarray(centroids, dtype=np.float64), axis=0, return_index=True, return_inverse=True
    )
    np.testing.assert_array_equal(first[inverse.reshape(-1)[assign]], assign)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    n=st.integers(2, 400),
    dim=st.sampled_from([1, 2, 8, 64]),
    k_frac=st.floats(0.0, 1.0),
    grid=st.booleans(),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_fit_equals_reference_bitwise(n, dim, k_frac, grid, strided, seed):
    """Contiguous data and bincount sums train the same codebook, history included."""
    rng = np.random.default_rng(seed)
    wide = _draw_matrix(rng, (n, 2 * dim if strided else dim), grid)
    data = wide[:, :dim]
    k = 1 + int(k_frac * (min(n, 40) - 1))
    got = kmeans_fit(data, k, seed=seed)
    want = kmeans_fit_reference(data, k, seed=seed)
    np.testing.assert_array_equal(got.vectors.view(np.uint32), want.vectors.view(np.uint32))
    np.testing.assert_array_equal(_bits(got.history), _bits(want.history))


@pytest.mark.parametrize(
    "family,knobs",
    [
        ("pq", {}),
        ("pq", {"m": 4, "nbits": 4}),
        ("ivf-pq", {"m": 4, "nbits": 4}),
        ("ivf-flat", {}),
        ("ivf-flat", {"nlist": 40}),
        ("ivf-sq", {}),
    ],
)
def test_builds_are_byte_identical_to_reference_kernels(small_set, monkeypatch, family, knobs):
    new = dump_index(build_index(small_set, family, seed=0, **knobs))
    for module in (annkit.pq, annkit.ivf):
        monkeypatch.setattr(module, "kmeans_fit", kmeans_fit_reference)
        monkeypatch.setattr(module, "assign_to_centroids", assign_to_centroids_reference)
    assert dump_index(build_index(small_set, family, seed=0, **knobs)) == new


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "train",
    [lambda d: kmeans_fit(d, 3), lambda d: pq_train(d, 2, 2)],
    ids=["kmeans_fit", "pq_train"],
)
def test_non_finite_training_data_raises(rng, train, bad):
    data = rng.standard_normal((20, 4))
    data[7, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        train(data)
