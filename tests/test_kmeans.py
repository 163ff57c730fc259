"""Lloyd training: recovery on separated data, repair, determinism, and the
blocked assignment and column-major seeding kernels against their references."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import annkit.ivf
import annkit.pq
from annkit.data import EmbeddingSet
from annkit.distances import _sq_l2
from annkit.families import build_index
from annkit.ivf import ivf_build
from annkit.kmeans import (
    _BLOCK_ELEMS,
    _DISTORTION_SLACK,
    DEFAULT_MAX_ITERS,
    MOVEMENT_TOL,
    Centroids,
    _column_sums,
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


def seed_plus_plus_reference(data, k, rng):
    """k-means++ seeding as written before the column-major kernel: one
    `_sq_l2` row-sum pass per centroid and `rng.choice` for each pick."""
    n = len(data)
    chosen = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    chosen[0] = data[first]
    closest_sq = _sq_l2(data, chosen[0])
    for i in range(1, k):
        total = closest_sq.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=closest_sq / total))
        else:
            idx = int(rng.integers(n))
        chosen[i] = data[idx]
        np.minimum(closest_sq, _sq_l2(data, chosen[i]), out=closest_sq)
    return chosen


def kmeans_fit_reference(data, k, max_iters=DEFAULT_MAX_ITERS, seed=0):
    """Lloyd training as written before the blocked kernel: data kept as passed
    (strided column slices included), reference seeding and assignment,
    np.add.at sums."""
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = seed_plus_plus_reference(data, k, rng)
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


def lloyd_reference(data, k, max_iters=DEFAULT_MAX_ITERS, seed=0):
    """Lloyd training as written before the norms were kept per fit: every
    assignment recomputes the point norms, and each centroid column is summed
    by bincount over a strided column of the row-major data."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = seed_plus_plus_reference(data, k, rng)
    history = []
    assign, sqdist = assign_to_centroids(data, centroids)
    history.append(float(sqdist.mean()))
    for _ in range(max_iters):
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        sums = np.empty_like(centroids)
        for j in range(data.shape[1]):
            sums[:, j] = np.bincount(assign, weights=data[:, j], minlength=k)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, np.newaxis]
        empties = np.flatnonzero(~nonempty)
        if len(empties) > 0:
            farthest = np.argsort(-sqdist, kind="stable")[: len(empties)]
            for slot, point_idx in zip(empties, farthest):
                new_centroids[slot] = data[point_idx]
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
        centroids = new_centroids
        assign, sqdist = assign_to_centroids(data, centroids)
        history.append(float(sqdist.mean()))
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


def test_rows_with_several_negative_expanded_distances_match_the_clamped_reference():
    """A point equal to one centroid and a hair from three others: the expansion
    gives them tiny negatives of two values, the more negative one later. Clamping
    makes the first entry <= 0 the nearest, at +0.0; the kernel must agree
    without it."""
    p = np.array([-7.911, -6.675, 4.608, 14.315, 3.062, 2.428])
    nudges = np.array([[0, 1, 1, 2, 0, -1], [-1, -1, -1, 1, 1, -1], [2, 0, -1, 0, 0, -1]]) * 1e-9
    centroids = np.vstack([p + 1.0, p + nudges, p, p - 2.0])
    points = np.array([p - 2.0, p, p + 0.5, p, p + 1.0, p])
    expanded = (
        np.sum(points * points, axis=1)[:, np.newaxis]
        - 2.0 * (points @ centroids.T)
        + np.sum(centroids * centroids, axis=1)
    )
    for row in (1, 3, 5):  # the case really is there, with distinct negatives
        negatives = expanded[row][expanded[row] < 0]
        assert len(set(negatives.tolist())) >= 2
        assert np.argmin(expanded[row]) != np.argmax(expanded[row] <= 0)
    assign, sqdist = assign_to_centroids(points, centroids)
    ref_assign, ref_sqdist = assign_to_centroids_reference(points, centroids)
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_array_equal(_bits(sqdist), _bits(ref_sqdist))
    assert _bits(sqdist[[1, 3, 5]]).tolist() == [0, 0, 0]  # +0.0, not -0.0


def _seeding_data(rng, n, dim, kind):
    """Normal rows at a random scale, grid rows (exact ties), rows drawn from a
    few distinct points, or one point repeated (the total == 0 branch)."""
    if kind == "normal":
        return rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4)
    if kind == "grid":
        return rng.integers(-2, 3, size=(n, dim)) * 0.5
    pool = rng.standard_normal((1 if kind == "coincident" else 3, dim))
    return pool[rng.integers(0, len(pool), size=n)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([*range(1, 10), 16, 17, 64, 127, 128, 129, 136, 200, 264]),
    n=st.integers(1, 300),
    k_frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(["normal", "grid", "duplicates", "coincident"]),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_seeding_equals_reference_bitwise(dim, n, k_frac, kind, strided, seed):
    """The same centroids and the generator left in the same state."""
    rng = np.random.default_rng(seed)
    data = _seeding_data(rng, n, dim, kind)
    if strided:
        data = np.hstack([data, data])[:, :dim]
    k = 1 + int(k_frac * (min(n, 60) - 1))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _seed_plus_plus(np.array(data.T, order="C"), k, got_rng)
    want = seed_plus_plus_reference(data, k, want_rng)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_column_sums_equal_numpy_row_sums_at_every_width():
    rng = np.random.default_rng(12)
    for dim in range(0, 301):
        rows = rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-4, 5, size=(40, dim))
        rows[:5] = rng.integers(-2, 3, size=(5, dim)) * 0.5
        q = rows[7].copy()  # one exact zero row
        diff = np.array((rows - q).T)
        diff *= diff
        np.testing.assert_array_equal(
            _bits(_column_sums(diff)), _bits(_sq_l2(rows, q)), err_msg=f"width {dim}"
        )


@pytest.mark.parametrize("k", [1, 3])
def test_zero_width_data_trains_like_the_reference(k):
    """Width 0 is legal (pq_train allows it, as 0 % m == 0): every distance is 0."""
    data = np.zeros((5, 0))
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    np.testing.assert_array_equal(
        _seed_plus_plus(np.zeros((0, 5)), k, got_rng), seed_plus_plus_reference(data, k, want_rng)
    )
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    got, want = kmeans_fit(data, k, seed=4), kmeans_fit_reference(data, k, seed=4)
    assert got.vectors.shape == want.vectors.shape == (k, 0)
    assert got.history == want.history
    centroids = np.zeros((k, 0))
    for g, w in zip(
        assign_to_centroids(data, centroids), assign_to_centroids_reference(data, centroids)
    ):
        np.testing.assert_array_equal(g, w)
    assert pq_train(np.zeros((10, 0)), 2, 2).block.shape == (2, 4, 0)


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


@pytest.mark.parametrize("k", [1, 98, 181, 256])
@pytest.mark.parametrize("dim", [1, 8, 64])
def test_assign_with_kept_norms_equals_recomputed_bitwise(k, dim):
    """`point_norms` replaces only the per-call norm pass: the same blocks, the
    same assignment and the same bits, on strided points with repeats."""
    rng = np.random.default_rng(k * dim)
    n = 3 * max(2, _BLOCK_ELEMS // k) + 5
    points = rng.standard_normal((n, 2 * dim))[:, :dim]
    points[rng.integers(0, n, size=n // 3)] = points[0]
    centroids = points[rng.integers(0, n, size=k)] + rng.standard_normal((k, dim)) * 1e-3
    want = assign_to_centroids(points, centroids)
    got = assign_to_centroids(points, centroids, point_norms=np.sum(points * points, axis=1))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(_bits(got[1]), _bits(want[1]))


@pytest.mark.parametrize(
    "n,dim,k",
    [(2400, 64, 49), (2400, 8, 256)],
    ids=["coarse-64d", "subspace-8d"],
)
def test_kmeans_fit_equals_per_call_norm_lloyd_bitwise(n, dim, k):
    """Norms kept per fit and sums from the column-major copy train the same
    codebook as the per-call loop, on clustered data with a zero column and a
    repeated point."""
    rng = np.random.default_rng(dim)
    centers = rng.standard_normal((k // 4 + 1, dim)) * 4.0
    data = centers[rng.integers(0, len(centers), n)] + rng.standard_normal((n, dim))
    data[:, dim // 2] = 0.0
    data[n // 3] = data[7]
    got = kmeans_fit(data, k, seed=3)
    want = lloyd_reference(data, k, seed=3)
    assert len(got.history) >= 3  # several Lloyd updates, not only the seeding
    np.testing.assert_array_equal(got.vectors.view(np.uint32), want.vectors.view(np.uint32))
    assert _bits(got.distortion) == _bits(want.distortion)
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


def _ivf_books(data):
    n = len(data)
    emb_set = EmbeddingSet(np.arange(n, dtype=np.uint64), np.zeros(n, dtype=np.uint32), data)
    index = ivf_build(emb_set, nlist=3, encoding="pq", m=2, nbits=2)
    return [index.coarse.vectors, index.codebook.block]


# Each trains on `data` and returns the float32 centroid arrays it made.
_TRAINERS = {
    "kmeans_fit": lambda data: [kmeans_fit(data, 3).vectors],
    "pq_train": lambda data: [pq_train(data, 2, 2).block],
    "ivf_build": _ivf_books,
}


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("scale", [1e39, 1e150, 1e160, 1e300])
@pytest.mark.parametrize("train", _TRAINERS.values(), ids=_TRAINERS.keys())
def test_training_data_beyond_float32_range_raises(rng, train, scale):
    """Centroids come back as float32. An EmbeddingSet holds float32 too, so
    ivf_build's set refuses such values before any training."""
    data = rng.uniform(-1.0, 1.0, size=(20, 4)) * scale
    with pytest.raises(ValueError, match="finite"):
        train(data)


@pytest.mark.parametrize("train", _TRAINERS.values(), ids=_TRAINERS.keys())
def test_training_data_at_float32_magnitude_fits(rng, train):
    data = rng.uniform(-1.0, 1.0, size=(20, 4)) * 3e38
    data[0, 0] = 3e38
    assert all(np.isfinite(vectors).all() for vectors in train(data))
