"""Lloyd's k-means with k-means++ seeding.

This is deliberately hand-rolled rather than delegated to a library: the
coarse quantizer and the PQ codebooks need deterministic seeding, an in-loop
distortion monotonicity assertion, and a specific empty-cluster repair rule,
all of which are part of the training contract here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import _sq_l2

MOVEMENT_TOL = 1e-6
DEFAULT_MAX_ITERS = 25
# Relative slack for the in-loop monotonicity assertion: Lloyd's update can
# only lower the objective mathematically, but float64 summation noise near
# convergence needs a hair of room.
_DISTORTION_SLACK = 1e-9
# Distance-block size of `assign_to_centroids` in float64 elements (256 KiB),
# small enough to stay in L2 while the block is summed, clamped and scanned.
_BLOCK_ELEMS = 1 << 15


def assign_to_centroids(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point under squared L2.

    Returns (assignment indices, squared distances). Ties go to the lowest
    centroid index. Used both by training and by inverted-list construction so
    the two always agree.
    """
    p = np.asarray(points, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    n, k = len(p), len(c)
    # ||p - c||^2 expanded via a matmul, one block of rows at a time so the
    # distance block stays in cache. Scaling by -2 is exact, so p @ ct2 equals
    # -(2 * (p @ c.T)) bit for bit.
    pp = np.sum(p * p, axis=1)
    cc = np.sum(c * c, axis=1)
    ct2 = (-2.0 * c).T
    # BLAS may sum a product of one or a few rows in another order than a tall
    # one (GEMV or a small-matrix kernel), so no block is thinner than `rows`:
    # the last block takes the remainder. tests/test_kmeans.py pins the result
    # bitwise to the unblocked form.
    rows = max(2, _BLOCK_ELEMS // max(k, 1))
    blocks = max(1, n // rows)
    assign = np.empty(n, dtype=np.intp)
    sqdist = np.empty(n, dtype=np.float64)
    buf = np.empty((n - (blocks - 1) * rows, k), dtype=np.float64)
    for b in range(blocks):
        s = b * rows
        e = n if b == blocks - 1 else s + rows
        sq = buf[: e - s]
        np.matmul(p[s:e], ct2, out=sq)
        sq += pp[s:e, np.newaxis]
        sq += cc
        # clamped because the expansion can produce tiny negatives
        np.maximum(sq, 0.0, out=sq)
        a = np.argmin(sq, axis=1)
        assign[s:e] = a
        sqdist[s:e] = sq[np.arange(e - s), a]
    return assign, sqdist


@dataclass
class Centroids:
    """A trained codebook: k centroid vectors plus the final training MSE."""

    vectors: np.ndarray  # (k, dim) float32
    distortion: float
    history: list[float] = field(default_factory=list, repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _seed_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: spread-out starting centroids."""
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
            # All points coincide with an existing centroid; any pick works.
            idx = int(rng.integers(n))
        chosen[i] = data[idx]
        np.minimum(closest_sq, _sq_l2(data, chosen[i]), out=closest_sq)
    return chosen


def kmeans_fit(
    data: np.ndarray,
    k: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int | np.random.SeedSequence = 0,
) -> Centroids:
    """Train k centroids with Lloyd iterations until movement < 1e-6.

    Deterministic given `seed`. Empty clusters are re-seeded to the point
    currently farthest from its assigned centroid. The recorded distortion
    (mean squared point-to-centroid distance) is asserted non-increasing
    across iterations.
    """
    # Contiguous rows: callers such as pq_train pass column slices, and every
    # seeding pass and Lloyd iteration reads the whole matrix.
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ValueError("data must be a non-empty 2-d array")
    if not np.isfinite(data).all():
        raise ValueError("data must be finite (no NaN or inf)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(data):
        raise ValueError(f"k={k} exceeds the number of training points ({len(data)})")

    rng = np.random.default_rng(seed)
    centroids = _seed_plus_plus(data, k, rng)
    history: list[float] = []

    def record(value: float) -> None:
        if history:
            prev = history[-1]
            assert value <= prev + _DISTORTION_SLACK * max(prev, 1.0), (
                f"distortion increased: {prev} -> {value}"
            )
        history.append(value)

    assign, sqdist = assign_to_centroids(data, centroids)
    record(float(sqdist.mean()))

    for _ in range(max_iters):
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        # bincount adds each column's rows in row order, as np.add.at does.
        sums = np.empty_like(centroids)
        for j in range(data.shape[1]):
            sums[:, j] = np.bincount(assign, weights=data[:, j], minlength=k)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, np.newaxis]

        empties = np.flatnonzero(~nonempty)
        if len(empties) > 0:
            # Re-seed each empty cluster with the point farthest from its
            # centroid (distinct picks, deterministic order).
            farthest = np.argsort(-sqdist, kind="stable")[: len(empties)]
            for slot, point_idx in zip(empties, farthest):
                new_centroids[slot] = data[point_idx]

        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
        centroids = new_centroids
        assign, sqdist = assign_to_centroids(data, centroids)
        record(float(sqdist.mean()))
        if movement < MOVEMENT_TOL:
            break

    final = centroids.astype(np.float32)
    assert not np.any(np.isnan(final)), "k-means produced NaN centroids"
    return Centroids(vectors=final, distortion=history[-1], history=history)
