"""Lloyd's k-means with k-means++ seeding, and the VIDX layout of its output.

This is deliberately hand-rolled rather than delegated to a library: the
coarse quantizer and the PQ codebooks need deterministic seeding, an in-loop
distortion monotonicity assertion, and a specific empty-cluster repair rule,
all of which are part of the training contract here.

`kmeans_fit` keeps two things per fit rather than per pass: a column-major
(dim, n) copy of the data, whose rows every k-means++ distance pass adds with
one `np.add.reduce` and every Lloyd update sums per column with
`np.bincount`, and the lifted (n, dim + 2) rows ``[p | ||p||^2 | 1]``, of
which the row-major data is a view.

`assign_to_centroids` computes each block of distances as one product of the
lifted points and the lifted centroids ``[-2c^T ; 1 ; ||c||^2]``, as FAISS
computes ||x||^2 + ||y||^2 - 2<x, y> around one GEMM, with the two norm adds
inside the product. Its bits are those of ``p @ (-2c).T`` followed by the two
norm adds, except in shapes where OpenBLAS sums in another order: k = 1, and
k % 8 in 1..4 at 16 or 64 dims.

VIDX stores a run of centroid sets, 1 for the IVF coarse quantizer and m for
a PQ codebook, each as its k x dim float32 vectors, then its f64 distortion;
the caller stores the count, k and dim. `write_centroids` and
`read_centroids` own that layout, as a (count, k, dim) block and a list of
count distortions, which a `PqCodebook` keeps as they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import check_count, check_finite, check_rows
from .wire import Reader, Writer

MOVEMENT_TOL = 1e-6
MAX_ITERS = 25
# Relative slack for the in-loop monotonicity assertion: Lloyd's update can
# only lower the objective mathematically, but float64 summation noise near
# convergence needs a hair of room.
_DISTORTION_SLACK = 1e-9
# Distance-block size of `assign_to_centroids` in float64 elements (256 KiB),
# small enough to stay in L2 while the block is summed and scanned.
_BLOCK_ELEMS = 1 << 15
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _lift(points: np.ndarray) -> np.ndarray:
    """The (n, dim + 2) float64 rows ``[p | ||p||^2 | 1]`` of `points`, the
    left factor of `assign_to_centroids`' product. The norms are
    ``np.sum(p * p, axis=1)`` of the float64 points."""
    p = np.asarray(points, dtype=np.float64)
    n, dim = p.shape
    lifted = np.empty((n, dim + 2), dtype=np.float64)
    lifted[:, :dim] = p
    lifted[:, dim] = np.sum(p * p, axis=1)
    lifted[:, dim + 1] = 1.0
    return lifted


def assign_to_centroids(
    points: np.ndarray, centroids: np.ndarray, *, lifted: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point under squared L2.

    Returns (assignment indices, squared distances). Ties go to the lowest
    centroid index. Used both by training and by inverted-list construction so
    the two always agree. `lifted`, when given, must be ``_lift(points)``:
    `kmeans_fit` makes it once per fit instead of once per call.

    Each block of distances is one product of lifted matrices,
    ``[p | ||p||^2 | 1] @ [-2c^T ; 1 ; ||c||^2]``. BLAS sums its dim + 2
    terms in order, so an entry is ((p . (-2c) + ||p||^2) + ||c||^2), the bits
    of the product ``p @ (-2c).T`` followed by the two broadcast norm adds,
    with no pass over the block for the adds. Scaling by -2 and multiplying
    by 1 are exact. OpenBLAS sums some small shapes in another order, where
    the bits can differ from that three-step form: k = 1 (numpy takes its
    GEMV path), and, with 16 or 64 dims, k % 8 in 1..4 (a small-matrix tail
    kernel).
    """
    c = np.asarray(centroids, dtype=np.float64)
    if lifted is None:
        lifted = _lift(points)
    n, k = len(lifted), len(c)
    dim = lifted.shape[1] - 2
    right = np.empty((dim + 2, k), dtype=np.float64)
    np.multiply(c.T, -2.0, out=right[:dim])
    right[dim] = 1.0
    right[dim + 1] = np.sum(c * c, axis=1)
    # One block of rows at a time so the distance block stays in cache. BLAS
    # may sum a product of one or a few rows in another order than a tall one
    # (GEMV or a small-matrix kernel), so no block is thinner than `rows`: the
    # last block takes the remainder. tests/test_kmeans.py pins the result
    # bitwise to the unblocked product. That holds with one BLAS thread;
    # threaded OpenBLAS can round a block's rows unlike the same rows of the
    # whole product.
    rows = max(2, _BLOCK_ELEMS // max(k, 1))
    blocks = max(1, n // rows)
    assign = np.empty(n, dtype=np.intp)
    sqdist = np.empty(n, dtype=np.float64)
    buf = np.empty((n - (blocks - 1) * rows, k), dtype=np.float64)
    row_idx = np.arange(len(buf))
    for b in range(blocks):
        s = b * rows
        e = n if b == blocks - 1 else s + rows
        sq = buf[: e - s]
        np.matmul(lifted[s:e], right, out=sq)
        a = np.argmin(sq, axis=1, out=assign[s:e])
        d = sqdist[s:e]
        d[:] = sq[row_idx[: e - s], a]
        # The expansion can round a true zero to a tiny negative. Clamping the
        # block at 0 would make a row's minimum the first entry <= 0, at +0.0;
        # only rows whose minimum is negative need that, so only they are fixed.
        if d.min(initial=0.0) < 0.0:
            neg = np.flatnonzero(d < 0.0)
            a[neg] = np.argmax(sq[neg] <= 0.0, axis=1)
            d[neg] = 0.0
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


def write_centroids(w: Writer, block: np.ndarray, distortions: list[float]) -> None:
    """Each set of a (count, k, dim) block as its float32 vectors, then its distortion."""
    for vectors, distortion in zip(block, distortions):
        w.f32_array(vectors)
        w.f64(distortion)


def read_centroids(r: Reader, count: int, k: int, dim: int) -> tuple[np.ndarray, list[float]]:
    """`count` centroid sets of k x dim as one owned C-contiguous (count, k,
    dim) float32 block and the list of their `count` distortions, both
    through `base.check_finite`. ValueError when the buffer is short or a
    vector or a distortion is not finite. k and dim are the caller's stored
    counts, each already through `base.check_count`.
    """
    section = r.view("u1")
    r.skip(count * (4 * k * dim + 8))  # raises before a record dtype can be oversized
    records = np.frombuffer(section, np.dtype([("v", "<f4", (k, dim)), ("d", "<f8")]), count)
    vectors = records["v"].astype(np.float32)
    check_finite("centroid vectors and distortions", vectors, records["d"])
    return vectors, records["d"].tolist()


def _seed_plus_plus(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: spread-out starting centroids.

    `cols` is the data transposed, (dim, n), best C-contiguous. Each distance
    pass adds the rows of ``(cols - c)**2`` left to right, one whole-row add
    per dimension, and each pick is ``rng.choice(n, p=closest_sq / total)``
    step for step (tests/test_kmeans.py keeps that form, on ``_sq_l2(data,
    c)`` distances, as the reference).
    """
    dim, n = cols.shape
    chosen = np.empty((k, dim), dtype=np.float64)
    sq = np.empty_like(cols)
    cdf = np.empty(n, dtype=np.float64)

    def sq_dist(c: np.ndarray) -> np.ndarray:
        np.subtract(cols, c[:, np.newaxis], out=sq)
        np.multiply(sq, sq, out=sq)
        return np.add.reduce(sq, axis=0)

    first = int(rng.integers(n))
    chosen[0] = cols[:, first]
    closest_sq = sq_dist(chosen[0])
    for i in range(1, k):
        total = closest_sq.sum()
        if total > 0.0:
            # Generator.choice(n, p=closest_sq / total) step for step, without
            # its argument checks: the same cdf and the same single draw.
            np.divide(closest_sq, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            # All points coincide with an existing centroid; any pick works.
            idx = int(rng.integers(n))
        chosen[i] = cols[:, idx]
        np.minimum(closest_sq, sq_dist(chosen[i]), out=closest_sq)
    return chosen


def kmeans_fit(
    data: np.ndarray,
    k: int,
    seed: int | np.random.SeedSequence = 0,
) -> Centroids:
    """Train k centroids with Lloyd iterations until movement < 1e-6, or
    for at most `MAX_ITERS` (25) iterations.

    Deterministic given `seed`. Empty clusters are re-seeded to the point
    currently farthest from its assigned centroid. The recorded distortion
    (mean squared point-to-centroid distance) is asserted non-increasing
    across iterations.
    """
    data = check_rows("data", np.asarray(data, dtype=np.float64), nonempty=True)
    # Centroids come back as float32, and within its range no distance or
    # seeding probability below can overflow. NaN fails both comparisons, so
    # NaN and inf are rejected too.
    if not (data.max(initial=0.0) <= _FLOAT32_MAX and data.min(initial=0.0) >= -_FLOAT32_MAX):
        raise ValueError(f"data must be finite, each |value| <= float32 max {_FLOAT32_MAX:.6g}")
    check_count("k", k)
    if k > len(data):
        raise ValueError(f"k={k} exceeds the number of training points ({len(data)})")

    rng = np.random.default_rng(seed)
    cols = np.array(data.T, order="C")
    # Contiguous lifted rows, which every assignment reads whole; callers such
    # as pq_train pass column slices. The data becomes a view of them.
    lifted = _lift(data)
    data = lifted[:, : data.shape[1]]
    centroids = _seed_plus_plus(cols, k, rng)
    history: list[float] = []

    def record(value: float) -> None:
        if history:
            prev = history[-1]
            assert value <= prev + _DISTORTION_SLACK * max(prev, 1.0), (
                f"distortion increased: {prev} -> {value}"
            )
        history.append(value)

    assign, sqdist = assign_to_centroids(data, centroids, lifted=lifted)
    record(float(sqdist.mean()))

    for _ in range(MAX_ITERS):
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        # bincount adds each column's rows in row order, as np.add.at does.
        sums = np.empty_like(centroids)
        for j, col in enumerate(cols):
            sums[:, j] = np.bincount(assign, weights=col, minlength=k)
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
        assign, sqdist = assign_to_centroids(data, centroids, lifted=lifted)
        record(float(sqdist.mean()))
        if movement < MOVEMENT_TOL:
            break

    final = centroids.astype(np.float32)
    assert not np.any(np.isnan(final)), "k-means produced NaN centroids"
    return Centroids(vectors=final, distortion=history[-1], history=history)
