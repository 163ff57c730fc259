"""Lloyd's k-means with k-means++ seeding, and the VIDX layout of its output.

This is deliberately hand-rolled rather than delegated to a library: the
coarse quantizer and the PQ codebooks need deterministic seeding, an in-loop
distortion monotonicity assertion, and a specific empty-cluster repair rule,
all of which are part of the training contract here.

`kmeans_fit` keeps two things per fit rather than per pass: a column-major
(dim, n) copy of the data, which every k-means++ distance pass sums with
`_column_sums` and every Lloyd update sums per column with `np.bincount`, and
the squared point norms, which every `assign_to_centroids` call reuses. Both
give the bits of the row-major, per-call forms.

VIDX stores a run of centroid sets, 1 for the IVF coarse quantizer and m for
a PQ codebook, each as its k x dim float32 vectors, then its f64 distortion;
the caller stores the count, k and dim. `write_centroids` and
`read_centroids` own that layout, as a (count, k, dim) block and a list of
count distortions, which a `PqCodebook` keeps as they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .wire import Reader, Writer

MOVEMENT_TOL = 1e-6
DEFAULT_MAX_ITERS = 25
# Relative slack for the in-loop monotonicity assertion: Lloyd's update can
# only lower the objective mathematically, but float64 summation noise near
# convergence needs a hair of room.
_DISTORTION_SLACK = 1e-9
# Distance-block size of `assign_to_centroids` in float64 elements (256 KiB),
# small enough to stay in L2 while the block is summed and scanned.
_BLOCK_ELEMS = 1 << 15
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _column_sums(t: np.ndarray) -> np.ndarray:
    """Column sums of `t`, added in the order numpy's pairwise sum adds a row.

    ``_column_sums(np.array(x.T))`` equals ``x.sum(axis=1)`` bit for bit when
    no entry is -0.0 (numpy starts from +0.0). numpy adds a row narrower than 8
    left to right. From 8 to 128 wide it keeps eight running sums over stride-8
    columns, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the
    ``d % 8`` trailing columns left to right. A wider row is split at half its
    width rounded down to a multiple of 8. Here each step is one whole-row add,
    with no per-row reduction overhead. `t` is overwritten; row 0, returned as
    a view, holds the sums.
    """
    d = len(t)
    if d == 0:
        return np.zeros(t.shape[1:])
    if d > 128:
        half = d // 2 - d // 2 % 8
        _column_sums(t[:half])
        t[0] += _column_sums(t[half:])
        return t[0]
    tail = 1
    if d >= 8:
        tail = d - d % 8
        for i in range(8, tail, 8):
            t[:8] += t[i : i + 8]
        t[0:8:2] += t[1:8:2]
        t[0:8:4] += t[2:8:4]
        t[0] += t[4]
    for i in range(tail, d):
        t[0] += t[i]
    return t[0]


def assign_to_centroids(
    points: np.ndarray, centroids: np.ndarray, *, point_norms: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point under squared L2.

    Returns (assignment indices, squared distances). Ties go to the lowest
    centroid index. Used both by training and by inverted-list construction so
    the two always agree. `point_norms`, when given, must be
    ``np.sum(p * p, axis=1)`` of the float64 points: `kmeans_fit` computes it
    once per fit instead of once per call.
    """
    p = np.asarray(points, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    n, k = len(p), len(c)
    # ||p - c||^2 expanded via a matmul, one block of rows at a time so the
    # distance block stays in cache. Scaling by -2 is exact, so p @ ct2 equals
    # -(2 * (p @ c.T)) bit for bit.
    pp = np.sum(p * p, axis=1) if point_norms is None else point_norms
    cc = np.sum(c * c, axis=1)
    ct2 = (-2.0 * c).T
    # BLAS may sum a product of one or a few rows in another order than a tall
    # one (GEMV or a small-matrix kernel), so no block is thinner than `rows`:
    # the last block takes the remainder. tests/test_kmeans.py pins the result
    # bitwise to the unblocked form. That holds with one BLAS thread; threaded
    # OpenBLAS can round a block's rows unlike the same rows of the whole product.
    rows = max(2, _BLOCK_ELEMS // max(k, 1))
    blocks = max(1, n // rows)
    assign = np.empty(n, dtype=np.intp)
    sqdist = np.empty(n, dtype=np.float64)
    buf = np.empty((n - (blocks - 1) * rows, k), dtype=np.float64)
    # The centroid norms tiled to the block's shape once: a same-shape add is
    # cheaper than broadcasting one row over every block, with the same sums.
    cc_rows = np.tile(cc, (len(buf), 1))
    row_idx = np.arange(len(buf))
    for b in range(blocks):
        s = b * rows
        e = n if b == blocks - 1 else s + rows
        sq = buf[: e - s]
        np.matmul(p[s:e], ct2, out=sq)
        sq += pp[s:e, np.newaxis]
        sq += cc_rows[: e - s]
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
    dim) float32 block, its vectors checked finite in one pass, and the list
    of their `count` distortions, checked one float at a time. ValueError when
    k or dim is 0, the buffer is short, or a vector or a distortion is not
    finite.
    """
    if k < 1 or dim < 1:
        raise ValueError(f"centroid sets must be >= 1 x 1, got {k} x {dim}")
    section = r.view("u1")
    r.skip(count * (4 * k * dim + 8))  # raises before a record dtype can be oversized
    records = np.frombuffer(section, np.dtype([("v", "<f4", (k, dim)), ("d", "<f8")]), count)
    vectors = records["v"].astype(np.float32)
    if not np.isfinite(vectors).all():
        raise ValueError("centroid vectors must be finite (no NaN or inf)")
    distortions = records["d"].tolist()
    if not all(map(math.isfinite, distortions)):
        raise ValueError("centroid distortions must be finite (no NaN or inf)")
    return vectors, distortions


def _seed_plus_plus(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: spread-out starting centroids.

    `cols` is the data transposed, (dim, n), best C-contiguous. Picks the same
    centroids, and leaves `rng` in the same state, as ``_sq_l2(data, c)``
    distances with ``rng.choice(n, p=closest_sq / total)`` (tests/test_kmeans.py
    keeps that form as the reference). Each distance pass sums the rows of
    ``(cols - c)**2`` with `_column_sums`.
    """
    dim, n = cols.shape
    chosen = np.empty((k, dim), dtype=np.float64)
    sq = np.empty_like(cols)
    cdf = np.empty(n, dtype=np.float64)

    def sq_dist(c: np.ndarray) -> np.ndarray:
        np.subtract(cols, c[:, np.newaxis], out=sq)
        np.multiply(sq, sq, out=sq)
        return _column_sums(sq)

    first = int(rng.integers(n))
    chosen[0] = cols[:, first]
    closest_sq = sq_dist(chosen[0]).copy()
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
    # assignment reads the whole matrix.
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ValueError("data must be a non-empty 2-d array")
    # Centroids come back as float32, and within its range no distance or
    # seeding probability below can overflow. NaN fails both comparisons, so
    # NaN and inf are rejected too.
    if not (data.max(initial=0.0) <= _FLOAT32_MAX and data.min(initial=0.0) >= -_FLOAT32_MAX):
        raise ValueError(f"data must be finite, each |value| <= float32 max {_FLOAT32_MAX:.6g}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(data):
        raise ValueError(f"k={k} exceeds the number of training points ({len(data)})")

    rng = np.random.default_rng(seed)
    cols = np.array(data.T, order="C")
    norms = np.sum(data * data, axis=1)
    centroids = _seed_plus_plus(cols, k, rng)
    history: list[float] = []

    def record(value: float) -> None:
        if history:
            prev = history[-1]
            assert value <= prev + _DISTORTION_SLACK * max(prev, 1.0), (
                f"distortion increased: {prev} -> {value}"
            )
        history.append(value)

    assign, sqdist = assign_to_centroids(data, centroids, point_norms=norms)
    record(float(sqdist.mean()))

    for _ in range(max_iters):
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
        assign, sqdist = assign_to_centroids(data, centroids, point_norms=norms)
        record(float(sqdist.mean()))
        if movement < MOVEMENT_TOL:
            break

    final = centroids.astype(np.float32)
    assert not np.any(np.isnan(final)), "k-means produced NaN centroids"
    return Centroids(vectors=final, distortion=history[-1], history=history)
