"""Lloyd's k-means with k-means++ seeding, and the VIDX layout of its output.

This is deliberately hand-rolled rather than delegated to a library: the
coarse quantizer and the PQ codebooks need deterministic seeding, an in-loop
distortion monotonicity assertion, and a specific empty-cluster repair rule,
all of which are part of the training contract here.

`kmeans_fit` keeps two things per fit rather than per pass: a column-major
(dim, n) copy of the data, whose rows every k-means++ distance pass adds with
one `np.add.reduce` and every Lloyd update sums per column with
`np.bincount`, and the lifted (n, dim + 2) rows ``[p | ||p||^2 | 1]``, of
which the row-major data is a view (`ivf_build` passes them in, and assigns
its set to the trained centroids with them).

k-means++ seeding on rows of 8 or more components rescores, for each new
centroid, only the rows it can move: by the triangle inequality a row cannot
come closer to a centroid that lies at least twice its current distance from
the row's nearest centroid (Elkan's lemma, used for exact k-means++ by Raff).
`_rescore_terms` proves that test in float64 with a rounding and underflow
slack, so the skipped rows are exactly those a whole pass would leave
unchanged, and every draw is that of a whole pass per centroid.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .base import check_count, check_finite, check_rows
from .distances import _MAX_DIM, _U64, _gamma, _sq_l2
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
_ETA64 = 2.0**-1074  # smallest float64 subnormal: bounds the error of an underflowing square
# k-means++ rescoring (`_seed_plus_plus`). Above this share of rows to
# rescore, one whole distance pass is cheaper than gathering them.
_RESCORE_ALL_SHARE = 0.5
# Narrower rows take whole passes only: there the test, its bookkeeping and a
# gather cost more than the pass they save (9,600 clustered rows at spread
# 0.05, k 256, one BLAS thread on 2 vCPUs: seeding 1.18-1.31x slower at 1 to 4
# dims with the test, and 0.84x at 8 dims, the PQ subspaces of 64-d data).
_RESCORE_MIN_DIM = 8


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


def _rescore_terms(dim: int) -> tuple[float, float]:
    """(4F, tau) of the rescoring test of :func:`_seed_plus_plus` for rows of
    `dim` components. Take a row x whose computed squared distance to its
    owner o is A, and a new centroid c whose computed squared distance to o
    is E. If ``(E - tau) / 4F``, computed in float64, is at least A, then the
    computed squared distance B from x to c is at least A, so c cannot lower
    the row's distance.

    Let u = 2**-53, g = gamma_{d+2} (:func:`distances._gamma`) and
    eta = 2**-1074. A computed squared distance D of two float64 points at
    exact squared distance S (difference, square, d-term sum, in any order)
    is within g S + d eta of S: each term carries d + 2 roundings, and an
    underflowing square adds at most eta / 2 (a subtraction or sum that
    underflows is exact). Let a, b, e be the exact distances from x to o,
    from x to c and from c to o. B >= A holds once
    (1 - g) b**2 >= (1 + g) a**2 + 2 d eta, i.e. b >= r with
    r**2 = ((1 + g) a**2 + 2 d eta) / (1 - g) >= a**2. Since b >= e - a
    (triangle inequality) and a <= r, e >= 2 r suffices, and with
    a**2 <= (A + d eta) / (1 - g) and e**2 >= (E - d eta) / (1 + g) that
    follows from E >= 4 A K + d eta (1 + 4 K + 8 sqrt(K)), K = ((1 + g) /
    (1 - g))**2. For d <= 2**20 (`distances._MAX_DIM`) g < 2**-30, so the
    bracket is below 13.01. With F = K (1 + 2**-49) and
    tau = (14 d + 3) eta, a computed quotient of at least A gives that
    inequality: the 16 u of slack in F covers the float64 rounding of F, of
    the difference and of the quotient, and 2 eta of tau an underflowing
    quotient. (A = 0 needs no test: no distance is below 0.) Wider rows get
    tau = inf, so every row is rescored.
    """
    g = _gamma(dim + 2, _U64)
    factor = 4.0 * ((1.0 + g) / (1.0 - g)) ** 2 * (1.0 + 2.0**-49)
    return factor, (14 * dim + 3) * _ETA64 if dim <= _MAX_DIM else math.inf


def _column_sq(
    cols: np.ndarray, c: np.ndarray, out: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances from `c` to every column of `cols` (dim, n), or to
    the columns `rows`, computed in `out`, a buffer of cols' shape: the rows
    of ``(cols - c)**2`` added left to right, one whole-row add per dimension.
    A gather of one column goes twice, because numpy sums a (dim, 1) block
    pairwise, which can end a bit away from the whole pass's sum."""
    if rows is None:
        part = out
        np.subtract(cols, c[:, np.newaxis], out=part)
    else:
        count = len(rows)
        if count == 1:
            rows = rows.repeat(2)
        part = out.reshape(-1)[: len(c) * len(rows)].reshape(len(c), len(rows))
        np.take(cols, rows, axis=1, out=part, mode="clip")
        part -= c[:, np.newaxis]
    np.multiply(part, part, out=part)
    dist = np.add.reduce(part, axis=0)
    return dist if rows is None else dist[:count]


def _seed_plus_plus(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: spread-out starting centroids.

    `cols` is the data transposed, (dim, n), best C-contiguous. Each distance
    pass is one `_column_sq`, and each pick is ``rng.choice(n,
    p=closest_sq / total)`` step for step (tests/test_kmeans.py keeps that
    form, on ``_sq_l2(data, c)`` distances, as the reference).

    Rows of `_RESCORE_MIN_DIM` or more components keep their owner, the
    centroid whose pass set their `closest_sq`. A new centroid c gives each
    earlier centroid o a `reach`, ``(D(c, o) - tau) / 4F``
    (:func:`_rescore_terms`), and rescores only the rows whose `closest_sq`
    exceeds their owner's reach: the rows whose owner lies within about
    twice their distance of c, as Elkan's triangle-inequality lemma has it,
    with a proven rounding and underflow slack. Every other row keeps the
    value that ``np.minimum`` would have kept. Over `_RESCORE_ALL_SHARE` of
    the rows to rescore, and for narrower rows, one whole pass runs instead.
    A gather sums its rows in the whole pass's order, so every `closest_sq`,
    every draw and the generator's state are those of a whole pass per
    centroid. No pass follows the last pick, whose distances no draw reads.
    """
    dim, n = cols.shape
    chosen = np.empty((k, dim), dtype=np.float64)
    sq = np.empty_like(cols)
    cdf = np.empty(n, dtype=np.float64)
    factor, tau = _rescore_terms(dim)
    rescore = dim >= _RESCORE_MIN_DIM

    first = int(rng.integers(n))
    chosen[0] = cols[:, first]
    closest_sq = _column_sq(cols, chosen[0], sq)
    owner = np.zeros(n, dtype=np.intp)
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
        if i == k - 1:
            break
        if rescore:
            reach = (_sq_l2(chosen[:i], chosen[i]) - tau) / factor
            rows = np.flatnonzero(reach[owner] < closest_sq)
            if len(rows) <= _RESCORE_ALL_SHARE * n:
                dist = _column_sq(cols, chosen[i], sq, rows)
                moved = dist < closest_sq[rows]
                rows = rows[moved]
                closest_sq[rows] = dist[moved]
                owner[rows] = i
                continue
        dist = _column_sq(cols, chosen[i], sq)
        if rescore:
            np.copyto(owner, i, where=dist < closest_sq)
        np.minimum(closest_sq, dist, out=closest_sq)
    return chosen


def kmeans_fit(
    data: np.ndarray,
    k: int,
    seed: int | np.random.SeedSequence = 0,
    *,
    lifted: np.ndarray | None = None,
) -> Centroids:
    """Train k centroids with Lloyd iterations until movement < 1e-6, or
    for at most `MAX_ITERS` (25) iterations.

    Deterministic given `seed`. Empty clusters are re-seeded to the point
    currently farthest from its assigned centroid. The recorded distortion
    (mean squared point-to-centroid distance) is asserted non-increasing
    across iterations. `lifted`, when given, must be ``_lift(data)``, as for
    `assign_to_centroids`: a caller that assigns the data again after the
    fit (`ivf_build`) lifts it once for both.
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
    if lifted is None:
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
