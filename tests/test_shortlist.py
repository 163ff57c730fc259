"""Exact scans through the float32 shortlist against full-scan references.

The references are kept here: `rank_order_reference` is the full lexsort that
`rank_order` used before it took a cut, and `full_scan` scores every
candidate with `batch_scores` and ranks them all. The inputs aim at the
places a shortlist can go wrong: grid coordinates (exact ties and duplicate
vectors), 1e3 and 1e5 offsets (float32 keys too coarse, so the kernel falls
back to the full scan), 1e-20 magnitudes (float32 products underflow), float64
queries that float32 cannot hold, and k from 1 to n + 1.
"""

import inspect
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.data import EmbeddingSet
from annkit import distances
from annkit.distances import (
    Metric,
    _nearest_rows,
    _proven_cut,
    _sq_l2,
    batch_scores,
    rank_order,
    shortlist,
)
from annkit.flat import FlatIPIndex, FlatL2Index, exact_search, ground_truth
from annkit.ivf import ivf_build
from annkit.persist import dump_index, load_index_bytes

_METRICS = st.sampled_from([Metric.L2, Metric.INNER_PRODUCT])


def rank_order_reference(metric, ids, scores):
    key = -scores if metric.higher_is_closer else scores
    return np.lexsort((ids, key))


def full_scan(metric, ids, vectors, query, k, exclude=None):
    """Neighbors of a search that scores and sorts every candidate."""
    scores = batch_scores(metric, query, vectors)
    if exclude is not None:
        keep = ids != np.uint64(exclude)
        ids, scores = ids[keep], scores[keep]
    order = rank_order_reference(metric, ids, scores)[:k]
    return [(int(ids[i]), float(np.float32(scores[i]))) for i in order]


# ------------------------------------------------------------- rank_order


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    metric=_METRICS,
    kind=st.sampled_from(["grid", "grid-nan", "hamming", "spread"]),
    n=st.one_of(st.integers(1, 80), st.integers(380, 700)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rank_order_cut_equals_full_sort(metric, kind, n, seed, data):
    """Ties straddle the k-th key: every row at it must survive the cut.
    Short lists take the full sort, long ones the cut."""
    rng = np.random.default_rng(seed)
    if kind == "hamming":
        scores = rng.integers(0, 9, n).astype(np.int64)
    elif kind == "spread":
        scores = rng.standard_normal(n)
    else:
        scores = rng.integers(-3, 4, n) * 0.5
        if kind == "grid-nan":
            scores[rng.random(n) < 0.3] = np.nan
    # Ids are unique in every index; a few repeats check that the cut keeps
    # lexsort's stable order too.
    ids = rng.permutation(np.arange(1000, 1000 + n)).astype(np.uint64)
    if data.draw(st.booleans()):
        ids = rng.integers(0, max(1, n // 2), n).astype(np.uint64)
    k = data.draw(st.integers(1, n + 1))
    want = rank_order_reference(metric, ids, scores)[:k]
    assert rank_order(metric, ids, scores, k).tolist() == want.tolist()


# ---------------------------------------------------------------- searches


_SCALES = {"gauss": (1.0, 0.0), "1e3": (1.0, 1e3), "1e5": (1.0, 1e5), "1e-20": (1e-20, 0.0)}


def _vectors(kind, n, d, rng):
    if kind == "grid":
        return (rng.integers(-2, 3, (n, d)) * 0.5).astype(np.float32)
    scale, offset = _SCALES[kind]
    return (rng.standard_normal((n, d)) * scale + offset).astype(np.float32)


def _query(how, kind, vectors, rng):
    row = vectors[rng.integers(len(vectors))].astype(np.float64)
    if how == "row":
        return row
    if how == "near-row":  # float64 detail below float32 resolution
        return row + np.abs(row).max() * 1e-9 * rng.standard_normal(row.shape)
    return _vectors(kind, 1, len(row), rng)[0].astype(np.float64) + 1e-3 * (
        np.abs(row).max() + 1e-30
    ) * rng.standard_normal(row.shape)


@st.composite
def scan_cases(draw, max_n=120):
    kind = draw(st.sampled_from(["grid", "grid", "gauss", "1e3", "1e5", "1e-20"]))
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = _vectors(kind, n, d, rng)
    query = _query(draw(st.sampled_from(["row", "near-row", "fresh"])), kind, vectors, rng)
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, n + 1)))
    ids = rng.permutation(np.arange(n)).astype(np.uint64) + np.uint64(50)
    return vectors, ids, query, k


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=scan_cases(), metric=_METRICS)
def test_flat_search_equals_full_scan(case, metric):
    vectors, ids, query, k = case
    cls = FlatL2Index if metric is Metric.L2 else FlatIPIndex
    index = cls(ids, vectors)
    want = full_scan(metric, ids, vectors, query, k)
    assert index.search(query, k).neighbors == want
    assert load_index_bytes(dump_index(index)).search(query, k).neighbors == want


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=scan_cases(), metric=st.sampled_from(list(Metric)), exclude=st.booleans())
def test_exact_search_equals_full_scan(case, metric, exclude):
    """The oracle in every metric, with and without the query's own id."""
    vectors, ids, query, k = case
    if metric is Metric.ANGULAR:  # cosine is undefined for zero vectors
        vectors[~vectors.any(axis=1)] = 1.0
        query = query if query.any() else query + 1.0
    emb = EmbeddingSet(ids, np.zeros(len(ids), dtype=np.uint32), vectors)
    drop = int(ids[len(ids) // 2]) if exclude else None
    got = exact_search(emb, query, k, metric, exclude=drop)
    assert got.neighbors == full_scan(metric, ids, vectors, query, k, drop)
    rows = [0, len(ids) // 2, len(ids) - 1]
    truth = ground_truth(emb, ids[rows], k, metric)
    for row in rows:
        qid = int(ids[row])
        want = full_scan(metric, ids, vectors, vectors[row].astype(np.float64), k, qid)
        assert truth[qid] == [i for i, _ in want]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=scan_cases(max_n=200), nlist=st.integers(1, 12))
def test_ivf_flat_equals_full_scan_of_probed_lists(case, nlist):
    vectors, ids, query, k = case
    emb = EmbeddingSet(ids, np.zeros(len(ids), dtype=np.uint32), vectors)
    index = ivf_build(emb, nlist=min(nlist, len(ids)), encoding="flat", seed=0)
    for nprobe in (index.nprobe, index.nlist):
        lists = [slice(*index.offsets[i : i + 2]) for i in index.probe_order(query)[:nprobe]]
        lists_ids = np.concatenate([index.ids[rows] for rows in lists])
        lists_vectors = np.concatenate([index.payload[rows] for rows in lists])
        want = full_scan(Metric.L2, lists_ids, lists_vectors, query, k)
        assert index.search(query, k, nprobe=nprobe).neighbors == want


# ------------------------------------------------------------ the kernel


def _ceil32(x):
    """The smallest float32 >= x, found by stepping (compared in float64)."""
    c = np.float32(x)
    while float(c) < x:
        c = np.nextafter(c, np.float32(np.inf))
    while float(np.nextafter(c, np.float32(-np.inf))) >= x:
        c = np.nextafter(c, np.float32(-np.inf))
    return c


def _reference_bound(kth, d, e, z=None, ed=0.0, norm_q=0.0):
    """The bound of `_proven_cut`'s docstring, term by term."""
    big_g = (d + 4) * 2.0**-53 / (1.0 - (d + 4) * 2.0**-53)
    if z is None:
        f = 2.0 * big_g * norm_q
    else:
        r2 = max(kth + e + z, 0.0) + 2.0**-30 * (abs(kth) + e + z)
        lam = np.sqrt((1.0 + big_g) / (1.0 - big_g))
        f = (2.0 * big_g / (1.0 - big_g) * r2 + 2.0 * lam * (1.0 + lam) * np.sqrt(r2) * ed
             + (1.0 + lam) ** 2 * ed * ed)
    return kth + (2.0 * e + f) * (1.0 + 2.0**-20) + 2**17 * (d + 1) * 2.0**-149


# Each case makes a different term move the float32 ceiling of the bound:
# F from R^2 (a large Z), F from Ed, the 2**-20 widening (a large E), the
# inner product's F, the underflow slack (a zero bound), and bounds that round
# down to float32 (so only the ceiling keeps the key on them).
_CUT_CASES = [
    dict(kth=0.0, d=16, e=0.0, z=0.0),
    dict(kth=1.0, d=16, e=0.0, z=2.0**40),
    dict(kth=1.0, d=16, e=0.0, z=4.0, ed=0.25),
    dict(kth=1.0, d=16, e=1.0, z=0.0),
    dict(kth=-3.0, d=64, e=2.0**-10, z=0.0, ed=2.0**-12),
    dict(kth=1.0, d=16, e=2.0**-26),
    dict(kth=1.0, d=16, e=0.0, norm_q=2.0**30),
    dict(kth=1.0, d=16, e=3.0 * 2.0**-25, z=0.0),
    dict(kth=1.0, d=16, e=0.3, z=0.0),
    dict(kth=1.0, d=7, e=0.1, z=5.0),
]


@pytest.mark.parametrize("case", _CUT_CASES, ids=[
    "underflow", "f-of-z", "f-of-ed", "widening", "negative-kth", "ip-e", "ip-f",
    "e-tiny", "e-0.3", "d7",
])
@pytest.mark.parametrize("k", [1, 3])
def test_proven_cut_keeps_the_float32_ceiling_of_its_bound(case, k):
    """A key at the smallest float32 >= the bound is kept, the next float32
    above it is dropped, and the anchors at the k-th key stay."""
    case = dict(case)
    kth = case.pop("kth")
    bound = _reference_bound(kth, **case)
    ceiling = _ceil32(bound)
    above = np.nextafter(ceiling, np.float32(np.inf))
    keys = np.array([kth] * k + [ceiling, above] + [2.0**100] * (k + 4), dtype=np.float32)
    rows = _proven_cut(keys, k, **case)
    assert rows.tolist() == list(range(k + 1)), (bound, ceiling)


def test_proven_cut_returns_every_row_past_float32_and_over_half():
    """A bound at or past float32's maximum keeps every row without rounding
    it into an infinite float32, and a cut that keeps over half the rows
    gives way to scoring them all."""
    every = slice(None)
    keys = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _proven_cut(keys, 1, 16, 2.0e38, z=0.0) == every
        assert _proven_cut(keys, 1, 16, 0.0, norm_q=2.0**180) == every
    assert _proven_cut(keys, 1, 16, 1.25, z=0.0).tolist() == [0, 1, 2]
    assert _proven_cut(keys, 1, 16, 1.75, z=0.0) == every
    assert _proven_cut(np.ones(4, dtype=np.float32), 1, 16, 0.0, z=0.0) == every


def test_shortlist_is_short_on_clusters_and_falls_back_where_float32_is_too_coarse(small_set):
    """The cases the property tests rely on both occur: a clustered set keeps
    a handful of rows for k=10, a 1e5 offset sends every row to the full scan,
    and so do Angular, Manhattan and a k over half the rows."""
    v = small_set.vectors
    for i in range(0, len(v), 37):
        for metric in (Metric.L2, Metric.INNER_PRODUCT):
            rows = shortlist(metric, v[i].astype(np.float64), v, 10)
            assert isinstance(rows, np.ndarray) and 10 <= len(rows) <= 40, (metric, len(rows))
    every = slice(None)
    far = v + np.float32(1e5)
    assert shortlist(Metric.L2, far[0].astype(np.float64), far, 10) == every
    for metric in (Metric.ANGULAR, Metric.MANHATTAN):
        assert shortlist(metric, v[0].astype(np.float64), v, 10) == every
    assert shortlist(Metric.L2, v[0].astype(np.float64), v, len(v) // 2 + 1) == every
    huge = np.full(v.shape[1], 2.0**61)
    assert shortlist(Metric.L2, huge, v, 10) == every


@pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
def test_flat_scan_on_duplicates_and_grid_ties(metric):
    """Every row duplicated, coordinates on a half-integer grid: many exact
    ties at the k-th score, broken by ascending id."""
    rng = np.random.default_rng(3)
    base = (rng.integers(-2, 3, (60, 4)) * 0.5).astype(np.float32)
    vectors = np.concatenate([base, base, base])
    ids = rng.permutation(len(vectors)).astype(np.uint64)
    cls = FlatL2Index if metric is Metric.L2 else FlatIPIndex
    index = cls(ids, vectors)
    for row in range(0, len(vectors), 7):
        for k in (1, 3, 10, 25):
            q = vectors[row].astype(np.float64)
            assert index.search(q, k).neighbors == full_scan(metric, ids, vectors, q, k)


# What `shortlist` and `_nearest_rows` hand `_proven_cut`, (k, d, e, z, norm_q).
# A change of summation order moves these by under 1e-12 of themselves; a
# term dropped from E's sum in the `_cuts` docstring moves E by far more.
_PINNED_CUT_INPUTS = {
    "l2": [
        (10, 16, 2.2978027249387113e-05, 7.286726621262864, 0.0),
        (10, 16, 2.266468643416857e-05, 6.882730836606807, 0.0),
        (10, 16, 2.2830761563855374e-05, 7.166359207787698, 0.0),
    ],
    "ip": [
        (10, 16, 7.240504026154224e-06, None, 7.4000166591634),
        (10, 16, 7.096235179573389e-06, None, 7.191953193311799),
        (10, 16, 7.170529361577027e-06, None, 7.338642738980521),
    ],
    "nearest": [
        (5, 16, 2.26114435141302e-05, 7.286725842078175, 0.0),
        (5, 16, 2.178254504091036e-05, 6.503475826736999, 0.0),
        (5, 16, 2.2147834418022338e-05, 6.843161240481193, 0.0),
    ],
}


def _cut_inputs(run):
    """(k, d, e, z, norm_q) of every `_proven_cut` call that `run()` makes."""
    signature = inspect.signature(_proven_cut)
    with mock.patch.object(distances, "_proven_cut", wraps=_proven_cut) as cut:
        run()
    inputs = []
    for call in cut.call_args_list:
        bound = signature.bind(*call.args, **call.kwargs)
        bound.apply_defaults()
        inputs.append(tuple(bound.arguments[name] for name in ("k", "d", "e", "z", "norm_q")))
    return inputs


def test_the_cut_inputs_keep_every_term_of_their_bounds(small_set):
    """Float64 queries that float32 cannot hold (R > 0) for `shortlist`, and
    stored rows (R = 0) for `_nearest_rows`: the results alone cannot show a
    bound that is too wide or a term too few, these numbers do."""
    v = small_set.vectors
    noise = np.random.default_rng(3).standard_normal((3, small_set.dim)) * 1e-7
    queries = [v[row].astype(np.float64) + noise[i] for i, row in enumerate((0, 37, 74))]
    got = {
        name: _cut_inputs(lambda: [shortlist(metric, q, v, 10) for q in queries])
        for name, metric in (("l2", Metric.L2), ("ip", Metric.INNER_PRODUCT))
    }
    nearest = _cut_inputs(lambda: _nearest_rows(v[:60], 5))
    assert len(nearest) == 60
    got["nearest"] = nearest[:3]
    for name, pinned in _PINNED_CUT_INPUTS.items():
        assert len(got[name]) == len(pinned)
        for (k, d, e, z, norm_q), want in zip(got[name], pinned):
            assert (k, d, z is None) == (want[0], want[1], want[3] is None), name
            assert (e, z, norm_q) == pytest.approx(want[2:], rel=1e-12, abs=0.0), name


# ------------------------------------------------------------ k-NN graph


def nearest_rows_reference(vectors, k):
    """Every other row scored by `_sq_l2` against the row in float64, sorted
    by (distance, row), the first k kept: their rows and their distances."""
    nearest, dists = [], []
    for row, x in enumerate(vectors.astype(np.float64)):
        others = [r for r in range(len(vectors)) if r != row]
        ranked = sorted(zip(_sq_l2(vectors[others], x).tolist(), others))[:k]
        nearest.append([r for _, r in ranked])
        dists.append([d for d, _ in ranked])
    return nearest, dists


def assert_nearest_rows(vectors, k, got):
    """`got`, what `_nearest_rows(vectors, k)` returned, is the reference's
    rows and `_sq_l2` distances, as two (n, min(k, n - 1)) arrays."""
    near, dists = got
    shape = (len(vectors), min(k, len(vectors) - 1))
    assert near.shape == dists.shape == shape
    assert near.dtype == np.intp and dists.dtype == np.float64
    assert (near.tolist(), dists.tolist()) == nearest_rows_reference(vectors, k)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["grid", "grid", "gauss", "1e3", "1e5", "1e-20"]),
    n=st.integers(1, 90),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_nearest_rows_equal_a_full_sort(kind, n, d, seed, data):
    """Grid ties and duplicate rows straddle the k-th distance; offsets make
    the float32 keys too coarse to cut; small key blocks put block edges
    inside the set."""
    vectors = _vectors(kind, n, d, np.random.default_rng(seed))
    k = data.draw(st.one_of(st.integers(1, 4), st.integers(1, n + 1)))
    block = data.draw(st.sampled_from([n, 3 * n, distances._BLOCK_KEYS]))
    with mock.patch.object(distances, "_BLOCK_KEYS", block):
        assert_nearest_rows(vectors, k, _nearest_rows(vectors, k))


def test_nearest_rows_cut_on_clusters():
    """On separated clusters each row scores few rows beyond its k (a full
    scan would score 399)."""
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((8, 16)) * 10
    vectors = (np.repeat(centers, 50, axis=0) + rng.standard_normal((400, 16))).astype(np.float32)
    with mock.patch.object(distances, "_sq_l2", wraps=distances._sq_l2) as scored:
        got = _nearest_rows(vectors, 10)
    assert_nearest_rows(vectors, 10, got)
    assert sum(len(c.args[0]) for c in scored.call_args_list) < 400 * 20
