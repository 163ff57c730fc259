"""Inverted-file index: full-probe identities and nesting invariants.

IVF-SQ ranks the probed codes by a float32 key computed on the codes and
decodes only a proven shortlist. `decode_everything` is the path it replaced,
kept here as the reference: decode every probed code in float64, score all of
them with `batch_scores` and sort them all. The inputs aim at the places the
shortlist can go wrong: zero spans, spans from 1e-30 to 1e30 (keys that could
overflow float32 send every row to the full path), queries far outside the
trained box, duplicate rows, all-equal codes, dims up to 130, every nprobe,
and k from 1 to past half the probed rows.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.data import gen_synthetic
from annkit.distances import Metric, batch_scores
from annkit.flat import FlatL2Index, exact_search
from annkit.ivf import IvfIndex, default_nlist, default_nprobe, ivf_build
from annkit.kmeans import Centroids
from annkit.persist import dump_index, load_index_bytes
from annkit.pq import PqIndex, pq_encode_batch, pq_train
from annkit.sq import SqParams, _code_shortlist, sq_decode_batch, sq_encode_batch, sq_train


@pytest.fixture(scope="module")
def ivf_flat(small_set):
    return ivf_build(small_set, nlist=10, encoding="flat", nprobe=10, seed=0)


def test_full_probe_flat_equals_exhaustive(small_set, ivf_flat, rng):
    flat = FlatL2Index.build(small_set)
    for _ in range(8):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        for k in (1, 5, 23):
            assert ivf_flat.search(q, k).neighbors == flat.search(q, k).neighbors


def test_probe_candidates_nest_as_nprobe_grows(small_set, ivf_flat, rng):
    q = rng.standard_normal(small_set.dim)
    previous: set[int] = set()
    for nprobe in (1, 2, 4, 7, 10):
        ids = set(ivf_flat.probe_candidate_ids(q, nprobe).tolist())
        assert previous <= ids
        previous = ids
    assert previous == set(small_set.ids.tolist())


@pytest.mark.parametrize(
    "nprobe, query, match",
    [(0, np.zeros(8), "nprobe must be in 1..4"),
     (99, np.zeros(8), "nprobe must be in 1..4"),
     (1, np.full(8, np.nan), "query must be finite")],
)
def test_probe_candidates_pass_the_search_gate(nprobe, query, match):
    """nprobe 0 once died in np.concatenate, nprobe 99 returned every list and a
    NaN query returned ids: the inputs `search` refuses are refused here too."""
    index = ivf_build(gen_synthetic(4, 50, 8, 0.05, 1), nlist=4)
    with pytest.raises(ValueError, match=match):
        index.probe_candidate_ids(query, nprobe)
    with pytest.raises(ValueError, match=match):
        index.search(query, 1, nprobe=nprobe)


def test_recall_non_decreasing_in_nprobe(small_set, ivf_flat, rng):
    """Exact re-ranking over nested candidate sets can only add true hits."""
    q = rng.standard_normal(small_set.dim).astype(np.float32)
    truth = set(exact_search(small_set, q, 5).ids)
    recalls = []
    for nprobe in (1, 2, 4, 7, 10):
        got = set(ivf_flat.search(q, 5, nprobe=nprobe).ids)
        recalls.append(len(got & truth) / 5)
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0


def test_probe_order_is_by_centroid_distance(small_set, ivf_flat, rng):
    q = rng.standard_normal(small_set.dim)
    order = ivf_flat.probe_order(q)
    d = np.linalg.norm(
        ivf_flat.coarse.vectors - np.asarray(q, dtype=np.float64), axis=1
    )
    np.testing.assert_array_equal(order, np.argsort(d, kind="stable"))


def test_full_probe_pq_equals_adc_scan(small_set, rng):
    """With every list probed, IVF-PQ is exactly an ADC pass over all codes."""
    index = ivf_build(small_set, nlist=8, encoding="pq", m=4, nbits=4, seed=0)
    cb = pq_train(small_set.vectors, m=4, nbits=4, seed=0)
    scan = PqIndex(cb, small_set.ids, pq_encode_batch(cb, small_set.vectors))
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        got = index.search(q, 9, nprobe=8)
        want = scan.search(q, 9)
        assert got.neighbors == want.neighbors


def scan_decoded(ids, codes, params, query, k):
    """Neighbors of decoding every code in float64 and sorting every score."""
    if not len(ids):
        return []
    scores = batch_scores(Metric.L2, query, sq_decode_batch(params, codes))
    order = np.lexsort((ids, scores))[:k]
    return [(int(ids[i]), float(np.float32(scores[i]))) for i in order]


def decode_everything(index, query, k, nprobe):
    """IVF-SQ search as it was before the code-domain shortlist."""
    q = np.asarray(query, dtype=np.float64)
    lists = index.probe_order(q)[:nprobe]
    rows = np.concatenate([np.arange(*index.offsets[i : i + 2]) for i in lists])
    return scan_decoded(index.ids[rows], index.payload[rows], index.sq_params, q, k)


def test_full_probe_sq_equals_decoded_exhaustive(small_set, rng):
    """Every list probed: the neighbors, scores included, of decoding and
    scoring the whole encoded set in float64."""
    index = ivf_build(small_set, nlist=8, encoding="sq", nprobe=8, seed=0)
    params = sq_train(small_set.vectors)
    codes = sq_encode_batch(params, small_set.vectors)
    for i in range(8):
        q = small_set.vectors[37 * i] + 0.01 * rng.standard_normal(small_set.dim)
        if i % 2:
            q = rng.standard_normal(small_set.dim)
        for k in (1, 7, 40):
            want = scan_decoded(small_set.ids, codes, params, q, k)
            assert index.search(q, k).neighbors == want


def test_every_record_lands_in_exactly_one_list(small_set, ivf_flat):
    offsets = ivf_flat.offsets
    assert offsets[0] == 0 and offsets[-1] == len(ivf_flat.ids) == len(ivf_flat.payload)
    assert len(offsets) == ivf_flat.nlist + 1 and np.all(np.diff(offsets) >= 0)
    assert sorted(ivf_flat.ids.tolist()) == sorted(small_set.ids.tolist())


def test_search_result_never_contains_duplicates(small_set, ivf_flat, rng):
    q = rng.standard_normal(small_set.dim)
    ids = ivf_flat.search(q, 50).ids
    assert len(ids) == len(set(ids))



def test_defaults_scale_with_set_size():
    assert default_nlist(9600) == 98
    assert default_nprobe(98) >= 1
    for n in (100, 1000, 50_000):
        nlist = default_nlist(n)
        assert 1 <= nlist <= n
        assert 1 <= default_nprobe(nlist) <= nlist


@pytest.mark.parametrize("encoding", ["flat", "sq"])
@pytest.mark.parametrize("nprobe", [2.5, True, "3", 0, 11])
def test_search_nprobe_must_be_an_integer_in_range(small_set, encoding, nprobe):
    """nprobe=2.5 once raised TypeError (a float slice index) and nprobe=True probed one list."""
    index = ivf_build(small_set, nlist=10, encoding=encoding, nprobe=10, seed=0)
    with pytest.raises(ValueError, match="nprobe must be"):
        index.search(small_set.vectors[0], 5, nprobe=nprobe)
    q = small_set.vectors[0]
    assert index.search(q, 5, nprobe=np.int64(3)) == index.search(q, 5, nprobe=3)


@pytest.mark.parametrize("nprobe", [2.5, True, 0, 11])
def test_constructor_nprobe_must_be_an_integer_in_range(ivf_flat, nprobe):
    """nprobe=2.5 once built an index whose every default search raised, and
    nprobe=True one whose config reported True."""
    with pytest.raises(ValueError, match="nprobe must be in 1..10 and an integer"):
        IvfIndex(ivf_flat.coarse, "flat", ivf_flat.ids, ivf_flat.payload, ivf_flat.offsets, nprobe)


def test_build_validation(small_set):
    with pytest.raises(ValueError):
        ivf_build(small_set, nlist=0)
    with pytest.raises(ValueError):
        ivf_build(small_set, nlist=len(small_set) + 1)
    with pytest.raises(ValueError):
        ivf_build(small_set, nlist=4, nprobe=5)
    with pytest.raises(ValueError):
        ivf_build(small_set, nlist=4, nprobe=0)
    with pytest.raises(ValueError):
        ivf_build(small_set, encoding="huffman")


@pytest.mark.parametrize("nprobe", [0, 9])
def test_load_rejects_nprobe_outside_the_lists(small_set, nprobe):
    """A blob whose stored nprobe is outside 1..nlist fails at load, not at every search."""
    index = ivf_build(small_set, nlist=8, encoding="flat", seed=0)
    blob = bytearray(dump_index(index))
    # magic, version, tag, dim, nlist, coarse centroids, distortion, then nprobe
    at = 6 + 4 + 4 + 4 * 8 * small_set.dim + 8
    assert struct.unpack_from("<I", blob, at) == (index.nprobe,)
    struct.pack_into("<I", blob, at, nprobe)
    with pytest.raises(ValueError, match="nprobe"):
        load_index_bytes(bytes(blob))


def test_config_reports_encoding_and_knobs(small_set, ivf_flat):
    cfg = ivf_flat.config()
    assert cfg["nlist"] == 10
    assert cfg["nprobe"] == 10
    assert cfg["encoding"] == "flat"
    pq_index = ivf_build(small_set, nlist=4, encoding="pq", m=4, nbits=4, seed=0)
    assert pq_index.family == "ivf-pq"
    assert ivf_flat.family == "ivf-flat"
    assert pq_index.config()["m"] == 4


def test_memory_smaller_with_pq_payload(small_set):
    flat = ivf_build(small_set, nlist=6, encoding="flat", seed=0)
    pq = ivf_build(small_set, nlist=6, encoding="pq", m=4, nbits=4, seed=0)
    assert pq.memory_bytes() < flat.memory_bytes()


# ------------------------------------------------------- IVF-SQ shortlist


def sq_index(codes, params, nlist, rng, ids=None):
    """An IVF-SQ index over given codes and ranges, rows dealt into `nlist`
    lists at random under random coarse centroids."""
    n, d = codes.shape
    assign = np.sort(rng.integers(0, nlist, n))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=nlist))))
    ids = rng.permutation(n).astype(np.uint64) + np.uint64(100) if ids is None else ids
    coarse = Centroids(rng.standard_normal((nlist, d)).astype(np.float32), 0.0)
    return IvfIndex(coarse, "sq", ids, codes, offsets, 1, params)


_SPAN_SCALES = [0.0, 1e-30, 1e-20, 1e-7, 1.0, 1.0, 1.0, 1e3, 1e10, 1e30]


@st.composite
def sq_cases(draw):
    d = draw(st.one_of(st.integers(1, 8), st.sampled_from([16, 64, 127, 130])))
    n = draw(st.one_of(st.integers(1, 150), st.integers(60, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(_SPAN_SCALES))
    spans = scale * rng.random(d) * draw(st.sampled_from([1.0, 2.0, 255.0]))
    spans[rng.random(d) < draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))] = 0.0  # zero-span dims
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e7]))  # far from 0: decoding rounds
    mins = ((rng.standard_normal(d) + offset) * max(scale, 1e-30)).astype(np.float32)
    maxs = np.maximum((mins + spans).astype(np.float32), mins)
    params = SqParams(mins, maxs)
    kind = draw(st.sampled_from(["random", "clustered", "clustered", "extremes", "equal", "duplicates"]))
    if kind == "random":
        codes = rng.integers(0, 256, (n, d), dtype=np.uint8)
    elif kind == "clustered":
        centres = rng.integers(20, 236, (4, d))
        codes = (centres[rng.integers(0, 4, n)] + rng.integers(-12, 13, (n, d))).astype(np.uint8)
    elif kind == "extremes":
        codes = rng.choice(np.array([0, 1, 127, 128, 254, 255], dtype=np.uint8), (n, d))
    elif kind == "equal":
        codes = np.full((n, d), rng.integers(0, 256), dtype=np.uint8)
    else:  # every row repeats a few distinct ones
        distinct = rng.integers(0, 256, (max(1, n // 4), d), dtype=np.uint8)
        codes = distinct[rng.integers(0, len(distinct), n)]
    decoded = sq_decode_batch(params, codes)
    how = draw(st.sampled_from(["row", "near-row", "fresh", "far"]))
    query = decoded[rng.integers(n)].copy()
    if how == "near-row":  # float64 detail below float32 resolution
        query += (np.abs(query).max() + 1e-300) * 1e-9 * rng.standard_normal(d)
    elif how == "fresh":
        query = mins + rng.random(d) * (maxs.astype(np.float64) - mins)
    elif how == "far":
        query += draw(st.sampled_from([1e3, 1e20, 1e35])) * rng.standard_normal(d)
    nlist = draw(st.integers(1, min(n, 8)))
    index = sq_index(codes, params, nlist, rng)
    return index, query


@settings(derandomize=True, max_examples=600, deadline=None)
@given(case=sq_cases(), data=st.data())
def test_ivf_sq_equals_decoding_every_probed_code(case, data):
    index, query = case
    nprobe = data.draw(st.integers(1, index.nlist))
    probed = sum(np.diff(index.offsets)[index.probe_order(query)[:nprobe]])
    few = data.draw(st.integers(0, 3))  # three in four draws take k <= 4
    k = data.draw(st.integers(1, 4) if few else st.integers(1, max(1, probed) + 1))
    want = decode_everything(index, query, k, nprobe)
    assert index.search(query, k, nprobe=nprobe).neighbors == want
    assert load_index_bytes(dump_index(index)).search(query, k, nprobe=nprobe).neighbors == want


def kept_covers_the_best_k(params, codes, query, k):
    """The shortlist holds every row that scores at or below the k-th best
    decoded score; returns the rows kept, or None for the full path."""
    rows = _code_shortlist(params, codes, query, k)
    if isinstance(rows, slice):
        return None
    scores = batch_scores(Metric.L2, query, sq_decode_batch(params, codes))
    kth = np.sort(scores)[k - 1]
    needed = np.flatnonzero(scores <= kth)
    assert np.isin(needed, rows).all(), (k, sorted(set(needed) - set(rows)))
    return rows


def _ring(d, radius2, rng):
    """Integer lattice offsets at squared length radius2 (d <= 3), shuffled."""
    grid = np.stack(np.meshgrid(*[np.arange(-16, 17)] * d, indexing="ij"), -1).reshape(-1, d)
    ring = grid[(grid * grid).sum(axis=1) == radius2]
    return ring[rng.permutation(len(ring))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    d=st.integers(1, 3),
    radius2=st.sampled_from([25, 50, 65, 85, 125, 130, 145, 169]),
    scale=st.sampled_from([1e-30, 1e-21, 1e-20, 1e-3, 1.0, 3.7, 1e4, 1e12]),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e9]),
    nudge=st.sampled_from([0.0, 2.0**-24, 2.0**-23, -(2.0**-24), 1e-9]),
    filler=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_ties_one_ulp_apart_are_never_cut(d, radius2, scale, offset, nudge, filler, seed):
    """Codes on a lattice circle around the query decode to rows at one exact
    distance; the query nudged by about one float32 ulp of a coordinate
    splits them by about one float32 ulp of their keys. Every row at or below
    the k-th best decoded score must survive the cut, for k through the tie."""
    rng = np.random.default_rng(seed)
    ring = _ring(d, radius2, rng)
    if len(ring) < 2:
        return
    centre = rng.integers(40, 216, d)
    far = rng.integers(0, 256, (len(ring) + filler, d))  # the ring is under half the rows
    codes = np.concatenate([centre + ring, far]).astype(np.uint8)
    mins = np.full(d, offset * scale, dtype=np.float32)
    maxs = (mins + np.float32(256 * scale)).astype(np.float32)
    params = SqParams(mins, maxs)
    step = (maxs.astype(np.float64) - mins) / 256
    query = mins + (centre + 0.5) * step
    query *= 1.0 + nudge * rng.standard_normal(d)
    ids = rng.permutation(len(codes)).astype(np.uint64)
    index = sq_index(codes, params, 1, rng, ids=ids)
    for k in range(1, len(ring) + 2):
        kept_covers_the_best_k(params, codes, query, k)
        assert index.search(query, k).neighbors == scan_decoded(ids, codes, params, query, k)


def test_code_shortlist_is_short_on_clusters_and_falls_back_where_it_must(small_set):
    """The cases the property tests rely on both occur: clustered codes keep
    a handful of rows for k=10, and huge spans, far queries and a k over half
    the rows send every row to the full path."""
    params = sq_train(small_set.vectors)
    codes = sq_encode_batch(params, small_set.vectors)
    for i in range(0, len(codes), 29):
        rows = kept_covers_the_best_k(params, codes, small_set.vectors[i].astype(np.float64), 10)
        assert rows is not None and 10 <= len(rows) <= 40, len(rows)
    q = small_set.vectors[0].astype(np.float64)
    every = slice(None)
    assert _code_shortlist(params, codes, q, len(codes) // 2 + 1) == every
    assert _code_shortlist(params, codes, np.full(small_set.dim, 1e35), 10) == every
    huge = SqParams(params.mins * np.float32(1e30), params.maxs * np.float32(1e30))
    assert _code_shortlist(huge, codes, q * 1e30, 10) == every


def _results_digest(index, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        for nprobe in (None, 1, index.nlist):
            for k in (1, 10):
                h.update(repr(index.search(q, k, nprobe=nprobe).neighbors).encode())
    return h.hexdigest()


def test_ivf_sq_bytes_and_results_are_pinned(small_set):
    """Digests taken from the search that decoded and scored every probed
    code: the code-domain shortlist gives the same SearchResults, built and
    loaded, and the VIDX bytes did not move. The VIDX digest was re-taken for
    the lifted k-means product, which sums 17 centroids of 16 dims in another
    order: the coarse distortion moved by 6 ulp (0.0343653200975063 ->
    0.03436532009750634); the centroids, the lists and the results did not."""
    queries = list(np.random.default_rng(23).standard_normal((16, 16))) + list(small_set.vectors[:4])
    index = ivf_build(small_set, encoding="sq", seed=3)
    blob = dump_index(index)
    assert hashlib.sha256(blob).hexdigest() == (
        "2c507c0597565d7e6d3871828294decf32cbebc6c275374202903bbe215d01a1"
    )
    results = "923db14ef2b61ad71e326f2ba9b2af55272fa457964e943de1984517f3cbd0c5"
    assert _results_digest(index, queries) == results
    assert _results_digest(load_index_bytes(blob), queries) == results



def test_ivf_pq_bytes_and_results_are_pinned(small_set):
    """Digests taken while the k-means++ distance passes and the ADC table
    summed each row in numpy's pairwise order: the 16-dim coarse seeding,
    where that order and a left-to-right sum differ, kept its picks, and the
    VIDX bytes and the built and loaded SearchResults did not move."""
    queries = list(np.random.default_rng(23).standard_normal((16, 16))) + list(small_set.vectors[:4])
    index = ivf_build(small_set, encoding="pq", seed=3)
    blob = dump_index(index)
    assert hashlib.sha256(blob).hexdigest() == (
        "b1db0e5f6a19038f097e519f8a797543d4a12b15ce17b8f25ef8719defcb2139"
    )
    results = "100429fba298a9e699f6c5e7e9ab70167daf7d6b62231f4f09b3f3784e903464"
    assert _results_digest(index, queries) == results
    assert _results_digest(load_index_bytes(blob), queries) == results

def test_sq_load_rejects_non_finite_ranges(small_set):
    """A NaN min once loaded and answered every search with NaN scores; an
    infinite max passed the min <= max check."""
    index = ivf_build(small_set, nlist=8, encoding="sq", seed=0)
    blob = dump_index(index)
    # magic, version, tag, dim, nlist, centroids, distortion, nprobe, then SqParams' dim
    mins_at = 6 + 4 + 4 + 4 * 8 * small_set.dim + 8 + 4 + 4
    for at, value in ((mins_at + 4, np.nan), (mins_at + 4 * small_set.dim, np.inf)):
        bad = bytearray(blob)
        struct.pack_into("<f", bad, at, value)
        with pytest.raises(ValueError, match="finite"):
            load_index_bytes(bytes(bad))
