"""Inverted-file index: full-probe identities and nesting invariants."""

import numpy as np
import pytest

from annkit.flat import FlatL2Index, exact_search
from annkit.ivf import IvfIndex, default_nlist, default_nprobe, ivf_build
from annkit.pq import pq_adc_search, pq_encode_batch, pq_train
from annkit.sq import sq_decode_batch, sq_encode_batch, sq_train


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
    codes = pq_encode_batch(cb, small_set.vectors)
    pairs = list(zip(small_set.ids.tolist(), codes))
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        got = index.search(q, 9, nprobe=8)
        want = pq_adc_search(cb, pairs, q, 9)
        assert got.neighbors == want.neighbors


def test_full_probe_sq_equals_decoded_exhaustive(small_set, rng):
    index = ivf_build(small_set, nlist=8, encoding="sq", nprobe=8, seed=0)
    params = sq_train(small_set.vectors)
    decoded = sq_decode_batch(params, sq_encode_batch(params, small_set.vectors64))
    from annkit.data import EmbeddingSet

    decoded_set = EmbeddingSet(
        ids=small_set.ids.copy(),
        labels=small_set.labels.copy(),
        vectors=decoded.astype(np.float32),
    )
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        got = index.search(q, 7)
        want = exact_search(decoded_set, q, 7)
        assert got.ids == want.ids


def test_every_record_lands_in_exactly_one_list(small_set, ivf_flat):
    seen = []
    for ids in ivf_flat.list_ids:
        seen.extend(ids.tolist())
    assert sorted(seen) == sorted(small_set.ids.tolist())


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
