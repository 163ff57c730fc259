"""Sign-hash index: codes, Hamming ranking, exact re-ranking."""

import numpy as np
import pytest

from annkit.data import EmbeddingSet
from annkit.flat import FlatL2Index
from annkit.lsh import DEFAULT_NBITS, RERANK_POOL_FACTOR, LshIndex, lsh_build
from annkit.persist import dump_index, load_index_bytes


@pytest.mark.parametrize("rerank", ["no", 0, None])
def test_rerank_must_be_a_bool(small_set, rerank):
    """rerank="no" once built an index that reranked."""
    with pytest.raises(ValueError, match="rerank must be a bool"):
        lsh_build(small_set, nbits=16, rerank=rerank)
    index = lsh_build(small_set, nbits=16)
    if rerank is not None:  # None is search's "the built setting"
        with pytest.raises(ValueError, match="rerank must be a bool"):
            index.search(small_set.vectors[0], 3, rerank=rerank)


def unpack(code: np.ndarray, nbits: int) -> np.ndarray:
    return np.unpackbits(np.asarray(code, dtype=np.uint8))[:nbits]


def encode(index: LshIndex, v: np.ndarray) -> np.ndarray:
    """Packed code of one vector, through the batch encoder."""
    return index.encode_batch(np.asarray(v, dtype=np.float64)[np.newaxis, :])[0]


@pytest.fixture(scope="module")
def index(small_set):
    return lsh_build(small_set, nbits=64, seed=0)


def test_encode_is_sign_of_projection(index, rng):
    for _ in range(10):
        v = rng.standard_normal(index.dim)
        bits = unpack(encode(index, v), index.nbits)
        want = (index.hyperplanes.astype(np.float64) @ v >= 0.0).astype(np.uint8)
        np.testing.assert_array_equal(bits, want)


def test_opposite_vectors_have_complementary_codes(index, rng):
    v = rng.standard_normal(index.dim)
    a = unpack(encode(index, v), index.nbits)
    b = unpack(encode(index, -v), index.nbits)
    # dot products of -v flip sign except exact zeros, which are measure-zero here
    np.testing.assert_array_equal(a, 1 - b)


def test_hamming_matches_unpacked_xor(index, small_set, rng):
    q = rng.standard_normal(index.dim)
    qcode = encode(index, q)
    got = index.hamming_to(qcode)
    want = [
        int(np.sum(unpack(code, index.nbits) != unpack(qcode, index.nbits)))
        for code in index.codes
    ]
    np.testing.assert_array_equal(got, want)


def test_identical_vector_has_zero_hamming(index, small_set):
    code = encode(index, small_set.vectors[17].astype(np.float64))
    assert index.hamming_to(code)[17] == 0


def test_hand_built_planes_give_known_codes():
    """One axis-aligned hyperplane per dimension: code is the sign pattern."""
    planes = np.eye(3, dtype=np.float32)
    vectors = np.array(
        [[1.0, -1.0, 1.0], [-2.0, 3.0, -4.0]], dtype=np.float32
    )
    index = LshIndex(
        planes,
        ids=np.array([0, 1], dtype=np.uint64),
        codes=np.zeros((2, 1), dtype=np.uint8),
        vectors=vectors,
    )
    index._codes = index.encode_batch(vectors.astype(np.float64))
    np.testing.assert_array_equal(unpack(index.codes[0], 3), [1, 0, 1])
    np.testing.assert_array_equal(unpack(index.codes[1], 3), [0, 1, 0])


def test_no_rerank_orders_by_hamming_then_id(index, small_set, rng):
    q = rng.standard_normal(index.dim)
    res = index.search(q, 25, rerank=False)
    hamming = index.hamming_to(encode(index, q))
    order = np.lexsort((small_set.ids, hamming))[:25]
    assert res.ids == [int(small_set.ids[i]) for i in order]
    assert res.scores == sorted(res.scores)


def test_full_pool_rerank_equals_exact(small_set, rng):
    """When the candidate pool covers the whole set, re-ranking is exhaustive."""
    index = lsh_build(small_set, nbits=32, seed=3)
    flat = FlatL2Index.build(small_set)
    k = (len(small_set) + RERANK_POOL_FACTOR - 1) // RERANK_POOL_FACTOR
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        assert index.search(q, k).neighbors == flat.search(q, k).neighbors


def test_rerank_improves_on_raw_hamming(small_set, rng):
    index = lsh_build(small_set, nbits=32, seed=1)
    flat = FlatL2Index.build(small_set)
    raw_hits = reranked_hits = 0
    queries = rng.standard_normal((40, small_set.dim)).astype(np.float32)
    for q in queries:
        truth = set(flat.search(q, 5).ids)
        raw_hits += len(set(index.search(q, 5, rerank=False).ids) & truth)
        reranked_hits += len(set(index.search(q, 5).ids) & truth)
    assert reranked_hits >= raw_hits


def test_insertion_order_does_not_matter(small_set, rng):
    perm = rng.permutation(len(small_set))
    shuffled = EmbeddingSet(
        ids=small_set.ids[perm].copy(),
        labels=small_set.labels[perm].copy(),
        vectors=small_set.vectors[perm].copy(),
    )
    a = lsh_build(small_set, nbits=64, seed=7)
    b = lsh_build(shuffled, nbits=64, seed=7)
    q = rng.standard_normal(small_set.dim).astype(np.float32)
    assert a.search(q, 10).neighbors == b.search(q, 10).neighbors


def test_default_nbits_and_config(small_set):
    index = lsh_build(small_set, seed=0)
    assert index.nbits == DEFAULT_NBITS == 128
    assert index.config() == {"nbits": 128, "rerank": True}
    assert index.family == "lsh"


def test_build_validation(small_set):
    with pytest.raises(ValueError):
        lsh_build(small_set, nbits=0)


# VIDX frame (6 bytes), nbits u32, dim u32, then the rerank byte, the count
# u64 and the (nbits, dim) float32 hyperplanes.
_RERANK_AT = 14
_PLANES_AT = 23


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_hyperplanes(small_set, value):
    """A NaN or inf plane, which no build writes, once loaded and answered
    queries (inf with a matmul warning)."""
    blob = bytearray(dump_index(lsh_build(small_set, nbits=16, seed=0)))
    n = 2 * small_set.dim  # the first two hyperplanes
    blob[_PLANES_AT:_PLANES_AT + 4 * n] = np.full(n, value, dtype="<f4").tobytes()
    with pytest.raises(ValueError, match="hyperplanes must be finite"):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("byte", [2, 255])
def test_load_rejects_a_rerank_byte_other_than_0_or_1(small_set, byte):
    """A rerank byte of 2 once loaded and was dumped back as 1."""
    blob = bytearray(dump_index(lsh_build(small_set, nbits=16, seed=0)))
    assert blob[_RERANK_AT] == 1
    for valid in (0, 1):
        blob[_RERANK_AT] = valid
        assert dump_index(load_index_bytes(bytes(blob))) == blob
    blob[_RERANK_AT] = byte
    with pytest.raises(ValueError, match=f"rerank byte must be 0 or 1, got {byte}"):
        load_index_bytes(bytes(blob))
