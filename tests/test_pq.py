"""Product quantization: exhaustive small-space oracles, then scale checks."""

import hashlib
import itertools

import numpy as np
import pytest

import annkit.pq
from annkit.data import EmbeddingSet, gen_synthetic
from annkit.distances import Metric, batch_scores
from annkit.persist import dump_index, load_index_bytes
from annkit.pq import (
    PqCodebook,
    PqIndex,
    adc_scores,
    adc_table,
    default_m,
    pq_encode_batch,
    pq_train,
)
from annkit.wire import Reader, Writer


def decode(cb, codes: np.ndarray) -> np.ndarray:
    """Reference decode: each code's sub-centroids side by side, as float32 rows."""
    return np.concatenate([cb.block[j][codes[:, j]] for j in range(cb.m)], axis=1)


@pytest.fixture(scope="module")
def tiny_codebook():
    """m=2 subspaces of dim 2, nbits=2 -> 4 codewords each, 16 total codes."""
    rng = np.random.default_rng(21)
    data = rng.standard_normal((64, 4))
    return pq_train(data, m=2, nbits=2, seed=0), data


def test_codebook_shape(tiny_codebook):
    cb, _ = tiny_codebook
    assert cb.m == 2
    assert cb.ks == 4
    assert cb.sub_dim == 2
    assert cb.dim == 4
    assert cb.block.shape == (2, 4, 2) and cb.block.dtype == np.float32
    assert len(cb.distortions) == 2


def test_encode_picks_nearest_subcentroid(tiny_codebook, rng):
    cb, _ = tiny_codebook
    for _ in range(20):
        v = rng.standard_normal(4)
        code = pq_encode_batch(cb, v[np.newaxis, :])[0]
        assert code.dtype == np.uint8
        for j, part in enumerate(cb.split(v)):
            d = np.linalg.norm(cb.block[j] - part, axis=1)
            assert code[j] == np.argmin(d)


def test_adc_equals_decoded_l2_exhaustively(tiny_codebook, rng):
    """Every one of the 16 possible codes, checked against explicit decode."""
    cb, _ = tiny_codebook
    codes = np.array(list(itertools.product(range(4), repeat=2)), dtype=np.uint8)
    for _ in range(5):
        q = rng.standard_normal(4)
        got = adc_scores(cb, codes, q)
        decoded = decode(cb, codes)
        want = np.linalg.norm(decoded - q, axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_adc_table_gather_identity(tiny_codebook, rng):
    cb, _ = tiny_codebook
    q = rng.standard_normal(4)
    table = adc_table(cb, q)
    assert table.shape == (2, 4)
    code = np.array([3, 1], dtype=np.uint8)
    want = np.sqrt(table[0, 3] + table[1, 1])
    np.testing.assert_allclose(adc_scores(cb, code[np.newaxis, :], q)[0], want)


def test_adc_scores_rejects_codes_that_name_no_centroid(tiny_codebook, rng):
    """ks = 4: a code of 4 or 5, a negative code, a 1-d code, a missing or extra
    column and a float code are all ValueError, never IndexError or a silent score."""
    cb, _ = tiny_codebook
    q = rng.standard_normal(4)
    bad = [
        np.array([[0, 5]], dtype=np.uint8),
        np.array([[4, 0]], dtype=np.uint8),
        np.array([[0, -1]], dtype=np.int64),
        np.array([1, 2], dtype=np.uint8),
        np.array([[1]], dtype=np.uint8),
        np.array([[1, 2, 3]], dtype=np.uint8),
        np.array([[1.0, 2.0]]),
    ]
    for codes in bad:
        with pytest.raises(ValueError):
            adc_scores(cb, codes, q)
    assert adc_scores(cb, np.array([[3, 3]], dtype=np.uint8), q).shape == (1,)
    assert adc_scores(cb, np.empty((0, 2), dtype=np.uint8), q).shape == (0,)


def test_adc_scores_takes_every_byte_at_eight_bits(rng):
    data = rng.standard_normal((300, 2))
    cb = pq_train(data, m=1, nbits=8, seed=0)
    codes = np.arange(256, dtype=np.uint8)[:, np.newaxis]
    got = adc_scores(cb, codes, data[0])
    want = np.linalg.norm(cb.block[0].astype(np.float64) - data[0], axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # Wider integers can name a centroid past 255 or below 0, so they are scanned.
    for bad in (256, -1):
        with pytest.raises(ValueError):
            adc_scores(cb, np.array([[bad]], dtype=np.int64), data[0])


def test_perfect_reconstruction_when_codewords_cover_points():
    """4 distinct points, 4 codewords per subspace: zero quantization error."""
    points = np.array(
        [[0.0, 0.0, 1.0, 1.0], [5.0, 5.0, -1.0, 2.0], [-3.0, 1.0, 4.0, 0.0], [2.0, -2.0, 0.0, 9.0]]
    )
    cb = pq_train(points, m=2, nbits=2, seed=0)
    np.testing.assert_allclose(decode(cb, pq_encode_batch(cb, points)), points, atol=1e-9)


def test_adc_matches_decoded_l2_at_scale(small_set, rng):
    cb = pq_train(small_set.vectors, m=4, nbits=4, seed=0)
    codes = pq_encode_batch(cb, small_set.vectors)
    for _ in range(10):
        q = rng.standard_normal(small_set.dim)
        got = adc_scores(cb, codes, q)
        decoded = decode(cb, codes)
        want = batch_scores(Metric.L2, q, decoded)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_pq_adc_search_ranking(tiny_codebook, rng):
    cb, data = tiny_codebook
    ids = np.arange(100, 120, dtype=np.uint64)
    codes = pq_encode_batch(cb, data[:20])
    q = rng.standard_normal(4)
    index = PqIndex(cb, ids, codes)
    assert index.family == "pq"
    assert len(index) == 20
    res = index.search(q, 6)
    scores = adc_scores(cb, codes, q)
    order = np.lexsort((ids, scores))[:6]
    assert res.ids == [int(ids[i]) for i in order]


def test_train_validation(rng):
    data = rng.standard_normal((20, 6))
    with pytest.raises(ValueError):
        pq_train(data, m=4, nbits=2, seed=0)  # 6 % 4 != 0
    with pytest.raises(ValueError):
        pq_train(data, m=2, nbits=9, seed=0)  # > 8 bits per code byte
    with pytest.raises(ValueError):
        pq_train(data, m=2, nbits=0, seed=0)
    with pytest.raises(ValueError):
        pq_train(data, m=2, nbits=5, seed=0)  # 32 codewords > 20 points


def test_default_m_divides_dim():
    for dim in (8, 16, 64, 96, 100):
        m = default_m(dim)
        assert dim % m == 0


def test_train_deterministic(small_set):
    a = pq_train(small_set.vectors, m=4, nbits=4, seed=5)
    b = pq_train(small_set.vectors, m=4, nbits=4, seed=5)
    np.testing.assert_array_equal(a.block, b.block)
    assert a.distortions == b.distortions


def test_codebook_wire_round_trip(tiny_codebook):
    cb, _ = tiny_codebook
    w = Writer()
    cb.write(w)
    blob = w.getvalue()
    back = PqCodebook.read(Reader(blob))
    assert back.m == cb.m and back.ks == cb.ks
    np.testing.assert_array_equal(back.block, cb.block)
    assert back.distortions == cb.distortions
    w2 = Writer()
    back.write(w2)
    assert w2.getvalue() == blob


def per_book_scores(block, codes, query):
    """ADC scores book by book: row j of each book's table, summed onto zeros."""
    parts = np.asarray(query, dtype=np.float64).reshape(len(block), -1)
    total = np.zeros(len(codes))
    for j, (book, part) in enumerate(zip(block, parts)):
        diff = book.astype(np.float64) - part
        total += np.sum(diff * diff, axis=1)[codes[:, j]]
    return np.sqrt(total)


@pytest.mark.parametrize(
    "books", [lambda block: block[::-1], lambda block: block[[0, 0]]], ids=["reversed", "repeated"]
)
def test_any_block_scores_as_it_encodes(books):
    """A codebook made from a trained block's books in another order, or one
    book twice, scores with the books it encodes with, built or loaded."""
    s = gen_synthetic(4, 100, 8, 0.3, seed=1)
    block = books(PqIndex.build(s, m=2, nbits=4).codebook.block)
    cb = PqCodebook(4, block, [0.0, 0.0])
    codes = pq_encode_batch(cb, s.vectors)
    built = PqIndex(cb, s.ids.copy(), codes)
    loaded = load_index_bytes(dump_index(built))
    for q in s.vectors[::40].astype(np.float64):
        np.testing.assert_array_equal(adc_scores(cb, codes, q), per_book_scores(block, codes, q))
        assert built.search(q, 5) == loaded.search(q, 5)


@pytest.mark.parametrize(
    "shape, distortions",
    [((4, 3), 4), ((2, 5, 3), 2), ((2, 4, 3), 1)],
    ids=["2-d", "ks-not-2^nbits", "distortion-count"],
)
def test_codebook_rejects_a_block_of_the_wrong_shape(shape, distortions):
    with pytest.raises(ValueError, match="codebook block"):
        PqCodebook(2, np.zeros(shape, dtype=np.float32), [0.0] * distortions)


def test_codebook_load_keeps_the_block_it_reads(tiny_codebook, monkeypatch):
    """A load holds the float32 block `read_centroids` returns, not a copy."""
    cb, _ = tiny_codebook
    w = Writer()
    cb.write(w)
    real, read = annkit.pq.read_centroids, []

    def recording_read(*args):
        read.append(real(*args))
        return read[-1]

    monkeypatch.setattr(annkit.pq, "read_centroids", recording_read)
    back = PqCodebook.read(Reader(w.getvalue()))
    assert back.block is read[0][0] and back.block.flags.c_contiguous


def _results_digest(index, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        for k in (1, 10):
            h.update(repr(index.search(q, k).neighbors).encode())
    return h.hexdigest()


def test_pq_bytes_and_results_are_pinned(small_set):
    """Digests taken while the k-means++ distance passes and the ADC table
    summed each row in numpy's pairwise order. At m 2 the subspaces are 8
    wide, where that order and a left-to-right sum differ, and the VIDX
    bytes and the built and loaded SearchResults did not move."""
    queries = list(np.random.default_rng(23).standard_normal((16, 16))) + list(small_set.vectors[:4])
    index = PqIndex.build(small_set, m=2, seed=3)
    blob = dump_index(index)
    assert hashlib.sha256(blob).hexdigest() == (
        "859e4df9d686d2c82aea9529fb0d22c590d85c811065b3ab4d7ca1bbcd680960"
    )
    results = "b974f8799f229753e705f047f457520a4942b48395f14afe452a15fb43dd190c"
    assert _results_digest(index, queries) == results
    assert _results_digest(load_index_bytes(blob), queries) == results
