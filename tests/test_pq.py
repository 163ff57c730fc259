"""Product quantization: exhaustive small-space oracles, then scale checks."""

import itertools

import numpy as np
import pytest

from annkit.data import EmbeddingSet
from annkit.distances import Metric, batch_scores
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
    return np.concatenate([cb.books[j].vectors[codes[:, j]] for j in range(cb.m)], axis=1)


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
    for book in cb.books:
        assert book.vectors.shape == (4, 2)


def test_encode_picks_nearest_subcentroid(tiny_codebook, rng):
    cb, _ = tiny_codebook
    for _ in range(20):
        v = rng.standard_normal(4)
        code = pq_encode_batch(cb, v[np.newaxis, :])[0]
        assert code.dtype == np.uint8
        for j, part in enumerate(cb.split(v)):
            d = np.linalg.norm(cb.books[j].vectors - part, axis=1)
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
    want = np.linalg.norm(cb.books[0].vectors.astype(np.float64) - data[0], axis=1)
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
    for x, y in zip(a.books, b.books):
        np.testing.assert_array_equal(x.vectors, y.vectors)


def test_codebook_wire_round_trip(tiny_codebook):
    cb, _ = tiny_codebook
    w = Writer()
    cb.write(w)
    blob = w.getvalue()
    back = PqCodebook.read(Reader(blob))
    assert back.m == cb.m and back.ks == cb.ks
    for x, y in zip(back.books, cb.books):
        np.testing.assert_array_equal(x.vectors, y.vectors)
    w2 = Writer()
    back.write(w2)
    assert w2.getvalue() == blob
