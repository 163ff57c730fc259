"""Code-domain scoring kernels against the forms they replaced, bit for bit.

The references are kept here: `adc_table_reference` adds one float64
dimension of every book at a time onto zeros, in order, `adc_scores_reference`
sums fancy-index gathers onto zeros,
`hamming_reference` popcounts bytes through a 256-entry table, and
`sq_decode_reference` is the out-of-place mid-level formula. Every
comparison is on the raw bits (`view(np.uint64)`), not on values, so a
-0.0, a NaN payload or a last-place difference would all fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.lsh import LshIndex, code_word
from annkit.pq import PqCodebook, adc_scores, adc_table
from annkit.sq import LEVELS, SqParams, sq_decode_batch
from annkit.wire import Reader, Writer

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def adc_table_reference(cb, query):
    parts = cb.split(query)
    table = np.zeros((cb.m, cb.ks), dtype=np.float64)
    for t in range(cb.sub_dim):
        d_t = cb.block[:, :, t].astype(np.float64) - parts[:, t : t + 1]
        table += d_t * d_t
    return table


def adc_scores_reference(cb, codes, query):
    table = adc_table_reference(cb, query)
    total = np.zeros(len(codes), dtype=np.float64)
    for j in range(cb.m):
        total += table[j, codes[:, j]]
    return np.sqrt(total)


def hamming_reference(codes, query_code):
    xor = np.bitwise_xor(codes, np.asarray(query_code, dtype=np.uint8))
    return _POPCOUNT[xor].sum(axis=1).astype(np.int64)


def sq_decode_reference(params, codes):
    arr = np.asarray(codes, dtype=np.float64)
    spans = params.maxs.astype(np.float64) - params.mins.astype(np.float64)
    return params.mins.astype(np.float64) + (arr + 0.5) * spans / LEVELS


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------------------------------- PQ


def random_codebook(rng, m, nbits, sub_dim, scale):
    """A codebook whose float64 draws the constructor rounds to float32."""
    return PqCodebook(nbits, rng.standard_normal((m, 1 << nbits, sub_dim)) * scale, [0.0] * m)


# Widths at which numpy's own pairwise row sum (eight running sums from 8 wide,
# a split above 128) would add in another order than the table's left-to-right
# sum: whole stride-8 blocks, a tail, the 128 limit either side, and past it.
_WIDE_SUB_DIMS = [16, 24, 127, 128, 129, 136, 256]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    m=st.sampled_from([1, 2, 8, 64]),
    nbits=st.integers(1, 8),
    sub_dim=st.one_of(st.integers(1, 9), st.sampled_from(_WIDE_SUB_DIMS)),
    n=st.one_of(st.just(0), st.just(1), st.integers(2, 300)),
    scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e3, 1e15]),
    read_back=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_adc_kernels_match_reference_bitwise(m, nbits, sub_dim, n, scale, read_back, seed):
    """A float64 block (rounded into a float32 copy) and the block read back
    from VIDX (kept as read) give the reference table, bit for bit."""
    rng = np.random.default_rng(seed)
    m = m if sub_dim < 10 else min(m, 3)
    cb = random_codebook(rng, m, nbits, sub_dim, scale)
    if read_back:
        w = Writer()
        cb.write(w)
        cb = PqCodebook.read(Reader(w.getvalue()))
    assert cb.block.shape == (m, cb.ks, sub_dim) and cb.block.dtype == np.float32
    assert cb.block.flags.c_contiguous
    query = rng.standard_normal(cb.dim) * scale
    codes = rng.integers(0, cb.ks, (n, m)).astype(np.uint8)
    # The extreme codes 0 and ks - 1 in every subspace, whenever there are rows.
    codes[: min(n, 1)] = 0
    codes[1 : min(n, 2)] = cb.ks - 1
    assert_same_bits(adc_table(cb, query), adc_table_reference(cb, query))
    assert_same_bits(adc_scores(cb, codes, query), adc_scores_reference(cb, codes, query))


def test_adc_scores_accepts_wider_integer_codes():
    rng = np.random.default_rng(4)
    cb = random_codebook(rng, 4, 3, 2, 1.0)
    query = rng.standard_normal(cb.dim)
    codes = rng.integers(0, cb.ks, (50, 4))
    for dtype in (np.int64, np.uint16, np.int8):
        assert_same_bits(
            adc_scores(cb, codes.astype(dtype), query), adc_scores_reference(cb, codes, query)
        )


# ------------------------------------------------------------------ LSH

# Every word width, and one byte either side of each (8w - 1, 8w, 8w + 1 bits).
_EDGE_NBITS = sorted({8 * w + d for w in (1, 2, 3, 4, 8, 16, 24) for d in (-1, 0, 1)})


def code_index(codes):
    n, width = codes.shape
    return LshIndex(
        np.ones((8 * width, 2), dtype=np.float32),
        np.arange(n, dtype=np.uint64),
        codes,
        np.zeros((n, 2), dtype=np.float32),
    )


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    nbits=st.one_of(st.integers(1, 200), st.sampled_from(_EDGE_NBITS)),
    n=st.one_of(st.just(0), st.just(1), st.integers(2, 200)),
    query_layout=st.sampled_from(["contiguous", "strided", "fortran-row", "int64"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hamming_matches_byte_table_popcount(nbits, n, query_layout, seed):
    """Random bytes, padding bits included: both kernels count every bit."""
    rng = np.random.default_rng(seed)
    width = (nbits + 7) // 8
    codes = rng.integers(0, 256, (n, width), dtype=np.uint8)
    query = rng.integers(0, 256, width, dtype=np.uint8)
    if query_layout == "strided":
        query = np.repeat(query, 2)[::2]
    elif query_layout == "fortran-row":
        query = np.asfortranarray(np.stack([query, ~query]))[0]
    elif query_layout == "int64":
        query = query.astype(np.int64)
    index = code_index(codes)
    got = index.hamming_to(query)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, hamming_reference(codes, query))


def test_code_word_is_the_widest_tiling_word():
    for width in range(1, 26):
        word = code_word(width)
        assert width % word.itemsize == 0
        assert all(width % size for size in (2, 4, 8) if size > word.itemsize)


def test_hamming_reads_strided_stored_codes():
    """Codes handed over as a column slice are made contiguous once, on construction."""
    rng = np.random.default_rng(9)
    wide = rng.integers(0, 256, (40, 24), dtype=np.uint8)
    codes = wide[:, 3:19]
    index = code_index(codes)
    query = rng.integers(0, 256, 16, dtype=np.uint8)
    np.testing.assert_array_equal(index.hamming_to(query), hamming_reference(codes, query))


def test_hamming_rejects_a_query_code_of_the_wrong_length():
    rng = np.random.default_rng(2)
    index = code_index(rng.integers(0, 256, (10, 16), dtype=np.uint8))
    for bad in (np.zeros(1, np.uint8), np.zeros(15, np.uint8), np.zeros(17, np.uint8),
                np.zeros((1, 16), np.uint8), np.zeros((), np.uint8)):
        with pytest.raises(ValueError):
            index.hamming_to(bad)


# ------------------------------------------------------------------- SQ


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 40),
    n=st.one_of(st.just(0), st.just(1), st.integers(2, 200)),
    zero_spans=st.floats(0.0, 1.0),
    scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e3, 1e30]),
    float_codes=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sq_decode_matches_reference_bitwise(dim, n, zero_spans, scale, float_codes, seed):
    rng = np.random.default_rng(seed)
    mins = (rng.standard_normal(dim) * scale).astype(np.float32)
    spans = np.abs(rng.standard_normal(dim) * scale).astype(np.float32)
    spans[rng.random(dim) < zero_spans] = 0.0
    params = SqParams(mins=mins, maxs=mins + spans)
    codes = rng.integers(0, LEVELS, (n, dim)).astype(np.uint8)
    if float_codes:
        codes = codes.astype(np.float64) + rng.random((n, dim))
    before = codes.copy()
    got = sq_decode_batch(params, codes)
    assert_same_bits(got, sq_decode_reference(params, codes))
    np.testing.assert_array_equal(codes, before)
    assert not np.shares_memory(got, codes)
    if n:
        flat = params.maxs == params.mins
        np.testing.assert_array_equal(got[:, flat], np.broadcast_to(params.mins[flat], (n, flat.sum())))
