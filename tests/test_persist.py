"""VIDX container: byte-stable round trips for every index family."""

import gc
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annkit.data import EmbeddingSet, gen_synthetic
from annkit.distances import Metric
from annkit.families import FAMILIES, build_index
from annkit.flat import FlatIPIndex, FlatL2Index
from annkit.hnsw import HnswIndex
from annkit.ivf import ivf_build
from annkit.lsh import LshIndex, lsh_build
from annkit.persist import (
    VIDX_MAGIC,
    VIDX_VERSION,
    dump_index,
    load_index,
    load_index_bytes,
    save_index,
)
from annkit.pq import PqIndex, pq_encode_batch
from annkit.rpforest import rp_build
from annkit.wire import Writer

BUILDERS = {
    "flat-l2": lambda s: FlatL2Index.build(s),
    "flat-ip": lambda s: FlatIPIndex.build(s),
    "pq": lambda s: PqIndex.build(s, m=4, nbits=4, seed=0),
    "ivf-flat": lambda s: ivf_build(s, nlist=8, encoding="flat", seed=0),
    "ivf-pq": lambda s: ivf_build(s, nlist=8, encoding="pq", m=4, nbits=4, seed=0),
    "ivf-sq": lambda s: ivf_build(s, nlist=8, encoding="sq", seed=0),
    "lsh": lambda s: lsh_build(s, nbits=64, seed=0),
    "hnsw": lambda s: HnswIndex.build(s, M=8, ef_construction=24, seed=0),
    "rpforest": lambda s: rp_build(s, n_trees=4, seed=0),
}


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_round_trip_preserves_search(family, small_set, rng):
    index = BUILDERS[family](small_set)
    blob = dump_index(index)
    loaded = load_index_bytes(blob)
    assert loaded.family == index.family
    assert loaded.dim == index.dim
    assert len(loaded) == len(index)
    for _ in range(5):
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        assert loaded.search(q, 8).neighbors == index.search(q, 8).neighbors


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_save_load_save_is_byte_identical(family, small_set):
    index = BUILDERS[family](small_set)
    blob = dump_index(index)
    assert dump_index(load_index_bytes(blob)) == blob


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_load_owns_its_arrays(family, small_set, rng):
    """An index loaded from a bytearray keeps no view of it: overwriting the
    buffer changes neither its answers nor its dump."""
    index = BUILDERS[family](small_set)
    blob = dump_index(index)
    buf = bytearray(blob)
    loaded = load_index_bytes(buf)
    buf[:] = bytes(len(buf))
    queries = [small_set.vectors[7]] + list(rng.standard_normal((4, small_set.dim)))
    for q in queries:
        assert loaded.search(q, 8).neighbors == index.search(q, 8).neighbors
    assert dump_index(loaded) == blob


def test_file_round_trip(tmp_path, small_set):
    index = FlatL2Index.build(small_set)
    path = tmp_path / "flat.vidx"
    save_index(index, path)
    assert path.read_bytes()[:4] == VIDX_MAGIC
    loaded = load_index(path)
    q = small_set.vectors[3]
    assert loaded.search(q, 5).neighbors == index.search(q, 5).neighbors


def test_family_tags_are_frozen():
    """Tag bytes are wire format; renumbering would silently break old files.
    The forest is tag 8 in every metric; its payload stores the metric."""
    tags = {name: row.tag for name, row in FAMILIES.items()}
    assert tags == {
        "flat-l2": 0,
        "flat-ip": 1,
        "pq": 2,
        "ivf-flat": 3,
        "ivf-pq": 4,
        "ivf-sq": 5,
        "lsh": 6,
        "hnsw": 7,
        "rpforest-angular": 8,
        "rpforest-l2": 8,
        "rpforest-manhattan": 8,
    }
    assert VIDX_VERSION == 1


def test_loaded_memory_bytes_tells_the_truth():
    """A freshly loaded index retains between 0.98 and 1.10 x its memory_bytes().

    Retained bytes are what tracemalloc sees load_index_bytes keep.
    """
    s = gen_synthetic(8, 250, 32, 0.05, seed=4)
    builders = dict(BUILDERS, pq=lambda s: PqIndex.build(s, m=4, nbits=8, seed=0))
    for family in ("flat-l2", "flat-ip", "lsh", "ivf-flat", "ivf-sq", "pq", "hnsw", "rpforest"):
        blob = dump_index(builders[family](s))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = load_index_bytes(blob)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0.98 * index.memory_bytes() <= held <= 1.10 * index.memory_bytes(), (
            family, held, index.memory_bytes()
        )


def test_rejects_bad_magic(small_set):
    blob = bytearray(dump_index(FlatL2Index.build(small_set)))
    blob[:4] = b"JUNK"
    with pytest.raises(ValueError):
        load_index_bytes(bytes(blob))


def test_rejects_unknown_version(small_set):
    blob = bytearray(dump_index(FlatL2Index.build(small_set)))
    blob[4] = 200
    with pytest.raises(ValueError):
        load_index_bytes(bytes(blob))


def test_rejects_unknown_family_tag(small_set):
    blob = bytearray(dump_index(FlatL2Index.build(small_set)))
    blob[5] = 250
    with pytest.raises(ValueError):
        load_index_bytes(bytes(blob))


def test_rejects_trailing_garbage(small_set):
    blob = dump_index(FlatL2Index.build(small_set))
    with pytest.raises(ValueError):
        load_index_bytes(blob + b"\x00")


def test_rejects_truncation(small_set):
    blob = dump_index(FlatL2Index.build(small_set))
    with pytest.raises(ValueError):
        load_index_bytes(blob[:-5])


@pytest.mark.parametrize("family", ["pq", "ivf-pq"])
def test_rejects_pq_code_at_or_above_ks(family):
    """With nbits=4 a code byte of 200 names no centroid; the load refuses it
    instead of the first search raising IndexError."""
    emb = gen_synthetic(4, 50, 8, 0.3, seed=1)
    knobs = {"nprobe": 4} if family == "ivf-pq" else {}
    blob = bytearray(dump_index(build_index(emb, family, seed=0, m=4, nbits=4, **knobs)))
    assert load_index_bytes(bytes(blob)).search(emb.vectors[0], 3)  # the intact blob loads
    blob[-1] = 200  # the last code byte of the last (non-empty) list
    with pytest.raises(ValueError, match="code"):
        load_index_bytes(bytes(blob))
    blob[-1] = 15  # the largest valid code still loads
    load_index_bytes(bytes(blob)).search(emb.vectors[0], 3)


def test_ivf_metric_variants_round_trip(small_set, rng):
    """The rpforest payload stores its metric; all three reload correctly."""
    for metric in (Metric.ANGULAR, Metric.L2, Metric.MANHATTAN):
        forest = rp_build(small_set, n_trees=3, metric=metric, seed=1)
        loaded = load_index_bytes(dump_index(forest))
        assert loaded.family == forest.family == f"rpforest-{metric.value}"
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        assert loaded.search(q, 6).neighbors == forest.search(q, 6).neighbors


# ------------------------------------------------------------ stored values

# Ids far from every count, code and float bit pattern, so each one's eight
# bytes occur in a blob only where that id is stored.
_ID_BASE = 0x5EED_0000_0000_0000


@pytest.fixture(scope="module")
def distinct_id_blobs(small_set):
    """Family -> (the set's ids, the VIDX blob of an index over it)."""
    ids = np.uint64(_ID_BASE) + np.uint64(7919) * small_set.ids
    s = EmbeddingSet(ids, small_set.labels, small_set.vectors)
    return {name: (ids, dump_index(build(s))) for name, build in BUILDERS.items()}


@settings(derandomize=True, max_examples=90, deadline=None)
@given(family=st.sampled_from(sorted(BUILDERS)), data=st.data())
def test_every_loader_rejects_a_repeated_id(distinct_id_blobs, family, data):
    """One stored id written over another: every tag's load raises ValueError.

    flat, pq, ivf, lsh and rpforest blobs once loaded such a file and then
    answered a search with the same id twice.
    """
    ids, blob = distinct_id_blobs[family]
    kept, lost = data.draw(st.lists(st.sampled_from(ids.tolist()), min_size=2, max_size=2,
                                    unique=True))
    kept, lost = struct.pack("<Q", kept), struct.pack("<Q", lost)
    assume(blob.count(lost) == 1)  # the hnsw entry id is stored twice
    with pytest.raises(ValueError, match="unique"):
        load_index_bytes(blob.replace(lost, kept))


_NO_BUILDER_WRITES = {
    # nbits 0: every code is empty, so every query has Hamming distance 0
    "lsh": lambda s: LshIndex(np.empty((0, s.dim)), s.ids, np.empty((len(s), 0)), s.vectors),
    # dim 0: loaded, then failed inside the shortlist at the first search
    "flat-l2": lambda s: FlatL2Index(s.ids, np.empty((len(s), 0))),
    "flat-ip": lambda s: FlatIPIndex(s.ids, np.empty((len(s), 0))),
}


@pytest.mark.parametrize("family", sorted(_NO_BUILDER_WRITES))
def test_loaders_reject_shapes_no_builder_writes(small_set, family):
    blob = dump_index(_NO_BUILDER_WRITES[family](small_set))
    with pytest.raises(ValueError, match="must be >= 1"):
        load_index_bytes(blob)


def test_hnsw_loader_rejects_dim_zero(small_set):
    """A dim-0 graph once loaded and answered an empty query with its first rows."""
    index = BUILDERS["hnsw"](small_set)
    blob = bytearray(dump_index(index))
    dim_at = 6 + 3 * 4  # magic, version, tag, M, ef_construction, ef_search
    vectors_at = dim_at + 4 + 8 + 8 + 12 * len(index)  # dim, count, entry id, ids, levels
    struct.pack_into("<I", blob, dim_at, 0)
    del blob[vectors_at : vectors_at + 4 * index.dim * len(index)]
    with pytest.raises(ValueError, match="must be >= 1"):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("family", ["flat-l2", "flat-ip"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_flat_loaders_reject_non_finite_vectors(small_set, family, value):
    """A NaN row once dropped out of every answer, and +inf led flat-ip's."""
    blob = bytearray(dump_index(BUILDERS[family](small_set)))
    vectors_at = 6 + 4 + 8 + 8 * len(small_set)  # magic, version, tag, dim, count, ids
    struct.pack_into("<f", blob, vectors_at, value)
    with pytest.raises(ValueError, match="finite"):
        load_index_bytes(bytes(blob))


# ---------------------------------------------------------------- codebooks

_FRAME = 6  # magic, version byte, family tag


def _ivf_sections(index, blob) -> tuple[int, int, int]:
    """Offsets of an IVF blob's coarse vectors, payload codec and first list."""
    coarse = _FRAME + 8  # after dim and nlist
    codec = coarse + 4 * index.nlist * index.dim + 8 + 4  # after distortion and nprobe
    row_bytes = index.payload.nbytes // len(index)
    return coarse, codec, len(blob) - 8 * index.nlist - len(index) * (8 + row_bytes)


@pytest.mark.parametrize("family", ["pq", "ivf-pq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pq_loaders_reject_non_finite_books(small_set, family, value):
    """A NaN in the book entry that row 0's first code names once loaded, and
    row 0 then dropped out of its own answer."""
    index = BUILDERS[family](small_set)
    blob = bytearray(dump_index(index))
    books = _FRAME + 12 if family == "pq" else _ivf_sections(index, blob)[1] + 12
    code = int(pq_encode_batch(index.codebook, small_set.vectors[:1])[0, 0])
    struct.pack_into("<f", blob, books + 4 * code * index.codebook.sub_dim, value)
    with pytest.raises(ValueError, match="finite"):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("family", ["ivf-flat", "ivf-sq", "ivf-pq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ivf_loaders_reject_non_finite_coarse_centroids(small_set, family, value):
    """A NaN in the coarse centroid of row 0's list once loaded, and no probe
    then reached row 0."""
    index = BUILDERS[family](small_set)
    blob = bytearray(dump_index(index))
    home = int(index.probe_order(small_set.vectors[0])[0])
    struct.pack_into("<f", blob, _ivf_sections(index, blob)[0] + 4 * home * index.dim, value)
    with pytest.raises(ValueError, match="finite"):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("family", ["pq", "ivf-flat", "ivf-sq", "ivf-pq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_codebook_loaders_reject_a_non_finite_distortion(small_set, family, value):
    """A NaN or inf stored distortion (pq: the last book's; ivf: the coarse
    set's), which no training writes, once loaded and round-tripped."""
    index = BUILDERS[family](small_set)
    blob = bytearray(dump_index(index))
    if family == "pq":
        book = 4 * (1 << index.codebook.nbits) * index.codebook.sub_dim + 8
        at, stored = _FRAME + 12 + index.codebook.m * book - 8, index.codebook.distortions[-1]
    else:
        at = _ivf_sections(index, blob)[0] + 4 * index.nlist * index.dim
        stored = index.coarse.distortion
    assert struct.unpack_from("<d", blob, at)[0] == stored
    struct.pack_into("<d", blob, at, value)
    with pytest.raises(ValueError, match="distortions must be finite"):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("width, bits", [("u8", 8), ("u32", 32), ("u64", 64)])
def test_writer_rejects_a_value_its_field_cannot_hold(width, bits):
    """A knob too large for its field is a ValueError at dump, not struct.error."""
    w = Writer()
    getattr(w, width)(2**bits - 1)
    for value in (2**bits, -1):
        with pytest.raises(ValueError, match=f"{value} does not fit a {width} field"):
            getattr(w, width)(value)
    assert w.getvalue() == b"\xff" * (bits // 8)


def _pq_blob(m: int, nbits: int, sub_dim: int = 4, n: int = 5) -> bytes:
    """A pq blob written field by field; past nbits 15 it stops after the
    codebook header."""
    w = Writer()
    w.raw(VIDX_MAGIC)
    w.u8(VIDX_VERSION)
    w.u8(FAMILIES["pq"].tag)
    for field in (m, nbits, sub_dim):
        w.u32(field)
    if nbits < 16:
        for _ in range(m):
            w.f32_array(np.ones((1 << nbits, sub_dim)))
            w.f64(0.0)
        w.u64(n)
        w.u64_array(np.arange(n))
        w.u8_array(np.zeros((n, m)))
    return w.getvalue()


@pytest.mark.parametrize(
    "m, nbits, match",
    [(0, 4, "m must be >= 1"), (4, 0, "nbits must be in 1..8"), (4, 9, "nbits must be in 1..8"),
     (4, 2**27, "nbits must be in 1..8")],
)
def test_pq_loader_rejects_code_shapes_no_builder_writes(m, nbits, match):
    """m 0 once loaded and raised IndexError at the first search; nbits 0 and 9
    loaded and answered; nbits 2**27 built a 16 MiB int for 2**nbits before
    the load found the buffer short."""
    assert load_index_bytes(_pq_blob(4, 4)).search(np.zeros(16), 3)  # the same blob, m 4, nbits 4
    with pytest.raises(ValueError, match=match):
        load_index_bytes(_pq_blob(m, nbits))


@pytest.mark.parametrize("family", ["ivf-pq", "ivf-sq"])
def test_ivf_loader_rejects_a_codec_of_another_dim(small_set, family):
    """A codec over the first 8 of 16 dims once loaded, and every search then
    failed inside the scoring."""
    index = BUILDERS[family](small_set)
    narrow = BUILDERS[family](EmbeddingSet(small_set.ids, small_set.labels, small_set.vectors[:, :8]))
    blob, narrow_blob = dump_index(index), dump_index(narrow)
    _, codec, lists = _ivf_sections(index, blob)
    _, narrow_codec, narrow_lists = _ivf_sections(narrow, narrow_blob)
    spliced = blob[:codec] + narrow_blob[narrow_codec:narrow_lists] + blob[lists:]
    with pytest.raises(ValueError, match="codec has dim 8, index has dim 16"):
        load_index_bytes(spliced)


@pytest.mark.parametrize("family", ["ivf-flat", "ivf-sq", "ivf-pq"])
def test_ivf_loader_rejects_a_list_count_past_the_buffer(small_set, family):
    """A count of 2**63 in the first list header once raised OverflowError."""
    index = BUILDERS[family](small_set)
    blob = bytearray(dump_index(index))
    struct.pack_into("<Q", blob, _ivf_sections(index, blob)[2], 2**63)
    with pytest.raises(ValueError, match="truncated"):
        load_index_bytes(bytes(blob))


_CODEBOOK_FAMILIES = ("pq", "ivf-flat", "ivf-sq", "ivf-pq")


@pytest.fixture(scope="module")
def codebook_blobs(small_set):
    """Family -> (blob, end of its header, coarse-quantizer and codebook
    region: through the pq row count or the first IVF list count)."""
    out = {}
    for name in _CODEBOOK_FAMILIES:
        index = BUILDERS[name](small_set)
        blob = dump_index(index)
        if name == "pq":
            out[name] = blob, len(blob) - len(index) * (8 + index.codebook.m)
        else:
            out[name] = blob, _ivf_sections(index, blob)[2] + 8
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(family=st.sampled_from(_CODEBOOK_FAMILIES), data=st.data())
def test_codebook_loaders_raise_only_value_error(codebook_blobs, small_set, family, data):
    """1-4 bytes overwritten after the frame, up to the stored rows: the load
    raises ValueError, or the blob loads, dumps back to itself and answers."""
    blob, end = codebook_blobs[family]
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(_FRAME, end - 1))] = data.draw(st.integers(0, 255))
    _raises_value_error_or_round_trips(blob, small_set)


def _raises_value_error_or_round_trips(blob: bytearray, small_set) -> None:
    try:
        index = load_index_bytes(bytes(blob))
    except ValueError:
        return
    assert dump_index(index) == blob
    ids = index.search(small_set.vectors[0], 5).ids
    assert 1 <= len(ids) == len(set(ids)) <= 5


_OTHER_FAMILIES = ("flat-l2", "flat-ip", "lsh", "hnsw",
                   "rpforest-angular", "rpforest-l2", "rpforest-manhattan")


@pytest.fixture(scope="module")
def vector_blobs(small_set):
    """Family -> (blob, start, end of its stored float32 vectors)."""
    vectors = small_set.vectors.astype("<f4").tobytes()
    out = {}
    for name in _OTHER_FAMILIES:
        blob = dump_index(build_index(small_set, name, seed=0))
        start = blob.index(vectors)
        out[name] = blob, start, start + len(vectors)
    return out


@pytest.mark.parametrize("family", _OTHER_FAMILIES)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_every_other_loader_raises_only_value_error(vector_blobs, small_set, family, data):
    """1-4 bytes overwritten anywhere after the frame but in the stored
    vectors (headers, ids, hyperplanes, codes, links, tree nodes): the load
    raises ValueError, or the blob loads, dumps back to itself and answers."""
    blob, start, end = vector_blobs[family]
    outside = start - _FRAME + len(blob) - end
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        at = _FRAME + data.draw(st.integers(0, outside - 1))
        blob[at if at < start else at + end - start] = data.draw(st.integers(0, 255))
    _raises_value_error_or_round_trips(blob, small_set)
