"""Every array the program takes in passes one shape rule, `base.check_rows`,
and one finiteness rule, `base.check_finite`, and every single vector one
width rule, `base.check_vector`: each entry point, fed a 1-d array, a wrong
width (an empty array where training needs rows), a NaN or an inf, each
builder fed an empty set and each loader fed a dumped blob with one stored
float overwritten raises the rule's one ValueError form naming the value.
Inputs are fixed. Beside these, tests/test_contract.py holds every family's
search on a wrong-width query and `build_index` of every row on an empty set,
tests/test_hnsw.py `insert` of a wrong-width vector, and tests/test_data.py
and tests/test_cli.py a CSV id or label outside its field."""

import copy
import re
import struct

import numpy as np
import pytest

from annkit.base import check_query
from annkit.data import EmbeddingSet, gen_synthetic
from annkit.distances import Metric, batch_scores
from annkit.families import build_index
from annkit.flat import FlatIPIndex, FlatL2Index
from annkit.hnsw import HnswIndex
from annkit.ivf import ivf_build
from annkit.kmeans import kmeans_fit
from annkit.lsh import lsh_build
from annkit.persist import dump_index, load_index_bytes
from annkit.pq import PqIndex, adc_table, pq_encode_batch, pq_train
from annkit.rpforest import rp_build
from annkit.sq import sq_decode_batch, sq_encode_batch, sq_train

DATA = gen_synthetic(2, 20, 8, 0.1, 3)
ROWS = DATA.vectors  # (40, 8) float32
CODEBOOK = pq_train(ROWS, 2, 2)
PARAMS = sq_train(ROWS)
CODES = sq_encode_batch(PARAMS, ROWS)
LSH = lsh_build(DATA, nbits=16)
GRAPH = HnswIndex.build(DATA, M=4, ef_construction=8)


def _shape_form(what: str) -> str:
    return rf"^{re.escape(what)} must be a (non-empty )?2-d array( of width [^,]+)?, got shape \([0-9, ]*\)$"


def _finite_form(what: str) -> str:
    return rf"^{re.escape(what)} must be finite \(no NaN or inf\)$"


def _set(vectors: np.ndarray) -> EmbeddingSet:
    n = len(vectors) if np.ndim(vectors) else 0
    return EmbeddingSet(np.arange(n, dtype=np.uint64), np.zeros(n, dtype=np.uint32), vectors)


# entry point: (call, the array's name, a valid input, the wrong width or the
# empty input that training refuses)
SHAPED = {
    "EmbeddingSet": (_set, "vectors", ROWS, ROWS[:, :0]),
    "batch_scores": (lambda a: batch_scores(Metric.L2, ROWS[0], a), "vectors", ROWS, ROWS[:, :7]),
    "kmeans_fit": (lambda a: kmeans_fit(a, 2), "data", ROWS, ROWS[:0]),
    "pq_train": (lambda a: pq_train(a, 2, 2), "data", ROWS, ROWS[:0]),
    "pq_encode_batch": (lambda a: pq_encode_batch(CODEBOOK, a), "vectors", ROWS, ROWS[:, :7]),
    "sq_train": (sq_train, "data", ROWS, ROWS[:0]),
    "sq_encode_batch": (lambda a: sq_encode_batch(PARAMS, a), "vectors", ROWS, ROWS[:, :7]),
    "sq_decode_batch": (lambda a: sq_decode_batch(PARAMS, a), "codes", CODES, CODES[:, :7]),
    "LshIndex.encode_batch": (LSH.encode_batch, "vectors", ROWS, ROWS[:, :7]),
}


@pytest.mark.parametrize("case", ["1-d", "wrong"])
@pytest.mark.parametrize("entry", sorted(SHAPED))
def test_every_array_entry_point_takes_the_shape_rule(entry, case):
    call, what, valid, wrong = SHAPED[entry]
    call(valid)
    with pytest.raises(ValueError, match=_shape_form(what)):
        call(valid[0] if case == "1-d" else wrong)


def _insert(vector: np.ndarray) -> None:
    copy.deepcopy(GRAPH).insert(10**6, vector)


# k-means keeps its stronger rule: every |value| within float32's range.
_FLOAT32_RULE = r"^data must be finite, each \|value\| <= float32 max"

# entry point: (call, a valid input, the error form of a non-finite component)
FINITE = {
    "check_query": (lambda q: check_query(q, 3, 8), ROWS[0], _finite_form("query")),
    "EmbeddingSet": (_set, ROWS, _finite_form("vectors")),
    "HnswIndex.insert": (_insert, ROWS[0], _finite_form("vector")),
    "sq_train": (sq_train, ROWS, _finite_form("mins and maxs")),
    "kmeans_fit": (lambda a: kmeans_fit(a, 2), ROWS, _FLOAT32_RULE),
    "pq_train": (lambda a: pq_train(a, 2, 2), ROWS, _FLOAT32_RULE),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(FINITE))
def test_every_vector_entry_point_takes_the_finite_rule(entry, value):
    call, valid, form = FINITE[entry]
    call(valid)
    bad = np.array(valid, dtype=np.float64)
    bad.flat[5] = value
    with pytest.raises(ValueError, match=form):
        call(bad)


# loader: (family, build knobs, the stored array whose first float is
# overwritten, contiguous in the blob, and the name the rule gives it)
STORED = {
    "flat-l2": ("flat-l2", {}, lambda ix: ix.vectors, "stored vectors"),
    "flat-ip": ("flat-ip", {}, lambda ix: ix.vectors, "stored vectors"),
    "hnsw": ("hnsw", {"M": 4, "ef_construction": 8}, lambda ix: ix._vec32, "stored vectors"),
    "lsh": ("lsh", {"nbits": 16}, lambda ix: ix.hyperplanes, "hyperplanes"),
    "forest-vectors": ("rpforest-l2", {"n_trees": 2, "leaf_size": 8}, lambda ix: ix._vectors,
                       "stored vectors and split planes"),
    "forest-normal": ("rpforest-l2", {"n_trees": 2, "leaf_size": 8}, lambda ix: ix._normals[0],
                      "stored vectors and split planes"),
    "forest-offset": ("rpforest-l2", {"n_trees": 2, "leaf_size": 8}, lambda ix: ix._offsets[:1],
                      "stored vectors and split planes"),
    "sq-params": ("ivf-sq", {"nlist": 2}, lambda ix: ix.codec.mins, "mins and maxs"),
    "pq-book": ("pq", {"m": 2, "nbits": 2}, lambda ix: ix.codebook.block[0],
                "centroid vectors and distortions"),
    "ivf-coarse": ("ivf-flat", {"nlist": 2}, lambda ix: ix.coarse.vectors,
                   "centroid vectors and distortions"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stored", sorted(STORED))
def test_every_loader_takes_the_finite_rule(stored, value):
    name, knobs, array_of, what = STORED[stored]
    index = build_index(DATA, name, **knobs)
    blob = bytearray(dump_index(index))
    stored_array = np.ascontiguousarray(array_of(index))
    at = blob.find(stored_array.tobytes())
    assert at >= 0 and blob.find(stored_array.tobytes(), at + 1) < 0
    struct.pack_into("<d" if stored_array.dtype == np.float64 else "<f", blob, at, value)
    with pytest.raises(ValueError, match=_finite_form(what)):
        load_index_bytes(bytes(blob))


@pytest.mark.parametrize("got", [3, 7, 9])
def test_the_pq_table_takes_the_width_rule(got):
    assert adc_table(CODEBOOK, ROWS[0]).shape == (2, 4)
    with pytest.raises(ValueError, match=rf"^vector has dim {got}, expected 8$"):
        adc_table(CODEBOOK, np.zeros(got))


EMPTY = _set(ROWS[:0])

# builder: every family's build, called directly with its smallest knobs
BUILDERS = {
    "FlatL2Index.build": FlatL2Index.build,
    "FlatIPIndex.build": FlatIPIndex.build,
    "HnswIndex.build": lambda s: HnswIndex.build(s, M=4, ef_construction=8),
    "PqIndex.build": lambda s: PqIndex.build(s, m=2, nbits=2),
    "ivf_build": lambda s: ivf_build(s, nlist=2),
    "lsh_build": lambda s: lsh_build(s, nbits=16),
    "rp_build": lambda s: rp_build(s, n_trees=2, leaf_size=8),
}
_EMPTY_FORM = r"^vectors must be a non-empty 2-d array, got shape \(0, 8\)$"


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_builder_refuses_an_empty_set(builder):
    BUILDERS[builder](DATA)
    with pytest.raises(ValueError, match=_EMPTY_FORM):
        BUILDERS[builder](EMPTY)
