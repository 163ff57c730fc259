"""VIDX container: byte-stable round trips for every index family."""

import gc
import tracemalloc

import numpy as np
import pytest

from annkit.data import gen_synthetic
from annkit.distances import Metric
from annkit.families import FAMILIES
from annkit.flat import FlatIPIndex, FlatL2Index
from annkit.hnsw import HnswIndex, HnswParams
from annkit.ivf import ivf_build
from annkit.lsh import lsh_build
from annkit.persist import (
    VIDX_MAGIC,
    VIDX_VERSION,
    dump_index,
    load_index,
    load_index_bytes,
    save_index,
)
from annkit.pq import PqIndex
from annkit.rpforest import rp_build

BUILDERS = {
    "flat-l2": lambda s: FlatL2Index.build(s),
    "flat-ip": lambda s: FlatIPIndex.build(s),
    "pq": lambda s: PqIndex.build(s, m=4, nbits=4, seed=0),
    "ivf-flat": lambda s: ivf_build(s, nlist=8, encoding="flat", seed=0),
    "ivf-pq": lambda s: ivf_build(s, nlist=8, encoding="pq", m=4, nbits=4, seed=0),
    "ivf-sq": lambda s: ivf_build(s, nlist=8, encoding="sq", seed=0),
    "lsh": lambda s: lsh_build(s, nbits=64, seed=0),
    "hnsw": lambda s: HnswIndex.build(s, HnswParams(M=8, ef_construction=24), seed=0),
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


def test_file_round_trip(tmp_path, small_set):
    index = FlatL2Index.build(small_set)
    path = tmp_path / "flat.vidx"
    save_index(index, path)
    assert path.read_bytes()[:4] == VIDX_MAGIC
    loaded = load_index(path)
    q = small_set.vectors[3]
    assert loaded.search(q, 5).neighbors == index.search(q, 5).neighbors


def test_family_tags_are_frozen():
    """Tag bytes are wire format; renumbering would silently break old files."""
    tags = {name: row.tag for name, row in FAMILIES.items() if row.tag is not None}
    assert tags == {
        "flat-l2": 0,
        "flat-ip": 1,
        "pq": 2,
        "ivf-flat": 3,
        "ivf-pq": 4,
        "ivf-sq": 5,
        "lsh": 6,
        "hnsw": 7,
        "rpforest": 8,
    }
    assert VIDX_VERSION == 1


def test_loaded_memory_bytes_tells_the_truth():
    """A freshly loaded index retains no more than 1.10 x its memory_bytes().

    Retained bytes are what tracemalloc sees load_index_bytes keep. hnsw and
    rpforest are left out: their Python link lists and tree nodes cost far
    more than the structural bytes memory_bytes() counts.
    """
    s = gen_synthetic(8, 250, 32, 0.05, seed=4)
    builders = dict(BUILDERS, pq=lambda s: PqIndex.build(s, m=4, nbits=8, seed=0))
    for family in ("flat-l2", "flat-ip", "lsh", "ivf-flat", "ivf-sq", "pq"):
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
        assert held <= 1.10 * index.memory_bytes(), (family, held, index.memory_bytes())


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


def test_ivf_metric_variants_round_trip(small_set, rng):
    """The rpforest payload stores its metric; all three reload correctly."""
    for metric in (Metric.ANGULAR, Metric.L2, Metric.MANHATTAN):
        forest = rp_build(small_set, n_trees=3, metric=metric, seed=1)
        loaded = load_index_bytes(dump_index(forest))
        assert loaded.label == forest.label
        q = rng.standard_normal(small_set.dim).astype(np.float32)
        assert loaded.search(q, 6).neighbors == forest.search(q, 6).neighbors
