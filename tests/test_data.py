"""Embedding containers, the synthetic generator, and the VEMB byte format."""

import struct
import tracemalloc

import numpy as np
import pytest

from annkit.data import (
    VEMB_MAGIC,
    VEMB_VERSION,
    EmbeddingSet,
    check_unique_ids,
    dump_vemb,
    gen_synthetic,
    load_csv,
    load_vemb,
    load_vemb_bytes,
    save_vemb,
)


# ---------------------------------------------------------------- containers


def test_set_basic_accessors():
    s = EmbeddingSet(
        ids=np.array([5, 9, 2], dtype=np.uint64),
        labels=np.array([1, 0, 1], dtype=np.uint32),
        vectors=np.arange(6, dtype=np.float32).reshape(3, 2),
    )
    assert len(s) == 3
    assert s.dim == 2
    assert s.row_of(9) == 1
    assert s.label_of(2) == 1
    np.testing.assert_array_equal(s.vector_of(5), [0.0, 1.0])
    assert 9 in s and 77 not in s
    assert np.uint64(9) in s and s.row_of(np.int8(9)) == 1
    # not ids: int() once truncated 9.5 to 9 and 2.9 to 2
    for bad in (77, 9.5, 9.0, 2.9, -0.5, True, "9", None):
        assert bad not in s
        with pytest.raises(KeyError, match="unknown record id"):
            s.row_of(bad)


def test_id_lookup_table_is_made_on_first_lookup():
    """A set that is only indexed holds no id -> row dict (about 85 B a row);
    the first row_of or `in` makes it."""
    n = 2000
    ids = np.arange(10, 10 + n, dtype=np.uint64)
    labels = np.zeros(n, dtype=np.uint32)
    vectors = np.ones((n, 4), dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = EmbeddingSet(ids, labels, vectors)  # typed inputs: no copies
        built = tracemalloc.get_traced_memory()[0] - before
        assert 11 in s
        looked_up = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built < 2_000
    assert looked_up - built > 40 * n
    assert s.row_of(10 + n - 1) == n - 1
    with pytest.raises(KeyError, match="unknown record id 5"):
        s.row_of(5)


@pytest.mark.parametrize(
    "ids, labels, field",
    [
        (np.array([-1, 2]), [0, 0], "ids"),  # once stored 18446744073709551615
        (np.array([1.5, 2.0]), [0, 0], "ids"),  # once truncated to 1
        ([2**64, 1], [0, 0], "ids"),  # once OverflowError
        ([True, False], [0, 0], "ids"),
        ([0, 1], np.array([-3, 0]), "labels"),  # once 4294967293
        ([0, 1], np.array([2**32, 0]), "labels"),  # once 0
        ([0, 1], [-3, 0], "labels"),  # once OverflowError
        ([0, 1], np.array([2**32, 0], dtype=np.uint64), "labels"),
        ([0, 1], ["1", 0], "labels"),
        (np.array([]), np.array([], np.uint32), "ids"),  # float64 by default; once StopIteration
    ],
)
def test_set_rejects_ids_and_labels_outside_their_fields(ids, labels, field):
    with pytest.raises(ValueError, match=f"^{field} must be integers in "):
        EmbeddingSet(ids, labels, np.zeros((len(labels), 3), dtype=np.float32))


def test_set_keeps_every_value_its_fields_hold():
    s = EmbeddingSet([2**64 - 1, 0], np.array([2**32 - 1, 0], dtype=np.int64),
                     np.zeros((2, 3), dtype=np.float32))
    assert s.ids.dtype == np.uint64 and s.ids.tolist() == [2**64 - 1, 0]
    assert s.labels.dtype == np.uint32 and s.labels.tolist() == [2**32 - 1, 0]
    assert len(EmbeddingSet([], [], np.zeros((0, 3), dtype=np.float32))) == 0


@pytest.mark.parametrize("ids, unique", [([5, 1, 3], True), ([1, 3, 5], True),
                                         ([5, 1, 5], False), ([1, 3, 3], False)])
def test_set_checks_ids_in_any_order(ids, unique):
    """Increasing ids take the fast path; any other order is sorted first."""
    args = (np.array(ids, dtype=np.uint64), np.zeros(3, dtype=np.uint32),
            np.zeros((3, 2), dtype=np.float32))
    if unique:
        assert len(EmbeddingSet(*args)) == 3
    else:
        with pytest.raises(ValueError, match="unique"):
            EmbeddingSet(*args)


@pytest.mark.parametrize("scale", [1, 4, 5, 1000])
def test_unordered_ids_are_checked_dense_or_sparse(scale):
    """Ids below four times their count are counted, others sorted; both
    paths accept distinct ids and find one repeat, wherever it lies."""
    rng = np.random.default_rng(scale)
    ids = rng.permutation(np.arange(500, dtype=np.uint64) * np.uint64(scale))
    check_unique_ids(ids)
    for at in (0, 1, 250, 499):
        repeated = ids.copy()
        repeated[at] = ids[(at + 7) % len(ids)]
        with pytest.raises(ValueError, match="unique"):
            check_unique_ids(repeated)


def test_set_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        EmbeddingSet(
            ids=np.array([1, 1], dtype=np.uint64),
            labels=np.zeros(2, dtype=np.uint32),
            vectors=np.zeros((2, 3), dtype=np.float32),
        )


def test_set_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        EmbeddingSet(
            ids=np.array([1, 2, 3], dtype=np.uint64),
            labels=np.zeros(2, dtype=np.uint32),
            vectors=np.zeros((3, 3), dtype=np.float32),
        )


def test_set_rejects_non_2d_vectors():
    with pytest.raises(ValueError):
        EmbeddingSet(
            ids=np.array([1], dtype=np.uint64),
            labels=np.zeros(1, dtype=np.uint32),
            vectors=np.zeros(3, dtype=np.float32),
        )


def test_normalized_rows_have_unit_norm(small_set):
    unit = small_set.normalized()
    norms = np.linalg.norm(unit.vectors.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-6)
    np.testing.assert_array_equal(unit.ids, small_set.ids)
    np.testing.assert_array_equal(unit.labels, small_set.labels)


def test_normalized_rejects_zero_rows():
    s = EmbeddingSet(
        ids=np.array([0, 1], dtype=np.uint64),
        labels=np.zeros(2, dtype=np.uint32),
        vectors=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32),
    )
    with pytest.raises(ValueError):
        s.normalized()


# ----------------------------------------------------------------- generator


def test_gen_synthetic_shapes_and_labels():
    s = gen_synthetic(n_classes=4, per_class=7, dim=5, spread=0.1, seed=2)
    assert len(s) == 28
    assert s.dim == 5
    np.testing.assert_array_equal(s.ids, np.arange(28))
    np.testing.assert_array_equal(s.labels, np.repeat(np.arange(4), 7))
    assert s.vectors.dtype == np.float32


def test_gen_synthetic_deterministic():
    a = gen_synthetic(3, 10, 6, 0.05, 11)
    b = gen_synthetic(3, 10, 6, 0.05, 11)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    c = gen_synthetic(3, 10, 6, 0.05, 12)
    assert not np.array_equal(a.vectors, c.vectors)


def test_gen_synthetic_clusters_are_tight():
    """With small noise, points sit closer to their own class mean than to others."""
    s = gen_synthetic(4, 30, 8, 0.05, 9)
    means = np.stack(
        [s.vectors.astype(np.float64)[s.labels == c].mean(axis=0) for c in range(4)]
    )
    d = np.linalg.norm(s.vectors.astype(np.float64)[:, np.newaxis, :] - means, axis=2)
    assert np.array_equal(np.argmin(d, axis=1), s.labels)


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("value", [2.5, True])
def test_gen_synthetic_counts_are_integers(at, value):
    """gen_synthetic(2.5, ...) once raised TypeError."""
    counts = [3, 4, 5]
    counts[at] = value
    name = ("n_classes", "per_class", "dim")[at]
    with pytest.raises(ValueError, match=f"{name} must be >= 1 and an integer"):
        gen_synthetic(*counts, 0.1, 0)


@pytest.mark.parametrize("seed", [-1, True, 2.5, "1"])
def test_gen_synthetic_takes_the_seed_rule(seed):
    """seed=True once generated seed 1's set, and 2.5 or "1" raised TypeError."""
    with pytest.raises(ValueError, match=r"^seed must be >= 0 and an integer, got "):
        gen_synthetic(2, 5, 4, 0.1, seed)
    assert dump_vemb(gen_synthetic(2, 5, 4, 0.1, np.int64(3))) == dump_vemb(gen_synthetic(2, 5, 4, 0.1, 3))


def test_gen_synthetic_validates_arguments():
    with pytest.raises(ValueError):
        gen_synthetic(0, 5, 4, 0.1, 0)
    with pytest.raises(ValueError):
        gen_synthetic(2, 0, 4, 0.1, 0)
    with pytest.raises(ValueError):
        gen_synthetic(2, 5, 0, 0.1, 0)


# ------------------------------------------------------------------- vemb io


def test_dump_vemb_golden_bytes():
    """The container matches independently packed little-endian bytes."""
    s = EmbeddingSet(
        ids=np.array([7, 300], dtype=np.uint64),
        labels=np.array([2, 9], dtype=np.uint32),
        vectors=np.array([[1.5, -2.0], [0.25, 8.0]], dtype=np.float32),
    )
    want = bytearray()
    want += b"VEMB"
    want += struct.pack("<BIQ", 1, 2, 2)
    want += struct.pack("<QI2f", 7, 2, 1.5, -2.0)
    want += struct.pack("<QI2f", 300, 9, 0.25, 8.0)
    assert dump_vemb(s) == bytes(want)


def test_vemb_round_trip_is_byte_identical(small_set):
    blob = dump_vemb(small_set)
    again = dump_vemb(load_vemb_bytes(blob))
    assert blob == again


def test_vemb_file_round_trip(tmp_path, small_set):
    path = tmp_path / "vectors.vemb"
    save_vemb(small_set, path)
    loaded = load_vemb(path)
    np.testing.assert_array_equal(loaded.ids, small_set.ids)
    np.testing.assert_array_equal(loaded.labels, small_set.labels)
    np.testing.assert_array_equal(loaded.vectors, small_set.vectors)


def test_vemb_rejects_bad_magic(small_set):
    blob = bytearray(dump_vemb(small_set))
    blob[:4] = b"NOPE"
    with pytest.raises(ValueError):
        load_vemb_bytes(bytes(blob))


def test_vemb_rejects_unknown_version(small_set):
    blob = bytearray(dump_vemb(small_set))
    blob[4] = VEMB_VERSION + 1
    with pytest.raises(ValueError):
        load_vemb_bytes(bytes(blob))


def test_vemb_rejects_truncated_body(small_set):
    blob = dump_vemb(small_set)
    with pytest.raises(ValueError):
        load_vemb_bytes(blob[:-3])


def test_vemb_rejects_a_short_header():
    for blob in (b"", b"VEMB", b"VEMB\x01\x02"):
        with pytest.raises(ValueError):
            load_vemb_bytes(blob)


def test_vemb_load_copies_the_records_once():
    """The acceptance-corpus VEMB loads with at most 1.5x its size traced
    (each column is copied once; a sliced record table made it 2.3x)."""
    blob = dump_vemb(gen_synthetic(n_classes=32, per_class=300, dim=64, spread=0.05, seed=7))
    tracemalloc.start()
    try:
        load_vemb_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(blob)


def test_vemb_load_owns_its_arrays(small_set):
    """A bytearray source can be zeroed, then freed, after the load."""
    blob = bytearray(dump_vemb(small_set))
    loaded = load_vemb_bytes(blob)
    blob[:] = bytes(len(blob))
    np.testing.assert_array_equal(loaded.ids, small_set.ids)
    np.testing.assert_array_equal(loaded.labels, small_set.labels)
    np.testing.assert_array_equal(loaded.vectors, small_set.vectors)
    blob.clear()  # BufferError if a view of the buffer were still alive
    assert dump_vemb(loaded) == dump_vemb(small_set)


def test_vemb_magic_constant():
    assert VEMB_MAGIC == b"VEMB"
    assert VEMB_VERSION == 1


# --------------------------------------------------------------------- csv


def test_load_csv(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(
        "id,label,f0,f1,f2\n"
        "4,1,0.5,-1.25,3.0\n"
        "9,0,2.0,0.0,-7.5\n"
    )
    s = load_csv(path)
    np.testing.assert_array_equal(s.ids, [4, 9])
    np.testing.assert_array_equal(s.labels, [1, 0])
    np.testing.assert_allclose(s.vectors, [[0.5, -1.25, 3.0], [2.0, 0.0, -7.5]])


def test_load_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ident,label,f0\n1,0,0.5\n")
    with pytest.raises(ValueError):
        load_csv(path)


@pytest.mark.parametrize("row, match", [("-1,0", "^ids .* got -1$"), (f"{2**64},0", f"^ids .* got {2**64}$"),
                                        ("0,-1", "^labels .* got -1$"),
                                        (f"0,{2**32}", f"^labels .* got {2**32}$")])
def test_load_csv_rejects_ids_and_labels_out_of_range(tmp_path, row, match):
    """An id outside uint64 or a label outside uint32 is a ValueError naming
    the field and the value, not the OverflowError of the array cast."""
    path = tmp_path / "hostile.csv"
    path.write_text(f"id,label,f0\n5,1,0.5\n{row},0.25\n")
    with pytest.raises(ValueError, match=match):
        load_csv(path)


def test_csv_and_vemb_agree(tmp_path, tiny_set):
    lines = ["id,label," + ",".join(f"f{i}" for i in range(tiny_set.dim))]
    for rid, label, vector in zip(tiny_set.ids.tolist(), tiny_set.labels.tolist(), tiny_set.vectors):
        lines.append(f"{rid},{label}," + ",".join(repr(float(x)) for x in vector))
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(lines) + "\n")
    s = load_csv(path)
    np.testing.assert_array_equal(s.ids, tiny_set.ids)
    np.testing.assert_array_equal(s.vectors, tiny_set.vectors)
