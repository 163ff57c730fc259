"""tools/identity.py: the per-family digest table and its comparison."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from annkit.families import FAMILIES, build_index
from annkit.flat import FlatL2Index

_PATH = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _row(tag: str) -> dict:
    return {field: f"{tag}-{field}" for field in identity.FIELDS}


def test_differences_name_each_changed_field_and_missing_row():
    parent = {"flat-l2": _row("a"), "hnsw": _row("a"), "lsh": _row("a")}
    change = {"flat-l2": _row("a"), "pq": _row("a"),
              "hnsw": {**_row("a"), "loaded_memory_bytes": 7, "knobs": "build(M) search()"}}
    assert identity.differences(parent, parent) == []
    assert identity.differences(parent, change) == [
        "hnsw: loaded_memory_bytes a-loaded_memory_bytes -> 7",
        "hnsw: knobs a-knobs -> build(M) search()",
        "lsh: only in the parent",
        "pq: only in the change",
    ]


def test_table_covers_every_family_and_repeats_exactly(small_set):
    """Two tables of one tree are equal, every family has a row carrying a
    protocol report digest, each loaded index holds and answers what the
    built one does, and the one family with `insert`, hnsw, grows its load to
    the bytes it grows the built graph to."""
    rows = np.arange(0, len(small_set), 50)
    first = identity.table(small_set, rows, n_random=2)
    assert list(first) == list(FAMILIES)
    assert identity.differences(first, identity.table(small_set, rows, n_random=2)) == []
    for r in first.values():
        assert r["built_memory_bytes"] == r["loaded_memory_bytes"]
        assert r["built_results_sha256"] == r["loaded_results_sha256"]
        assert len(r["report_sha256"]) == 64
    for name, r in first.items():
        grown = (r["built_grown_sha256"], r["loaded_grown_sha256"])
        if name == "hnsw":
            assert len(grown[0]) == 64 and grown[0] == grown[1]
            assert grown[0] != r["vidx_sha256"]
        else:
            assert grown == ("-", "-")
    assert first["flat-l2"]["knobs"] == "build() search()"
    assert first["hnsw"]["knobs"] == "build(M, ef_construction, ef_search) search(ef_search, visited_out)"
    assert first["ivf-pq"]["knobs"] == "build(m, nbits, nlist, nprobe) search(nprobe)"
    assert first["lsh"]["knobs"] == "build(nbits, rerank) search(rerank)"
    for metric in ("angular", "l2", "manhattan"):
        assert first[f"rpforest-{metric}"]["knobs"] == "build(leaf_size, n_trees) search(search_k)"
    for name, r in first.items():
        assert json.loads(r["config"]) == build_index(small_set, name, seed=0).config()
    assert first["flat-l2"]["config"] == "{}"
    assert first["hnsw"]["config"] == '{"M": 32, "ef_construction": 40, "ef_search": 64}'
    assert '{"M": 32, "ef_construction": 40, "ef_search": 64}' in identity.show(first)


def test_a_config_change_moves_the_config_field_alone(small_set, monkeypatch):
    """The report digest leaves `config()` out, so a change to what it
    returns differs in the `config` field only."""
    rows = np.arange(0, len(small_set), 50)
    before = identity.table(small_set, rows, n_random=2)
    monkeypatch.setattr(FlatL2Index, "config", lambda self: {"metric": "l2"})
    assert identity.differences(before, identity.table(small_set, rows, n_random=2)) == [
        'flat-l2: config {} -> {"metric": "l2"}'
    ]


def test_the_oracle_row_digests_exact_search_and_ground_truth(small_set):
    """The exact-oracle row repeats exactly, fills only its three digests,
    tells `exclude` apart and changes with the queries."""
    rows = np.arange(0, len(small_set), 50)
    row = identity.oracle_row(small_set, rows, n_random=2)
    assert list(row) == list(identity.FIELDS)
    filled = {field for field, value in row.items() if value != "-"}
    assert filled == {"built_results_sha256", "knob_results_sha256", "report_sha256"}
    assert all(len(row[field]) == 64 for field in filled)
    assert row["built_results_sha256"] != row["knob_results_sha256"]
    assert identity.oracle_row(small_set, rows, n_random=2) == row
    fewer = identity.oracle_row(small_set, rows[:-1], n_random=2)
    assert all(fewer[field] != row[field] for field in filled)
    assert "-/-" in identity.show({"exact-oracle": row})


def test_compare_prints_both_code_sizes_and_exits_on_the_rows_alone(capsys):
    rows = {"flat-l2": _row("a"), "pq": _row("a")}
    sizes = {
        "parent": {"src_lines": 3772, "src_code_lines": 2465, "all_names": 35,
                   "module_code_lines": {"a.py": 1000, "b.py": 1465, "gone.py": 20}},
        "change": {"src_lines": 3741, "src_code_lines": 2445, "all_names": 35,
                   "module_code_lines": {"a.py": 1000, "b.py": 1440, "new.py": 5}},
    }
    line = "code: src lines 3,772 -> 3,741, code lines 2,465 -> 2,445, __all__ 35 -> 35"
    modules = "code lines by module: b.py 1,465 -> 1,440, gone.py 20 -> 0, new.py 0 -> 5"
    assert identity.compare("abc", rows, rows, sizes) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ["parent abc: all 2 rows identical", line, modules]
    same = {side: sizes["parent"] for side in sizes}
    assert identity.compare("abc", rows, {**rows, "pq": _row("b")}, same) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "code: src lines 3,772 -> 3,772, code lines 2,465 -> 2,465, __all__ 35 -> 35"
    )
