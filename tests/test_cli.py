"""Command-line entry points, driven in-process through main()."""

import json

import numpy as np
import pytest

from annkit import gen_synthetic, ground_truth, load_vemb, save_vemb
from annkit.cli import main
from annkit.persist import load_index


@pytest.fixture()
def data_path(tmp_path):
    path = tmp_path / "demo.vemb"
    save_vemb(gen_synthetic(4, 25, 8, 0.05, 2), path)
    return path


def test_gen_writes_deterministic_files(tmp_path):
    a = tmp_path / "a.vemb"
    b = tmp_path / "b.vemb"
    args = ["--classes", "3", "--per-class", "10", "--dim", "6", "--seed", "5"]
    assert main(["gen", *args, "--out", str(a)]) == 0
    assert main(["gen", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    s = load_vemb(a)
    assert len(s) == 30 and s.dim == 6


def test_build_then_search_matches_truth(tmp_path, data_path):
    index_path = tmp_path / "flat.vidx"
    assert main(["build", "--data", str(data_path), "--family", "flat-l2",
                 "--out", str(index_path)]) == 0
    out_path = tmp_path / "hits.json"
    assert main(["search", "--index", str(index_path), "--data", str(data_path),
                 "--id", "7", "--k", "3", "--out", str(out_path)]) == 0
    hits = json.loads(out_path.read_text())
    s = load_vemb(data_path)
    want = ground_truth(s, np.array([7]), 3)[7]
    assert [nid for nid, _ in hits] == want
    assert 7 not in [nid for nid, _ in hits]


def test_search_by_raw_vector(tmp_path, data_path, capsys):
    index_path = tmp_path / "flat.vidx"
    main(["build", "--data", str(data_path), "--family", "flat-l2",
          "--out", str(index_path)])
    capsys.readouterr()  # drop the build notice
    vector = ",".join(str(x) for x in load_vemb(data_path).vectors[0])
    assert main(["search", "--index", str(index_path), f"--vector={vector}",
                 "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    first_id, first_score = lines[0].split("\t")
    assert int(first_id) == 0  # the stored vector itself
    assert float(first_score) == pytest.approx(0.0, abs=1e-6)


def test_truth_command_matches_library(tmp_path, data_path):
    out_path = tmp_path / "truth.json"
    assert main(["truth", "--data", str(data_path), "--k", "4",
                 "--id", "3", "--id", "11", "--out", str(out_path)]) == 0
    got = json.loads(out_path.read_text())
    s = load_vemb(data_path)
    want = ground_truth(s, np.array([3, 11]), 4)
    assert got == {str(k): v for k, v in want.items()}


def test_bench_json_report(tmp_path, data_path):
    out_path = tmp_path / "report.json"
    assert main(["bench", "--data", str(data_path), "--family", "flat-l2",
                 "--queries", "40", "--out", str(out_path)]) == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 1
    assert rows[0]["family"] == "flat-l2"
    assert rows[0]["recall_at_5"] == 1.0


def test_bench_csv_report(tmp_path, data_path):
    out_path = tmp_path / "report.csv"
    assert main(["bench", "--data", str(data_path), "--family", "flat-l2,lsh",
                 "--queries", "30", "--format", "csv",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 3


def test_bench_prints_table_without_out(data_path, capsys):
    assert main(["bench", "--data", str(data_path), "--family", "flat-l2",
                 "--queries", "25"]) == 0
    out = capsys.readouterr().out
    assert "flat-l2" in out
    assert "recall@5" in out
    assert main(["bench", "--data", str(data_path), "--family", "flat-l2",
                 "--queries", "25", "--recall-n", "10"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "recall@10" in header and "recall@5" not in header


def test_bench_knobs_reach_index(tmp_path, data_path):
    out_path = tmp_path / "report.json"
    assert main(["bench", "--data", str(data_path), "--family", "rpforest",
                 "--trees", "4", "--queries", "20", "--out", str(out_path)]) == 0
    rows = json.loads(out_path.read_text())
    assert rows[0]["config"]["index"]["n_trees"] == 4


def test_bench_metric_flag_only_reaches_rpforest(tmp_path, data_path):
    """`--metric` sets the rpforest knob; other families keep their own metric."""
    rows = {}
    for extra in ([], ["--metric", "manhattan"]):
        out_path = tmp_path / "report.json"
        assert main(["bench", "--data", str(data_path), "--family",
                     "hnsw,lsh,pq,ivf-sq,rpforest", "--nbits", "4", "--queries", "40",
                     "--out", str(out_path), *extra]) == 0
        rows[bool(extra)] = json.loads(out_path.read_text())
    for plain, flagged in zip(rows[False], rows[True]):
        if plain["family"].startswith("rpforest"):
            assert flagged["config"]["metric"] == "manhattan"
            assert flagged["family"] == "rpforest-manhattan"
            continue
        assert plain["config"]["metric"] == flagged["config"]["metric"] == "l2"
        assert flagged["recall_at_5"] == plain["recall_at_5"]


def test_build_respects_knobs(tmp_path, data_path):
    index_path = tmp_path / "lsh.vidx"
    assert main(["build", "--data", str(data_path), "--family", "lsh",
                 "--lsh-bits", "32", "--out", str(index_path)]) == 0
    assert load_index(index_path).nbits == 32


def test_unknown_subcommand_fails():
    assert main(["frobnicate"]) != 0


def test_missing_data_file_fails(tmp_path):
    assert main(["build", "--data", str(tmp_path / "nope.vemb"),
                 "--family", "flat-l2", "--out", str(tmp_path / "x.vidx")]) == 1


def test_search_requires_exactly_one_query_form(tmp_path, data_path):
    index_path = tmp_path / "flat.vidx"
    main(["build", "--data", str(data_path), "--family", "flat-l2",
          "--out", str(index_path)])
    assert main(["search", "--index", str(index_path)]) == 1
    assert main(["search", "--index", str(index_path), "--id", "3",
                 "--vector", "1,2", "--data", str(data_path)]) == 1


def test_csv_input_accepted(tmp_path):
    csv_path = tmp_path / "demo.csv"
    csv_path.write_text(
        "id,label,f0,f1\n0,0,0.0,0.0\n1,0,0.1,0.0\n2,1,5.0,5.0\n3,1,5.1,5.0\n"
    )
    index_path = tmp_path / "flat.vidx"
    assert main(["build", "--data", str(csv_path), "--family", "flat-l2",
                 "--out", str(index_path)]) == 0
    assert main(["search", "--index", str(index_path), "--vector", "5.0,5.0",
                 "--k", "1", "--out", str(tmp_path / "h.json")]) == 0
    hits = json.loads((tmp_path / "h.json").read_text())
    assert hits[0][0] == 2
