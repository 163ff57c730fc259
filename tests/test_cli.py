"""Command-line entry points, driven in-process through main()."""

import json

import numpy as np
import pytest

from annkit import gen_synthetic, ground_truth, load_vemb, save_vemb, search_excluding
from annkit.cli import main
from annkit.families import ALL_FAMILIES
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
    assert rows[0]["recall_at_n"] == 1.0


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
    assert main(["bench", "--data", str(data_path), "--family", "rpforest-angular",
                 "--trees", "4", "--queries", "20", "--out", str(out_path)]) == 0
    rows = json.loads(out_path.read_text())
    assert rows[0]["config"]["index"]["n_trees"] == 4


def test_bench_metric_flag_only_reaches_rpforest(tmp_path, data_path, capsys):
    """The forest's metric is in its family name, so `build` and `bench` take
    no `--metric` (only `truth` does) and no bare `rpforest` family; the
    other families keep their own metric."""
    out_path = tmp_path / "report.json"
    assert main(["bench", "--data", str(data_path), "--family", "rpforest-manhattan,hnsw",
                 "--queries", "40", "--out", str(out_path)]) == 0
    rows = json.loads(out_path.read_text())
    assert [(r["family"], r["config"]["metric"]) for r in rows] == [
        ("rpforest-manhattan", "manhattan"), ("hnsw", "l2")]
    capsys.readouterr()
    for command in ("build", "bench"):
        assert main([command, "--data", str(data_path), "--family", "rpforest-l2",
                     "--metric", "l2", "--out", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: --metric" in capsys.readouterr().err
    assert main(["build", "--data", str(data_path), "--family", "rpforest",
                 "--out", str(tmp_path / "x")]) == 2
    assert "invalid choice: 'rpforest'" in capsys.readouterr().err
    assert main(["bench", "--data", str(data_path), "--family", "rpforest"]) == 1
    assert "unknown index family 'rpforest'" in capsys.readouterr().err
    assert main(["truth", "--data", str(data_path), "--id", "0", "--k", "2",
                 "--metric", "manhattan"]) == 0


def test_build_respects_knobs(tmp_path, data_path):
    index_path = tmp_path / "lsh.vidx"
    assert main(["build", "--data", str(data_path), "--family", "lsh",
                 "--lsh-bits", "32", "--out", str(index_path)]) == 0
    assert load_index(index_path).nbits == 32


def test_build_refuses_a_knob_vidx_cannot_store(tmp_path, data_path, capsys):
    """The forest's search_k is a query-time knob: `build` and `bench` take no
    --search-k (argparse exits 2) and write nothing; `search` takes it."""
    index_path = tmp_path / "forest.vidx"
    assert main(["build", "--data", str(data_path), "--family", "rpforest-angular",
                 "--search-k", "2", "--out", str(index_path)]) == 2
    assert "unrecognized arguments: --search-k 2" in capsys.readouterr().err
    assert not index_path.exists()
    report_path = tmp_path / "report.json"
    assert main(["bench", "--data", str(data_path), "--family", "rpforest-angular",
                 "--search-k", "2", "--out", str(report_path)]) == 2
    assert "unrecognized arguments: --search-k 2" in capsys.readouterr().err
    assert not report_path.exists()
    assert main(["build", "--data", str(data_path), "--family", "rpforest-angular",
                 "--trees", "3", "--out", str(index_path)]) == 0
    assert load_index(index_path).n_trees == 3


@pytest.mark.parametrize(
    "family, build_flags, search_flags, knobs, k",
    [
        ("rpforest-angular", ["--trees", "2", "--leaf-size", "4"], ["--search-k", "1"],
         {"search_k": 1}, 10),
        ("ivf-flat", ["--nlist", "8", "--nprobe", "8"], ["--nprobe", "1"], {"nprobe": 1}, 30),
        ("lsh", [], ["--no-rerank"], {"rerank": False}, 10),
        ("lsh", ["--no-rerank"], ["--rerank"], {"rerank": True}, 10),
    ],
)
def test_search_passes_query_time_knobs(tmp_path, data_path, family, build_flags,
                                        search_flags, knobs, k):
    """Each knob reaches `index.search`: the CLI answers what the library
    answers with that knob, which here differs from the stored default."""
    index_path = tmp_path / "index.vidx"
    assert main(["build", "--data", str(data_path), "--family", family, *build_flags,
                 "--out", str(index_path)]) == 0
    query = load_vemb(data_path).vectors[3]
    vector = ",".join(str(x) for x in query)
    out_path = tmp_path / "hits.json"
    assert main(["search", "--index", str(index_path), f"--vector={vector}", "--k", str(k),
                 *search_flags, "--out", str(out_path)]) == 0
    index = load_index(index_path)
    want = [[nid, score] for nid, score in index.search(query, k, **knobs).neighbors]
    assert json.loads(out_path.read_text()) == want
    assert want != [[nid, score] for nid, score in index.search(query, k).neighbors]


def test_search_passes_ef_search_to_hnsw(tmp_path, data_path, capsys):
    index_path = tmp_path / "hnsw.vidx"
    assert main(["build", "--data", str(data_path), "--family", "hnsw",
                 "--out", str(index_path)]) == 0
    capsys.readouterr()
    base = ["search", "--index", str(index_path), "--data", str(data_path), "--id", "7"]
    # --id searches k + 1; the pool is max(ef_search, k + 1), so ef_search = k works
    assert main([*base, "--k", "4", "--ef-search", "4"]) == 0
    index, query = load_index(index_path), load_vemb(data_path).vector_of(7)
    want = search_excluding(index, query, 4, 7, ef_search=4)
    assert len(want) == 4
    assert capsys.readouterr().out.splitlines() == [
        f"{nid}\t{score:.6f}" for nid, score in want.neighbors]


def test_search_by_id_passes_knobs_through(tmp_path, data_path):
    index_path = tmp_path / "forest.vidx"
    assert main(["build", "--data", str(data_path), "--family", "rpforest-angular",
                 "--trees", "2", "--leaf-size", "4", "--out", str(index_path)]) == 0
    out_path = tmp_path / "hits.json"
    assert main(["search", "--index", str(index_path), "--data", str(data_path), "--id", "7",
                 "--k", "10", "--search-k", "1", "--out", str(out_path)]) == 0
    index, query = load_index(index_path), load_vemb(data_path).vector_of(7)
    want = search_excluding(index, query, 10, 7, search_k=1)
    assert json.loads(out_path.read_text()) == [[nid, score] for nid, score in want.neighbors]
    assert len(want) < len(search_excluding(index, query, 10, 7))


@pytest.mark.parametrize(
    "family, flags, named",
    [
        ("flat-l2", ["--nprobe", "2"], "--nprobe"),
        ("rpforest-angular", ["--ef-search", "9", "--rerank"], "--ef-search, --rerank"),
        ("ivf-flat", ["--search-k", "3"], "--search-k"),
        ("hnsw", ["--no-rerank"], "--rerank"),
    ],
)
def test_search_refuses_a_knob_the_family_lacks(tmp_path, data_path, capsys, family,
                                                flags, named):
    """A knob the stored family's `search` does not take fails with `error:`
    and exit 1, not a TypeError, in both query forms."""
    index_path = tmp_path / "index.vidx"
    assert main(["build", "--data", str(data_path), "--family", family,
                 "--out", str(index_path)]) == 0
    capsys.readouterr()
    for query in (["--vector", "0,0,0,0,0,0,0,1"], ["--data", str(data_path), "--id", "7"]):
        assert main(["search", "--index", str(index_path), *query, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {family} search takes no {named}\n"


@pytest.mark.parametrize(
    "command, families, flags, named",
    [
        ("build", "flat-l2", ["--nlist", "5", "--trees", "3"], "--nlist, --trees"),
        ("build", "ivf-flat", ["--nlist", "5", "--m", "2"], "--m"),
        ("build", "hnsw", ["--no-rerank"], "--rerank"),
        ("bench", "flat-l2,lsh", ["--nprobe", "2", "--lsh-bits", "8"], "--nprobe"),
    ],
)
def test_build_and_bench_refuse_a_knob_no_family_takes(tmp_path, data_path, capsys,
                                                       command, families, flags, named):
    """A knob flag that no requested family takes fails with `error:` and exit 1
    and nothing is written; it was once dropped silently."""
    out_path = tmp_path / "out"
    assert main([command, "--data", str(data_path), "--family", families, *flags,
                 "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} --family {families} takes no {named}\n"
    assert not out_path.exists()


def test_bench_all_sends_a_knob_only_to_the_families_that_take_it(tmp_path, data_path):
    out_path = tmp_path / "report.json"
    assert main(["bench", "--data", str(data_path), "--family", "all", "--nlist", "3",
                 "--nbits", "4", "--queries", "10", "--out", str(out_path)]) == 0
    rows = json.loads(out_path.read_text())
    nlists = {r["family"]: r["config"]["index"].get("nlist") for r in rows}
    assert nlists == {fam: 3 if fam.startswith("ivf-") else None for fam in ALL_FAMILIES}


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


def test_search_by_id_rejects_k_zero(tmp_path, data_path, capsys):
    """`--id ... --k 0` once exited 0 and printed nothing, while the same k
    with `--vector` exited 1."""
    index_path = tmp_path / "flat.vidx"
    main(["build", "--data", str(data_path), "--family", "flat-l2",
          "--out", str(index_path)])
    capsys.readouterr()
    assert main(["search", "--index", str(index_path), "--data", str(data_path),
                 "--id", "7", "--k", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k must be" in captured.err


def _assert_one_error_line(capsys, match):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and match in err
    assert "Traceback" not in err


def test_gen_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "never.vemb"
    assert main(["gen", "--classes", "2", "--per-class", "5", "--dim", "4", "--seed", "-1",
                 "--out", str(out)]) == 1
    _assert_one_error_line(capsys, "seed must be >= 0 and an integer, got -1")
    assert not out.exists()


def test_truth_rejects_an_id_no_set_holds(data_path, capsys):
    """`truth --id -1` once died in the uint64 cast with an OverflowError."""
    assert main(["truth", "--data", str(data_path), "--id", "-1"]) == 1
    _assert_one_error_line(capsys, "unknown record id -1")


@pytest.mark.parametrize("row", ["-1,0", f"{2**64},0", "3,-3"])
def test_build_rejects_a_csv_id_or_label_out_of_range(tmp_path, capsys, row):
    csv_path = tmp_path / "hostile.csv"
    csv_path.write_text(f"id,label,f0,f1\n0,0,0.0,0.0\n{row},0.1,0.0\n")
    index_path = tmp_path / "flat.vidx"
    assert main(["build", "--data", str(csv_path), "--family", "flat-l2",
                 "--out", str(index_path)]) == 1
    expected = {"-1,0": "ids must be integers in [0, 2**64), got -1",
                f"{2**64},0": f"ids must be integers in [0, 2**64), got {2**64}",
                "3,-3": "labels must be integers in [0, 2**32), got -3"}
    _assert_one_error_line(capsys, expected[row])
    assert not index_path.exists()


@pytest.mark.parametrize("family, flags", [("hnsw", ["--ef-search", str(2**32)]),
                                           ("rpforest-angular", ["--leaf-size", str(2**32)])])
def test_build_rejects_a_knob_too_large_for_its_field(tmp_path, data_path, capsys,
                                                      family, flags):
    """The build refuses the knob before any work and nothing is written (the
    index once built, and only its dump refused the knob)."""
    index_path = tmp_path / "big.vidx"
    assert main(["build", "--data", str(data_path), "--family", family, *flags,
                 "--out", str(index_path)]) == 1
    _assert_one_error_line(capsys, f"must be in 1..{2**32 - 1} and an integer, got {2**32}")
    assert not index_path.exists()


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
