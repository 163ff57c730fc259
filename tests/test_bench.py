"""Measurement protocol: sampling, exclusion, determinism, report formats."""

import dataclasses
import json

import numpy as np
import pytest

from annkit.bench import (
    BenchReport,
    ProtocolConfig,
    build_index,
    read_report,
    run_benchmark,
    run_protocol,
    sample_query_rows,
    search_excluding,
    write_report,
)
from annkit.data import gen_synthetic
from annkit.distances import Metric
from annkit.families import ALL_FAMILIES, FAMILIES
from annkit.flat import FlatL2Index, ground_truth


@pytest.fixture(scope="module")
def flat(small_set):
    return FlatL2Index.build(small_set)


def protocol(n_queries=60, **kw):
    return ProtocolConfig(n_queries=n_queries, **kw)


def test_sample_query_rows_properties():
    rows = sample_query_rows(100, 30, seed=4)
    assert len(rows) == 30
    assert len(set(rows.tolist())) == 30
    assert rows.min() >= 0 and rows.max() < 100
    np.testing.assert_array_equal(rows, sample_query_rows(100, 30, seed=4))
    assert not np.array_equal(rows, sample_query_rows(100, 30, seed=5))


def test_search_excluding_never_returns_query(flat, small_set):
    for row in (0, 17, 99):
        qid = int(small_set.ids[row])
        res = search_excluding(flat, small_set.vectors[row], 10, qid)
        assert qid not in res.ids
        assert len(res) == 10


def test_flat_protocol_recall_is_one(flat, small_set):
    report = run_protocol(flat, small_set, protocol())
    assert report.recall_at_5 == 1.0
    assert report.family == "flat-l2"
    assert 0.0 <= report.f1 <= 1.0
    assert report.precision_at_k == pytest.approx(1.0, abs=0.05)
    assert report.avg_query_time_us > 0
    assert report.qps > 0


def test_protocol_accepts_precomputed_truth(flat, small_set):
    cfg = protocol()
    rows = sample_query_rows(len(small_set), cfg.n_queries, cfg.seed)
    truth = ground_truth(small_set, small_set.ids[rows], cfg.recall_n)
    a = run_protocol(flat, small_set, cfg, truth=truth)
    b = run_protocol(flat, small_set, cfg)
    assert a.recall_at_5 == b.recall_at_5
    assert a.precision == b.precision


def test_protocol_deterministic_except_timing(flat, small_set):
    cfg = protocol()
    a = run_protocol(flat, small_set, cfg).to_dict()
    b = run_protocol(flat, small_set, cfg).to_dict()
    for field in BenchReport.TIMING_FIELDS:
        a.pop(field)
        b.pop(field)
    assert a == b


def test_qps_matches_avg_query_time(flat, small_set):
    report = run_protocol(flat, small_set, protocol())
    implied = 1e6 / report.avg_query_time_us
    assert report.qps == pytest.approx(implied, rel=0.01)


def test_protocol_rejects_oversized_query_count(flat, small_set):
    with pytest.raises(ValueError):
        run_protocol(flat, small_set, ProtocolConfig(n_queries=len(small_set) + 1))


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n_queries=0)
    with pytest.raises(ValueError):
        ProtocolConfig(k=0)
    with pytest.raises(ValueError):
        ProtocolConfig(recall_n=0)


def test_config_echo_includes_index_knobs(small_set):
    index = build_index(small_set, "lsh", seed=0, nbits=32)
    report = run_protocol(index, small_set, protocol())
    assert report.config["index"]["nbits"] == 32
    assert report.config["n_queries"] == 60
    assert report.config["metric"] == "l2"


def test_build_index_families(small_set):
    for family in FAMILIES:
        index = build_index(small_set, family, seed=0)
        assert index.dim == small_set.dim
    assert set(ALL_FAMILIES) < set(FAMILIES)


def test_build_index_rejects_unknown(small_set):
    with pytest.raises(ValueError):
        build_index(small_set, "kd-tree")
    foreign = [
        ("hnsw", "bogus_knob"),
        ("ivf-flat", "m"),  # ivf-pq takes m; ivf-flat once ignored it silently
        ("flat-l2", "nlist"),
        ("pq", "nprobe"),
        ("lsh", "M"),
        ("rpforest-l2", "metric"),  # the row fixes its metric
    ]
    for family, knob in foreign:
        with pytest.raises(ValueError):
            build_index(small_set, family, **{knob: 3})


def test_build_index_routes_hnsw_knobs(small_set):
    index = build_index(small_set, "hnsw", seed=0, M=8, ef_construction=24)
    assert index.config()["M"] == 8
    assert index.config()["ef_construction"] == 24


def test_family_metric_mapping(small_set):
    def metric(family, **knobs):
        return build_index(small_set, family, seed=0, **knobs).metric

    assert metric("flat-l2") is Metric.L2
    assert metric("flat-ip") is Metric.INNER_PRODUCT
    assert metric("rpforest-angular") is Metric.ANGULAR
    assert metric("rpforest-manhattan") is Metric.MANHATTAN
    assert metric("rpforest") is Metric.ANGULAR  # the build default
    assert metric("rpforest", metric="l2") is Metric.L2
    assert metric("hnsw", M=4, ef_construction=8) is Metric.L2
    for family in ("lsh", "ivf-sq", "pq"):
        assert metric(family) is Metric.L2


def test_run_benchmark_scores_empty_results():
    """A singleton inverted list leaves some queries with no neighbor at all."""
    s = gen_synthetic(4, 50, 8, 0.3, seed=1)
    cfg = protocol(n_queries=200)
    (report,) = run_benchmark(s, ["ivf-flat"], cfg)
    index = build_index(s, "ivf-flat", seed=0)
    rows = sample_query_rows(len(s), cfg.n_queries, cfg.seed)
    empty = [r for r in rows if not search_excluding(index, s.vectors[r], cfg.k, int(s.ids[r]))]
    assert empty, "the repro no longer produces an empty result"
    assert 0.0 < report.precision_at_k < 1.0
    assert report.accuracy <= 1.0 - len(empty) / len(rows)
    assert report.recall == report.accuracy  # an empty result is a miss
    assert report.precision >= report.accuracy  # and a false positive for no class


def test_run_benchmark_orders_and_labels(small_set):
    reports = run_benchmark(small_set, ["flat-l2", "lsh"], protocol())
    assert [r.family for r in reports] == ["flat-l2", "lsh"]
    assert reports[0].recall_at_5 == 1.0
    assert reports[0].indexing_time_ms >= 0
    assert reports[1].index_size_mb > 0


def test_run_benchmark_applies_param_overrides(small_set):
    cfg = protocol(params={"lsh": {"nbits": 16}})
    (report,) = run_benchmark(small_set, ["lsh"], cfg)
    assert report.config["index"]["nbits"] == 16


def test_report_field_order_matches_dataclass():
    names = [f.name for f in dataclasses.fields(BenchReport)]
    assert names == [
        "family",
        "memory_estimate_mb",
        "precision",
        "recall",
        "f1",
        "recall_at_5",
        "index_size_mb",
        "indexing_time_ms",
        "avg_query_time_us",
        "qps",
        "accuracy",
        "precision_at_k",
        "macro_precision",
        "macro_recall",
        "macro_f1",
        "config",
    ]


def test_write_report_json_round_trip(tmp_path, flat, small_set):
    report = run_protocol(flat, small_set, protocol())
    path = tmp_path / "report.json"
    write_report([report], path, fmt="json")
    rows = read_report(path)
    assert rows == [report.to_dict()]
    # writing what was read back produces identical bytes
    blob = path.read_bytes()
    write_report([report], path, fmt="json")
    assert path.read_bytes() == blob


def test_write_report_csv_header(tmp_path, flat, small_set):
    report = run_protocol(flat, small_set, protocol())
    path = tmp_path / "report.csv"
    write_report([report], path, fmt="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "family,memory_estimate_mb,precision,recall,f1,recall_at_5,"
        "index_size_mb,indexing_time_ms,avg_query_time_us,qps,accuracy,"
        "precision_at_k,macro_precision,macro_recall,macro_f1,config"
    )
    assert len(lines) == 2
    assert lines[1].startswith("flat-l2,")


def test_write_report_rejects_unknown_format(tmp_path, flat, small_set):
    report = run_protocol(flat, small_set, protocol())
    with pytest.raises(ValueError):
        write_report([report], tmp_path / "r.xml", fmt="xml")


def test_all_families_spelling():
    assert ALL_FAMILIES == (
        "flat-l2",
        "flat-ip",
        "hnsw",
        "pq",
        "ivf-sq",
        "ivf-pq",
        "lsh",
        "rpforest-angular",
        "rpforest-l2",
        "rpforest-manhattan",
    )
