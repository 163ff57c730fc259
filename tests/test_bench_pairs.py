"""tools/bench_pairs.py: the pair summary and its claim rule, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(load_ms: float, qps: float, raw_load_ms: float | None = None) -> dict:
    extras = {} if raw_load_ms is None else {"raw_load_ms": raw_load_ms}
    family = {
        "build_s": 2.0,
        "query_p50_us": 100.0,
        "load_ms": raw_load_ms or load_ms,
        "resident_bytes": 1000,
    }
    return {
        "metrics": {"load_ms": load_ms, "qps": qps},
        "extras": extras,
        "families": {"hnsw": family},
    }


def _pairs(parent: list[float], change: list[float], qps=(100.0, 100.0)) -> list[dict]:
    return [
        {"parent": _run(p, qps[0], p + 1), "change": _run(c, qps[1], c + 1)}
        for p, c in zip(parent, change)
    ]


BETTER = {"load_ms": "lower", "qps": "higher", "raw_load_ms": "lower"}
PARENT = [60.0, 58.0, 61.0, 59.0, 62.0, 60.5, 59.5, 61.5, 58.5, 60.0]


def test_a_clear_win_meets_the_claim_rule():
    table = bench_pairs.summarise(_pairs(PARENT, [p / 5 for p in PARENT]), BETTER)
    row = table["load_ms"]
    assert row["pairs"] == 10 and row["change_wins"] == 10 and row["equal_pairs"] == 0
    assert row["parent"]["median"] == pytest.approx(60.0)
    assert row["change_over_parent"] == pytest.approx(0.2)
    assert row["parent_iqr"] == pytest.approx(60.875 - 59.125)  # inclusive quartiles
    assert row["claim_rule_met"]
    assert table["raw_load_ms"]["claim_rule_met"]  # read from the extras
    assert not table["qps"]["claim_rule_met"]  # every pair tied
    assert table["qps"]["equal_pairs"] == 10 and table["qps"]["change_wins"] == 0


def test_ties_are_no_wins():
    change = [p / 5 for p in PARENT]
    change[0] = PARENT[0]
    assert bench_pairs.summarise(_pairs(PARENT, change), BETTER)["load_ms"]["claim_rule_met"]
    change[1] = PARENT[1]  # 8 wins and 2 ties in 10 pairs
    row = bench_pairs.summarise(_pairs(PARENT, change), BETTER)["load_ms"]
    assert (row["change_wins"], row["equal_pairs"]) == (8, 2)
    assert not row["claim_rule_met"]


def test_a_gap_inside_the_parent_iqr_is_no_claim():
    row = bench_pairs.summarise(_pairs(PARENT, [p - 0.5 for p in PARENT]), BETTER)["load_ms"]
    assert row["change_wins"] == 10
    assert not row["claim_rule_met"]


def test_too_few_pairs_are_no_claim():
    row = bench_pairs.summarise(_pairs(PARENT[:5], [1.0] * 5), BETTER)["load_ms"]
    assert row["change_wins"] == 5
    assert not row["claim_rule_met"]


def test_higher_is_better_counts_the_other_way():
    pairs = _pairs(PARENT, PARENT, qps=(100.0, 300.0))
    for i, pair in enumerate(pairs):
        pair["parent"]["metrics"]["qps"] = 100.0 + i  # an IQR of 4.5
    row = bench_pairs.summarise(pairs, BETTER)["qps"]
    assert row["change_wins"] == 10 and row["claim_rule_met"]
    assert row["change_over_parent"] == pytest.approx(300.0 / 104.5)


def test_a_metric_one_side_lacks_is_skipped():
    pairs = _pairs(PARENT, PARENT)
    del pairs[0]["change"]["metrics"]["load_ms"]
    assert bench_pairs.summarise(pairs, BETTER)["load_ms"]["pairs"] == 9
    for pair in pairs:
        pair["parent"]["metrics"].pop("load_ms")
    assert "load_ms" not in bench_pairs.summarise(pairs, BETTER)


def test_families_compare_raw_load_and_resident_bytes():
    table = bench_pairs.summarise_families(_pairs(PARENT, [p / 5 for p in PARENT]))
    assert set(table["hnsw"]) == set(bench_pairs.FAMILY_METRICS)
    load = table["hnsw"]["load_ms"]
    assert load["change_wins"] == 10 and load["claim_rule_met"]
    assert load["parent"]["median"] == pytest.approx(61.0)  # the raw figure
    resident = table["hnsw"]["resident_bytes"]
    assert resident["equal_pairs"] == 10 and not resident["claim_rule_met"]


def test_families_compare_each_family_build():
    pairs = _pairs(PARENT, PARENT)
    for i, pair in enumerate(pairs):
        pair["parent"]["families"]["pq"] = {**pair["parent"]["families"]["hnsw"], "build_s": 5.0 + i / 10}
        pair["change"]["families"]["pq"] = {**pair["change"]["families"]["hnsw"], "build_s": 4.0 + i / 10}
    table = bench_pairs.summarise_families(pairs)
    pq = table["pq"]["build_s"]
    assert pq["change_wins"] == 10 and pq["claim_rule_met"]
    assert pq["parent"]["median"] == pytest.approx(5.45)
    assert pq["change_over_parent"] == pytest.approx(4.45 / 5.45)
    hnsw = table["hnsw"]["build_s"]
    assert hnsw["equal_pairs"] == 10 and not hnsw["claim_rule_met"]


def test_code_size_counts_src_lines_and_public_names(tmp_path):
    package = tmp_path / "src" / "annkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Doc."""\nfrom .a import x\n\n__all__ = [\n    "x",\n    "y",\n]\n')
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.code_size(tmp_path) == {"src_lines": 9, "all_names": 2}


def test_code_size_of_this_checkout_matches_the_package():
    import annkit

    size = bench_pairs.code_size(bench_pairs.ROOT)
    assert size["all_names"] == len(annkit.__all__)
    package = bench_pairs.ROOT / "src" / "annkit"
    assert size["src_lines"] == sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))
