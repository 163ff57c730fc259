"""tools/bench_pairs.py: the pair summary, its claim rule and its no-regression
verdict, on synthetic runs."""

import importlib.util
import json
import subprocess
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


BOUNDS = {"load_ms": 0.25, "qps": 0.25}
NOISY = [40.0, 80.0, 45.0, 75.0, 50.0, 70.0, 55.0, 65.0, 42.0, 78.0]  # IQR / median 0.46


def test_a_median_past_its_bound_is_worse():
    table = bench_pairs.summarise(_pairs(PARENT, [p * 1.3 for p in PARENT], qps=(100.0, 70.0)),
                                  BETTER, BOUNDS)
    assert table["load_ms"]["bound"] == 0.25
    assert table["load_ms"]["regression"] == "worse"
    assert table["qps"]["regression"] == "worse"  # higher is better: 30% fewer
    assert "regression" not in table["raw_load_ms"]  # no bound given


def test_a_median_inside_its_bound_is_no_regression():
    table = bench_pairs.summarise(_pairs(PARENT, [p * 1.2 for p in PARENT], qps=(100.0, 80.0)),
                                  BETTER, BOUNDS)
    assert table["load_ms"]["change_wins"] == 0
    assert table["load_ms"]["regression"] == "none"
    assert table["qps"]["regression"] == "none"


def test_a_parent_spread_past_the_bound_is_unresolved():
    """Medians inside the bound prove nothing when the parent's own runs
    spread wider than it: the verdict is unresolved, not unchanged."""
    row = bench_pairs.summarise(_pairs(NOISY, [p + 1.0 for p in NOISY]), BETTER, BOUNDS)["load_ms"]
    assert row["parent_iqr"] > 0.25 * row["parent"]["median"]
    assert row["regression"] == "unresolved"
    row = bench_pairs.summarise(_pairs(NOISY, [p - 1.0 for p in NOISY]), BETTER, BOUNDS)["load_ms"]
    assert row["change_wins"] == 10 and row["regression"] == "unresolved"  # overlapping runs


def test_every_change_run_beating_every_parent_run_resolves_a_wide_spread():
    row = bench_pairs.summarise(_pairs(NOISY, [39.0] * 10), BETTER, BOUNDS)["load_ms"]
    assert row["regression"] == "none"
    row = bench_pairs.summarise(_pairs(NOISY, [40.0] * 10), BETTER, BOUNDS)["load_ms"]
    assert row["regression"] == "unresolved"  # ties the parent's best run


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
    assert bench_pairs.code_size(tmp_path) == {
        "src_lines": 9, "src_code_lines": 7, "all_names": 2,
        "module_code_lines": {"__init__.py": 5, "a.py": 2},
    }


_MIXED_SOURCE = '''"""Module
docstring."""

# a comment
X = 1  # code with a comment

class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # a comment
        return (1,
                2)


TEXT = """not a
docstring"""
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "annkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("__all__ = []\n")
    (package / "a.py").write_text(_MIXED_SOURCE)
    # __init__'s one line; X, class, def, both lines of the return and both of TEXT
    assert bench_pairs.code_size(tmp_path) == {
        "src_lines": 20, "src_code_lines": 8, "all_names": 0,
        "module_code_lines": {"__init__.py": 1, "a.py": 7},
    }


def test_code_size_of_this_checkout_matches_the_package():
    import annkit

    size = bench_pairs.code_size(bench_pairs.ROOT)
    assert size["all_names"] == len(annkit.__all__)
    package = bench_pairs.ROOT / "src" / "annkit"
    assert size["src_lines"] == sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))


def _git(cwd, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                          check=True, capture_output=True, text=True).stdout.strip()


def _has_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=bench_pairs.ROOT,
                              capture_output=True).returncode == 0
    except OSError:
        return False


needs_git = pytest.mark.skipif(not _has_git_checkout(), reason="needs a git checkout with a commit")


@needs_git
def test_snapshot_holds_the_working_tree_and_leaves_it_as_it_was(tmp_path):
    """A clean tree snapshots as HEAD; an edited tracked file and a staged
    new file go into the snapshot commit while the working tree and the
    index stay as they were; an untracked file stays out."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-qm", "first")
    assert bench_pairs.snapshot(tmp_path) == "HEAD"
    (tmp_path / "a.txt").write_text("two\n")
    (tmp_path / "b.txt").write_text("staged\n")
    _git(tmp_path, "add", "b.txt")
    (tmp_path / "c.txt").write_text("untracked\n")
    status = _git(tmp_path, "status", "--porcelain")
    commit = bench_pairs.snapshot(tmp_path)
    assert _git(tmp_path, "show", f"{commit}:a.txt") == "two"
    assert _git(tmp_path, "show", f"{commit}:b.txt") == "staged"
    assert "c.txt" not in _git(tmp_path, "ls-tree", "--name-only", commit)
    assert _git(tmp_path, "status", "--porcelain") == status


@needs_git
def test_change_side_is_extracted_like_the_parent(tmp_path):
    """With no pairs, the change side is still an extraction: its code is the
    working tree's, and `change` names HEAD exactly when no tracked file
    differs from it."""
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["code"]["change"] == bench_pairs.code_size(bench_pairs.ROOT)
    clean = _git(bench_pairs.ROOT, "status", "--porcelain", "--untracked-files=no") == ""
    assert (result["change"] == result["parent_commit"]) == clean
    assert result["pairs"] == {}


def test_insert_latency_is_compared_lower_better_without_a_bound():
    """graph-churn's insert_p50_us and insert_p99_us extras get a row, lower
    being better and no regression verdict; a workload without them gets none."""
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    better, bounds = bench_pairs.directions(bench)
    for name in ("insert_p50_us", "insert_p99_us"):
        assert better[name] == "lower" and name not in bounds
    assert bounds["raw_setup_s"] == bounds["setup_s"] and better["raw_qps"] == "higher"
    churn = _pairs(PARENT, PARENT)
    for pair in churn:
        for side, scale in (("parent", 1.0), ("change", 0.5)):
            pair[side]["extras"].update(insert_p50_us=scale * 4000.0, insert_p99_us=scale * 8000.0)
    table = bench_pairs.summarise(churn, better, bounds)
    for name in ("insert_p50_us", "insert_p99_us"):
        assert table[name]["change_wins"] == 10 and "regression" not in table[name]
    assert table["insert_p99_us"]["change_over_parent"] == pytest.approx(0.5)
    assert "insert_p50_us" not in bench_pairs.summarise(_pairs(PARENT, PARENT), better, bounds)


def test_control_pairs_are_spread_among_the_real_pairs():
    plan = bench_pairs.pair_plan([1, 2, 3, 4, 5, 6], 2)
    assert plan == [("change", 1), ("change", 2), ("control", 2), ("change", 3), ("change", 4),
                    ("control", 4), ("change", 5), ("change", 6)]
    assert bench_pairs.pair_plan([7, 8, 9], 2) == [
        ("change", 7), ("control", 7), ("change", 8), ("control", 8), ("change", 9)]
    assert bench_pairs.pair_plan([7, 8], 0) == [("change", 7), ("change", 8)]
    assert [kind for kind, _ in bench_pairs.pair_plan([7], 3)] == ["change"] + ["control"] * 3


def test_the_control_gives_its_ratio_and_pair_range():
    change = [p / 5 for p in PARENT]
    control = _pairs([60.0, 50.0, 40.0], [54.0, 55.0, 40.0])  # per-pair ratios 0.9, 1.1, 1.0
    row = bench_pairs.summarise(_pairs(PARENT, change), BETTER, control=control)["load_ms"]
    assert row["control"]["pairs"] == 3
    assert row["control"]["change_over_parent"] == pytest.approx(54.0 / 50.0)
    assert row["control"]["pair_ratio_range"] == pytest.approx([0.9, 1.1])
    assert row["claim_rule_met"]  # 0.2 lies below the control's range
    assert "control" not in bench_pairs.summarise(_pairs(PARENT, change), BETTER)["load_ms"]


def test_a_change_ratio_inside_the_control_range_is_no_claim():
    change = [p / 5 for p in PARENT]
    row = bench_pairs.summarise(_pairs(PARENT, change), BETTER)["load_ms"]
    assert row["claim_rule_met"]
    # Identical code once read a fifth of its own parent: the same gap proves nothing.
    control = _pairs([60.0, 60.0], [12.0, 66.0])  # ratios 0.2 and 1.1
    row = bench_pairs.summarise(_pairs(PARENT, change), BETTER, control=control)["load_ms"]
    assert row["change_over_parent"] == pytest.approx(0.2)
    assert not row["claim_rule_met"]
    families = bench_pairs.summarise_families(_pairs(PARENT, change), control)
    assert families["hnsw"]["load_ms"]["control"]["pairs"] == 2
    assert not families["hnsw"]["load_ms"]["claim_rule_met"]
