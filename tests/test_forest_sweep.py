"""tools/forest_sweep.py: the (n_trees, leaf_size) sweep on a tiny corpus."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "forest_sweep.py"
_SPEC = importlib.util.spec_from_file_location("forest_sweep", _PATH)
forest_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(forest_sweep)

_SHAPE = {"n_classes": 4, "per_class": 40, "held_out": 5, "dim": 8}
_PAIRS = [(2, 4), (3, 8)]
_REPEATABLE = ("spread", "seed", "metric", "n_trees", "leaf_size", "recall_at_10",
               "vidx_bytes", "memory_bytes")


def _sweep():
    return forest_sweep.sweep([0.3], [1], list(forest_sweep.METRICS), _PAIRS, **_SHAPE)


def test_sweep_rows_cover_every_pair_and_repeat_exactly():
    rows = _sweep()
    assert [(r["metric"], r["n_trees"], r["leaf_size"]) for r in rows] == [
        (metric, *pair) for metric in forest_sweep.METRICS for pair in _PAIRS]
    for r in rows:
        assert 0.0 <= r["recall_at_10"] <= 1.0
        assert r["p50_us"] > 0 and r["build_s"] > 0 and r["load_ms"] > 0
        assert r["vidx_bytes"] > 0 and r["memory_bytes"] > 0
    for metric in forest_sweep.METRICS:
        assert any(r["pareto"] for r in rows if r["metric"] == metric)
    again = _sweep()
    assert [[r[f] for f in _REPEATABLE] for r in rows] == [[r[f] for f in _REPEATABLE] for r in again]


def test_corpus_holds_out_the_last_rows_of_each_class():
    data, queries = forest_sweep.corpus(0.3, 1, unit=True, **_SHAPE)
    assert len(data) == 4 * 35 and queries.shape == (4 * 5, 8)
    assert data.ids.tolist() == [c * 40 + i for c in range(4) for i in range(35)]


def _row(metric, pair, recall, p50):
    return {"spread": 1.0, "seed": 1, "metric": metric, "n_trees": pair[0],
            "leaf_size": pair[1], "recall_at_10": recall, "p50_us": p50}


def test_pareto_and_dominating_pairs():
    rows = [
        _row("l2", (10, 16), 0.7, 100.0),
        _row("l2", (6, 48), 0.8, 50.0),   # dominates the baseline
        _row("l2", (5, 48), 0.6, 40.0),   # faster, but below the baseline's recall
        _row("l2", (8, 8), 0.8, 60.0),    # as good, but slower than (6, 48)
        _row("angular", (10, 16), 0.9, 100.0),
        _row("angular", (6, 48), 0.9, 80.0),
        _row("angular", (5, 48), 0.95, 30.0),
        _row("angular", (8, 8), 0.9, 80.0),
    ]
    forest_sweep.mark_pareto(rows)
    assert [r["pareto"] for r in rows] == [False, True, True, False, False, False, True, False]
    ranked = forest_sweep.dominating(rows, (10, 16))
    assert [pair[:2] for pair in ranked] == [(6, 48), (8, 8), (10, 16)]
    assert ranked[0][2] == pytest.approx((0.5 * 0.8) ** 0.5) and ranked[-1][2] == 1.0
