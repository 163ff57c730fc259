"""The evaluation protocol: seeded query sampling, timing, metrics, reports.

A protocol run samples distinct query ids from the indexed set itself,
searches each with the query excluded (k+1 neighbors, the query id dropped),
and scores the retrieved lists both against the class labels
(precision/recall/F1/accuracy via majority-vote prediction, plus precision@k)
and against an exact-oracle neighbor set (recall@n) in the index's own
metric. A query that retrieves nothing scores 0 on both and is a wrong
prediction. Query timing uses a monotonic clock around the pure search call,
after a discarded 10-query warm-up pass; everything except the timing fields
is deterministic in the seed.
"""

from __future__ import annotations

import csv as _csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .base import VectorIndex, check_count, check_seed, search_excluding
from .data import EmbeddingSet
from .distances import Metric
from .evaluation import label_metrics, precision_at_k, recall_at_n
from .families import build_index, check_knobs, family
from .flat import ground_truth
from .persist import dump_index

WARMUP_QUERIES = 10


@dataclass
class ProtocolConfig:
    n_queries: int = 1000
    k: int = 6  # neighbors retrieved per query, the query itself excluded
    recall_n: int = 5  # oracle depth for recall@n
    seed: int = 0
    params: dict[str, dict] = field(default_factory=dict)  # per-family overrides

    def __post_init__(self) -> None:
        for name in ("n_queries", "k", "recall_n"):
            setattr(self, name, check_count(name, getattr(self, name)))
        self.seed = check_seed(self.seed)


# Field order is the CSV column order; the leading columns mirror the classic
# results-table layout (memory, P/R/F1, recall@n, index size, indexing time,
# query time), the rest are extras.
@dataclass
class BenchReport:
    family: str
    memory_estimate_mb: float
    precision: float
    recall: float
    f1: float
    recall_at_n: float
    index_size_mb: float
    indexing_time_ms: float
    avg_query_time_us: float
    qps: float
    accuracy: float
    precision_at_k: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    config: dict

    TIMING_FIELDS = ("indexing_time_ms", "avg_query_time_us", "qps")


def sample_query_rows(n: int, n_queries: int, seed: int) -> np.ndarray:
    """Distinct query rows, seeded, without replacement."""
    if n_queries > n:
        raise ValueError(f"n_queries={n_queries} exceeds the set size {n}")
    return np.random.default_rng(seed).choice(n, size=n_queries, replace=False)


def run_protocol(
    index: VectorIndex,
    emb_set: EmbeddingSet,
    config: ProtocolConfig,
    indexing_time_ms: float = 0.0,
    truth: dict[int, list[int]] | None = None,
) -> BenchReport:
    """Benchmark one built index over the set it was built from, in its metric."""
    rows = sample_query_rows(len(emb_set), config.n_queries, config.seed)
    query_ids = emb_set.ids[rows]
    if truth is None:
        truth = ground_truth(emb_set, query_ids, config.recall_n, index.metric)

    for row in rows[:WARMUP_QUERIES]:  # warm-up pass, discarded
        search_excluding(index, emb_set.vectors[row], config.k, int(emb_set.ids[row]))

    outcomes: list[tuple[int, list[int]]] = []
    p_at_k: list[float] = []
    r_at_n: list[float] = []
    elapsed_ns: list[int] = []
    for row in rows:
        qid = int(emb_set.ids[row])
        query = emb_set.vectors[row]
        start = time.perf_counter_ns()
        res = search_excluding(index, query, config.k, qid)
        elapsed_ns.append(time.perf_counter_ns() - start)
        ids = res.ids
        assert qid not in ids, "query id leaked into its own result list"
        labels = [emb_set.label_of(i) for i in ids]
        outcomes.append((emb_set.label_of(qid), labels))
        p_at_k.append(precision_at_k(emb_set.label_of(qid), labels) if labels else 0.0)
        r_at_n.append(recall_at_n(ids, truth[qid]))

    avg_us = float(np.mean(elapsed_ns)) / 1_000.0
    config_echo = {
        "n_queries": config.n_queries,
        "k": config.k,
        "recall_n": config.recall_n,
        "seed": config.seed,
        "metric": index.metric.value,
        "index": index.config(),
    }
    return BenchReport(
        family=index.family,
        memory_estimate_mb=index.memory_bytes() / 2**20,
        recall_at_n=float(np.mean(r_at_n)),
        index_size_mb=len(dump_index(index)) / 2**20,
        indexing_time_ms=indexing_time_ms,
        avg_query_time_us=avg_us,
        qps=1e6 / avg_us if avg_us > 0 else 0.0,
        precision_at_k=float(np.mean(p_at_k)),
        config=config_echo,
        **asdict(label_metrics(outcomes)),
    )


def run_benchmark(
    emb_set: EmbeddingSet,
    families: Sequence[str],
    config: ProtocolConfig,
    progress: Callable[[str], None] | None = None,
) -> list[BenchReport]:
    """Build and benchmark each family; ground truth is cached per (metric,
    normalized set), so families that index the same vectors in the same
    metric share one oracle pass. Every family name and every `config.params`
    entry (requested or not) passes `check_knobs` before the first build."""
    for name in [*families, *config.params]:
        check_knobs(name, config.params.get(name, {}))
    reports = []
    truth_cache: dict[tuple[Metric, bool], dict[int, list[int]]] = {}
    for name in families:
        unit = family(name).unit
        if progress:
            progress(f"benchmarking {name}")
        data = emb_set.normalized() if unit else emb_set
        start = time.perf_counter_ns()
        index = build_index(data, name, seed=config.seed, **config.params.get(name, {}))
        indexing_ms = (time.perf_counter_ns() - start) / 1e6

        key = (index.metric, unit)
        if key not in truth_cache:
            rows = sample_query_rows(len(data), config.n_queries, config.seed)
            truth_cache[key] = ground_truth(
                data, data.ids[rows], config.recall_n, index.metric
            )
        reports.append(
            run_protocol(index, data, config, indexing_ms, truth=truth_cache[key])
        )
    return reports


# ------------------------------------------------------------------- reports

def write_report(reports: Sequence[BenchReport], path: str | Path, fmt: str = "json") -> None:
    """Serialize reports; JSON round-trips losslessly for non-timing fields."""
    if not reports:
        raise ValueError("cannot write an empty report list")
    rows = [asdict(r) for r in reports]
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=2) + "\n")
    elif fmt == "csv":
        columns = list(rows[0].keys())
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow(
                    [json.dumps(v) if isinstance(v, dict) else v for v in row.values()]
                )
    else:
        raise ValueError(f"unknown report format {fmt!r}")
