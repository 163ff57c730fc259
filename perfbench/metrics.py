"""Metric names, units and their computation from a workload's Outcome.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced one. Every workload reports every name: a layer a workload does not
drive reports 0.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from workloads import FAMILIES, K, Outcome, resident

UNITS = {
    "setup_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "qps": "1/s",
    "recall_at_10": "ratio",
    "load_ms": "ms",
    "vidx_bytes": "B",
    "resident_bytes": "B",
}
# Gated in BENCHMARK.json. query_p99_us is printed beside them, not gated:
# its run-to-run spread on a shared two-core host is as wide as any bound.
END_TO_END = {name: unit for name, unit in UNITS.items() if name != "query_p99_us"}

# Traced callables and the aggregates reported for each. A count is the work
# counted at the span boundary (see tracer.COUNTERS), named as shown.
SPANS = {
    "distances.batch_scores": ("calls", "self_ms", "rows"),
    "distances.rank_order": ("self_ms",),
    "base.make_result": ("calls", "self_ms", "candidates"),
    "flat.search": ("self_ms",),
    "ivf.search": ("self_ms",),
    "ivf.probe_order": ("self_ms",),
    "sq.sq_decode_batch": ("self_ms", "rows"),
    "lsh.hamming_to": ("self_ms",),
    "lsh.encode_batch": ("self_ms",),
    "lsh.search": ("self_ms",),
    "rpforest.candidate_rows": ("self_ms",),
    "rpforest.rp_build": ("self_ms",),
    "kmeans.kmeans_fit": ("calls", "self_ms"),
    "kmeans.assign_to_centroids": ("calls", "self_ms", "pairs"),
    "pq.pq_train": ("self_ms",),
    "pq.pq_encode_batch": ("self_ms",),
    "pq.adc_table": ("self_ms",),
    "pq.adc_scores": ("self_ms", "codes"),
    "hnsw.insert": ("calls", "self_ms"),
    "hnsw.search": ("self_ms",),
    "persist.dump_index": ("self_ms",),
    "persist.load_index_bytes": ("self_ms",),
}

# Exact work counts per query, from the index's public inspection APIs.
WORK = {
    "ivf.candidates_per_query": "count",
    "ivf.useful_ratio": "ratio",
    "lsh.rerank_pool": "count",
    "rpforest.candidates_per_query": "count",
    "hnsw.visited_per_search": "count",
    "hnsw.mean_degree_l0": "count",
}

PER_FAMILY = {
    "build_s": "s",
    "query_p50_us": "us",
    "load_ms": "ms",
    "resident_bytes": "B",
    "memory_bytes_reported": "B",
    "resident_over_reported": "ratio",
}

PHASES = ("setup", "loop", "persist")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, fields in SPANS.items():
        for f in fields:
            units[f"{span}.{f}"] = {"calls": "count", "self_ms": "ms"}.get(f, "count")
    units.update(WORK)
    for fam in FAMILIES:
        for what in ("dump_index", "load_index_bytes"):
            units[f"persist.{fam}.{what}.self_ms"] = "ms"
        for what, unit in PER_FAMILY.items():
            units[f"{fam}.{what}"] = unit
    for phase in PHASES:
        for what in ("timed_ms", "unattributed_ms", "overhead_ms"):
            units[f"trace.{phase}.{what}"] = "ms"
    return units


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p99(values) -> float:
    return float(np.percentile(values, 99))


def families(out: Outcome) -> dict[str, dict]:
    """Per-family figures: timings, sizes and bytes held after a load."""
    rows = {}
    for fam in out.inputs.shape.families:
        lat = out.latency_ns.get(fam) or [0]
        held, reported = resident(out.blobs[fam]) if fam in out.blobs else (0, 0)
        rows[fam] = {
            "build_s": statistics.median(out.build_ns[fam] or [0]) / 1e9,
            "searches": len(out.latency_ns.get(fam, ())),
            "query_p50_us": statistics.median(lat) / 1e3,
            "query_p99_us": p99(lat) / 1e3,
            "qps": 1e9 / statistics.fmean(lat) if any(lat) else 0.0,
            "load_ms": statistics.median(out.load_ns.get(fam) or [0]) / 1e6,
            "vidx_bytes": len(out.blobs.get(fam, b"")),
            "resident_bytes": held,
            "memory_bytes_reported": reported,
        }
    return rows


def end_to_end(out: Outcome, fams: dict[str, dict]) -> dict[str, float]:
    """Raw end-to-end figures: times as the wall clock measured them."""
    live = [row for row in fams.values() if row["searches"]]
    return {
        "setup_s": statistics.median(out.setup_ns) / 1e9,
        "query_p50_us": gmean(row["query_p50_us"] for row in live),
        "query_p99_us": gmean(row["query_p99_us"] for row in live),
        "qps": gmean(row["qps"] for row in live),
        "recall_at_10": out.run.recall_sum / max(out.run.recall_n, 1),
        "load_ms": gmean(row["load_ms"] for row in fams.values() if row["load_ms"]),
        "vidx_bytes": sum(row["vidx_bytes"] for row in fams.values()),
        "resident_bytes": sum(row["resident_bytes"] for row in fams.values()),
    }


# Timed metrics and the phase whose reference samples state their speed.
# Builds cannot be interrupted to sample, so setup uses the whole run's.
PHASE_OF = {
    "setup_s": None,
    "query_p50_us": "loop",
    "query_p99_us": "loop",
    "qps": "loop",
    "load_ms": "persist",
}


def at_nominal_speed(raw: dict[str, float], out: Outcome) -> dict[str, float]:
    """The end-to-end metrics with every time stated at the nominal machine speed."""
    scaled = dict(raw)
    for name, phase in PHASE_OF.items():
        factor = out.run.speed.factor(phase)
        scaled[name] = raw[name] * factor if name == "qps" else raw[name] / factor
    return scaled


def extras(out: Outcome, raw: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Figures printed beside the gated end-to-end metrics."""
    run = out.run
    found = {
        "query_p99_us": (at_nominal_speed(raw, out)["query_p99_us"], "us"),
        "failed_frac": (run.failed / max(run.attempted, 1), "ratio"),
    }
    for phase in (None, "loop", "persist"):
        found[f"speed_{phase or 'run'}"] = (run.speed.factor(phase), "ratio")
    for name in PHASE_OF:
        found[f"raw_{name}"] = (raw[name], UNITS[name])
    if out.insert_ns:
        found["insert_p50_us"] = (statistics.median(out.insert_ns) / 1e3, "us")
        found["insert_p99_us"] = (p99(out.insert_ns) / 1e3, "us")
    return found


def work_counts(out: Outcome) -> dict[str, float]:
    """Exact per-query work, from inspection APIs and counted span boundaries."""
    inputs, found = out.inputs, dict.fromkeys(WORK, 0.0)
    queries = inputs.queries[False]
    cand = useful = probes = 0
    for fam in ("ivf-flat", "ivf-sq", "ivf-pq"):
        if fam in out.indexes:
            index = out.indexes[fam]
            for q in queries:
                c = len(index.probe_candidate_ids(q, index.nprobe))
                cand, useful, probes = cand + c, useful + min(K, c), probes + 1
    if probes:
        found["ivf.candidates_per_query"] = cand / probes
        found["ivf.useful_ratio"] = useful / cand
    if "hnsw" in out.indexes:
        graph = out.indexes["hnsw"]
        visited = []
        for q in queries:
            seen: set[int] = set()
            graph.search(q, K, visited_out=seen)
            visited.append(len(seen))
        found["hnsw.visited_per_search"] = statistics.fmean(visited)
        found["hnsw.mean_degree_l0"] = statistics.fmean(
            len(graph.neighbors_of(i, 0)) for i in graph.ids.tolist()
        )
    spans = out.tracer.spans
    pools = [
        s[4] for s in spans
        if s[0] == "distances.batch_scores" and s[3] >= 0 and spans[s[3]][0] == "lsh.search"
    ]
    if pools:
        found["lsh.rerank_pool"] = statistics.fmean(pools)
    forest = [s[4] for s in spans if s[0] == "rpforest.candidate_rows"]
    if forest:
        found["rpforest.candidates_per_query"] = statistics.fmean(forest)
    return found


def per_layer(out: Outcome, fams: dict[str, dict]) -> dict[str, float]:
    tracer = out.tracer
    found = dict.fromkeys(per_layer_units(), 0.0)
    for name, row in tracer.aggregate().items():
        for f in SPANS.get(name, ()):
            found[f"{name}.{f}"] = {"calls": row["calls"], "self_ms": row["self_ns"] / 1e6}.get(
                f, row["count"]
            )
    for (name, fam), row in tracer.aggregate(key=lambda s: (s[0], s[5][1])).items():
        key = f"persist.{fam}.{name.removeprefix('persist.')}.self_ms"
        if key in found:
            found[key] = row["self_ns"] / 1e6
    found.update(work_counts(out))
    for fam, row in fams.items():
        for what in PER_FAMILY:
            if what in row:
                found[f"{fam}.{what}"] = row[what]
        if row["memory_bytes_reported"]:
            found[f"{fam}.resident_over_reported"] = (
                row["resident_bytes"] / row["memory_bytes_reported"]
            )
    for phase, (untraced, traced) in out.phase_ns.items():
        found[f"trace.{phase}.timed_ms"] = traced / 1e6
        found[f"trace.{phase}.unattributed_ms"] = (traced - tracer.root_ns(phase)) / 1e6
        found[f"trace.{phase}.overhead_ms"] = (traced - untraced) / 1e6
    return found
