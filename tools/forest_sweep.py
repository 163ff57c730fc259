"""Sweep the forest's (n_trees, leaf_size) and report recall against cost.

    python3 tools/forest_sweep.py                     # the sweep behind the defaults
    python3 tools/forest_sweep.py --trees 6,10 --leaf 16,48 --seeds 1 --json sweep.json

Each corpus is ``gen_synthetic(32, 320, 64, spread, seed)``, split as
perfbench's scan shape splits it: the first 300 rows of each class are
indexed and the last 20 are the 640 queries. Angular forests index and query
the unit-normalized copy. For every spread, seed, forest metric and pair, a
forest is built with seed 0 and searched at its default budget (n_trees x k
leaves), and one row reports:

- recall@10 against the exact metric (``exact_search`` on the indexed set);
- the median single-query search time, the build time, the median VIDX load
  time, the VIDX size and ``memory_bytes()``; searches and loads interleave
  across the pairs of one corpus, so p50s compare within a corpus;
- ``pareto``: no other pair on the same corpus and metric has at least its
  recall at no more p50, with one of the two strictly better.

The summary lists the pairs whose recall@10 is at least the baseline pair's
(10 trees of 16-row leaves, the defaults before the sweep) on every corpus,
metric and seed, fastest first by the geometric mean of their p50 over the
baseline's. The forest defaults are the first of them.
BLAS runs on one thread: ``main`` re-executes the script with the thread
variables set when they are not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
K = 10
LOAD_REPS = 5
METRICS = ("angular", "l2", "manhattan")
BASELINE = (10, 16)  # (n_trees, leaf_size) of the forest defaults before the sweep


def corpus(spread: float, seed: int, unit: bool, n_classes=32, per_class=320, held_out=20, dim=64):
    """(indexed set, query vectors) of one seeded corpus, split per class."""
    from annkit.data import EmbeddingSet, gen_synthetic

    data = gen_synthetic(n_classes, per_class, dim, spread, seed)
    queried = np.arange(len(data)) % per_class >= per_class - held_out
    indexed = EmbeddingSet(data.ids[~queried], data.labels[~queried], data.vectors[~queried])
    queries = EmbeddingSet(data.ids[queried], data.labels[queried], data.vectors[queried])
    if unit:
        indexed, queries = indexed.normalized(), queries.normalized()
    return indexed, queries.vectors


def measure(data, queries, truth, metric, pairs) -> list[dict]:
    """Each pair's forest on one corpus: its recall@10 and costs.

    The searches interleave (each query runs on every forest in turn), and
    so do the loads, so a slow spell of the machine costs every pair alike.
    """
    from annkit.persist import dump_index, load_index_bytes
    from annkit.rpforest import rp_build

    forests, build_s = [], []
    for n_trees, leaf_size in pairs:
        start = time.perf_counter()
        forests.append(rp_build(data, n_trees=n_trees, leaf_size=leaf_size, metric=metric, seed=0))
        build_s.append(time.perf_counter() - start)
    hits, times = [0] * len(pairs), [[] for _ in pairs]
    for q, want in zip(queries, truth):
        for i, forest in enumerate(forests):
            start = time.perf_counter_ns()
            got = forest.search(q, K)
            times[i].append(time.perf_counter_ns() - start)
            hits[i] += len(want.intersection(got.ids))
    blobs, loads = [dump_index(forest) for forest in forests], [[] for _ in pairs]
    for _ in range(LOAD_REPS):
        for i, blob in enumerate(blobs):
            start = time.perf_counter_ns()
            load_index_bytes(blob)
            loads[i].append(time.perf_counter_ns() - start)
    return [
        {
            "n_trees": n_trees,
            "leaf_size": leaf_size,
            "recall_at_10": hits[i] / (K * len(queries)),
            "p50_us": statistics.median(times[i]) / 1e3,
            "build_s": build_s[i],
            "load_ms": statistics.median(loads[i]) / 1e6,
            "vidx_bytes": len(blobs[i]),
            "memory_bytes": forests[i].memory_bytes(),
        }
        for i, (n_trees, leaf_size) in enumerate(pairs)
    ]


def mark_pareto(rows: list[dict]) -> None:
    """Set each row's `pareto` within its (spread, seed, metric) group."""
    for row in rows:
        row["pareto"] = not any(
            (other["spread"], other["seed"], other["metric"]) == (row["spread"], row["seed"], row["metric"])
            and other["recall_at_10"] >= row["recall_at_10"]
            and other["p50_us"] <= row["p50_us"]
            and (other["recall_at_10"], -other["p50_us"]) != (row["recall_at_10"], -row["p50_us"])
            for other in rows
        )


def sweep(spreads, seeds, metrics, pairs, progress=None, **shape) -> list[dict]:
    """One row per (spread, seed, metric, pair), Pareto rows marked."""
    from annkit.distances import Metric
    from annkit.flat import exact_search

    rows = []
    for spread in spreads:
        for seed in seeds:
            for name in metrics:
                metric = Metric(name)
                data, queries = corpus(spread, seed, metric is Metric.ANGULAR, **shape)
                truth = [set(exact_search(data, q, K, metric).ids) for q in queries]
                for found in measure(data, queries, truth, metric, pairs):
                    rows.append({"spread": spread, "seed": seed, "metric": name, **found})
                    if progress:
                        progress(rows[-1])
    mark_pareto(rows)
    return rows


def dominating(rows: list[dict], baseline: tuple[int, int]) -> list[tuple[int, int, float]]:
    """(n_trees, leaf_size, p50 over the baseline's as a geometric mean) of every
    pair with at least the baseline's recall@10 on each corpus and metric,
    fastest first."""
    base = {(r["spread"], r["seed"], r["metric"]): r for r in rows
            if (r["n_trees"], r["leaf_size"]) == baseline}
    by_pair: dict[tuple[int, int], list[dict]] = {}
    for r in rows:
        by_pair.setdefault((r["n_trees"], r["leaf_size"]), []).append(r)
    out = []
    for pair, group in by_pair.items():
        keys = [(r["spread"], r["seed"], r["metric"]) for r in group]
        if any(r["recall_at_10"] < base[key]["recall_at_10"] for r, key in zip(group, keys)):
            continue
        ratio = math.exp(statistics.fmean(
            math.log(r["p50_us"] / base[key]["p50_us"]) for r, key in zip(group, keys)))
        out.append((*pair, ratio))
    return sorted(out, key=lambda item: item[2])


def show(row: dict) -> str:
    return (f"{row['spread']:6.2f} {row['seed']:4d} {row['metric']:9s} {row['n_trees']:5d} "
            f"{row['leaf_size']:4d} {row['recall_at_10']:9.4f} {row['p50_us']:8.1f} "
            f"{row['build_s']:7.3f} {row['load_ms']:7.2f} {row['vidx_bytes']:9d} "
            f"{row['memory_bytes']:9d}{'  *' if row.get('pareto') else ''}")


HEADER = (f"{'spread':>6s} {'seed':>4s} {'metric':9s} {'trees':>5s} {'leaf':>4s} "
          f"{'recall@10':>9s} {'p50 us':>8s} {'build s':>7s} {'load ms':>7s} "
          f"{'vidx B':>9s} {'memory B':>9s}  (* Pareto)")


def ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trees", type=ints, default=[4, 5, 6, 8, 10], help="n_trees values")
    parser.add_argument("--leaf", type=ints, default=[16, 32, 48, 64], help="leaf_size values")
    parser.add_argument("--spreads", type=lambda t: [float(x) for x in t.split(",")],
                        default=[0.05, 0.3, 1.0, 3.0])
    parser.add_argument("--seeds", type=ints, default=[1, 2], help="corpus seeds")
    parser.add_argument("--json", type=Path, help="also write every row to this file")
    args = parser.parse_args(argv)
    if any(os.environ.get(name) != "1" for name in BLAS_ONE_THREAD):
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, **BLAS_ONE_THREAD})
    sys.path.insert(0, str(ROOT / "src"))

    pairs = [(t, leaf) for t in args.trees for leaf in args.leaf]
    if BASELINE not in pairs:
        pairs.append(BASELINE)
    print(HEADER, flush=True)
    rows = sweep(args.spreads, args.seeds, METRICS, pairs,
                 progress=lambda row: print(show(row), flush=True))
    print(f"\nPareto rows:\n{HEADER}")
    print("\n".join(show(r) for r in rows if r["pareto"]))
    print(f"\npairs with at least {BASELINE[0]}x{BASELINE[1]}'s recall@10 everywhere, "
          "by p50 over it (geometric mean):")
    for n_trees, leaf_size, ratio in dominating(rows, BASELINE):
        print(f"  {n_trees:3d} trees, leaf {leaf_size:3d}: {ratio:.3f}")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
